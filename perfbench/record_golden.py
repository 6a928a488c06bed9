"""Write golden.json: each job's exit code, report SHA-256 and invariants at seed 0.

    python3 perfbench/record_golden.py

Run it only at a commit whose reports are known to be right; the benchmark
then counts every job that disagrees with the record as failed.
"""

import json
import sys
import time

import gate
import run


def main() -> int:
    jobs = {}
    for workload in run.WORKLOADS:
        for job_id, argv in run.prepare(workload, 0, run.OUT / f"record-{workload}"):
            outcome = run.run_job(argv, None, run.JOB_LIMIT_S)
            if outcome.get("error"):
                print(f"{job_id}: {outcome['error']}", file=sys.stderr)
                return 1
            jobs[job_id] = {"exit": outcome["code"], "sha256": outcome["sha256"],
                            "invariants": outcome["invariants"]}
            print(f"{job_id} exit {outcome['code']} {outcome['wall_s']:.3f} s")
    for job_id, reference in gate.SAME_INVARIANTS.items():
        if jobs[job_id]["invariants"] != jobs[reference]["invariants"]:
            print(f"{job_id} invariants differ from {reference}", file=sys.stderr)
            return 1
    record = {"recorded": time.strftime("%Y-%m-%d"), "python": sys.version.split()[0],
              "jobs": jobs}
    run.GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
