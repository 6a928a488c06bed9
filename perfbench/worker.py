"""Run one orbimirror CLI job in this fresh interpreter and print its measurements.

    python -I -S worker.py SRC_DIR SPANS_FILE|- ARGV...

SRC_DIR is put on sys.path and ``orbimirror.cli`` is imported (timed as
``setup_s``).  The timed region is the ``main(ARGV)`` call, with the report
captured and hashed inside it.  With a SPANS_FILE the job runs traced: its
spans go to that file, under the job id taken from the file name, and
per-function totals go into the printed result.  The last line of standard
output is one JSON object.
"""

import sys
import time


def peak_rss_kib() -> int:
    """This process's own peak resident set (VmHWM).  It starts afresh at
    exec, unlike ``ru_maxrss``, which can carry the peak of the parent that
    forked the process."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, spans_file, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from orbimirror import cli
    setup_s = time.perf_counter() - start

    import io
    import json
    import os

    sys.path.append(os.path.dirname(os.path.abspath(__file__)))
    import gate

    run = cli.main
    tracer = None
    if spans_file != "-":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        run = tracer.wrap(spans.ROOT, cli.main)

    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    error = None
    sys.stdout, sys.stderr = out, err
    cpu = time.process_time()
    wall = time.perf_counter()
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash fails the job; the benchmark goes on
        code, error = None, f"crash: {type(exc).__name__}: {exc}"
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    sha256, report = gate.digest(out.getvalue(), err.getvalue()) if error is None else (None, None)
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mib": peak_rss_kib() / 1024,
        "code": code,
        "error": error,
        "refusal": gate.refusal(err.getvalue()) if report is None else None,
        "sha256": sha256,
        "invariants": gate.invariants(report),
    }
    if tracer is not None:
        tracer.remove()
        with open(spans_file, "w", encoding="utf-8") as fh:
            job_id = os.path.splitext(os.path.basename(spans_file))[0]
            json.dump({"job": job_id, "spans": tracer.spans}, fh, separators=(",", ":"))
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
