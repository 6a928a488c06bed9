"""Job lists of the three benchmark workloads, the ladder fans, and seeded relabeling.

A job is one CLI invocation: ``(job_id, argv)`` where ``argv`` is what
``orbimirror.cli.main`` receives.  Jobs name their fan documents by path; the
documents are written (relabeled for seeds other than 0) into a work
directory before the first pass.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Commands that take one fan document, in the order the corpus runs them.
SINGLE_DOC_COMMANDS = ("validate", "box", "cohomology", "picard", "superpotential",
                       "gkz", "ifunction", "mirror-map", "all")

# (stacky fan, resolution) pairs among the corpus documents.
RESOLUTION_PAIRS = (("p112", "p112_noncrepant_resolution"),
                    ("p123", "p123_resolution"))


def weighted_projective_plane(a: int, b: int) -> dict:
    """P(1,a,b): rays e1, e2, -(a,b); every 2-subset of rays spans a cone."""
    return {"rank": 2, "rays": [[1, 0], [0, 1], [-a, -b]],
            "max_cones": [[1, 2], [2, 3], [1, 3]]}


def smooth_polygon(m: int) -> dict:
    """Smooth complete fan with m rays: (1,0), (k,1) for k = m-4..1, (0,1),
    (-1,0), (0,-1), consecutive rays spanning the cones."""
    rays = [[1, 0]] + [[k, 1] for k in range(m - 4, 0, -1)] + [[0, 1], [-1, 0], [0, -1]]
    cones = [[i + 1, (i + 1) % m + 1] for i in range(m)]
    return {"rank": 2, "rays": rays, "max_cones": cones}


def sheared_p123() -> dict:
    """P(1,2,3) of ``p123.json`` after the shear (x, y) -> (x + y, y)."""
    return {"rank": 2, "rays": [[1, 0], [1, 1], [-5, -3]],
            "max_cones": [[1, 2], [2, 3], [1, 3]]}


def ladder_documents() -> dict[str, dict]:
    return {"p125": weighted_projective_plane(2, 5),
            "p135": weighted_projective_plane(3, 5),
            "smooth12": smooth_polygon(12),
            "smooth10": smooth_polygon(10),
            "p123_sheared": sheared_p123()}


def relabel(doc: dict, perm: list[int]) -> dict:
    """Ray i (0-based) of ``doc`` becomes ray perm[i]; cones follow their rays."""
    rays = [None] * len(perm)
    for old, new in enumerate(perm):
        rays[new] = doc["rays"][old]
    cones = [[perm[i - 1] + 1 for i in cone] for cone in doc["max_cones"]]
    return {"rank": doc["rank"], "rays": rays, "max_cones": cones}


def seeded_documents(base: dict[str, dict], seed: int) -> dict[str, dict]:
    """Relabel every document; seed 0 keeps them as written.

    A resolution's leading rays follow the permutation of its stacky fan,
    because ResolutionPair requires them to match ray for ray; only the new
    rays are permuted among themselves.  Coordinates never change: a change
    of coordinates alters the cost of the N-decomposition search by an order
    of magnitude, which would make seeds incomparable.
    """
    rng = random.Random(seed)
    perms = {}
    for name in sorted(base):
        n = len(base[name]["rays"])
        perm = list(range(n))
        if seed:
            rng.shuffle(perm)
        perms[name] = perm
    for x, z in RESOLUTION_PAIRS:
        if x in base and z in base:
            head = perms[x]
            tail = list(range(len(head), len(base[z]["rays"])))
            if seed:
                random.Random(f"{seed}:{z}").shuffle(tail)
            perms[z] = head + tail
    return {name: relabel(doc, perms[name]) for name, doc in base.items()}


def corpus_documents(data_dir: Path) -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text()) for p in sorted(data_dir.glob("*.json"))}


def corpus_jobs(names) -> list[tuple[str, list[str]]]:
    """Every command at its default order on every document, both resolution
    pairs, and --emit-certificates once per command that emits certificates."""
    jobs = []
    for name in sorted(names):
        for command in SINGLE_DOC_COMMANDS:
            jobs.append((f"{command}:{name}", [command, name]))
    for x, z in RESOLUTION_PAIRS:
        for command in ("crepant", "global-moduli"):
            jobs.append((f"{command}:{x}+{z}", [command, x, "--resolution", z]))
    jobs.append(("cohomology:p123:certificates",
                 ["cohomology", "p123", "--emit-certificates"]))
    jobs.append(("global-moduli:p123+p123_resolution:certificates",
                 ["global-moduli", "p123", "--resolution", "p123_resolution",
                  "--emit-certificates"]))
    return jobs


SERIES_JOBS = [
    ("all:p123:order5", ["all", "p123", "--order", "5"]),
    ("ifunction:p123:order7", ["ifunction", "p123", "--order", "7"]),
    ("mirror-map:p123:order7", ["mirror-map", "p123", "--order", "7"]),
    ("all:f2:order7", ["all", "f2", "--order", "7"]),
    ("all:p113:order7", ["all", "p113", "--order", "7"]),
    ("all:p1113:order7", ["all", "p1113", "--order", "7"]),
]

LADDER_JOBS = [
    ("picard:p125", ["picard", "p125"]),
    ("picard:p135", ["picard", "p135"]),
    ("picard:smooth12", ["picard", "smooth12"]),
    ("cohomology:smooth10", ["cohomology", "smooth10"]),
    ("picard:p123_sheared", ["picard", "p123_sheared"]),
]
