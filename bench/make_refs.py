"""Write the stored reference outputs under bench/refs/.

    python3 bench/make_refs.py

Run once at the commit whose outputs the benchmark holds every later commit
to.  Exact jobs store their ``--no-timings`` output; seeded evidence jobs
store one output that covers every input a seed can draw (all radii, the
whole sweep grid), which the checks narrow to the job's own inputs.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFS = ROOT / "bench" / "refs"


def main() -> int:
    for name in run.DROP_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    from centerlab import cli

    REFS.mkdir(exist_ok=True)
    jobs = [(j.id, list(j.argv)) for j in workloads.reference_jobs()]
    for name, path, _ in workloads.RETURNMAP_SYSTEMS:
        jobs.append((f"returnmap-{name}", ["returnmap", path]
                     + [a for r in workloads.RADII for a in ("--x0", r)]))
    jobs.append(("classify-revnil", ["classify", workloads.S + "reversible_nilpotent.sys"]))
    jobs.append(("qhcenter-sweep", list(workloads.QH_ARGV)
                 + ["--sweep", f"mu=0:{workloads.SWEEP_MAX}:1/8"]))
    for job_id, argv in jobs:
        argv[1] = str(ROOT / argv[1])
        rc = cli.main(argv + ["--no-timings", "-o", str(REFS / f"{job_id}.json")])
        if rc != 0:
            print(f"{job_id}: exit code {rc}", file=sys.stderr)
            return 1
        print(job_id)
    return 0


if __name__ == "__main__":
    sys.exit(main())
