"""The benchmark's exact jobs reproduce their stored outputs byte for byte.

Every ``kind == "exact"`` job of ``bench/workloads.reference_jobs()`` is run
through ``centerlab.cli.main`` with ``--no-timings`` and its JSON compared
with ``bench/refs/<ref_id>.json``.  A change that keeps the mathematics but
alters a single output byte fails here, not only in the benchmark.
"""

import sys
from pathlib import Path

import pytest

from centerlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

EXACT_JOBS = [j for j in workloads.reference_jobs() if j.kind == "exact"]


def test_reference_jobs_cover_exact_workloads():
    assert len(EXACT_JOBS) >= 19
    assert all((BENCH / "refs" / f"{j.ref_id}.json").is_file() for j in EXACT_JOBS)


@pytest.mark.parametrize("job", EXACT_JOBS, ids=lambda j: j.id)
def test_exact_job_output_is_byte_equal(job, tmp_path):
    argv = list(job.argv)
    argv[1] = str(ROOT / argv[1])
    out = tmp_path / "out.json"
    assert main(argv + ["--no-timings", "-o", str(out)]) == 0
    assert out.read_bytes() == (BENCH / "refs" / f"{job.ref_id}.json").read_bytes()
