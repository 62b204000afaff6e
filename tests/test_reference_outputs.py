"""The benchmark's jobs reproduce their stored outputs.

Every ``kind == "exact"`` job of ``bench/workloads.reference_jobs()`` is run
through ``centerlab.cli.main`` with ``--no-timings`` and its JSON compared
with ``bench/refs/<ref_id>.json``.  A change that keeps the mathematics but
alters a single output byte fails here, not only in the benchmark.

Every job of the ``evidence`` workload at the seeds 0 to 2 (return maps,
``classify`` and ``qhcenter`` sweeps with their float outputs, and the exact
structural jobs) is run the same way and judged by the benchmark's own
``bench/checks.check``: verdicts, keys and warnings exactly, floats within
its ``RTOL``/``ATOL``.  Nothing under ``bench/`` is changed.
"""

import sys
from pathlib import Path

import pytest

from centerlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

EXACT_JOBS = [j for j in workloads.reference_jobs() if j.kind == "exact"]
EVIDENCE_JOBS = [(seed, job) for seed in range(3) for job in workloads.evidence(seed).jobs]


def test_reference_jobs_cover_exact_workloads():
    assert len(EXACT_JOBS) >= 19
    assert all((BENCH / "refs" / f"{j.ref_id}.json").is_file() for j in EXACT_JOBS)


def _run(job, tmp_path) -> bytes:
    """The job's ``--no-timings`` output, run in process."""
    argv = list(job.argv)
    argv[1] = str(ROOT / argv[1])
    out = tmp_path / "out.json"
    assert main(argv + ["--no-timings", "-o", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("job", EXACT_JOBS, ids=lambda j: j.id)
def test_exact_job_output_is_byte_equal(job, tmp_path):
    assert _run(job, tmp_path) == (BENCH / "refs" / f"{job.ref_id}.json").read_bytes()


@pytest.mark.parametrize("seed,job", EVIDENCE_JOBS, ids=lambda v: str(v) if isinstance(v, int)
                         else v.id)
def test_evidence_job_passes_the_benchmark_check(seed, job, tmp_path):
    refs = checks.References([job])
    assert checks.check(job, _run(job, tmp_path), refs) is None
