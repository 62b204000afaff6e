"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The smoke and repeat tests start real benchmark runs of about one pass each
(roughly a minute in all on two cores).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import probe  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import self_times  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("mpoly.mul.calls", "mpoly.try_div.calls", "mpoly.gcd.calls",
                "ratfunc.normalize.calls", "linalg.bareiss.calls", "liapunov.compute.calls",
                "mpoly.mul.term_products", "liapunov.degrees_solved", "numeric.steps",
                "numeric.integrate.calls", "mpoly.coeff_max_bits")


def run_bench(workload, seed, trace, seconds=1):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def test_self_times_on_hand_built_tree():
    # cli [0,10] > a [1,4] > b [2,3];  cli > a [5,9] > a [6,7]
    names = ["cli", "a", "b", "a", "a"]
    parents = [-1, 0, 1, 0, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0]
    own = self_times(names, parents, starts, ends)
    assert own == {"cli": 3.0, "a": 6.0, "b": 1.0}
    assert sum(own.values()) == 10.0


def test_tail_percentile_rule():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 52.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(10000) == 99.9
    values = [float(i) for i in range(1, 41)]
    assert stats.percentile(values, 75.0) == 30.25
    assert stats.beyond(values, 75.0) == 10
    # the highest ladder percentile with at least ten distinct samples beyond it
    for n in range(20, 400):
        values = [float(i) for i in range(n)]
        p = stats.tail_percentile(n)
        assert stats.beyond(values, p) >= stats.MIN_BEYOND, n
        higher = [q for q in stats.TAIL_LADDER if q > p]
        assert not higher or stats.beyond(values, higher[0]) < stats.MIN_BEYOND, n


def test_harrell_davis_percentiles():
    assert stats.betainc(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)
    assert stats.betainc(2.5, 2.5, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert stats.betainc(1.0, 4.0, 0.2) == pytest.approx(1 - 0.8 ** 4, abs=1e-14)
    assert stats.hd_percentile([3.0, 1.0, 2.0], 50.0) == pytest.approx(2.0, abs=1e-14)
    assert stats.hd_percentile([7.0] * 40, 93.0) == pytest.approx(7.0, abs=1e-12)
    values = [float(i) for i in range(1, 101)]
    assert stats.hd_percentile(values, 50.0) == pytest.approx(50.5, abs=1e-9)
    assert 89.0 < stats.hd_percentile(values, 90.0) < 92.0


def test_harrell_davis_matches_scipy():
    np = pytest.importorskip("numpy")
    mstats = pytest.importorskip("scipy.stats.mstats")
    values = [((i * 7919) % 101) / 10.0 + 0.01 * i for i in range(1, 120)]
    for p in (50.0, 82.0, 93.0, 99.9):
        want = float(mstats.hdquantiles(np.array(values), prob=[p / 100.0])[0])
        assert stats.hd_percentile(values, p) == pytest.approx(want, rel=1e-12)


def test_workload_tail_percentiles_leave_ten_samples_beyond_at_the_baseline():
    baseline = json.loads((BENCH / "baseline.json").read_text())
    for name in workloads.WORKLOADS:
        fewest = min(baseline[name]["samples"])
        assert baseline[name]["tail_percentile"] == workloads.get(name, 0).tail_percentile
        assert workloads.get(name, 0).tail_percentile <= stats.tail_percentile(fewest), name


def test_known_sets_parse_and_compare_up_to_sign():
    doc = json.loads((checks.REFS / "family-b-d6.json").read_text())
    assert checks.oracle_mismatch(doc, "equal", workloads.FAMILY_B_SET) is None
    assert checks.oracle_mismatch(doc, "subset", workloads.FAMILY_B_SET[:2]) is not None
    assert checks.parse_monomial_sum("3*a02^3*a11 - 2*L") == {
        frozenset({("a02", 3), ("a11", 1)}): 3, frozenset({("L", 1)}): -2}


def test_checks_reject_changed_outputs():
    wl = workloads.evidence(5)
    refs = checks.References(wl.jobs)
    job = next(j for j in wl.jobs if j.kind == "returnmap")
    doc = refs.expected(job)
    assert checks.check(job, json.dumps(doc).encode(), refs) is None
    doc["numeric"]["samples"][0]["return_time"] *= 1 + 1e-5
    assert "return_time" in checks.check(job, json.dumps(doc).encode(), refs)
    exact = workloads.exact_deep().jobs[0]
    exact_refs = checks.References([exact])
    data = (checks.REFS / f"{exact.id}.json").read_bytes()
    assert checks.check(exact, data, exact_refs) is None
    assert checks.check(exact, data.replace(b"3", b"4", 1), exact_refs) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    text, result = run_bench(workload, seed=11, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_frac" in text


@pytest.mark.parametrize("workload", ("exact-deep", "evidence"))
def test_traced_counts_repeat_exactly(workload):
    _, first = run_bench(workload, seed=3, trace=1)
    _, second = run_bench(workload, seed=3, trace=1)
    assert first["correct"] and second["correct"]
    for key in EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert set(first["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}


def test_normalised_times_scale_with_the_probes_beside_them():
    ref = probe.PROBE_REF_S
    assert probe.normalised(1.0, ref, ref) == 1.0
    assert probe.normalised(1.0, 2 * ref, 2 * ref) == 0.5
    assert probe.normalised(1.0, ref, 3 * ref) == 0.5
    assert probe.probe() > 0
