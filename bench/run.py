"""centerlab benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload exact-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``centerlab`` is imported from its ``src/``.
Each run starts fresh single-threaded interpreters (``worker.py``): several
that only set up, to time set-up, and one that runs whole passes over the
workload's jobs in a closed loop (one client, the next job starts when the
previous one ends) for ``--seconds``, checking every output.  Job timings
are normalised to a fixed machine speed with the reference probe that runs
beside every job (``probe.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The lines before it
print the same metrics for a reader.  The full record of the run is written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import probe
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_STARTS = 8
RUN_DEADLINE_S = 170
# the worker's environment: the same program whatever the caller exported
DROP_ENV = ("CENTERLAB_THREADS", "CENTERLAB_NO_GMPY2")
SET_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROP_ENV}
    env.update(SET_ENV, PYTHONPATH=str(ROOT / "src"))
    return env


def _start(args, extra):
    """Start a worker and wait for its ``ready`` line; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        _stop(proc)
        raise
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not set up (exit code {proc.returncode})")
    return proc, setup


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups, setup_probes, record_text = [], [], ""
    # half the set-up-only starts run before the measured worker and half
    # after it, so that the median does not rest on one moment of a shared
    # machine; each is bracketed by reference probes
    half = SETUP_STARTS // 2
    for i in range(SETUP_STARTS + 1):
        measured = i == half
        before = probe.probe()
        proc, setup = _start(args, [] if measured else ["--setup-only"])
        try:
            text, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"run did not finish within {RUN_DEADLINE_S} s")
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        if measured:
            record_text = text
        else:
            setups.append(setup)
            setup_probes.append((before, probe.probe()))
    if not record_text.strip():
        raise BenchError("worker wrote no record")
    record = json.loads(record_text.strip().splitlines()[-1])
    record["setup_samples"] = setups
    record["setup_probes"] = setup_probes
    return record


def _normalised(samples, probes) -> list:
    return [probe.normalised(t, before, after) for t, (before, after) in zip(samples, probes)]


def job_times(record: dict) -> list:
    """Every timed job's seconds at the reference probe speed."""
    return _normalised(record["samples"], record["sample_probes"])


def end_to_end(record: dict) -> dict:
    times = job_times(record)
    return {
        "setup_s": (stats.median(_normalised(record["setup_samples"],
                                             record["setup_probes"])), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_s": (stats.hd_percentile(times, 50.0), "s"),
        "job_tail_s": (stats.hd_percentile(times, record["tail_percentile"]), "s"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(record: dict) -> dict:
    units = {"self_s": "s", "steps_per_s": "1/s", "coeff_max_bits": "bits",
             "cancel_ratio": "ratio", "overhead_frac": "ratio"}
    return {k: (v, units.get(k.rsplit(".", 1)[1], "count"))
            for k, v in sorted(record["layers"].items())}


def report(args, record: dict) -> dict:
    metrics = per_layer(record) if args.trace else end_to_end(record)
    times = job_times(record)
    p = record["tail_percentile"]
    n, failed = record["attempted"], record["failed"]
    print(f"centerlab benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{'traced' if args.trace else 'untraced'}, {record['passes']} passes of "
          f"{record['jobs_per_pass']} jobs, {n} jobs, closed loop, 1 client")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "job_tail_s":
            extra = (f"  (Harrell-Davis p{p:g} of {len(times)} jobs, "
                     f"{stats.beyond(times, p)} beyond it)")
        elif name == "setup_s":
            extra = (f"  (median of {len(record['setup_samples'])} interpreter starts; "
                     f"wall clock {stats.median(record['setup_samples']):.6g} s)")
        print(f"  {name:<36} {value:>14.6g} {unit}{extra}")
    print(f"  {'failed_frac':<36} {failed / n:>14.6g} ratio  ({failed} of {n} jobs)")
    if not args.trace:
        probes = [b for b, _ in record["sample_probes"]]
        print(f"  job times are at the reference probe speed ({probe.PROBE_REF_S * 1e3:g} ms); "
              f"this run's probe took {stats.median(probes) * 1e3:.3g} ms (median), "
              f"{min(probes) * 1e3:.3g} ms (fastest); "
              f"wall-clock job p50 {stats.median(record['samples']):.6g} s")
    for f in record["failures"]:
        print(f"  FAILED {f['job']} (pass {f['pass']}): {f['problem']}")
    for key in record.get("trace_missing", []):
        print(f"  warning: no such function to trace: {key}")
    for key in record.get("unsteady_counts", []):
        print(f"  warning: count {key} differs between traced passes")
    if not args.trace and stats.beyond(times, p) < stats.MIN_BEYOND:
        print(f"  warning: fewer than {stats.MIN_BEYOND} samples beyond the tail")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds like a failed one, so the worker is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "centerlab" / "__init__.py").is_file():
        print(f"no centerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except (BenchError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, record)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
