"""One measured run of a workload, inside a fresh interpreter.

Started by ``run.py``.  It imports ``centerlab``, builds the workload and
loads the stored references, then writes ``ready`` on its protocol stream:
everything up to that line is set-up.  Unless ``--setup-only`` is given it
then runs one untimed warm-up pass and timed whole passes over the
workload's jobs, one job at a time, until ``--seconds`` have elapsed, checks
every output, and writes one JSON record.  The reference probe
(``probe.py``) runs before the first job and after every job, so each job
has a probe time right before and right after it.

With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the tracing overhead, the traced ones the per-layer numbers.  The
protocol stream is a duplicate of stdout; ``sys.stdout`` itself is sent to
stderr so that nothing a job prints can corrupt it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import checks
import probe
import stats
import workloads
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _run_job(cli, argv):
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:
        return 1, traceback.format_exc(limit=3)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    import centerlab
    from centerlab import cli

    if Path(centerlab.__file__).resolve().parent != ROOT / "src" / "centerlab":
        print(f"centerlab imported from {centerlab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    wl = workloads.get(args.workload, args.seed)
    refs = checks.References(wl.jobs)
    argvs = {j.id: [j.argv[0], str(ROOT / j.argv[1]), *j.argv[2:]] for j in wl.jobs}
    proto.write("ready\n")
    proto.flush()
    if args.setup_only:
        return 0

    outdir = OUT / f"{wl.name}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    order_rng = random.Random(f"order-{args.seed}")
    tracer = Tracer() if args.trace else None
    samples, sample_jobs, sample_probes, failures, pass_layers = [], [], [], [], []
    pass_times = {False: [], True: []}
    attempted = 0
    n_pass = 0
    before = probe.probe()
    while True:
        # pass 0 warms up and is not timed; traced runs then alternate
        # traced and untraced passes
        warmup = n_pass == 0
        traced = tracer is not None and n_pass % 2 == 1
        if n_pass == 1:
            t_run = time.perf_counter()
        order = list(wl.jobs)
        order_rng.shuffle(order)
        if traced:
            tracer.counts = {}
            lo = tracer.mark()
            tracer.install()
        spent = 0.0
        for job in order:
            out = outdir / f"{job.id}.json"
            if out.exists():
                out.unlink()
            argv = argvs[job.id] + ["--no-timings", "-o", str(out)]
            span = tracer.open("cli") if traced else None
            t0 = time.perf_counter()
            rc, crash = _run_job(cli, argv)
            dt = time.perf_counter() - t0
            if traced:
                tracer.close(span)
            after = probe.probe()
            spent += dt
            attempted += 1
            if not (traced or warmup):
                samples.append(dt)
                sample_jobs.append(job.id)
                sample_probes.append((before, after))
            before = after
            if rc != 0:
                problem = f"exit code {rc}" + (f": {crash}" if crash else "")
            elif not out.exists():
                problem = "no output file"
            else:
                problem = checks.check(job, out.read_bytes(), refs)
            if problem:
                failures.append({"job": job.id, "pass": n_pass, "problem": problem})
        if traced:
            tracer.unpatch()
            pass_layers.append(layer_metrics(tracer.summary(lo, tracer.mark()),
                                             tracer.counts))
        if not warmup:
            pass_times[traced].append(spent)
        n_pass += 1
        if n_pass > 1 + (tracer is not None) \
                and time.perf_counter() - t_run >= args.seconds:
            break

    record = {
        "workload": wl.name, "seed": args.seed, "jobs_per_pass": len(wl.jobs),
        "passes": n_pass, "attempted": attempted, "failed": len(failures),
        "failures": failures[:20], "samples": samples, "sample_jobs": sample_jobs,
        "sample_probes": sample_probes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "tail_percentile": wl.tail_percentile,
    }
    if tracer is not None:
        record["trace_missing"] = tracer.missing
        record["layers"], record["unsteady_counts"] = _merge_passes(pass_layers)
        record["layers"]["trace.overhead_frac"] = (
            stats.median(pass_times[True]) / stats.median(pass_times[False]) - 1.0)
        tracer.dump(OUT / f"{wl.name}-seed{args.seed}-spans.json")
    if not failures:
        shutil.rmtree(outdir, ignore_errors=True)
    proto.write(json.dumps(record) + "\n")
    proto.flush()
    return 0


def _merge_passes(per_pass):
    """Counts must repeat in every traced pass; times are medians over passes."""
    out, unsteady = {}, []
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                unsteady.append(key)
            out[key] = values[0]
        else:
            out[key] = stats.median(values)
    return out, unsteady


if __name__ == "__main__":
    sys.exit(main())
