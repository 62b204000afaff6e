"""Compare the outputs of the centerlab CLI between a git ref and this tree.

    python tools/same_outputs.py REF [--quick]

``git archive REF`` is extracted into a temporary directory, and every
command line of :data:`COMMANDS` (or only the lines marked ``*`` with
``--quick``) runs once in that tree and once in the tree that holds this
script, working changes included.  Each line runs in a fresh interpreter,
``python -m centerlab.cli LINE --no-timings -o REPORT``, from the tree's
root with its ``src`` on ``PYTHONPATH``, ``PYTHONHASHSEED=0`` and
``PYTHONDONTWRITEBYTECODE=1``, at most ``MEMORY_BYTES`` of address space
and ``TIMEOUT_S`` seconds (a line stopped at its timeout has the exit code
``timeout``).  A line whose stdout, stderr, exit code or report bytes
differ between the trees is reported with the parts that differ; the exit
code is 0 when every line is equal and 1 otherwise.

The list is fixed, so that a claim of byte-equal outputs can be rerun: a
change to it gets a new ``LIST_VERSION``.  A line holding ``{file}`` runs
once for each file of :data:`FILES`.
"""

from __future__ import annotations

import argparse
import io
import os
import resource
import shlex
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

LIST_VERSION = 2
# a tree without the sweep-point limit builds the whole point list of the
# over-long sweep below: these bounds stop it
MEMORY_BYTES = 1 << 30
TIMEOUT_S = 300

FILES = (
    "sample_systems/degenerate_quintic.sys",
    "sample_systems/factored_quartic.sys",
    "sample_systems/homogeneous_cubic.sys",
    "sample_systems/nilpotent_cubic_ab.sys",
    "sample_systems/reversible_nilpotent.sys",
    "bench/systems/center_cubic_member.sys",
    "bench/systems/center_weighted_hamiltonian.sys",
    "bench/systems/cubic_family_a.sys",
    "bench/systems/cubic_family_b.sys",
    "bench/systems/cubic_k.sys",
    "bench/systems/radial_focus.sys",
    "bench/systems/sextic.sys",
)

COMMANDS = r"""
# qhcenter sweeps of the homogeneous cubic: at lambda = 0 the point mu = 0 is
# refused (common factor 9x^2 + 25y^2); at lambda = 1, mu = 25/9 removes P's
# y^3 term and the sweep mu=2:3:1/9 crosses it
* qhcenter sample_systems/homogeneous_cubic.sys --set lambda=0 --sweep mu=0:3:1/8
* qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep mu=0:3:1/8
* qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep mu=2:3:1/9
qhcenter sample_systems/homogeneous_cubic.sys --set mu=1 --sweep lambda=-1:1:1/4
# the two sweeps of bench/run.py --workload evidence --seed 0
* qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep mu=1/2:7/4:1/4
* qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep mu=1/2:9/8:1/8
# sweeps that substitute at every point: a second parameter free, an
# assumption to check, a name that is no parameter, a state variable;
# every point refused; more points than the limit; one-point runs
* qhcenter sample_systems/homogeneous_cubic.sys --sweep mu=0:1:1/2
qhcenter sample_systems/degenerate_quintic.sys --set a=1 --set lambda=0 --sweep mu=-1:1:1/2
qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep nu=0:1:1/2
qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep x=0:1:1/2
* qhcenter sample_systems/homogeneous_cubic.sys --set lambda=0 --sweep mu=0:0:1/8
* qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep mu=0:1000:1/100000
qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --set mu=25/9
qhcenter sample_systems/homogeneous_cubic.sys --set lambda=0 --set mu=0
qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --set mu=2499999991/900000000
# every subcommand on every sample and bench file
* qhcenter {file}
reversible {file}
returnmap {file}
returnmap {file} --transversal y+
classify {file}
verify {file} --integral x^2+y^2
liapunov {file}
liapunov {file} --perturb minimal --max-degree 6
liapunov {file} --perturb general --max-degree 6
liapunov {file} --perturb general:3 --max-degree 6
# the --perturb spellings
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb none --max-degree 6
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb nilpotent --max-degree 6
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb degenerate --max-degree 6
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb hamiltonian --max-degree 6
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb general:2 --max-degree 6
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb general:8 --max-degree 6
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb general:11 --max-degree 6
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb general:0 --max-degree 6
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb minimal:2 --max-degree 6
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb foo --max-degree 6
# the exact reference jobs of bench/workloads.py
* liapunov sample_systems/nilpotent_cubic_ab.sys --perturb minimal --max-degree 8
liapunov sample_systems/degenerate_quintic.sys --perturb auto --mode first-order --max-degree 12
liapunov bench/systems/sextic.sys --perturb minimal --max-degree 12
* liapunov sample_systems/reversible_nilpotent.sys --perturb minimal --max-degree 14
liapunov bench/systems/cubic_k.sys --perturb general:5 --max-degree 5
liapunov sample_systems/reversible_nilpotent.sys --perturb general:8 --max-degree 5
liapunov bench/systems/cubic_family_a.sys --max-degree 7
liapunov bench/systems/cubic_family_b.sys --max-degree 7
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb minimal --max-degree 14
# deep runs, where most nonzero constants carry new eps-only factors (list
# version 2)
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb minimal --max-degree 16
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb minimal --max-degree 18
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb minimal --max-degree 20
liapunov bench/systems/cubic_k.sys --perturb general:5 --max-degree 8
liapunov bench/systems/cubic_k.sys --perturb general:3 --max-degree 8
liapunov sample_systems/nilpotent_cubic_ab.sys --perturb general:3 --max-degree 8
liapunov bench/systems/sextic.sys --perturb minimal --max-degree 16
liapunov sample_systems/degenerate_quintic.sys --perturb auto --mode first-order --max-degree 16
# the return-map jobs of bench/run.py --workload evidence --seed 0
* returnmap sample_systems/reversible_nilpotent.sys --x0 0.08 --x0 0.10 --x0 0.02
returnmap sample_systems/factored_quartic.sys --x0 0.06 --x0 0.09 --x0 0.05
returnmap bench/systems/center_cubic_member.sys --x0 0.06 --x0 0.09 --x0 0.04
returnmap bench/systems/center_weighted_hamiltonian.sys --x0 0.05 --x0 0.04 --x0 0.09
returnmap bench/systems/radial_focus.sys --x0 0.04 --x0 0.03 --x0 0.06
verify sample_systems/factored_quartic.sys --integral "(x^2+y^2)/2 + 2*x^3/3 - y^3/3"
# option errors (exit 2) and unusable input (exit 3)
* qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep mu=0:2:0
qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep mu=1:0:1/2
qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1 --sweep mu=0:x:1/8
qhcenter sample_systems/homogeneous_cubic.sys --set lambda=1/0
returnmap sample_systems/reversible_nilpotent.sys --x0 0
liapunov sample_systems/nilpotent_cubic_ab.sys --max-degree 3
* qhcenter sample_systems/missing.sys
liapunov sample_systems/missing.sys
"""


def parse_commands(text: str, files: Sequence[str] = FILES) -> List[Tuple[bool, List[str]]]:
    """``(quick, argv)`` for each command line of ``text``: blank lines and
    ``#`` comments are skipped, a leading ``*`` marks the quick subset, the
    rest is split like a shell line, and a line holding ``{file}`` gives one
    command per file."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        quick = line.startswith("*")
        line = line.lstrip("*").strip()
        for name in (files if "{file}" in line else (None,)):
            out.append((quick, shlex.split(line.replace("{file}", name) if name else line)))
    return out


@dataclass(frozen=True)
class Outcome:
    stdout: bytes
    stderr: bytes
    code: Union[int, str]
    report: Optional[bytes]


def _bounded() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_line(tree: Path, argv: Sequence[str], report: Path) -> Outcome:
    """One command line in a fresh interpreter at the root of ``tree``."""
    report.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "centerlab.cli", *argv, "--no-timings", "-o", str(report)]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              timeout=TIMEOUT_S, preexec_fn=_bounded)
    except subprocess.TimeoutExpired as exc:
        return Outcome(exc.stdout or b"", exc.stderr or b"", "timeout", None)
    return Outcome(done.stdout, done.stderr, done.returncode,
                   report.read_bytes() if report.exists() else None)


def differences(a: Outcome, b: Outcome) -> List[str]:
    """The parts of two outcomes that differ, by name."""
    return [part for part in ("stdout", "stderr", "code", "report")
            if getattr(a, part) != getattr(b, part)]


def compare(ref_tree: Path, tree: Path, commands: Sequence[Sequence[str]],
            out=sys.stdout) -> int:
    """Run each command in both trees, write one line per command whose
    outcome differs and a summary, and return the number that differ."""
    differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "report.json"
        for argv in commands:
            parts = differences(run_line(ref_tree, argv, report), run_line(tree, argv, report))
            if parts:
                differing += 1
                print(f"DIFFERS ({', '.join(parts)}): {shlex.join(argv)}", file=out)
    print(f"{len(commands) - differing} of {len(commands)} command lines equal "
          f"(list version {LIST_VERSION})", file=out)
    return differing


def extract(ref: str, repo: Path, into: Path) -> None:
    """The files of ``ref`` in the git repository ``repo``, written to ``into``."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", ref],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter (Python 3.11.4 on) refuses members that leave ``into``
        archive.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git ref to compare against, e.g. HEAD or HEAD~1")
    ap.add_argument("--quick", action="store_true", help="run the lines marked * only")
    args = ap.parse_args(argv)
    tree = Path(__file__).resolve().parents[1]
    commands = [cmd for quick, cmd in parse_commands(COMMANDS) if quick or not args.quick]
    with tempfile.TemporaryDirectory() as ref_tree:
        extract(args.ref, tree, Path(ref_tree))
        return 1 if compare(Path(ref_tree), tree, commands) else 0


if __name__ == "__main__":
    sys.exit(main())
