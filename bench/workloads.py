"""The benchmark's workloads: job lists, seeded inputs and expected results.

A job is one ``centerlab`` command line, run through ``centerlab.cli.main``
exactly as a user would type it (the runner appends ``--no-timings -o FILE``).
A pass runs every job of a workload once, in an order drawn from the seed;
a run repeats passes until its time is up.

Paths in job command lines are relative to the checkout root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

S = "sample_systems/"
B = "bench/systems/"

# x0 radii for the seeded return maps; references exist for every one of them
RADII = tuple(f"{k / 100:.2f}" for k in range(2, 11))
RADII_PER_JOB = 3
# the qhcenter sweep points are multiples of 1/8 in [0, SWEEP_MAX]; a sweep
# reaching past mu = 9/4 costs up to a quarter less, which made the seed move
# the workload's tail
SWEEP_MAX = Fraction(2)
SWEEP_POINTS = 6

# Known center-condition sets (acceptance criteria 1e and 2 of the test
# suite), written out as sums of monomials so that the check needs no parser.
AB_SET = ("A*B - 3*L", "A^3*B - 2*A*B*K")
SEXTIC_SET = ("c", "a*b")
K_SET = ("k1", "k2")
QUINTIC_SET = ("a*mu", "a*lambda")
FAMILY_A_SET = ("a30", "a02*a11 + a12", "a02*a11*a21", "a02*a11*a03")
FAMILY_B_SET = ("a21 - a02*a11", "a03", "a02*a11*a30", "3*a02^3*a11 + 2*a02*a11*a12")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy.

    ``kind`` selects the check: ``exact`` compares bytes with a stored
    reference; ``returnmap``, ``classify`` and ``qhsweep`` compare with the
    stored reference under a float tolerance.  ``oracle`` is a known
    condition set with the relation the job's base conditions must have to
    it (``equal``, or ``subset`` of it).  ``verdict`` is
    a (dotted JSON path, value) pair that must hold exactly.
    """

    id: str
    argv: Tuple[str, ...]
    kind: str = "exact"
    oracle: Optional[Tuple[str, Tuple[str, ...]]] = None
    verdict: Optional[Tuple[str, object]] = None
    x0: Tuple[str, ...] = ()
    sweep: Tuple[Fraction, ...] = ()
    ref: str = ""  # stored reference, when it is not named after the job

    @property
    def ref_id(self) -> str:
        return self.ref or self.id


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Tuple[Job, ...]
    # Fixed tail percentile.  It leaves at least ten samples beyond it in
    # every seed-commit run (see baseline.json) and lies inside one job
    # group's share of the sorted timings, not on the edge between two (see
    # NOTES.md).  It is fixed so that a faster program, which completes more
    # jobs per run, is measured at the same point of the job-time distribution.
    tail_percentile: float


def _liapunov(path: str, *extra: str) -> Tuple[str, ...]:
    return ("liapunov", path) + extra


def exact_deep() -> Workload:
    jobs = (
        Job("ab-minimal-d6", _liapunov(S + "nilpotent_cubic_ab.sys", "--perturb", "minimal",
                                       "--max-degree", "6"), oracle=("equal", AB_SET)),
        Job("ab-minimal-d8", _liapunov(S + "nilpotent_cubic_ab.sys", "--perturb", "minimal",
                                       "--max-degree", "8"), oracle=("equal", AB_SET)),
        Job("quintic-first-order-d10",
            _liapunov(S + "degenerate_quintic.sys", "--perturb", "auto", "--mode",
                      "first-order", "--max-degree", "10"), oracle=("equal", QUINTIC_SET)),
        Job("quintic-first-order-d12",
            _liapunov(S + "degenerate_quintic.sys", "--perturb", "auto", "--mode",
                      "first-order", "--max-degree", "12"), oracle=("equal", QUINTIC_SET)),
        Job("sextic-minimal-d10", _liapunov(B + "sextic.sys", "--perturb", "minimal",
                                            "--max-degree", "10"),
            oracle=("equal", SEXTIC_SET)),
        Job("sextic-minimal-d12", _liapunov(B + "sextic.sys", "--perturb", "minimal",
                                            "--max-degree", "12"),
            oracle=("equal", SEXTIC_SET)),
        Job("revnil-minimal-d14", _liapunov(S + "reversible_nilpotent.sys", "--perturb",
                                            "minimal", "--max-degree", "14"),
            oracle=("equal", ())),
    )
    return Workload("exact-deep", jobs, tail_percentile=78.0)


def exact_wide() -> Workload:
    fam_a, fam_b = B + "cubic_family_a.sys", B + "cubic_family_b.sys"
    jobs = (
        Job("k-general5-d5", _liapunov(B + "cubic_k.sys", "--perturb", "general:5",
                                       "--max-degree", "5"), oracle=("subset", K_SET)),
        Job("k-general3-d5", _liapunov(B + "cubic_k.sys", "--perturb", "general:3",
                                       "--max-degree", "5"), oracle=("subset", K_SET)),
        Job("k-minimal-d6", _liapunov(B + "cubic_k.sys", "--perturb", "minimal",
                                      "--max-degree", "6"), oracle=("equal", K_SET)),
        Job("ab-general3-d5", _liapunov(S + "nilpotent_cubic_ab.sys", "--perturb",
                                        "general:3", "--max-degree", "5"),
            oracle=("subset", AB_SET)),
        Job("revnil-general5-d5", _liapunov(S + "reversible_nilpotent.sys", "--perturb",
                                            "general:5", "--max-degree", "5"),
            oracle=("equal", ())),
        Job("revnil-general8-d5", _liapunov(S + "reversible_nilpotent.sys", "--perturb",
                                            "general:8", "--max-degree", "5"),
            oracle=("equal", ())),
        Job("family-a-d6", _liapunov(fam_a, "--max-degree", "6"),
            oracle=("equal", FAMILY_A_SET)),
        Job("family-a-d7", _liapunov(fam_a, "--max-degree", "7"),
            oracle=("equal", FAMILY_A_SET)),
        Job("family-b-d6", _liapunov(fam_b, "--max-degree", "6"),
            oracle=("equal", FAMILY_B_SET)),
        Job("family-b-d7", _liapunov(fam_b, "--max-degree", "7"),
            oracle=("equal", FAMILY_B_SET)),

    )
    return Workload("exact-wide", jobs, tail_percentile=87.0)


RETURNMAP_SYSTEMS = (
    # (reference name, system file, expected classification)
    ("reversible-nilpotent", S + "reversible_nilpotent.sys", "center_evidence"),
    ("factored-quartic", S + "factored_quartic.sys", "center_evidence"),
    ("cubic-member", B + "center_cubic_member.sys", "center_evidence"),
    ("weighted-hamiltonian", B + "center_weighted_hamiltonian.sys", "center_evidence"),
    ("radial-focus", B + "radial_focus.sys", "stable_focus_evidence"),
)
QH_ARGV = ("qhcenter", S + "homogeneous_cubic.sys", "--set", "lambda=1")
QUARTIC_INTEGRAL = "(x^2+y^2)/2 + 2*x^3/3 - y^3/3"


def sweep_points(rng: random.Random) -> Tuple[Fraction, ...]:
    step = rng.choice((Fraction(1, 8), Fraction(1, 4)))
    last_start = int((SWEEP_MAX - (SWEEP_POINTS - 1) * step) * 8)
    start = Fraction(rng.randint(0, last_start), 8)
    return tuple(start + i * step for i in range(SWEEP_POINTS))


def evidence(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs: List[Job] = []
    for name, path, cls in RETURNMAP_SYSTEMS:
        x0 = tuple(rng.sample(RADII, RADII_PER_JOB))
        argv = ("returnmap", path) + tuple(a for r in x0 for a in ("--x0", r))
        jobs.append(Job(f"returnmap-{name}", argv, kind="returnmap", x0=x0,
                        verdict=("numeric.classification", cls)))
    jobs.append(Job("classify-revnil", ("classify", S + "reversible_nilpotent.sys"),
                    kind="classify", verdict=("numeric.classification", "center_evidence")))
    for i in (1, 2):
        pts = sweep_points(rng)
        jobs.append(Job(f"qhcenter-sweep-{i}",
                        QH_ARGV + ("--sweep", f"mu={pts[0]}:{pts[-1]}:{pts[1] - pts[0]}"),
                        kind="qhsweep", sweep=pts, ref="qhcenter-sweep"))
    jobs.append(Job("reversible-quartic", ("reversible", S + "factored_quartic.sys"),
                    verdict=("structure.verdict", "not_reversible")))
    jobs.append(Job("verify-quartic", ("verify", S + "factored_quartic.sys", "--integral",
                                       QUARTIC_INTEGRAL),
                    verdict=("residual_zero", True)))
    return Workload("evidence", tuple(jobs), tail_percentile=92.0)


WORKLOADS = ("exact-deep", "exact-wide", "evidence")


def get(name: str, seed: int) -> Workload:
    if name == "exact-deep":
        return exact_deep()
    if name == "exact-wide":
        return exact_wide()
    if name == "evidence":
        return evidence(seed)
    raise KeyError(name)


def reference_jobs() -> List[Job]:
    """Jobs whose full output is stored byte for byte (seed-independent)."""
    out = list(exact_deep().jobs) + list(exact_wide().jobs)
    out += [j for j in evidence(0).jobs if j.kind == "exact"]
    return out
