"""Seeded problem files for the benchmark workloads.

Every workload is a diagonal (Fermat-type) system in a projective space:
each equation is ``sum_i c_i x_i^p``. Seed 0 gives the coefficients of the
repository's fixtures; any other seed draws each coefficient from 1..9. For
two-equation systems the ratios ``a_i/b_i`` are drawn pairwise distinct, which
keeps the intersection quasi-smooth. The text is what ``toricff``'s own
``render_problem`` prints, so a problem file round-trips unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # toricff subcommand
    n: int  # dimension of the projective space
    power: int  # degree of every equation
    order: int
    seed0: tuple  # per equation, the fixture coefficients


# why each workload was chosen: bench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ci22-deep", "unfold", 3, 2, 40, ((1, 1, 1, 1), (1, 2, 3, 4))),
        Workload("k3-verify", "unfold", 3, 4, 2, ((1, 1, 1, 1),)),
        Workload("cy33-basis", "basis", 5, 3, 1, ((1,) * 6, (1, 2, 3, 4, 5, 6))),
    )
}


def coefficients(workload, seed):
    """Per-equation diagonal coefficients for this seed."""
    if seed == 0:
        return workload.seed0
    rng = random.Random(f"{workload.name}/{seed}")
    r = workload.n + 1
    if len(workload.seed0) == 1:
        return (tuple(rng.randint(1, 9) for _ in range(r)),)
    first, second, ratios = [], [], set()
    while len(first) < r:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        if Fraction(a, b) in ratios:
            continue
        ratios.add(Fraction(a, b))
        first.append(a)
        second.append(b)
    return tuple(first), tuple(second)


def rays(n):
    """Rays of the fan of P^n: the unit vectors and minus their sum."""
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return unit + [(-1,) * n]


def _ivec(vec):
    return "(" + ",".join(str(v) for v in vec) + ")"


def problem_text(workload, seed):
    """The problem file handed to ``toricff`` for this workload and seed."""
    r = workload.n + 1
    lines = ["rays = " + " ".join(_ivec(ray) for ray in rays(workload.n))]
    for coeffs in coefficients(workload, seed):
        terms = (
            f"{c} {_ivec(tuple(workload.power * (i == j) for j in range(r)))}"
            for i, c in enumerate(coeffs)
        )
        lines.append("hypersurface = " + " + ".join(terms))
    lines += [
        f"order = {workload.order}",
        "monomial-order = grevlex",
        "checks = all",
        "retain-intermediates = no",
    ]
    return "\n".join(lines) + "\n"
