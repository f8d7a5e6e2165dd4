"""Variance-ordering checkers: scan comparison and Peskun dominance.

The two-kernel comparison rests on a variational identity for resolvent
quadratic forms of a non-reversible operator in terms of its self-adjoint
and skew parts; the skew term at its optimiser supplies an explicit lower
bound on the gap between the random-scan and deterministic-scan
variances. Peskun-style comparisons measure kernelwise Dirichlet-form
dominance and compare the two families' cycle variances on a grid. The
identity itself, the blend derivative between two embeddings and
palindromic cycles are proof devices; the test suite checks them on dense
realisations (tests/helpers.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from scanvar.embedding import _mixed_solve
from scanvar.kernels import (
    KernelFamily,
    Observable,
    ReducibilityError,
    SummabilityError,
    ValidationError,
    _check_lam,
    _pi_similar,
)
from scanvar.variance import (
    _solve,
    _variance,
    var_lambda_rand,
    var_lambda_strat,
    var_limit,
)

__all__ = [
    "OrderingReport",
    "PeskunComparison",
    "gap_lower_bound",
    "check_scan_ordering",
    "peskun_dominates",
    "check_peskun_ordering",
]


@dataclass(frozen=True)
class OrderingReport:
    """One row of an ordering check: one discount, or the limit (lam = 1).

    var_a is the variance the ordering says is the smaller one (the cycle's
    for the scan check, the dominating family's cycle for the Peskun
    check) and var_b the other; gap_lower_bound is NaN where no bound is
    computed. The row is a measurement with no verdict: a caller compares
    gap with its own tolerance.
    """

    lam: float
    var_a: float
    var_b: float
    gap_lower_bound: float

    @property
    def gap(self) -> float:
        """var_b - var_a, which the ordering says is nonnegative."""
        return self.var_b - self.var_a

    @property
    def method(self) -> str:
        """The row's route: "limit" at lam = 1, "resolvent" below one."""
        return "limit" if self.lam == 1.0 else "resolvent"


@dataclass(frozen=True, eq=False)
class PeskunComparison:
    """Per-kernel Dirichlet-form gaps between two families: the least
    eigenvalue of each kernel's symmetrised difference (second minus
    first), and the least of them. The record judges nothing: kernelwise
    dominance is that least eigenvalue >= 0, which a caller reads against
    its own tolerance.
    """

    per_kernel_min_eigenvalue: tuple[float, ...]

    @property
    def min_dirichlet_gap_eigenvalue(self) -> float:
        return min(self.per_kernel_min_eigenvalue)


def _walk(lambda_grid, at, limit) -> list[OrderingReport]:
    """The rows of a grid, read alike by both checkers. Every discount is
    checked before any solve, so every discount row has lam < 1; at(lam)
    gives (var_a, var_b, bound) at each. A grid value within 1e-12 of one
    asks for the limit row, at lam = 1, from limit() as (var_a, var_b,
    bound), last and once. A refusal by limit() (SummabilityError or
    ReducibilityError) drops the row after a discount row, and is raised
    when no row came before it, so only an empty grid gives no rows."""
    grid = [float(lam) for lam in lambda_grid]
    discounts = [lam for lam in grid if not abs(lam - 1.0) <= 1e-12]  # NaN: refused
    for lam in discounts:
        _check_lam(lam)
    rows = [OrderingReport(lam, *at(lam)) for lam in discounts]
    if len(discounts) < len(grid):
        try:
            rows.append(OrderingReport(1.0, *limit()))
        except (SummabilityError, ReducibilityError):
            if not rows:
                raise
    return rows


def _gap_bound(fam: KernelFamily, forward: np.ndarray, lam: float) -> float:
    """gap_lower_bound from its forward solve y, var_lambda_strat's, in
    closed form: 2 lam^2 <d, (I + lam M)^{-1} d>_pi with the mixed kernel
    M, g = (y_1 + y_2) / 2 and d = (K_1 - K_2) g / 2 (see gap_lower_bound
    for the derivation). The solve is the mixed kernel's, at -lam."""
    g = (forward[0] + forward[1]) / 2.0
    m1, m2 = fam.matrices
    d = (m1 @ g - m2 @ g) / 2.0
    z = _mixed_solve(fam, -lam, d)
    return 2.0 * lam * lam * float(np.dot(fam.pi.weights, d * z))


def gap_lower_bound(fam: KernelFamily, f: Observable, lam: float) -> float:
    """Certified lower bound on var_rand - var_strat for a two-kernel family.

    The skew term of the variational identity at its optimiser, scaled by
    2/k: lam^2 <A g, (I - lam H)^{-1} A g> on the block space, with the
    embedding T, H and A its self-adjoint and skew parts, the optimiser
    g = (I - lam T*)^{-1} (I - lam H) y and y = (I - lam T)^{-1} fbar,
    var_lambda_strat's solve at the constant block fbar. For two kernels
    the phase swap J conjugates T into its adjoint, J T J = T*, and fixes
    fbar, so J y = (I - lam T*)^{-1} fbar. Writing I - lam H as the mean
    of I - lam T and I - lam T* gives g = (y + J y) / 2, the constant
    block of g = (y_1 + y_2) / 2. A then sends (g, g) to (d, -d),
    d = (K_1 - K_2) g / 2, and on blocks (z, -z) H acts as minus the mixed
    kernel M, so (I - lam H)^{-1} (d, -d) = (z, -z) with (I + lam M) z = d.
    The bound is 2 lam^2 <d, z>_pi: one solve in the mixed kernel's cached
    eigenbasis per discount beyond var_lambda_strat's. Nonnegative by
    construction and zero at lam = 0 or for identical kernels.
    """
    if fam.k != 2:
        raise ValueError(f"the gap bound needs exactly two kernels, got {fam.k}")
    _check_lam(lam)
    return _gap_bound(fam, _solve(fam, f, lam, "strat")[1], lam)


def check_scan_ordering(
    fam: KernelFamily, f: Observable, lambda_grid: Sequence[float]
) -> list[OrderingReport]:
    """Compare the two scan schemes on a discount grid: each row's var_a is
    the cycle's (strat) variance and var_b the random scan's.

    A grid value within 1e-12 of one asks for the limit report (discount
    one), which comes last, once, and only when the cycle is certified
    summable and the mixed kernel has one eigenvalue near 1; a grid that
    asks for nothing else gets the limit's refusal raised. Any other
    value outside [0, 1) raises ValueError. The certified gap bound is a
    two-kernel statement: for two kernels it is zero in the limit, the
    weakest certified value there; for any other number of kernels it is
    NaN, not computed. The rows judge nothing: for two kernels the theorem
    says gap >= gap_lower_bound >= 0, and a caller compares them with its
    own tolerance.
    """
    two = fam.k == 2

    def at(lam):  # one strat solve gives the variance and the bound
        fbar, forward = _solve(fam, f, lam, "strat")
        bound = _gap_bound(fam, forward, lam) if two else math.nan
        return _variance(fbar, forward, fam.pi), var_lambda_rand(fam, f, lam), bound

    def limit():  # strat first: a refused cycle drops the row before rand's guard
        return var_limit(fam, f, "strat"), var_limit(fam, f, "rand"), 0.0 if two else math.nan

    return _walk(lambda_grid, at, limit)


def _check_comparable(fam_a: KernelFamily, fam_b: KernelFamily) -> None:
    if fam_a.n != fam_b.n or fam_a.k != fam_b.k:
        raise ValidationError(
            f"families differ in shape: {fam_a.k}x{fam_a.n} vs {fam_b.k}x{fam_b.n}"
        )
    if not np.allclose(fam_a.pi.weights, fam_b.pi.weights, atol=1e-12, rtol=0.0):
        raise ValidationError("families must share the same target")


def peskun_dominates(fam_a: KernelFamily, fam_b: KernelFamily) -> PeskunComparison:
    """Kernelwise Dirichlet-form comparison of two families.

    Kernel by kernel, the first family dominates when the second one's
    kernel is larger as a quadratic form, equivalently when the symmetrised
    difference (second minus first) has no negative eigenvalue. The
    symmetrisation D^{1/2} (B - A) D^{-1/2} with D = diag(pi) has real
    spectrum for reversible kernels. Gives each kernel's least eigenvalue
    and the least of them; a caller judges them.
    """
    _check_comparable(fam_a, fam_b)
    min_eigs = []
    for ka, kb in zip(fam_a.kernels, fam_b.kernels):
        s = _pi_similar(kb.matrix - ka.matrix, fam_a.pi.weights)
        sym = s + s.T
        sym /= 2.0
        min_eigs.append(float(np.linalg.eigvalsh(sym)[0]))
    return PeskunComparison(per_kernel_min_eigenvalue=tuple(min_eigs))


def check_peskun_ordering(
    fam_a: KernelFamily,
    fam_b: KernelFamily,
    f: Observable,
    lambda_grid: Sequence[float],
) -> list[OrderingReport]:
    """Compare the cycle variances of two two-kernel families on a grid,
    read as in check_scan_ordering: var_a is the first family's and var_b
    the second's, and gap_lower_bound is NaN. The limit row needs both
    families to pass the summability check, whose refusal is raised when
    the grid asks for nothing else. That gap >= 0 is a theorem
    when the first family dominates the second (peskun_dominates); the rows
    are reported either way, so counterexample hunting stays possible."""
    _check_comparable(fam_a, fam_b)
    if fam_a.k != 2:
        raise ValueError(f"the cycle comparison needs exactly two kernels, got {fam_a.k}")

    def at(lam):
        return var_lambda_strat(fam_a, f, lam), var_lambda_strat(fam_b, f, lam), math.nan

    def limit():
        return var_limit(fam_a, f, "strat"), var_limit(fam_b, f, "strat"), math.nan

    return _walk(lambda_grid, at, limit)
