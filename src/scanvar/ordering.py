"""Variance-ordering checkers: scan comparison and Peskun dominance.

The two-kernel comparison rests on a variational identity for resolvent
quadratic forms of a non-reversible operator in terms of its self-adjoint
and skew parts; the skew term at its optimiser supplies an explicit lower
bound on the gap between the random-scan and deterministic-scan
variances. Peskun-style comparisons measure kernelwise Dirichlet-form
dominance and compare the two families' cycle variances on a grid.
Dominance is first read off Peskun's own order (Biometrika 1973): a pair
whose second kernel is entrywise at most the first off the diagonal has
a symmetrised difference that is a Z-matrix, whose least eigenvalue
Collatz-Wielandt bounds from below in O(n^2) (see peskun_dominates); the
eigenproblem is solved only when a caller reads the eigenvalues. The
identity itself, the blend derivative between two embeddings and
palindromic cycles are proof devices; the test suite checks them on dense
realisations (tests/helpers.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from scanvar.embedding import _cycle_solve
from scanvar.kernels import (
    KernelFamily,
    Observable,
    ReducibilityError,
    SummabilityError,
    ValidationError,
    _EPS,
    _check_lam,
    _pi_similar,
)
from scanvar.variance import _blocks, _solve, _variance

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
    """Per-kernel Dirichlet-form gaps between two families, second minus
    first: for each kernel, a floor under the least eigenvalue of the
    symmetrised difference, computed with the record, and that least
    eigenvalue, computed when first read (one eigenproblem per kernel)
    and kept. The record holds the two families and no n x n array, and
    judges nothing: kernelwise dominance is that least eigenvalue >= 0,
    which a caller reads against its own tolerance, and a floor >= -t
    implies an eigenvalue >= -t for any t >= 0, so a caller reads the
    eigenvalues only when a floor is below its -t.
    """

    fam_a: KernelFamily = field(repr=False)
    fam_b: KernelFamily = field(repr=False)
    per_kernel_floor: tuple[float, ...]

    @property
    def min_dirichlet_gap_floor(self) -> float:
        return min(self.per_kernel_floor)

    @cached_property
    def per_kernel_min_eigenvalue(self) -> tuple[float, ...]:
        weights = self.fam_a.pi.weights
        pairs = zip(self.fam_a.matrices, self.fam_b.matrices)
        return tuple(_least_eigenvalue(a, b, weights) for a, b in pairs)

    @property
    def min_dirichlet_gap_eigenvalue(self) -> float:
        return min(self.per_kernel_min_eigenvalue)


def _walk(lambda_grid, at) -> list[OrderingReport]:
    """The rows of a grid, read alike by both checkers: at(lam) gives
    (var_a, var_b, bound) at each. Every discount is checked before any
    solve, so every discount row has lam < 1. A grid value within 1e-12 of
    one asks for the limit row, at(1.0), last and once. Its refusal
    (SummabilityError or ReducibilityError, from the solve at discount
    one) drops the row after a discount row, and is raised when no row
    came before it, so only an empty grid gives no rows."""
    grid = [float(lam) for lam in lambda_grid]
    discounts = [lam for lam in grid if not abs(lam - 1.0) <= 1e-12]  # NaN: refused
    for lam in discounts:
        _check_lam(lam)
    rows = [OrderingReport(lam, *at(lam)) for lam in discounts]
    if len(discounts) < len(grid):
        try:
            rows.append(OrderingReport(1.0, *at(1.0)))
        except (SummabilityError, ReducibilityError):
            if not rows:
                raise
    return rows


def _gap_bound(fam: KernelFamily, forward: np.ndarray, lam: float) -> float:
    """gap_lower_bound from its forward solve y, var_lambda_strat's, in
    closed form: 2 lam^2 <d, (I + lam M)^{-1} d>_pi with the mixed kernel
    M, g = (y_1 + y_2) / 2 and d = (K_1 - K_2) g / 2 (see gap_lower_bound
    for the derivation). The solve is the mixed kernel's, a cycle of one
    block, at -lam."""
    g = (forward[0] + forward[1]) / 2.0
    m1, m2 = fam.matrices
    d = (m1 @ g - m2 @ g) / 2.0
    mats, prod = _blocks(fam, "rand")
    z = _cycle_solve(mats, -lam, d[None], fam.pi.weights, prod)[0]
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
    The bound is 2 lam^2 <d, z>_pi: one solve in the mixed kernel alone
    per discount beyond var_lambda_strat's. Nonnegative by
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

    A grid value within 1e-12 of one asks for the limit report, the same
    two solves at discount one, which comes last, once, and only when the
    strat solve certifies the cycle summable and then the rand solve the
    mixed kernel's one eigenvalue near 1; a grid that asks for nothing else
    gets the limit's refusal raised. Any other value outside [0, 1) raises
    ValueError. The certified gap bound is a two-kernel statement: for two
    kernels it is zero in the limit, the weakest certified value there; for
    any other number of kernels it is NaN, not computed. The rows judge
    nothing: for two kernels the theorem says gap >= gap_lower_bound >= 0,
    and a caller compares them with its own tolerance.
    """
    two = fam.k == 2

    def at(lam):  # strat first: a refused cycle drops the limit row before rand's count
        fbar, forward = _solve(fam, f, lam, "strat")  # shared with the bound
        bound = math.nan if not two else 0.0 if lam == 1.0 else _gap_bound(fam, forward, lam)
        rand = _solve(fam, f, lam, "rand")
        return _variance(fbar, forward, fam.pi), _variance(*rand, fam.pi), bound

    return _walk(lambda_grid, at)


def _check_comparable(fam_a: KernelFamily, fam_b: KernelFamily) -> None:
    if fam_a.n != fam_b.n or fam_a.k != fam_b.k:
        raise ValidationError(
            f"families differ in shape: {fam_a.k}x{fam_a.n} vs {fam_b.k}x{fam_b.n}"
        )
    if not np.allclose(fam_a.pi.weights, fam_b.pi.weights, atol=1e-12, rtol=0.0):
        raise ValidationError("families must share the same target")


def _least_eigenvalue(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """The least eigenvalue that eigvalsh computes for the symmetrised
    difference sym = (S + S') / 2, S = _pi_similar(b - a, weights)."""
    s = _pi_similar(b - a, weights)
    sym = s + s.T
    sym /= 2.0
    return float(np.linalg.eigvalsh(sym)[0])


@np.errstate(over="ignore")  # a ratio past a float's range makes the floor -inf
def _floor(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """A floor under _least_eigenvalue(a, b, weights) from O(n^2) work on
    one n x n array, d = b - a, or -inf unless d is at most zero off the
    diagonal (see peskun_dominates)."""
    n, d = len(weights), b - a
    diagonal = d.diagonal().copy()
    d.flat[:: n + 1] = 0.0
    if d.max() > 0.0:
        return -math.inf
    d.flat[:: n + 1] = diagonal
    low = float((d.sum(axis=1) + weights @ d / weights).min()) / 2.0
    np.abs(d, out=d)
    size = float((d.sum(axis=1) + weights @ d / weights).max()) / 2.0
    return low - (17 * n + 16) * _EPS * size


def peskun_dominates(fam_a: KernelFamily, fam_b: KernelFamily) -> PeskunComparison:
    """Kernelwise Dirichlet-form comparison of two families.

    Kernel by kernel, the first family dominates when the second one's
    kernel is larger as a quadratic form, equivalently when the symmetrised
    difference sym = (S + S') / 2, S = D^{1/2} (B - A) D^{-1/2} with
    D = diag(pi) (the first family's target), has no negative eigenvalue.
    Gives each kernel's floor now and its least eigenvalue, as eigvalsh
    computes it, on first read; a caller judges them.

    The floor rests on Peskun's order (Biometrika 1973): when no entry of
    d = B - A off the diagonal is positive, sym is a symmetric Z-matrix,
    and Collatz-Wielandt applied to c I - sym >= 0 with the positive vector
    r = sqrt(pi) gives lambda_min(sym) >= min_i (sym r)_i / r_i
    = min_i [(d 1)_i + (pi' d)_i / pi_i] / 2. Both sums are about zero for
    two stochastic kernels that leave pi invariant, so the floor costs
    O(n^2) where the eigenvalue costs an eigenproblem. When some entry off
    the diagonal is positive the floor is -inf, and only the eigenvalue
    can show dominance. The same test on the nonnegative matrix
    (|S| + |S|') / 2 >= |sym| bounds |sym|_2 <= s = max_i [(|d| 1)_i
    + (pi' |d|)_i / pi_i] / 2, with no ratio of weights beyond pi's own.

    The floor lies below the eigenvalue eigvalsh computes, so that a floor
    >= -t implies that eigenvalue >= -t. With u = eps / 2 and
    g_j = j u / (1 - j u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3), barring underflow, it is widened by
    (17 n + 16) eps s, which covers:
    - the rounding of sym: each entry of S is rounded twice and the sum
      S + S' once, so the computed sym is within g_3 (|S| + |S|') / 2 of
      the exact one, a 2-norm of at most g_3 s (Weyl);
    - the rounding of the sums: the row sums and pi' d err by at most
      g_n times their absolute sums, the division and the addition by
      2 u, and r o r, with r = sqrt(pi) rounded, differs from pi by
      g_4, so each term errs by at most g_{n+6} s; the computed s is low
      by at most g_{n+2} s, and the floor's own subtraction by u;
    - eigvalsh's backward error, 16 n eps |sym|_2 as in
      KernelFamily._unit_count, with |sym|_2 <= (1 + g_3) s;
    in all at most (16.5 n + 6) eps s to first order. A sum past a
    float's range gives -inf."""
    _check_comparable(fam_a, fam_b)
    weights = fam_a.pi.weights
    floors = tuple(_floor(a, b, weights) for a, b in zip(fam_a.matrices, fam_b.matrices))
    return PeskunComparison(fam_a, fam_b, floors)


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
        a, b = (_variance(*_solve(fam, f, lam, "strat"), fam.pi) for fam in (fam_a, fam_b))
        return a, b, math.nan

    return _walk(lambda_grid, at)
