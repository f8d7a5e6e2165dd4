"""Variance-ordering checkers: scan comparison, Peskun dominance, palindromes.

The two-kernel comparison rests on a variational identity for resolvent
quadratic forms of a non-reversible operator in terms of its self-adjoint
and skew parts; the skew term supplies an explicit lower bound on the gap
between the random-scan and deterministic-scan variances. Peskun-style
comparisons move along a linear blend between two embeddings and check the
sign of the blend derivative, which has a closed form matched against
central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from scanvar.embedding import _apply, _cycle_row, _cycle_solve, _mixed_solve
from scanvar.kernels import (
    Dist,
    Kernel,
    KernelFamily,
    NUMERIC_TOL,
    PSD_TOL,
    Observable,
    SummabilityError,
    ValidationError,
    _check_lam,
    _pi_similar,
    lazy,
    make_family,
)
from scanvar.variance import (
    DEFAULT_SERIES_TERMS,
    _solve,
    _variance,
    var_lambda_rand,
    var_lambda_strat,
    var_lambda_strat_series,
    var_limit,
)

# Residual and probe excess that variational_identity_check allows, and
# the number of random probes it draws and their seed.
IDENTITY_TOL = 1e-9
IDENTITY_PROBES = 200
IDENTITY_SEED = 0
# palindrome_check: the hold of the lazified perturbation, the largest
# forward/backward component gap and the most negative derivative allowed,
# and how many evenly spaced blend weights in [0, 1] it evaluates.
PALINDROME_HOLD = 0.5
PALINDROME_COMPONENT_TOL = 1e-11
PALINDROME_DERIVATIVE_TOL = 1e-9
PALINDROME_BETAS = 11

__all__ = [
    "IDENTITY_TOL",
    "IDENTITY_PROBES",
    "IDENTITY_SEED",
    "PALINDROME_HOLD",
    "PALINDROME_COMPONENT_TOL",
    "PALINDROME_DERIVATIVE_TOL",
    "PALINDROME_BETAS",
    "OrderingReport",
    "PeskunComparison",
    "VariationalIdentityReport",
    "BetaPath",
    "PalindromeCase",
    "PalindromeReport",
    "gap_lower_bound",
    "check_scan_ordering",
    "variational_identity_check",
    "peskun_dominates",
    "check_peskun_ordering",
    "palindrome_check",
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
    method: str

    @property
    def gap(self) -> float:
        """var_b - var_a, which the ordering says is nonnegative."""
        return self.var_b - self.var_a


@dataclass(frozen=True, eq=False)
class PeskunComparison:
    """Per-kernel Dirichlet-form dominance between two families.

    Kernel i of the second family is dominated when the symmetrised
    difference (second minus first) is positive semidefinite within PSD_TOL.
    """

    dominance_per_kernel: tuple[bool, ...]
    per_kernel_min_eigenvalue: tuple[float, ...]
    min_dirichlet_gap_eigenvalue: float
    dominates: bool


@dataclass(frozen=True)
class VariationalIdentityReport:
    lhs: float
    rhs: float
    residual: float
    max_probe_excess: float
    passes: bool


def _walk(lambda_grid, at, limit) -> list[OrderingReport]:
    """The rows of a grid, read alike by both checkers. Every discount is
    checked before any solve; at(lam) gives (var_a, var_b, bound, method)
    at each. A grid value within 1e-12 of one asks for the limit row, from
    limit() as (var_a, var_b, bound), last and once, and dropped when
    limit() raises SummabilityError."""
    grid = [float(lam) for lam in lambda_grid]
    discounts = [lam for lam in grid if not abs(lam - 1.0) <= 1e-12]  # NaN: refused
    for lam in discounts:
        _check_lam(lam)
    rows = [OrderingReport(lam, *at(lam)) for lam in discounts]
    if len(discounts) < len(grid):
        try:
            rows.append(OrderingReport(1.0, *limit(), "limit"))
        except SummabilityError:
            pass
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
    fam: KernelFamily,
    f: Observable,
    lambda_grid: Sequence[float],
    method: str = "resolvent",
    series_terms: int = DEFAULT_SERIES_TERMS,
) -> list[OrderingReport]:
    """Compare the two scan schemes on a discount grid: each row's var_a is
    the cycle's (strat) variance and var_b the random scan's.

    A grid value within 1e-12 of one asks for the limit report (discount
    one), which comes last, once, and only when the cycle passes the
    summability check; any other value outside [0, 1) raises ValueError.
    method "series" takes var_strat from var_lambda_strat_series; a method
    other than it and "resolvent" raises ValueError. The certified gap
    bound is a two-kernel statement: for two kernels it is zero in the
    limit, the weakest certified value there; for any other number of
    kernels it is NaN, not computed. The rows judge nothing: for two
    kernels the theorem says gap >= gap_lower_bound >= 0, and a caller
    compares them with its own tolerance.
    """
    if method not in ("resolvent", "series"):
        raise ValueError(f"method must be 'resolvent' or 'series', got {method!r}")
    two = fam.k == 2
    series = method == "series"

    def at(lam):
        if two or not series:  # series needs the solve only for the bound
            fbar, forward = _solve(fam, f, lam, "strat")
        bound = _gap_bound(fam, forward, lam) if two else math.nan
        if series:
            v_strat, _ = var_lambda_strat_series(fam, f, lam, series_terms)
        else:
            v_strat = _variance(fbar, forward, fam.pi)
        return v_strat, var_lambda_rand(fam, f, lam), bound, method

    def limit():  # strat first: a refused cycle drops the row before rand's guard
        return var_limit(fam, f, "strat"), var_limit(fam, f, "rand"), 0.0 if two else math.nan

    return _walk(lambda_grid, at, limit)


def _pi_adjoint(mat: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return (pi[None, :] * mat.T) / pi[:, None]


def variational_identity_check(
    kernel: Kernel, pi: Dist, f: Observable, lam: float
) -> VariationalIdentityReport:
    """Verify the resolvent quadratic form against its variational expression.

    For a target-invariant (not necessarily reversible) kernel, the form
    <f, (I - lam K)^{-1} f> equals the objective
    2<f, g> - <g, (I - lam S) g> - lam^2 <A g, (I - lam S)^{-1} A g>
    at the optimiser g, where S and A are the self-adjoint and skew parts;
    IDENTITY_PROBES random probes, drawn from IDENTITY_SEED, can only fall
    below it. The check passes when both the residual and the largest probe
    excess are within IDENTITY_TOL.
    """
    _check_lam(lam)
    w = pi.weights
    mat = kernel.matrix
    if mat.shape[0] != w.size or f.n != w.size:
        raise ValidationError("kernel, target and observable must share dimensions")
    invariance = float(np.abs(w @ mat - w).max())
    if invariance > NUMERIC_TOL:
        raise ValidationError(
            f"kernel does not leave the target invariant (residual {invariance:.3g})"
        )
    n = w.size
    adj = _pi_adjoint(mat, w)
    sym = (mat + adj) / 2.0
    skew = (mat - adj) / 2.0
    eye = np.eye(n)
    fv = f.values

    def wdot(a, b):
        return float(np.dot(w, a * b))

    resolvent = np.linalg.solve(eye - lam * mat, fv)
    lhs = wdot(fv, resolvent)
    sym_sys = eye - lam * sym

    def objective(g):
        ag = skew @ g
        return (
            2.0 * wdot(fv, g)
            - wdot(g, sym_sys @ g)
            - lam * lam * wdot(ag, np.linalg.solve(sym_sys, ag))
        )

    g_hat = np.linalg.solve(eye - lam * adj, sym_sys @ resolvent)
    rhs = objective(g_hat)
    residual = abs(lhs - rhs)
    rng = np.random.default_rng(IDENTITY_SEED)
    max_excess = -np.inf
    for _ in range(IDENTITY_PROBES):
        g = rng.standard_normal(n)
        max_excess = max(max_excess, objective(g) - lhs)
    return VariationalIdentityReport(
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        max_probe_excess=float(max_excess),
        passes=bool(residual <= IDENTITY_TOL and max_excess <= IDENTITY_TOL),
    )


def _check_comparable(fam_a: KernelFamily, fam_b: KernelFamily) -> None:
    if fam_a.n != fam_b.n or fam_a.k != fam_b.k:
        raise ValidationError(
            f"families differ in shape: {fam_a.k}x{fam_a.n} vs {fam_b.k}x{fam_b.n}"
        )
    if not np.allclose(fam_a.pi.weights, fam_b.pi.weights, atol=1e-12, rtol=0.0):
        raise ValidationError("families must share the same target")


def peskun_dominates(fam_a: KernelFamily, fam_b: KernelFamily) -> PeskunComparison:
    """Kernelwise Dirichlet-form comparison: does the first family dominate?

    Kernel by kernel, the first family dominates when the second one's
    kernel is larger as a quadratic form, equivalently when the symmetrised
    difference (second minus first) has no eigenvalue below -PSD_TOL. The
    symmetrisation D^{1/2} (B - A) D^{-1/2} with D = diag(pi) has real
    spectrum for reversible kernels.
    """
    _check_comparable(fam_a, fam_b)
    verdicts = []
    min_eigs = []
    for ka, kb in zip(fam_a.kernels, fam_b.kernels):
        s = _pi_similar(kb.matrix - ka.matrix, fam_a.pi.weights)
        low = float(np.linalg.eigvalsh((s + s.T) / 2.0)[0])
        min_eigs.append(low)
        verdicts.append(bool(low >= -PSD_TOL))
    return PeskunComparison(
        dominance_per_kernel=tuple(verdicts),
        per_kernel_min_eigenvalue=tuple(min_eigs),
        min_dirichlet_gap_eigenvalue=float(min(min_eigs)),
        dominates=bool(all(verdicts)),
    )


def check_peskun_ordering(
    fam_a: KernelFamily,
    fam_b: KernelFamily,
    f: Observable,
    lambda_grid: Sequence[float],
) -> list[OrderingReport]:
    """Compare the cycle variances of two two-kernel families on a grid,
    read as in check_scan_ordering: var_a is the first family's and var_b
    the second's, and gap_lower_bound is NaN. The limit row needs both
    families to pass the summability check. That gap >= 0 is a theorem
    when the first family dominates the second (peskun_dominates); the rows
    are reported either way, so counterexample hunting stays possible."""
    _check_comparable(fam_a, fam_b)
    if fam_a.k != 2:
        raise ValueError(f"the cycle comparison needs exactly two kernels, got {fam_a.k}")

    def at(lam):
        va = var_lambda_strat(fam_a, f, lam)
        return va, var_lambda_strat(fam_b, f, lam), math.nan, "resolvent"

    def limit():
        return var_limit(fam_a, f, "strat"), var_limit(fam_b, f, "strat"), math.nan

    return _walk(lambda_grid, at, limit)


class BetaPath:
    """Linear blend between the embeddings of two kernel families.

    beta = 0 reproduces the first family, beta = 1 the second. For a
    dominated pair (first family stronger kernelwise) the resolvent
    quadratic form delta is nondecreasing along the path, so its
    derivative is nonnegative.
    """

    def __init__(self, family_a: KernelFamily, family_b: KernelFamily):
        _check_comparable(family_a, family_b)
        self.family_a = family_a
        self.family_b = family_b
        self.pi = family_a.pi
        self.k = family_a.k
        self.n = family_a.n

    # margin lets central difference stencils straddle the endpoints
    _BETA_MARGIN = 1e-3

    def blocks(self, beta: float) -> list[np.ndarray]:
        if not -self._BETA_MARGIN <= beta <= 1.0 + self._BETA_MARGIN:
            raise ValueError(f"blend parameter must lie in [0, 1], got {beta}")
        return [
            (1.0 - beta) * a + beta * b
            for a, b in zip(self.family_a.matrices, self.family_b.matrices)
        ]

    def _fbar(self, f: Observable) -> np.ndarray:
        return np.tile(f.values, (self.k, 1))

    def delta(self, f: Observable, lam: float, beta: float) -> float:
        """Resolvent quadratic form of the blended embedding at the constant
        block built from f."""
        _check_lam(lam)
        fbar = self._fbar(f)
        x = _cycle_solve(self.blocks(beta), 1, lam, fbar, self.pi.weights)
        return float(np.sum((fbar * x) @ self.pi.weights))

    def _resolvents_and_derivative(
        self, f: Observable, lam: float, beta: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Forward and backward shifted-diagonal resolvents of the blend at
        the constant block built from f, as (k, n) arrays, and the
        derivative of delta that they give."""
        blend = self.blocks(beta)
        fbar = self._fbar(f)
        w = self.pi.weights
        forward = _cycle_solve(*_cycle_row("shift_diag", blend), lam, fbar, w)
        backward = _cycle_solve(*_cycle_row("embed_adjoint", blend), lam, fbar, w)
        diffs = [
            b - a for a, b in zip(self.family_a.matrices, self.family_b.matrices)
        ]
        applied = _apply(diffs, 0, forward)
        return forward, backward, lam * float(np.sum((backward * applied) @ w))

    def derivative(self, f: Observable, lam: float, beta: float) -> float:
        """Closed-form derivative of delta along the path.

        Uses the two shifted-diagonal resolvents with the discount inside
        both, paired through the blockwise difference of the families;
        matches a central finite difference of delta.
        """
        _check_lam(lam)
        return self._resolvents_and_derivative(f, lam, beta)[2]


@dataclass(frozen=True)
class PalindromeCase:
    cycle: tuple[int, ...]
    distinguished_index: int
    max_component_gap: float
    derivatives: tuple[float, ...]
    min_derivative: float
    passes: bool


@dataclass(frozen=True)
class PalindromeReport:
    cases: tuple[PalindromeCase, ...]
    passes: bool


def _palindrome_cycles(p: int) -> list[tuple[list[int], list[int]]]:
    odd = list(range(p, 0, -1)) + list(range(2, p + 1))
    even = list(range(p - 1, 0, -1)) + list(range(2, p + 1))
    return [(odd, [p]), (even, [p - 1, 2 * p - 2])]


def palindrome_check(
    generators: Sequence[Kernel], pi: Dist, lam: float, f: Observable
) -> PalindromeReport:
    """Check mirror-symmetric cycles built from p generators.

    Builds the odd cycle of length 2p-1 (mirror around the lone first
    generator) and the even variant of length 2p-2. At each distinguished
    index the forward and backward shifted-diagonal resolvent components
    must coincide, which makes the blend derivative against a family
    perturbed at that index a plain quadratic form, hence nonnegative.
    The derivative is evaluated against the kernel at that index lazified
    with hold PALINDROME_HOLD, at PALINDROME_BETAS evenly spaced blend
    weights from 0 to 1. A case passes when its largest component gap is
    within PALINDROME_COMPONENT_TOL and no derivative falls below
    -PALINDROME_DERIVATIVE_TOL.
    """
    p = len(generators)
    if p < 2:
        raise ValueError(f"need at least two generators, got {p}")
    _check_lam(lam)
    cases = []
    for cycle, indices in _palindrome_cycles(p):
        kernels = [generators[j - 1] for j in cycle]
        fam = make_family(pi.weights, kernels)
        for index in indices:
            perturbed = list(kernels)
            perturbed[index - 1] = lazy(perturbed[index - 1], PALINDROME_HOLD)
            fam_b = make_family(pi.weights, perturbed)
            path = BetaPath(fam, fam_b)
            gaps = []
            derivs = []
            for beta in np.linspace(0.0, 1.0, PALINDROME_BETAS):
                fwd, bwd, deriv = path._resolvents_and_derivative(f, lam, float(beta))
                gaps.append(float(np.abs(fwd[index - 1] - bwd[index - 1]).max()))
                derivs.append(deriv)
            case = PalindromeCase(
                cycle=tuple(cycle),
                distinguished_index=index,
                max_component_gap=max(gaps),
                derivatives=tuple(derivs),
                min_derivative=min(derivs),
                passes=bool(
                    max(gaps) <= PALINDROME_COMPONENT_TOL
                    and min(derivs) >= -PALINDROME_DERIVATIVE_TOL
                ),
            )
            cases.append(case)
    return PalindromeReport(
        cases=tuple(cases), passes=bool(all(c.passes for c in cases))
    )
