"""Exact discounted and limiting variances for the two scan schemes.

The discounted variance of either scheme is one resolvent solve on the
embedded block space, eliminated around the cycle to a single n x n
system (embedding._cycle_solve): the deterministic cycle's with the
family's kernels, the random scan's with the mixed kernel as a cycle of
one block. The limit as the discount approaches one is the same solve at
discount one on the centered subspace (deflating the constant direction),
never a naive substitution, and that solve refuses a limit it cannot
certify. Observables are centered internally, so inputs need not be
pre-centered. The covariance series of the cycle variance and the exact
joint laws of the cycle and embedded chains are independent references
that the test suite keeps (tests/helpers.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scanvar.embedding import _cycle_solve
from scanvar.kernels import (
    Dist,
    KernelFamily,
    Observable,
    ReducibilityError,
    SummabilityError,
    _check_count,
    _check_lam,
    center,
)

SCHEMES = ("strat", "rand")

__all__ = [
    "SCHEMES",
    "SummabilityReport",
    "var_lambda_strat",
    "var_lambda_rand",
    "var_limit",
    "finite_m_variance_exact",
    "summability_check",
]


@dataclass(frozen=True)
class SummabilityReport:
    """Spectral check that full-cycle products contract centered functions."""

    absolutely_summable: bool
    cycle_contraction: float


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def _blocks(fam: KernelFamily, scheme: str) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The kernels of a scheme's cycle and their product: the family's
    kernels and their cached product for strat, and for rand the mixed
    kernel alone, a cycle of one block."""
    if scheme == "rand":
        return (fam._mixed.matrix,), fam._mixed.matrix
    return fam.matrices, fam._cycle


def _solve(
    fam: KernelFamily, f: Observable, lam: float, scheme: str
) -> tuple[np.ndarray, np.ndarray]:
    """(fbar, y): the centred f tiled over the phases, and the solution of
    y_q = fbar_q + lam * M_q y_{q+1}, M_q the scheme's blocks (_blocks),
    for lam in [0, 1]. A cycle of one kernel is its mixed kernel, so the
    two schemes then make the same solve and agree bit for bit.

    lam = 1 is the limit, refused unless certified: strat unless the cycle
    is summable (KernelFamily._summable, which solves no eigenproblem; only
    a refusal computes the radius it names), rand unless the mixed kernel
    has one eigenvalue within 1e-8 of 1 (KernelFamily._unit_count, one
    Cholesky factorisation unless it refuses). The deflated solve then
    leaves the offset of pi . fbar_q from zero as its residual; center
    keeps that offset at the rounding of fbar's own norm, so the guard
    relative to fbar holds, and a constant f centres to zeros, whose solve
    is zero."""
    if lam == 1.0:
        if scheme == "rand":
            ones_count = fam._unit_count
            if ones_count > 1:
                raise ReducibilityError(
                    f"mixed kernel has {ones_count} eigenvalues within 1e-8 of 1, so "
                    "the chain is reducible or too close to it; the limit is refused"
                )
        elif not fam._summable:
            raise SummabilityError(
                f"cycle contraction {fam._cycle_contraction:.6g} is not below 1, "
                "so the covariance series is not absolutely summable"
            )
    mats, prod = _blocks(fam, scheme)
    fbar = np.tile(center(f, fam.pi).values, (len(mats), 1))
    return fbar, _cycle_solve(mats, lam, fbar, fam.pi.weights, prod)


def _variance(fbar: np.ndarray, y: np.ndarray, pi: Dist) -> float:
    """2 m - |f|^2 for a solve of _solve, m the mean of the k terms
    <fbar_q, y_q>_pi rounded once: at discount zero y is fbar bit for bit,
    so the value is |f|^2 exactly for every k (for k a power of two, m is
    the exactly rounded sum over k)."""
    norm_sq = float(np.dot(pi.weights, fbar[0] * fbar[0]))
    terms = [float(np.dot(pi.weights, row)).as_integer_ratio() for row in fbar * y]
    den = max(d for _, d in terms)  # powers of two: each divides the largest
    mean = sum(num * (den // d) for num, d in terms) / (den * len(terms))  # rounds once
    return 2.0 * mean - norm_sq


def var_lambda_strat(fam: KernelFamily, f: Observable, lam: float) -> float:
    """Discounted asymptotic variance of the deterministic cycle.

    Solves one block system of size n*k by elimination around the cycle.
    """
    _check_lam(lam)
    return _variance(*_solve(fam, f, lam, "strat"), fam.pi)


def var_lambda_rand(fam: KernelFamily, f: Observable, lam: float) -> float:
    """Discounted asymptotic variance of the uniformly mixed kernel."""
    _check_lam(lam)
    return _variance(*_solve(fam, f, lam, "rand"), fam.pi)


def summability_check(fam: KernelFamily) -> SummabilityReport:
    """Whether the full-cycle product contracts centred functions, which
    makes the covariance series absolutely summable for every observable,
    and its spectral radius on the centred subspace.

    The centred products from all phases are cyclic rotations of one
    another and share one spectrum, so the product from phase 1 suffices.
    The verdict is the family's certificate from powers of that product
    (KernelFamily._summable), the guard of the strat solve at discount one
    (_solve); the radius, one nonsymmetric eigenproblem per family, is only
    printed.
    """
    return SummabilityReport(
        absolutely_summable=fam._summable,
        cycle_contraction=fam._cycle_contraction,
    )


def var_limit(fam: KernelFamily, f: Observable, scheme: str) -> float:
    """Limiting variance as the discount approaches one: the scheme's
    discounted solve at discount one (_solve), where the constant direction
    is deflated, and which refuses a limit it cannot certify."""
    _check_scheme(scheme)
    return _variance(*_solve(fam, f, 1.0, scheme), fam.pi)


def finite_m_variance_exact(
    fam: KernelFamily, f: Observable, m_steps: int, scheme: str
) -> float:
    """Exact variance of sqrt(M) times the M-step ergodic average, started
    stationary.

    The cross covariances sum to sum_i <f, u_i>_pi over the backward
    recursion u_i = K_{i mod k}(f + u_{i+1}), u_{M-1} = 0, on centred f;
    rand is the one-kernel case with the mixed kernel. Over one whole cycle
    the recursion is one affine map of u and the running sum, built from
    the family's cached cycle product (_cycle_map). The c cycles of the
    horizon are then stepped one by one (_stepped) or taken by binary
    powering of the map (_squared); _squares picks the cheaper from n and c.
    No inverse is formed, so no contraction is needed.
    """
    _check_scheme(scheme)
    _check_count("steps", m_steps, 1, 63)
    mats, prod = _blocks(fam, scheme)
    pi = fam.pi.weights
    fc = center(f, fam.pi).values
    norm_sq = float(np.dot(pi, fc * fc))
    cycle_map = _cycle_map(mats, pi, fc, m_steps)
    if _squares(fam.n, cycle_map[0]):
        total = _squared(prod, pi, *cycle_map)
    else:
        total = _stepped(prod, *cycle_map)
    return norm_sq + 2.0 * total / m_steps


def _cycle_map(mats, pi: np.ndarray, fc: np.ndarray, m_steps: int):
    """(c, u, acc, g, d, r): the recursion's state after its first, partial
    cycle and the affine map of each of the c whole cycles left.

    The first cycle runs the times M - 2 down to c k, phases tail - 1 down
    to 0 (1 <= tail <= k when M > 1), from u = 0. Over a whole cycle from
    phase 0, u becomes P u + g, P = K_0 ... K_{k-1}, and the sum gains
    r u + d: g and d are a whole cycle run from u = 0, and
    r = sum_t pi f K_t ... K_{k-1} comes from one forward sweep.
    """
    k, wf = len(mats), pi * fc
    cycles = max(m_steps - 2, 0) // k
    tail = m_steps - 1 - cycles * k
    g, d = _backward(mats, wf, fc, k)
    u, acc = (g, d) if tail == k else _backward(mats, wf, fc, tail)
    r = wf @ mats[0]
    for m in mats[1:]:
        r = (r + wf) @ m
    return cycles, u, acc, g, d, r


def _backward(mats, wf: np.ndarray, fc: np.ndarray, phases: int):
    """(u, sum of <f, u>_pi) after the recursion runs phases - 1 down to 0
    from u = 0."""
    u, total = np.zeros_like(fc), 0.0
    for t in reversed(range(phases)):
        u = mats[t] @ (fc + u)
        total += float(wf @ u)
    return u, total


def _squares(n: int, cycles: int) -> bool:
    """Whether binary powering costs less than stepping, counted in steps:
    stepping takes c, powering about 8 for its setup plus log2(c)
    squarings of the (n + 2)-square map at 3 + n / 6 steps each (measured
    on one BLAS thread, n from 2 to 1000)."""
    return cycles > 8 + (3 + n / 6) * math.log2(max(cycles, 1))


def _stepped(prod, cycles, u, acc, g, d, r) -> float:
    """The sum after c steps of u <- P u + g, each adding r u + d. The
    differences v_b = u_b - u_{b-1} of successive inputs follow v <- P v,
    so the c inputs sum to c u_0 + sum_{0<b<c} (c - b) v_b: c - 1
    matrix-vector products and no augmented matrix. The terms decay with
    the chain's mixing rather than pile up at the fixed point, and P acts
    on them as the centred Q does, up to rounding."""
    total = acc + cycles * (d + float(r @ u))
    if cycles > 1:
        v = prod @ u + g - u
        for weight in range(cycles - 1, 1, -1):
            total += weight * float(r @ v)
            v = prod @ v
        total += float(r @ v)
    return total


def _squared(prod, pi, cycles, u, acc, g, d, r) -> float:
    """The sum after c steps of the map, by binary powering of the affine
    matrix [[Q, g, 0], [0, 1, 0], [r, d, 1]] on (u, 1, acc), with the
    centred Q = P - 1 pi', equal to P on centred u: the powers of Q decay,
    so no rounding of the unit eigenvalue grows with c, and the other
    entries grow at most like c. Entries of a power of Q below 1e-100 are
    set to zero: they change no result by more than n 1e-100 of its scale,
    and squaring them further would run into subnormal numbers, on which
    matrix products are many times slower."""
    n = u.size
    aff = np.zeros((n + 2, n + 2))
    aff[:n, :n] = prod - pi
    aff[:n, n] = g
    aff[n + 1, :n] = r
    aff[n:, n:] = [[1.0, 0.0], [d, 1.0]]
    vec = np.concatenate([u, [1.0, acc]])
    while True:
        if cycles & 1:
            vec = aff @ vec
        cycles >>= 1
        if not cycles:
            return float(vec[n + 1])
        aff = aff @ aff
        power = aff[:n, :n]
        power[np.abs(power) < 1e-100] = 0.0
