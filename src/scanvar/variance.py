"""Exact discounted and limiting variances for the two scan schemes.

The discounted variance of the deterministic cycle is available two ways:
one resolvent solve on the embedded block space, eliminated around the
cycle to a single n x n system, or direct summation of the covariance
series with a reported truncation bound. The random scan is the same solve
with one block, the mixed kernel. Limits as the discount approaches one are
the same solves at discount one on the centered subspace (deflating the
constant direction), never a naive substitution. Observables are centered
internally, so inputs need not be pre-centered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scanvar.embedding import BlockVector, _cycle_solve, _family_row, block_inner
from scanvar.kernels import (
    Dist,
    KernelFamily,
    Observable,
    ReducibilityError,
    SummabilityError,
    ValidationError,
    _check_lam,
    _pi_symmetrised,
    _rounding_slack,
    random_scan,
)

DEFAULT_SERIES_TERMS = 400
SCHEMES = ("strat", "rand")

# Distance from 1 within which an eigenvalue of the mixed kernel counts as a
# second unit eigenvalue, refusing the random-scan limit.
_NEAR_ONE = 1e-8

# Table-size guard for exact joint laws.
JOINT_LAW_MAX_CELLS = 1_000_000

__all__ = [
    "DEFAULT_SERIES_TERMS",
    "SCHEMES",
    "SummabilityReport",
    "var_lambda_strat",
    "var_lambda_strat_series",
    "var_lambda_rand",
    "var_limit",
    "finite_m_variance_exact",
    "summability_check",
    "joint_law_exact",
    "series_truncation_bound",
]


@dataclass(frozen=True)
class SummabilityReport:
    """Spectral check that full-cycle products contract centered functions."""

    absolutely_summable: bool
    cycle_contraction: float


def _centered_values(f: Observable, pi: Dist) -> np.ndarray:
    if f.n != pi.n:
        raise ValidationError(f"observable has {f.n} values for {pi.n} states")
    return f.values - float(np.dot(pi.weights, f.values))


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return scheme


def series_truncation_bound(f_norm_sq: float, lam: float, terms: int) -> float:
    """Worst-case tail of the covariance series beyond `terms` steps."""
    if lam == 0.0:
        return 0.0
    return 2.0 * f_norm_sq * lam ** (terms + 1) / (1.0 - lam)


def _solve(
    fam: KernelFamily, f: Observable, lam: float, scheme: str
) -> tuple[np.ndarray, np.ndarray]:
    """(fbar, y): the centred f tiled over the phases, and the solution of
    y_q = fbar_q + lam * M_q y_{q+1}, with the family's kernels (the embed
    row and its cached product) for strat and the mixed kernel alone for
    rand; lam lies in [0, 1]."""
    if scheme == "rand":
        blocks, prod = [random_scan(fam).matrix], None
    else:
        blocks, _, prod = _family_row(fam, "embed")
    fbar = np.tile(_centered_values(f, fam.pi), (len(blocks), 1))
    return fbar, _cycle_solve(blocks, 1, lam, fbar, fam.pi.weights, prod)


def _variance(fbar: np.ndarray, y: np.ndarray, pi: Dist) -> float:
    """(2/k) sum_q <fbar_q, y_q> - |f|^2 for a solve of _solve."""
    norm_sq = float(np.dot(pi.weights, fbar[0] * fbar[0]))
    return (2.0 / len(fbar)) * block_inner(BlockVector(fbar), BlockVector(y), pi) - norm_sq


def var_lambda_strat(
    fam: KernelFamily,
    f: Observable,
    lam: float,
    method: str = "resolvent",
    series_terms: int = DEFAULT_SERIES_TERMS,
) -> float:
    """Discounted asymptotic variance of the deterministic cycle.

    The resolvent method solves one block system of size n*k by elimination
    around the cycle; the series method sums the discounted covariances
    directly (its truncation bound is available from
    var_lambda_strat_series). Both agree within the bound.
    """
    _check_lam(lam)
    if method == "resolvent":
        return _variance(*_solve(fam, f, lam, "strat"), fam.pi)
    if method == "series":
        value, _ = var_lambda_strat_series(fam, f, lam, series_terms)
        return value
    raise ValueError(f"method must be 'resolvent' or 'series', got {method!r}")


def var_lambda_strat_series(
    fam: KernelFamily,
    f: Observable,
    lam: float,
    terms: int = DEFAULT_SERIES_TERMS,
) -> tuple[float, float]:
    """Series evaluation of the discounted cycle variance.

    Returns (value, truncation_bound). The per-phase covariance at lag d is
    advanced by the cross-phase recursion h_q <- K_q h_{sigma(q)}, so each
    extra lag costs k matrix-vector products.
    """
    _check_lam(lam)
    if terms < 0:
        raise ValueError(f"series_terms must be nonnegative, got {terms}")
    fc = _centered_values(f, fam.pi)
    weights = fam.pi.weights
    norm_sq = float(np.dot(weights, fc * fc))
    mats = fam.matrices
    k = fam.k
    wf = weights * fc
    h = np.tile(fc, (k, 1))
    acc = 0.0
    lam_pow = 1.0
    for _ in range(terms):
        h = np.stack([mats[q] @ h[(q + 1) % k] for q in range(k)])
        lam_pow *= lam
        acc += lam_pow * float(np.sum(h @ wf))
    value = norm_sq + (2.0 / k) * acc
    return value, series_truncation_bound(norm_sq, lam, terms)


def var_lambda_rand(fam: KernelFamily, f: Observable, lam: float) -> float:
    """Discounted asymptotic variance of the uniformly mixed kernel."""
    _check_lam(lam)
    return _variance(*_solve(fam, f, lam, "rand"), fam.pi)


def summability_check(fam: KernelFamily) -> SummabilityReport:
    """Spectral radius of the full-cycle product on the centered subspace.

    The centered product from any phase is a cyclic rotation of the product
    of the centered kernels K_i - 1 pi', so all phases share one spectrum
    and the product from phase 1 suffices. A radius below one makes the
    covariance series absolutely summable for every observable, which is
    the sufficient condition checked here. The nonsymmetric eigenproblem
    is solved once per family, for the printed radius; var_limit needs only
    the verdict and first tries a certificate from symmetric eigenproblems
    (see kernels._certifies_summability), falling back to this radius.
    """
    contraction = fam._cycle_contraction
    return SummabilityReport(
        absolutely_summable=bool(contraction < 1.0),
        cycle_contraction=contraction,
    )


def _near_one_count(kernel: np.ndarray, weights: np.ndarray) -> int:
    """Number of eigenvalues of a pi-reversible kernel within 1e-8 of 1.

    Counted on the symmetric part of the pi-symmetrised kernel. Every
    eigenvalue of the kernel lies within the Bauer-Fike radius (the skew
    part's Frobenius norm plus the rounding slack) of one of the symmetric
    part's, so the two counts agree unless an eigenvalue of the symmetric
    part lies within that radius of the 1e-8 boundary; then the kernel's
    own eigenvalues are counted. A radius of 1e-8 or more puts the unit
    eigenvalue itself that close, so the kernel's eigenvalues are counted
    without solving the symmetric problem first.
    """
    sym, skew = _pi_symmetrised(kernel, weights)
    radius = skew + _rounding_slack(weights)
    if radius < _NEAR_ONE:
        dist = np.abs(np.linalg.eigvalsh(sym) - 1.0)
        if not np.any(np.abs(dist - _NEAR_ONE) <= radius):
            return int(np.sum(dist < _NEAR_ONE))
    return int(np.sum(np.abs(np.linalg.eigvals(kernel) - 1.0) < _NEAR_ONE))


def var_limit(fam: KernelFamily, f: Observable, scheme: str) -> float:
    """Limiting variance as the discount approaches one.

    Both schemes take the discounted route at discount one, where the solve
    deflates the constant direction. strat is guarded by summability: a
    certificate from symmetric eigenproblems when it holds, else the
    summability check's radius. rand is guarded by an eigenvalue-multiplicity
    check on the mixed kernel, counted on its symmetric part (see
    _near_one_count).
    """
    _check_scheme(scheme)
    if scheme == "rand":
        ones_count = _near_one_count(random_scan(fam).matrix, fam.pi.weights)
        if ones_count > 1:
            raise ReducibilityError(
                f"mixed kernel has {ones_count} eigenvalues within 1e-8 of 1, so "
                "the chain is reducible or too close to it; the limit is refused"
            )
    elif not fam._summable:
        raise SummabilityError(
            f"cycle contraction {summability_check(fam).cycle_contraction:.6g} "
            "is not below 1; the covariance series does not converge absolutely"
        )
    return _variance(*_solve(fam, f, 1.0, scheme), fam.pi)


def finite_m_variance_exact(
    fam: KernelFamily, f: Observable, m_steps: int, scheme: str
) -> float:
    """Exact variance of sqrt(M) times the M-step ergodic average, started
    stationary.

    The cross covariance of times i < j is <f, K_q ... K_{j-1} f>_pi with
    q = i mod k; rand is the one-kernel case with the mixed kernel. Short
    horizons sum the covariances lag by lag (_lag_sum); longer ones group
    the pairs by start phase and lag residue into power sums of the centred
    cycle product, taken by binary doubling (_doubling_sum).
    _takes_doubling picks the cheaper of the two from n, k and M.
    """
    _check_scheme(scheme)
    if m_steps < 1:
        raise ValueError(f"step count must be at least 1, got {m_steps}")
    if scheme == "rand":
        mixed = random_scan(fam).matrix
        mats, prod = (mixed,), mixed
    else:
        mats, prod = fam.matrices, fam._cycle
    pi = fam.pi.weights
    fc = _centered_values(f, fam.pi)
    norm_sq = float(np.dot(pi, fc * fc))
    if _takes_doubling(fam.n, len(mats), m_steps):
        cross = _doubling_sum(mats, prod, pi, fc, m_steps)
    else:
        cross = _lag_sum(mats, pi, fc, m_steps)
    return norm_sq + 2.0 * cross / m_steps


def _takes_doubling(n: int, k: int, m_steps: int) -> bool:
    """Whether the doubling is the cheaper route, counted in matrix-vector
    products: the lag loop's M k against the doubling's 2 k^2 for its first
    images, 64 for the fixed cost of its many small calls, and
    n log2(M / k) for its matrix products, about 3.5 n log2(M / k) times
    the work of one but run about 3.5 times faster per operation (measured
    on one BLAS thread, n from 2 to 600)."""
    return m_steps * k > 2 * k * k + 64 + n * max(math.log2(m_steps / k), 0.0)


def _lag_sum(mats, pi: np.ndarray, fc: np.ndarray, m_steps: int) -> float:
    """Sum of the cross covariances over all pairs i < j < M, lag by lag:
    k matrix-vector products per lag."""
    wf = pi * fc
    k = len(mats)
    total = 0.0
    if k == 1:  # no phases to stack: pairs at lag d occur M - d times
        v = fc
        for lag in range(1, m_steps):
            v = mats[0] @ v
            total += (m_steps - lag) * float(np.dot(wf, v))
        return total
    h = np.tile(fc, (k, 1))
    for lag in range(1, m_steps):
        h = np.stack([mats[q] @ h[(q + 1) % k] for q in range(k)])
        cov = h @ wf  # cov[q]: lag covariance when the start phase is q+1
        last = m_steps - 1 - lag  # largest start index paired with this lag
        for q in range(k):
            if last >= q:
                count = (last - q) // k + 1
                # starts i with i mod k == q occur `count` times among 0..last
                total += count * float(cov[q])
    return total


def _doubling_sum(mats, prod, pi: np.ndarray, fc: np.ndarray, m_steps: int) -> float:
    """The sum of _lag_sum by power sums of the centred cycle product.

    A lag d = a k + b (1 <= b <= k) from phase q occurs C - a times, where
    C = C_{q+b} counts the starts with b steps left. Its kernel is
    P_q^a G_{q,b}, with P_q the full cycle from phase q and G_{q,b} the
    first b kernels. Writing P_q = A_q B_q and P = B_q A_q (the cycle from
    phase 0, `prod`), P_q^a = A_q P^(a-1) B_q for a >= 1, and
    B_q G_{q,b} = W_s is the first s = q + b kernels from phase 0. So the
    pairs of group (q, b) sum to
        C <f, G_{q,b} f> + (pi f A_q) H(C - 1) W_s f,
    H(c) = sum_{a<c} (c - a) Q^a with Q = P - 1 pi': on centred f, the
    constants that P^a keeps contribute nothing, and without them the
    entries of H(c) grow like c, not c^2. The 2k - 1 values of c = C - 1
    differ by at most 2: H and G(c) = sum_{a<c} Q^a are doubled up to the
    smallest, lo (_power_sums), and the rest is stepped power by power,
    H(c) = H(lo) + (c - lo) G(lo) + sum_{lo<=a<c} (c - a) Q^a. No inverse
    is formed, so no contraction is needed.
    """
    k = len(mats)
    wf = pi * fc
    h, images = [fc] * k, []  # images[b - 1][q] = G_{q,b} f, b = 1..k
    for _ in range(k):
        h = [m @ x for m, x in zip(mats, h[1:] + h[:1])]
        images.append(h)
    images = np.array(images)
    # counts[b - 1, q] = C_{q+b}, the starts t < M - b with t mod k == q
    s = np.add.outer(np.arange(1, k + 1), np.arange(k))
    counts = np.maximum((m_steps - 1 - s) // k + 1, 0)
    total = float(np.sum(counts * (images @ wf)))
    rows = np.tile(wf, (k, 1))  # rows[q] = pi f A_q
    for q in range(k):
        for m in mats[q:]:
            rows[q] = rows[q] @ m
    # column s - 1 of heads is W_s f, row s - 1 of weights sums rows[q]
    # over the groups with q + b = s
    heads = np.concatenate([images[:, 0], images[: k - 1, 0] @ prod.T]).T
    weights = np.stack(
        [rows[max(0, j - k + 1) : j + 1].sum(axis=0) for j in range(2 * k - 1)]
    )
    powers = np.maximum((m_steps - 1 - np.arange(1, 2 * k)) // k, 0)  # C_s - 1
    lo, y = int(powers.min()), heads
    if lo:
        g_mat, h_mat, q_pow = _power_sums(prod - pi[None, :], lo)
        sums = h_mat @ heads + (powers - lo) * (g_mat @ heads)
        total += float(np.sum(weights.T * sums))
        y = q_pow @ heads
    for a in range(lo, int(powers.max())):  # P y = Q y: y has centred columns
        covs = np.einsum("sn,ns->s", weights, y)
        total += float(np.sum(np.maximum(powers - a, 0) * covs))
        y = prod @ y
    return total


def _power_sums(q_mat: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G(c), H(c), Q^c) for c >= 1, G(c) = sum_{a<c} Q^a and
    H(c) = sum_{a<c} (c - a) Q^a, by binary doubling over the bits of c:
    G(2m) = G + Q^m G and H(2m) = H + m G + Q^m H, then for a set bit
    G(m+1) = G + Q^m and H(m+1) = H + G(m+1)."""
    n = q_mat.shape[0]
    g_mat, h_mat, q_pow, m = np.eye(n), np.eye(n), q_mat, 1
    for bit in bin(c)[3:]:
        both = q_pow @ np.concatenate([g_mat, h_mat], axis=1)
        h_mat = h_mat + m * g_mat + both[:, n:]
        g_mat = g_mat + both[:, :n]
        q_pow = _flushed(q_pow @ q_pow)
        m *= 2
        if bit == "1":
            g_mat = g_mat + q_pow
            h_mat = h_mat + g_mat
            q_pow = _flushed(q_pow @ q_mat)
            m += 1
    return g_mat, h_mat, q_pow


def _flushed(power: np.ndarray) -> np.ndarray:
    """A power of Q whose entries all lie below 1e-100 is set to zero: its
    products with G and H (identity plus more) change no entry by more than
    n 1e-100, far below their rounding, and squaring it further would run
    into subnormal numbers, on which matrix products are many times slower."""
    if np.abs(power).max() < 1e-100:
        return np.zeros_like(power)
    return power


def joint_law_exact(fam: KernelFamily, m: int, scheme: str) -> np.ndarray:
    """Exact law of (X_0, ..., X_m) as an (n, ..., n) table.

    strat multiplies the per-step kernels along the cycle; embedded runs the
    product chain from the tensorised target and marginalises onto the
    staggered diagonal components. The two tables agree identically.
    """
    if m < 0:
        raise ValueError(f"horizon must be nonnegative, got {m}")
    if scheme not in ("strat", "embedded"):
        raise ValueError(
            f"scheme must be 'strat' or 'embedded', got {scheme!r}"
        )
    n = fam.n
    if float(n) ** (m + 1) > JOINT_LAW_MAX_CELLS:
        raise ValueError(
            f"joint law table with {n}^{m + 1} cells exceeds the "
            f"{JOINT_LAW_MAX_CELLS} cell guard"
        )
    pi = fam.pi.weights
    if scheme == "strat":
        table = pi.copy()
        for step in range(1, m + 1):
            mat = fam.kernels[(step - 1) % fam.k].matrix
            table = table[..., np.newaxis] * mat
        return table
    k = fam.k
    big = n**k
    if big * big > 100_000_000:
        raise ValueError(f"product chain with {big} states is too large")
    comps = np.indices((n,) * k).reshape(k, big)
    mats = fam.matrices
    step_mat = np.ones((big, big))
    for b in range(k):
        step_mat *= mats[b][comps[b][:, None], comps[(b + 1) % k][None, :]]
    start = np.ones(big)
    for b in range(k):
        start *= pi[comps[b]]
    # front[y_0..y_i, z]: law of the extracted prefix jointly with the
    # current product state; the time-i component index is i mod k.
    front = np.zeros((n, big))
    front[comps[0], np.arange(big)] = start
    for step in range(1, m + 1):
        pushed = front @ step_mat
        comp = comps[step % k]
        indicator = np.zeros((n, big))
        indicator[comp, np.arange(big)] = 1.0
        front = (pushed[:, np.newaxis, :] * indicator[np.newaxis, :, :]).reshape(
            -1, big
        )
    return front.sum(axis=1).reshape((n,) * (m + 1))
