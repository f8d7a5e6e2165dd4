"""Shared builders and independent oracles for the test suite.

Oracles here recompute quantities from scratch with plain numpy, following
the defining formulas rather than the library's evaluation strategy, so a
library bug cannot hide in both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from scanvar.embedding import diag_realization, embedding_realization
from scanvar.kernels import (
    NUMERIC_TOL,
    Dist,
    Kernel,
    KernelFamily,
    Observable,
    ValidationError,
    center,
    gibbs_kernel,
    lazy,
    make_family,
    metropolis_kernel,
    random_reversible,
)

E1_P1 = [[0.9, 0.1], [0.1, 0.9]]
E1_P2 = [[0.6, 0.4], [0.4, 0.6]]
E1_PI = [0.5, 0.5]
E1_F = [1.0, -1.0]

E1_VAR_STRAT_HALF = 77.0 / 48.0
E1_VAR_RAND_HALF = 5.0 / 3.0
E1_GAP_HALF = 1.0 / 16.0
E1_LIMIT_STRAT = 18.0 / 7.0
E1_LIMIT_RAND = 3.0
E1_CYCLE_CONTRACTION = 0.16
E1_RESOLVENT_FORM_HALF = 125.0 / 48.0

# Three kernels on E1's target and observable on which strat <= rand fails,
# a theorem for two kernels only: each flips the state with probability
# 0.9, 0.9 and 0.1 in turn.
K3_COUNTER_KERNELS = [[[1.0 - p, p], [p, 1.0 - p]] for p in (0.9, 0.9, 0.1)]

# variational_identity_check: the number of random probes and their seed.
IDENTITY_PROBES = 200
IDENTITY_SEED = 0
# palindrome_check: the hold of the lazified perturbation, and how many
# evenly spaced blend weights in [0, 1] it evaluates.
PALINDROME_HOLD = 0.5
PALINDROME_BETAS = 11
# joint_law_exact: the largest table it builds.
JOINT_LAW_MAX_CELLS = 1_000_000


def e1_family() -> KernelFamily:
    return make_family(E1_PI, [E1_P1, E1_P2])


def random_dist(rng: np.random.Generator, n: int) -> Dist:
    w = rng.random(n) + 0.2
    return Dist(w / w.sum())


def random_family(rng: np.random.Generator, n: int, k: int) -> KernelFamily:
    pi = random_dist(rng, n)
    kernels = [random_reversible(pi, int(rng.integers(2**62))) for _ in range(k)]
    return make_family(pi.weights, kernels)


def crowded_family(n: int = 12, seed: int = 0) -> KernelFamily:
    """Two random reversible kernels on a target whose weights run from
    1e-12 to one, the second holding with probability 1 - 1e-9: many
    cumulative weights lie within 1e-9 of zero or of one, so they crowd
    the first and last buckets of any even split of [0, 1)."""
    rng = np.random.default_rng(seed)
    w = np.geomspace(1e-12, 1.0, n)
    rng.shuffle(w)
    pi = Dist(w / w.sum())
    hold = lazy(random_reversible(pi, seed + 2), 1.0 - 1e-9)
    return make_family(pi.weights, [random_reversible(pi, seed + 1), hold])


def tiny_weight_model() -> tuple[KernelFamily, Observable]:
    """One random reversible kernel on six states whose first target
    weight is scaled by 1e-12 (pi_0 = 6.6e-14; cycle contraction 0.913),
    and f = (0, 1, ..., 5)."""
    rng = np.random.default_rng(32)
    w = rng.random(6) + 0.05
    w[0] *= 1e-12
    pi = Dist(w / w.sum())
    return make_family(pi.weights, [random_reversible(pi, 32)]), Observable(np.arange(6.0))


def random_centered(rng: np.random.Generator, fam: KernelFamily) -> Observable:
    v = rng.standard_normal(fam.n)
    return Observable(v - float(np.dot(fam.pi.weights, v)))


KINDS = ("reversible", "metropolis", "gibbs", "lazy")
# scales for families(): half the draws scale one target weight by 1e-12
TINY_SCALES = (1.0, 1.0, 1e-6, 1e-12, 1e-12, 1e-12)


@st.composite
def families(
    draw, scales=(1.0, 1.0, 1.0, 1e-6, 1e-12), holds=(0.0, 0.3, 0.9, 1.0), k=None
):
    """Families of k kernels (one to five when k is None) on at most eight
    states, each kernel a random reversible one, a Metropolised Dirichlet
    proposal, a Gibbs coordinate update on a 2 x (n/2) grid (1 x n when n
    is odd) or a random reversible kernel lazified by one of `holds`; one
    target weight is scaled by one of `scales`."""
    n = draw(st.integers(2, 8))
    if k is None:
        k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(n) + 0.05
    w[0] *= draw(st.sampled_from(scales))
    pi = Dist(w / w.sum())
    grid = (2, n // 2) if n % 2 == 0 else (1, n)
    kernels = []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=k, max_size=k)):
        seed = int(rng.integers(2**62))
        if kind == "reversible":
            kernels.append(random_reversible(pi, seed))
        elif kind == "metropolis":
            proposal = Kernel(rng.dirichlet(np.full(n, 0.5), size=n))
            kernels.append(metropolis_kernel(pi, proposal))
        elif kind == "gibbs":
            kernels.append(gibbs_kernel(pi, grid, draw(st.sampled_from([1, 2]))))
        else:
            hold = draw(st.sampled_from(holds))
            kernels.append(lazy(random_reversible(pi, seed), hold))
    fam = make_family(pi.weights, kernels)
    f = Observable(rng.standard_normal(n))
    return fam, f


def dirichlet_family(rng: np.random.Generator, n: int, k: int) -> KernelFamily:
    """k kernels on a Dirichlet(1) target, each a Metropolised proposal
    with Dirichlet(0.3) rows: rougher kernels than families() draws, on
    which random scan need not lose to the cycle for k >= 3."""
    pi = Dist(rng.dirichlet(np.ones(n)))
    kernels = [
        metropolis_kernel(pi, Kernel(rng.dirichlet(np.full(n, 0.3), size=n)))
        for _ in range(k)
    ]
    return make_family(pi.weights, kernels)


@st.composite
def dirichlet_families(draw):
    """dirichlet_family on two to five states with three to five kernels."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(3, 5))
    return dirichlet_family(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, k)


def lazified(fam: KernelFamily, holds) -> KernelFamily:
    """Kernelwise identity blend of a family; `holds` is a scalar or one per kernel."""
    if np.isscalar(holds):
        holds = [holds] * fam.k
    mats = [
        (1.0 - a) * m + a * np.eye(fam.n) for a, m in zip(holds, fam.matrices)
    ]
    return make_family(fam.pi.weights, mats)


def fsum_mean(fam: KernelFamily) -> np.ndarray:
    """Entrywise mean of the family's matrices, one math.fsum per entry."""
    stack = np.stack(fam.matrices).reshape(fam.k, -1)
    sums = [math.fsum(stack[:, j]) for j in range(stack.shape[1])]
    return np.array(sums).reshape(fam.n, fam.n) / fam.k


def cycle_product(mats, q: int, s: int) -> np.ndarray:
    """Forward cycle product of s kernels from 1-based phase q, via a plain loop."""
    k = len(mats)
    n = mats[0].shape[0]
    out = np.eye(n)
    for step in range(s):
        out = out @ mats[(q - 1 + step) % k]
    return out


# Block vectors: k functions on the state space, one per cycle phase, as a
# (k, n) array whose row q is the function at phase q.


def shift(phi: np.ndarray, direction: int) -> np.ndarray:
    """Cyclic shift of phases: phase q of the result reads phase
    q + direction of phi. Directions +1 and -1 are inverse to each other
    (and coincide for k = 2)."""
    return np.roll(phi, -direction, axis=0)


def diag_apply(fam: KernelFamily, phi: np.ndarray) -> np.ndarray:
    """Blockwise kernel action: phase q becomes kernel q applied to phase q."""
    return np.stack([m @ row for m, row in zip(fam.matrices, phi)])


def apply_embedding(fam: KernelFamily, phi: np.ndarray) -> np.ndarray:
    """One step of the embedded product chain on functions: phase q is
    kernel q applied to phase q + 1, the blockwise action after a forward
    shift."""
    return diag_apply(fam, shift(phi, +1))


def apply_embedding_adjoint(fam: KernelFamily, phi: np.ndarray) -> np.ndarray:
    """Adjoint of the embedding in the block inner product, for reversible
    kernels: the backward shift after the blockwise action."""
    return shift(diag_apply(fam, phi), -1)


def symmetric_part(fam: KernelFamily, phi: np.ndarray) -> np.ndarray:
    """Self-adjoint part: the mean of the embedding and its adjoint."""
    return (apply_embedding(fam, phi) + apply_embedding_adjoint(fam, phi)) / 2.0


def skew_part(fam: KernelFamily, phi: np.ndarray) -> np.ndarray:
    """Skew part: half the difference of the embedding and its adjoint;
    its quadratic form vanishes."""
    return (apply_embedding(fam, phi) - apply_embedding_adjoint(fam, phi)) / 2.0


def block_inner(phi: np.ndarray, psi: np.ndarray, pi: Dist) -> float:
    """Sum of the phasewise pi-weighted inner products, each one np.dot,
    added with exact rounding: any permutation of the phases leaves the
    value unchanged bit for bit."""
    return math.fsum(np.dot(pi.weights, row) for row in phi * psi)


def block_norm(phi: np.ndarray, pi: Dist) -> float:
    return math.sqrt(max(block_inner(phi, phi, pi), 0.0))


def embedding_power(fam: KernelFamily, phi: np.ndarray, i: int) -> np.ndarray:
    """i-fold application of the embedding; phase j of the result is the
    forward cycle product of length i (from phase j) applied to the
    phase (j - 1 + i) mod k + 1 component."""
    out = phi
    for _ in range(i):
        out = apply_embedding(fam, out)
    return out


def oracle_var_strat(fam: KernelFamily, f: Observable, lam: float, terms: int) -> float:
    """Direct double-sum of the discounted cycle covariances.

    Each lag image is rebuilt from scratch by applying the cycle kernels
    right to left, independent of the library's cross-phase recursion.
    """
    pi = fam.pi.weights
    fc = f.values - float(np.dot(pi, f.values))
    mats = fam.matrices
    k = fam.k
    total = float(np.dot(pi, fc * fc))
    for q in range(1, k + 1):
        for s in range(1, terms + 1):
            v = fc.copy()
            for step in reversed(range(s)):
                v = mats[(q - 1 + step) % k] @ v
            total += (2.0 / k) * lam**s * float(np.dot(pi, fc * v))
    return total


def oracle_finite_m(fam: KernelFamily, f: Observable, m_steps: int, scheme: str) -> float:
    """Pair-by-pair variance of the M-step average, brute force over (i, j)."""
    pi = fam.pi.weights
    fc = f.values - float(np.dot(pi, f.values))
    mats = fam.matrices
    k = fam.k
    total = m_steps * float(np.dot(pi, fc * fc))
    for i in range(m_steps):
        for j in range(i + 1, m_steps):
            if scheme == "strat":
                kern = cycle_product(mats, (i % k) + 1, j - i)
            else:
                mean = sum(mats) / k
                kern = np.linalg.matrix_power(mean, j - i)
            total += 2.0 * float(np.dot(pi, fc * (kern @ fc)))
    return total / m_steps


def lag_sum(mats, pi: np.ndarray, fc: np.ndarray, m_steps: int) -> float:
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


def oracle_finite_m_spectral(
    fam: KernelFamily, f: Observable, m_steps: int, scheme: str
) -> float:
    """Variance of the M-step average from the eigenvalues of the dense
    kn x kn realisation E of the cycle (block (q, q+1) = K_q; the one block
    of the mean kernel for rand).

    The lag-d image of the tiled f is E^d fbar, read at block q for the
    starts of phase q. Lag d = a k + b (1 <= b <= k) from phase q occurs
    C - a times, C = (M - 1 - q - b) // k + 1, so eigenvalue mu enters as
    mu^b S_C(mu^k), S_C(x) = sum_{a<C} (C - a) x^a
    = (C (1 - x) - x + x^(C+1)) / (1 - x)^2. The k eigenvalues with
    mu^k = 1 carry the constant blocks, which the centred f does not see,
    and are left out; the chain must be irreducible and aperiodic.
    """
    pi = fam.pi.weights
    fc = f.values - float(np.dot(pi, f.values))
    mats = list(fam.matrices) if scheme == "strat" else [sum(fam.matrices) / fam.k]
    k, n = len(mats), fam.n
    embed = np.zeros((k * n, k * n))
    for q in range(k):
        nxt = (q + 1) % k
        embed[q * n : (q + 1) * n, nxt * n : (nxt + 1) * n] = mats[q]
    mu, vecs = np.linalg.eig(embed)
    coef = np.linalg.solve(vecs, np.tile(fc, k).astype(complex))
    x = mu**k
    keep = np.abs(x - 1.0) > 1e-8
    mu, x, coef, vecs = mu[keep], x[keep], coef[keep], vecs[:, keep]
    total = 0.0
    for q in range(k):
        left = (pi * fc) @ vecs[q * n : (q + 1) * n] * coef
        for b in range(1, k + 1):
            c = (m_steps - 1 - q - b) // k + 1
            if c > 0:
                sums = (c * (1.0 - x) - x + x ** (c + 1)) / (1.0 - x) ** 2
                total += float(np.sum(left * mu**b * sums).real)
    return float(np.dot(pi, fc * fc)) + 2.0 * total / m_steps


def pi_adjoint(mat: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return (pi[None, :] * mat.T) / pi[:, None]


def reference_path(fam: KernelFamily, scheme: str, seed: int, steps: int) -> np.ndarray:
    """One path drawn state by state with a scalar searchsorted per move.

    Follows the documented randomness order of `scanvar.simulate`; returns
    (steps,) states, or (steps, k) for the embedded scheme.
    """
    rng = np.random.default_rng(seed)
    k, n = fam.k, fam.n
    pi_cum = np.cumsum(fam.pi.weights)
    cums = [np.cumsum(m, axis=1) for m in fam.matrices]
    transitions = steps - 1

    def draw(cum_row, u):
        return min(int(np.searchsorted(cum_row, u, side="right")), n - 1)

    if scheme == "embedded":
        states = np.empty((steps, k), dtype=np.int64)
        current = np.array([draw(pi_cum, rng.random()) for _ in range(k)])
        states[0] = current
        step_uniforms = rng.random((transitions, k))
        for t in range(1, transitions + 1):
            nxt = np.empty(k, dtype=np.int64)
            for b in range(k):
                # coordinate b+1 is refreshed through kernel b
                nxt[(b + 1) % k] = draw(cums[b][current[b]], step_uniforms[t - 1, b])
            current = nxt
            states[t] = current
        return states

    states = np.empty(steps, dtype=np.int64)
    x = draw(pi_cum, rng.random())
    states[0] = x
    if scheme == "rand":
        kernel_choice = rng.integers(0, k, size=transitions)
    else:  # strat: step t applies the kernel at cycle phase (t-1) mod k
        kernel_choice = np.arange(transitions) % k
    step_uniforms = rng.random(transitions)
    for t in range(1, transitions + 1):
        x = draw(cums[kernel_choice[t - 1]][x], step_uniforms[t - 1])
        states[t] = x
    return states


def extract_embedded_component(states: np.ndarray) -> np.ndarray:
    """Diagonal component of an embedded (steps, k) path: at time i, the
    coordinate at cycle phase i mod k + 1. Its law is the deterministic
    scan chain's."""
    if states.ndim != 2:
        raise ValidationError(
            f"component extraction needs an embedded (steps, k) path, got shape {states.shape}"
        )
    times = np.arange(states.shape[0])
    return states[times, times % states.shape[1]]


def reference_estimate(
    fam: KernelFamily, f: Observable, steps: int, seeds, scheme: str
) -> np.ndarray:
    """Per-replica sqrt(M) S_M(f - mean) from reference paths, one seed at a
    time, with f centred by the library's `center`."""
    fc = center(f, fam.pi).values
    values = np.empty(len(seeds))
    for r, seed in enumerate(seeds):
        states = reference_path(fam, scheme, seed, steps)
        if scheme == "embedded":
            states = extract_embedded_component(states)
        values[r] = np.sqrt(steps) * float(fc[states].mean())
    return values


def oracle_cycle_contraction(fam: KernelFamily) -> float:
    """Spectral radius of the phase-1 cycle product minus 1 pi', by a plain
    nonsymmetric eigenproblem."""
    centre = np.outer(np.ones(fam.n), fam.pi.weights)
    cycle = cycle_product(fam.matrices, 1, fam.k) - centre
    return float(np.abs(np.linalg.eigvals(cycle)).max())


def oracle_near_one_count(fam: KernelFamily) -> int:
    """Eigenvalues of the mean kernel (fsum_mean, within a few ulps of the
    library's mixed kernel) within 1e-8 of 1, by eigvals."""
    return int(np.sum(np.abs(np.linalg.eigvals(fsum_mean(fam)) - 1.0) < 1e-8))


def oracle_var_limit(fam: KernelFamily, f: Observable, scheme: str) -> float:
    """Limiting variance from one dense deflated solve: the kn x kn block
    system (I - E + 1 w') y = fbar for strat, with E the embedding assembled
    block by block and w = pi tiled / k, or the n x n system with the plain
    mean kernel for rand; then 2 <fbar, y>_w - |f|^2."""
    pi = fam.pi.weights
    fc = f.values - float(np.dot(pi, f.values))
    mats = list(fam.matrices) if scheme == "strat" else [sum(fam.matrices) / fam.k]
    k, n = len(mats), fam.n
    embed = np.zeros((k * n, k * n))
    for q in range(k):
        nxt = (q + 1) % k
        embed[q * n : (q + 1) * n, nxt * n : (nxt + 1) * n] = mats[q]
    w = np.tile(pi, k) / k
    y = np.linalg.solve(np.eye(k * n) - embed + np.outer(np.ones(k * n), w), np.tile(fc, k))
    return 2.0 * float(np.dot(w, np.tile(fc, k) * y)) - float(np.dot(pi, fc * fc))


def exact_variance(fam: KernelFamily, f: Observable, lam: float, scheme: str) -> float:
    """The discounted variance at 0 <= lam < 1 in exact rational arithmetic,
    rounded once to a float. pi, f, lam and the kernels are read exactly
    (Fraction of each float), so the value is the truth for the input the
    library holds. f is centred as sum w f / sum w, the block system
    y_q = fc + lam K_q y_{q+1} is eliminated around the cycle to one n x n
    exact solve of (I - lam^k K_0 ... K_{k-1}) y_0 = r (the exact mean
    kernel alone for rand), and the value is 2 mean_q <fc, y_q> - |fc|^2."""
    n, lam = fam.n, Fraction(lam)
    total = sum(Fraction(x) for x in fam.pi.weights)
    w = [Fraction(x) / total for x in fam.pi.weights]
    fv = [Fraction(x) for x in f.values]
    mean = sum(a * b for a, b in zip(w, fv))
    fc = [x - mean for x in fv]
    mats = [[[Fraction(x) for x in row] for row in m] for m in fam.matrices]
    if scheme == "rand":
        mats = [[[sum(col) / len(mats) for col in zip(*rows)] for rows in zip(*mats)]]
    k = len(mats)

    def step(q, v):  # fc + lam K_q v
        return [c + lam * sum(a * b for a, b in zip(row, v)) for c, row in zip(fc, mats[q])]

    reduced, cycle = fc, [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for q in range(k - 2, -1, -1):
        reduced = step(q, reduced)
    for m in mats:
        cycle = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in cycle]
    rows = [[Fraction(i == j) - lam**k * x for j, x in enumerate(row)] + [r]
            for i, (row, r) in enumerate(zip(cycle, reduced))]
    for c in range(n):  # Gauss-Jordan; I - lam^k P is nonsingular for lam < 1
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                t = rows[r][c] / rows[c][c]
                rows[r] = [x - t * y for x, y in zip(rows[r], rows[c])]
    ys = [[rows[i][n] / rows[i][i] for i in range(n)]]  # y_0, then y_{k-1} down to y_1
    for q in range(k - 1, 0, -1):
        ys.append(step(q, ys[-1]))
    form = sum(sum(a * b * c for a, b, c in zip(w, fc, y)) for y in ys) / k
    return float(2 * form - sum(a * b * b for a, b in zip(w, fc)))


def gram(op: str, mats, pi: np.ndarray, lam: float) -> np.ndarray:
    """The n x n matrix G with var(f) = <f, G f>_pi for every centred f:
    the discounted variance (2/k) <fbar, (I - lam E)^{-1} fbar>_w - |f|^2_pi,
    E the dense kn x kn realisation of the selector `op` on the k blocks
    `mats`, fbar the f tiled over the phases and w the tiled pi. "embed"
    gives the cycle and "symmetric" its self-adjoint part (the random scan
    at k = 2); "embed" on the one block of the mean kernel gives the random
    scan at any k. One dense solve with n right-hand sides, in the basis
    scaled by sqrt(w), where the form is G_b = D^{1/2} G D^{-1/2}."""
    k, n = len(mats), pi.size
    root = np.sqrt(np.tile(pi, k))
    balanced = root[:, None] * embedding_realization(op, mats) / root[None, :]
    tiled = np.tile(np.eye(n), (k, 1))
    solved = np.linalg.solve(np.eye(k * n) - lam * balanced, tiled)
    form = (2.0 / k) * tiled.T @ solved - np.eye(n)
    return form * root[None, :n] / root[:n, None]


def bellman_value(op_matrix: np.ndarray, f, weights) -> tuple[float, np.ndarray]:
    """Quadratic form of the inverse of a positive self-adjoint operator.

    Returns (value, argmax) where value = <f, Op^{-1} f> in the weighted
    inner product and argmax attains the variational characterisation
    sup_g 2<f, g> - <g, Op g>. Raises ValidationError when the operator is
    not self-adjoint for the weights, within NUMERIC_TOL times the larger
    of one and its largest weighted entry, or not positive definite.
    """
    mat = np.asarray(op_matrix, dtype=float)
    fv = f.values if isinstance(f, Observable) else np.asarray(f, dtype=float)
    w = weights.weights if isinstance(weights, Dist) else np.asarray(weights, dtype=float)
    if mat.shape != (w.size, w.size) or fv.size != w.size:
        raise ValidationError(
            f"operator {mat.shape}, vector {fv.size} and weights {w.size} disagree"
        )
    weighted = w[:, None] * mat
    scale = max(float(np.abs(weighted).max()), 1.0)
    if float(np.abs(weighted - weighted.T).max()) > NUMERIC_TOL * scale:
        raise ValidationError("operator is not self-adjoint in the weighted inner product")
    root = np.sqrt(w)
    s = root[:, None] * mat / root[None, :]
    min_eig = float(np.linalg.eigvalsh((s + s.T) / 2.0)[0])
    if min_eig <= 0.0:
        raise ValidationError(
            f"operator is not positive definite (smallest eigenvalue {min_eig:.3g})"
        )
    argmax = np.linalg.solve(mat, fv)
    return float(np.dot(w, fv * argmax)), argmax


def oracle_gap_bound(fam: KernelFamily, f: Observable, lam: float) -> float:
    """The gap bound's skew term from three dense kn x kn solves: the
    forward resolvent y of the embedding T at the tiled centred f, the
    optimiser g = (I - lam T*)^{-1} (I - lam H) y, and
    (2/k) lam^2 <A g, (I - lam H)^{-1} A g> with H and A the self-adjoint
    and skew parts, all in the phase-tiled weights."""
    pi = fam.pi.weights
    fc = f.values - float(np.dot(pi, f.values))
    k, n = fam.k, fam.n
    embed = embedding_realization("embed", fam.matrices)
    adjoint = embedding_realization("embed_adjoint", fam.matrices)
    sym, skew = (embed + adjoint) / 2.0, (embed - adjoint) / 2.0
    eye = np.eye(k * n)
    y = np.linalg.solve(eye - lam * embed, np.tile(fc, k))
    g = np.linalg.solve(eye - lam * adjoint, (eye - lam * sym) @ y)
    ag = skew @ g
    z = np.linalg.solve(eye - lam * sym, ag)
    return (2.0 / k) * lam * lam * float(np.dot(np.tile(pi, k), ag * z))


def var_lambda_strat_series(
    fam: KernelFamily, f: Observable, lam: float, terms: int = 400
) -> tuple[float, float]:
    """Series evaluation of the discounted cycle variance, as (value,
    truncation bound). The per-phase covariance at lag d is advanced by the
    embedding's row, h_q <- K_q h_{q+1}, so each extra lag costs k
    matrix-vector products. The bound is the worst-case tail beyond `terms`
    lags, 2 |f|^2 lam^(terms + 1) / (1 - lam)."""
    pi = fam.pi.weights
    fc = f.values - float(np.dot(pi, f.values))
    norm_sq = float(np.dot(pi, fc * fc))
    mats, k, wf = fam.matrices, fam.k, pi * fc
    h = np.tile(fc, (k, 1))
    acc, lam_pow = 0.0, 1.0
    for _ in range(terms):
        h = np.stack([mats[q] @ h[(q + 1) % k] for q in range(k)])
        lam_pow *= lam
        acc += lam_pow * float(np.sum(h @ wf))
    return norm_sq + (2.0 / k) * acc, 2.0 * norm_sq * lam ** (terms + 1) / (1.0 - lam)


def joint_law_exact(fam: KernelFamily, m: int, scheme: str) -> np.ndarray:
    """Exact law of (X_0, ..., X_m) as an (n, ..., n) table.

    strat multiplies the per-step kernels along the cycle; embedded runs the
    product chain from the tensorised target and marginalises onto the
    staggered diagonal components. The two tables agree identically.
    """
    if scheme not in ("strat", "embedded"):
        raise ValueError(f"scheme must be 'strat' or 'embedded', got {scheme!r}")
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
            table = table[..., np.newaxis] * fam.matrices[(step - 1) % fam.k]
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
        indicator = np.zeros((n, big))
        indicator[comps[step % k], np.arange(big)] = 1.0
        front = (pushed[:, np.newaxis, :] * indicator[np.newaxis, :, :]).reshape(-1, big)
    return front.sum(axis=1).reshape((n,) * (m + 1))


@dataclass(frozen=True)
class VariationalIdentityReport:
    lhs: float
    rhs: float
    residual: float
    max_probe_excess: float


def variational_identity_check(
    kernel: Kernel, pi: Dist, f: Observable, lam: float
) -> VariationalIdentityReport:
    """The resolvent quadratic form against its variational expression.

    For a target-invariant (not necessarily reversible) kernel, the form
    <f, (I - lam K)^{-1} f> equals the objective
    2<f, g> - <g, (I - lam S) g> - lam^2 <A g, (I - lam S)^{-1} A g>
    at the optimiser g, where S and A are the self-adjoint and skew parts;
    IDENTITY_PROBES random probes, drawn from IDENTITY_SEED, can only fall
    below it. Gives the residual |lhs - rhs| and the largest probe excess
    over lhs, both zero up to rounding. A kernel that moves the target by
    more than NUMERIC_TOL raises ValidationError.
    """
    w, mat, fv = pi.weights, kernel.matrix, f.values
    invariance = float(np.abs(w @ mat - w).max())
    if invariance > NUMERIC_TOL:
        raise ValidationError(
            f"kernel does not leave the target invariant (residual {invariance:.3g})"
        )
    adj = pi_adjoint(mat, w)
    skew = (mat - adj) / 2.0
    eye = np.eye(w.size)
    sym_sys = eye - lam * (mat + adj) / 2.0

    def wdot(a, b):
        return float(np.dot(w, a * b))

    def objective(g):
        ag = skew @ g
        return (
            2.0 * wdot(fv, g)
            - wdot(g, sym_sys @ g)
            - lam * lam * wdot(ag, np.linalg.solve(sym_sys, ag))
        )

    resolvent = np.linalg.solve(eye - lam * mat, fv)
    lhs = wdot(fv, resolvent)
    rhs = objective(np.linalg.solve(eye - lam * adj, sym_sys @ resolvent))
    rng = np.random.default_rng(IDENTITY_SEED)
    excess = max(objective(rng.standard_normal(w.size)) for _ in range(IDENTITY_PROBES)) - lhs
    return VariationalIdentityReport(lhs, rhs, abs(lhs - rhs), float(excess))


class BetaPath:
    """Linear blend between the embeddings of two kernel families, solved
    on dense kn x kn realisations.

    beta = 0 reproduces the first family, beta = 1 the second. For a
    dominated pair (first family stronger kernelwise) the resolvent
    quadratic form delta is nondecreasing along the path, so its
    derivative is nonnegative.
    """

    def __init__(self, family_a: KernelFamily, family_b: KernelFamily):
        self.family_a = family_a
        self.family_b = family_b
        self.k, self.n = family_a.k, family_a.n
        self.weights = np.tile(family_a.pi.weights, self.k)

    def blocks(self, beta: float) -> list[np.ndarray]:
        return [
            (1.0 - beta) * a + beta * b
            for a, b in zip(self.family_a.matrices, self.family_b.matrices)
        ]

    def _resolvent(self, op: str, f: Observable, lam: float, beta: float) -> np.ndarray:
        """(I - lam Op)^{-1} applied to f tiled over the phases, with Op the
        dense realisation of the selector on the blend, as a (k, n) array."""
        dense = embedding_realization(op, self.blocks(beta))
        rhs = np.tile(f.values, self.k)
        return np.linalg.solve(np.eye(self.k * self.n) - lam * dense, rhs).reshape(self.k, -1)

    def delta(self, f: Observable, lam: float, beta: float) -> float:
        """Resolvent quadratic form of the blended embedding at the constant
        block built from f."""
        x = self._resolvent("embed", f, lam, beta)
        return float(np.dot(self.weights, np.tile(f.values, self.k) * x.ravel()))

    def _resolvents_and_derivative(
        self, f: Observable, lam: float, beta: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """The forward shifted-diagonal and the backward (embedding adjoint)
        resolvents of the blend at the constant block built from f, as
        (k, n) arrays, and the derivative of delta that they give: lam times
        their pairing through blockdiag(K_b - K_a)."""
        forward = self._resolvent("shift_diag", f, lam, beta)
        backward = self._resolvent("embed_adjoint", f, lam, beta)
        diffs = diag_realization(
            [b - a for a, b in zip(self.family_a.matrices, self.family_b.matrices)]
        )
        pairing = np.dot(self.weights, backward.ravel() * (diffs @ forward.ravel()))
        return forward, backward, lam * float(pairing)

    def derivative(self, f: Observable, lam: float, beta: float) -> float:
        """Closed-form derivative of delta along the path; matches a central
        finite difference of delta."""
        return self._resolvents_and_derivative(f, lam, beta)[2]


@dataclass(frozen=True)
class PalindromeCase:
    cycle: tuple[int, ...]
    distinguished_index: int
    max_component_gap: float
    derivatives: tuple[float, ...]
    min_derivative: float


def palindrome_check(
    generators, pi: Dist, lam: float, f: Observable
) -> tuple[PalindromeCase, ...]:
    """Mirror-symmetric cycles built from p generators.

    Builds the odd cycle of length 2p-1 (mirror around the lone first
    generator) and the even variant of length 2p-2. At each distinguished
    index the forward and backward shifted-diagonal resolvent components
    must coincide, which makes the blend derivative against a family
    perturbed at that index a plain quadratic form, hence nonnegative.
    The derivative is evaluated against the kernel at that index lazified
    with hold PALINDROME_HOLD, at PALINDROME_BETAS evenly spaced blend
    weights from 0 to 1. Gives one case per distinguished index, with its
    largest component gap (zero up to rounding) and its derivatives
    (nonnegative up to rounding).
    """
    p = len(generators)
    if p < 2:
        raise ValueError(f"need at least two generators, got {p}")
    odd = list(range(p, 0, -1)) + list(range(2, p + 1))
    even = list(range(p - 1, 0, -1)) + list(range(2, p + 1))
    cases = []
    for cycle, indices in ((odd, [p]), (even, [p - 1, 2 * p - 2])):
        kernels = [generators[j - 1] for j in cycle]
        fam = make_family(pi.weights, kernels)
        for index in indices:
            perturbed = list(kernels)
            perturbed[index - 1] = lazy(perturbed[index - 1], PALINDROME_HOLD)
            path = BetaPath(fam, make_family(pi.weights, perturbed))
            gaps, derivs = [], []
            for beta in np.linspace(0.0, 1.0, PALINDROME_BETAS):
                fwd, bwd, deriv = path._resolvents_and_derivative(f, lam, float(beta))
                gaps.append(float(np.abs(fwd[index - 1] - bwd[index - 1]).max()))
                derivs.append(deriv)
            cases.append(
                PalindromeCase(tuple(cycle), index, max(gaps), tuple(derivs), min(derivs))
            )
    return tuple(cases)
