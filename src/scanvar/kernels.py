"""Finite-state targets, observables and reversible transition kernels.

Everything is dense and exact at desk scale (up to a couple of thousand
states): a distribution is a length-n weight vector, a kernel is an n x n
row-stochastic matrix acting on functions by ``matrix @ f``, and all
geometry lives in the inner product weighted by the target distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from scanvar.seeding import derive_seed

# Row sums and weight normalisation.
ROW_SUM_TOL = 1e-12
# Detailed balance, relative to the largest probability flow of the kernel.
REVERSIBILITY_TOL = 1e-10
# The default tolerance of the CLI's verdicts (--tol).
NUMERIC_TOL = 1e-10
# Seeded proposals random_reversible tries for an irreducible kernel.
REVERSIBLE_TRIES = 100
# family_faults' words for an empty kernel list, the one family fault that
# the target does not enter.
EMPTY_FAMILY_FAULT = "a kernel family needs at least one kernel"

_EPS = float(np.finfo(float).eps)

__all__ = [
    "ROW_SUM_TOL",
    "REVERSIBILITY_TOL",
    "NUMERIC_TOL",
    "REVERSIBLE_TRIES",
    "EMPTY_FAMILY_FAULT",
    "ValidationError",
    "DegenerateConditionalError",
    "SummabilityError",
    "ReducibilityError",
    "Dist",
    "Observable",
    "Kernel",
    "KernelFamily",
    "FamilyDiagnostics",
    "make_family",
    "inner",
    "center",
    "compose_cycle",
    "random_scan",
    "gibbs_kernel",
    "metropolis_kernel",
    "lazy",
    "random_reversible",
    "is_irreducible",
    "family_diagnostics",
    "weight_faults",
    "value_faults",
    "matrix_faults",
    "family_faults",
]


class ValidationError(ValueError):
    """A structural invariant fails (row sums, positivity, detailed balance).
    A family's refusal by family_faults carries the residuals it measured
    as `diagnostics`; every other refusal carries None."""

    diagnostics: FamilyDiagnostics | None = None


class DegenerateConditionalError(ValueError):
    """The conditioning slice has zero probability, so the conditional is undefined."""


class SummabilityError(RuntimeError):
    """The kernel cycle does not contract centered functions, so the limiting
    covariance series diverges."""


class ReducibilityError(RuntimeError):
    """The chain splits into several closed classes where a unique stationary
    regime is required."""


def _check_lam(lam: float) -> None:
    """Refuse a discount outside [0, 1); discount one has its own limit routes."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {lam}")


def _check_count(name: str, value, least: int, bits: int) -> None:
    """Refuse a value that is not an integer least <= value < 2**bits (a
    bool is not an integer; numpy's are)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")
    if value >= 2**bits:
        raise ValidationError(f"{name} must be below 2**{bits}")


def _entry_faults(a: np.ndarray, ndim: int) -> list[str]:
    """The shape of `a` unless it is a nonempty vector (`ndim` 1) or square
    matrix (`ndim` 2); or else its first non-finite entry; or nothing."""
    if a.ndim != ndim or a.size == 0 or len(set(a.shape)) != 1:
        kind = "vector" if ndim == 1 else "square matrix"
        return [f"shape {a.shape} is not that of a nonempty {kind}"]
    finite = np.isfinite(a)
    if finite.all():
        return []
    first = np.argwhere(~finite)[0]
    where = "".join(f"[{j}]" for j in first)
    return [f"non-finite entry {a[tuple(first)]:g} at {where}"]


def _negative_fault(a: np.ndarray) -> list[str]:
    """The most negative entry of `a`, or nothing."""
    low = float(a.min())
    return [f"negative entry of magnitude {-low:.3g}"] if low < 0.0 else []


def _sum_fault(subject: str, total: float) -> list[str]:
    """`subject` and its sum, if that is off one by more than ROW_SUM_TOL."""
    residual = abs(total - 1.0)
    if residual > ROW_SUM_TOL:
        return [f"{subject} to {total:.13g} (residual {residual:.3g})"]
    return []


def value_faults(v: np.ndarray) -> list[str]:
    """Every violated invariant of observable values: a nonempty vector; then finite."""
    return _entry_faults(v, 1)


@np.errstate(over="ignore")  # an overflowing sum is inf, and refused
def weight_faults(w: np.ndarray) -> list[str]:
    """Every violated invariant of target weights: a nonempty vector; then
    finite; then nonnegative, summing to one within ROW_SUM_TOL."""
    if faults := _entry_faults(w, 1):
        return faults
    return _negative_fault(w) + _sum_fault("weights sum", float(w.sum()))


@np.errstate(over="ignore")  # an overflowing sum is inf, and refused
def matrix_faults(m: np.ndarray) -> list[str]:
    """Every violated invariant of a kernel matrix: square and nonempty; then
    finite; then nonnegative, its worst row summing to one within ROW_SUM_TOL."""
    if faults := _entry_faults(m, 2):
        return faults
    sums = m.sum(axis=1)
    worst = int(np.abs(sums - 1.0).argmax())
    return _negative_fault(m) + _sum_fault(f"row {worst} sums", float(sums[worst]))


def _refuse(faults: list[str], diagnostics: FamilyDiagnostics | None = None) -> None:
    """Raise ValidationError naming every fault, if there is any."""
    if faults:
        err = ValidationError("; ".join(faults))
        err.diagnostics = diagnostics
        raise err


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability vector: nonnegative weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        _refuse(weight_faults(w))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class Observable:
    """A real function on the state space, one value per state."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        _refuse(value_faults(v))
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class Kernel:
    """A row-stochastic transition matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        _refuse(matrix_faults(m))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FamilyDiagnostics:
    """Residuals of the stochasticity and detailed-balance requirements,
    measured and not judged: each caller compares them with its own
    tolerance.

    Balance residuals are reported both as the raw maximum flow imbalance
    max |pi(x) K(x,y) - pi(y) K(y,x)| and relative to the largest flow of
    the kernel.
    """

    row_sum_deviation: tuple[float, ...]
    balance_residual: tuple[float, ...]
    relative_balance_residual: tuple[float, ...]
    pi_sum_deviation: float
    min_pi: float


@np.errstate(over="ignore", invalid="ignore")
def family_diagnostics(pi, matrices) -> FamilyDiagnostics:
    """Diagnose raw kernel matrices against a target without constructing types.

    Accepts anything array-like, so invalid input can still be quantified: a
    non-finite entry or an overflowing sum gives an inf or NaN residual,
    without a warning.
    """
    w = pi.weights if isinstance(pi, Dist) else np.asarray(pi, dtype=float)
    row_dev, bal, rel_bal = [], [], []
    flow, diff = np.empty((2, w.size, w.size))  # reused for every kernel
    for m in matrices:
        a = m.matrix if isinstance(m, Kernel) else np.asarray(m, dtype=float)
        if a.shape != (w.size, w.size):
            raise ValidationError(
                f"kernel shape {a.shape} does not match {w.size} states"
            )
        row_dev.append(float(np.abs(a.sum(axis=1) - 1.0).max()))
        np.multiply(w[:, None], a, out=flow)
        np.abs(np.subtract(flow, flow.T, out=diff), out=diff)
        residual = float(diff.max())
        bal.append(residual)
        peak = float(flow.max())
        rel_bal.append(residual / peak if peak > 0 else residual)
    return FamilyDiagnostics(
        row_sum_deviation=tuple(row_dev),
        balance_residual=tuple(bal),
        relative_balance_residual=tuple(rel_bal),
        pi_sum_deviation=abs(float(w.sum()) - 1.0),
        min_pi=float(w.min()),
    )


def family_faults(diag: FamilyDiagnostics) -> list[str]:
    """Every violated invariant of a family whose residuals are `diag`:
    at least one kernel, no zero target weight (a negative one is the
    target's own fault, see weight_faults), and each kernel's balance
    residual within REVERSIBILITY_TOL of its largest flow."""
    faults = [] if diag.balance_residual else [EMPTY_FAMILY_FAULT]
    if diag.min_pi == 0.0:
        faults.append("target has a zero weight, where detailed balance is ill-posed")
    for i, residual in enumerate(diag.relative_balance_residual):
        if residual > REVERSIBILITY_TOL:
            faults.append(
                f"kernel {i + 1}: relative detailed-balance residual "
                f"{residual:.3g} > {REVERSIBILITY_TOL:g}"
            )
    return faults


@dataclass(frozen=True, eq=False)
class KernelFamily:
    """An ordered family of kernels, each reversible for the shared target,
    on the states {0, ..., n-1}, n the length of the target.

    Construction validates everything: kernels of the target's size,
    stochastic by the Kernel type, and the rules of family_faults, read
    from the family's residuals, which it keeps as `diagnostics`. Values are
    immutable afterwards and safe to share across threads. Derived data
    (the mixed kernel, its symmetric eigendecomposition and the count of
    its eigenvalues near one, the full-cycle product, the cycle contraction
    and the summability verdict) is computed on first use and kept with
    the family.
    """

    pi: Dist
    kernels: tuple[Kernel, ...]
    diagnostics: FamilyDiagnostics = field(init=False, repr=False)

    def __post_init__(self):
        kernels = tuple(self.kernels)
        object.__setattr__(self, "kernels", kernels)
        diag = family_diagnostics(self.pi, kernels)  # refuses another size
        object.__setattr__(self, "diagnostics", diag)
        _refuse(family_faults(diag), diag)

    @property
    def n(self) -> int:
        return self.pi.n

    @property
    def k(self) -> int:
        return len(self.kernels)

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(k.matrix for k in self.kernels)

    @cached_property
    def _mixed(self) -> Kernel:
        """The value of random_scan; two terms add alike in either order."""
        if self.k == 1:
            return self.kernels[0]
        if self.k == 2:
            return Kernel((self.matrices[0] + self.matrices[1]) / 2.0)
        return Kernel(_ascending_sum(np.stack(self.matrices)) / self.k)

    @cached_property
    def _cycle(self) -> np.ndarray:
        """K_1 K_2 ... K_k, read-only: the phase-1 full-cycle product, which
        the summability check centres and the embed row's resolvent solves
        scale by the discount."""
        prod = _cycle_product(self.matrices)
        prod.setflags(write=False)
        return prod

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(mu, V, skew): the eigenvalues, ascending, and orthonormal
        eigenvectors of the symmetric part H = (S + S') / 2 of
        S = _pi_similar(K, pi), K the mixed kernel, and the Frobenius norm
        of the skew part (S - S') / 2, which measures rounding and balance
        residual. _unit_count counts on mu, and every solve with the mixed
        kernel alone runs in this basis (embedding._mixed_solve)."""
        s = _pi_similar(self._mixed.matrix, self.pi.weights)
        sym = s + s.T
        sym /= 2.0
        mu, vecs = np.linalg.eigh(sym)
        return mu, vecs, float(np.linalg.norm(s - s.T)) / 2.0

    @cached_property
    def _cycle_contraction(self) -> float:
        """Spectral radius of the phase-1 full-cycle product minus 1 pi',
        printed and named in refusals, never a verdict (see _summable)."""
        centred = self._cycle - self.pi.weights
        return float(np.abs(np.linalg.eigvals(centred)).max())

    @cached_property
    def _summable(self) -> bool:
        """Whether rho(P - 1 pi') < 1 for the exact product P of the kernels:
        the guard of variance.var_limit(strat) and the verdict of
        variance.summability_check, from no eigenproblem.

        With r = sqrt(pi), B = S - r r', S = D^{1/2} P D^{-1/2}, is similar
        to P - 1 pi'. Its value B_1 from the cached _cycle is squared to
        B_m, m = 2, 4, ..., until |B_m|_F + e_m < 1 with e_m >= |B_m - B^m|_2,
        so that |B^m|_2 < 1 and rho(B) < 1. The family is refused when e_m
        reaches one or a squaring does not lower |B_m|_F: with |B|_2 <= 1,
        an equal norm makes B an isometry on its range, so rho = 1.

        The allowance (Higham, Accuracy and Stability of Numerical
        Algorithms, sec. 3.5) uses u = eps / 2, g_j = j u / (1 - j u),
        d = |sum pi - 1| + g_n and Frobenius norms widened by 1 + g_{n^2}:
        - e_1 = g_{(k-1)n+8} (|S|_F + 1 + d + |B_1|_F): the product of
          nonnegative factors and the balancing err entrywise by
          g_{(k-1)n+4} of S, r r' by g_3, the subtraction by u, and the
          2-norm is monotone on nonnegative matrices;
        - beta >= |B|_2: B = Q S Q + a r' + r b' - (sum pi - 1 + r'a) r r'
          with Q = I - r r', a = r o (P 1 - 1) and b = (pi'P - pi') / r, and
          the Schur test bounds |S|_2 by sqrt(R C), R the largest row sum
          and C the largest (pi'P)_j / pi_j; so beta is
          (sqrt(R C) + 2 |a| + |b| + d + 3 g_{kn+8} (R + C)) (1 + d)^2,
          widened by g_{kn+8} for the rounding of P, R, C, a and b;
        - e_2m = (e_m (2 beta^m + e_m) + g_n |B_m|_F^2) (1 + 8u), which
          grows about linearly in m, as beta is about one.
        No pi_max / pi_min enters: a tiny weight leaves B well scaled."""
        weights, n, u = self.pi.weights, self.n, _EPS / 2.0

        def gamma(j):
            return j * u / (1.0 - j * u)

        def norm(x):
            return float(np.linalg.norm(x)) * (1.0 + gamma(n * n))

        root, rows, flow = np.sqrt(weights), self._cycle.sum(axis=1), weights @ self._cycle
        wide, dev = gamma(self.k * n + 8), abs(float(weights.sum()) - 1.0) + gamma(n)
        tops = float(rows.max()), float((flow / weights).max())
        power = (1.0 + wide) * (1.0 + dev) ** 2 * (
            math.sqrt(tops[0] * tops[1]) + 3.0 * wide * sum(tops) + dev
            + 2.0 * norm(root * (rows - 1.0)) + norm((flow - weights) / root)
        )
        cycle = _pi_similar(self._cycle, weights)
        balanced = norm(cycle)
        cycle -= np.outer(root, root)
        fro, last = norm(cycle), math.inf
        err = gamma((self.k - 1) * n + 8) * (balanced + 1.0 + dev + fro)
        while fro + err >= 1.0:
            if err >= 1.0 or fro >= last:
                return False
            err = (err * (2.0 * power + err) + gamma(n) * fro * fro) * (1.0 + 8.0 * u)
            power *= power * (1.0 + 4.0 * u)
            cycle = cycle @ cycle
            last, fro = fro, norm(cycle)
        return True

    @cached_property
    def _unit_count(self) -> int:
        """How many eigenvalues of the mixed kernel K may lie within 1e-8
        of 1: the guard of variance.var_limit(rand), which refuses a count
        above one, read from _spectrum with no eigenproblem of its own.

        It counts the mu with 1 - mu < 1e-8 + r, r = skew + 16 n eps. S is
        similar to K, and its symmetric part H is normal, so by Bauer-Fike
        every eigenvalue of K lies within |S - H|_2 <= skew of an
        eigenvalue of H. The entrywise rounding of S and H and the backward
        error of eigh move mu by O(n eps) relative to |S|_2, which is about
        one, and 16 n eps covers both. So an eigenvalue of K within 1e-8
        of 1 puts some mu within 1e-8 + r of it, and nothing needs a
        second route. No pi_max / pi_min enters: the entries of S, about
        sqrt(K_ij K_ji), carry no ratio of weights."""
        mu, _, skew = self._spectrum
        radius = skew + 16.0 * self.n * _EPS
        return int(np.sum(1.0 - mu < 1e-8 + radius))


def _cycle_product(matrices) -> np.ndarray:
    """Product of the matrices in the given order, multiplied from the
    left: ((M_1 M_2) M_3) ... M_k."""
    prod = matrices[0]
    for m in matrices[1:]:
        prod = prod @ m
    return prod


def _pi_similar(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S = D^{1/2} K D^{-1/2}, D = diag(pi), for any n x n matrix K: similar
    to K, and symmetric exactly when K is self-adjoint for pi (a kernel:
    reversible). Its symmetric part is (S + S') / 2. One new array: the
    rows are scaled into it, then its columns divided in place."""
    root = np.sqrt(weights)
    similar = root[:, None] * matrix
    similar /= root
    return similar


def make_family(pi, kernels) -> KernelFamily:
    """Bundle a target with kernels, coercing plain arrays to the domain
    types; the target's length is the number of states."""
    pi_d = pi if isinstance(pi, Dist) else Dist(pi)
    ks = tuple(k if isinstance(k, Kernel) else Kernel(k) for k in kernels)
    return KernelFamily(pi_d, ks)


def inner(f: Observable, g: Observable, pi: Dist) -> float:
    """Weighted inner product sum_x pi(x) f(x) g(x)."""
    if f.n != g.n or f.n != pi.n:
        raise ValidationError(
            f"dimension mismatch: f has {f.n}, g has {g.n}, target has {pi.n}"
        )
    return float(np.dot(pi.weights, f.values * g.values))


def center(f: Observable, pi: Dist) -> Observable:
    """Subtract the mean under pi, so the result integrates to zero.

    f's value at the heaviest state goes first, exactly, so a constant f
    centres to zeros and pi . fc is off zero by the rounding of fc's own
    norm, not f's: about (n + 2) eps |fc|_pi / sqrt(pi_max)."""
    if f.n != pi.n:
        raise ValidationError(f"dimension mismatch: f has {f.n}, target has {pi.n}")
    g = f.values - f.values[np.argmax(pi.weights)]
    return Observable(g - float(np.dot(pi.weights, g)))


def compose_cycle(fam: KernelFamily, q: int, s: int) -> Kernel:
    """Product of s kernels read forward along the cycle starting at phase q:
    step j applies the kernel at phase (q - 1 + j) mod k + 1.

    s = 0 returns the identity. The product is taken in application order:
    the phase-q kernel acts first on the state, last on functions.
    """
    if s < 0:
        raise ValueError(f"cycle length must be nonnegative, got {s}")
    if not 1 <= q <= fam.k:
        raise ValueError(f"phase {q} out of range 1..{fam.k}")
    mats = [fam.matrices[(q - 1 + step) % fam.k] for step in range(s)]
    return Kernel(_cycle_product([np.eye(fam.n), *mats]))


def _ascending_sum(stack: np.ndarray) -> np.ndarray:
    """Sums down the first axis, each column added in ascending order: the
    same bits for every order of the rows (0.0 and -0.0 sort and add alike)."""
    return np.add.reduce(np.sort(stack, axis=0), axis=0)


def random_scan(fam: KernelFamily) -> Kernel:
    """Entrywise mean of the family: one uniformly chosen kernel per step.

    Each entry's terms are added in ascending order, so every order of the
    family gives the same bits, within gamma_k = k u / (1 - k u), u = eps / 2,
    of the exact mean barring underflow: recursive summation of k
    nonnegative terms errs by at most gamma_{k-1} (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4), and the division by k by u.
    The kernel is built once per family and is read-only.
    """
    return fam._mixed


def gibbs_kernel(joint: Dist, grid: tuple[int, int], coordinate: int) -> Kernel:
    """Kernel resampling one coordinate of a two-coordinate grid target.

    States index the grid row-major: state = i1 * n2 + i2. The returned
    kernel replaces the chosen coordinate by a draw from its exact
    conditional given the other one; it is idempotent and reversible for
    the joint target.

    Raises DegenerateConditionalError when some conditioning slice has zero
    total probability.
    """
    n1, n2 = grid
    if joint.n != n1 * n2:
        raise ValidationError(
            f"joint has {joint.n} weights, expected {n1}x{n2}={n1 * n2}"
        )
    if coordinate not in (1, 2):
        raise ValueError(f"coordinate must be 1 or 2, got {coordinate}")
    # rows index the kept coordinate, columns the resampled one
    p = joint.weights.reshape(n1, n2)
    states = np.arange(n1 * n2).reshape(n1, n2)
    if coordinate == 1:
        p, states = p.T, states.T
    marg = p.sum(axis=1)
    bad = np.nonzero(marg <= 0.0)[0]
    if bad.size:
        raise DegenerateConditionalError(
            f"conditioning slices {bad.tolist()} of coordinate {3 - coordinate} "
            "carry zero mass"
        )
    cond = p / marg[:, None]  # cond[kept, resampled]
    out = np.zeros((n1 * n2, n1 * n2))
    for idx, row in zip(states, cond):
        out[np.ix_(idx, idx)] = np.tile(row, (idx.size, 1))
    return Kernel(out)


def metropolis_kernel(pi: Dist, proposal: Kernel) -> Kernel:
    """Metropolised proposal targeting pi.

    Off-diagonal entries are proposal times acceptance
    min(1, pi(y) q(y,x) / (pi(x) q(x,y))); rejected mass sits on the
    diagonal. Zero-proposal entries contribute zero flow. Detailed balance
    holds by construction: pi(x) P(x,y) = min of the two flows.
    """
    if proposal.n != pi.n:
        raise ValidationError(
            f"proposal is {proposal.n}x{proposal.n}, target has {pi.n} states"
        )
    q = proposal.matrix
    flow = pi.weights[:, None] * q
    accepted = np.minimum(flow, flow.T)
    with np.errstate(invalid="ignore", divide="ignore"):
        off = np.where(pi.weights[:, None] > 0, accepted / pi.weights[:, None], 0.0)
    np.fill_diagonal(off, 0.0)
    diag = np.maximum(1.0 - off.sum(axis=1), 0.0)
    return Kernel(off + np.diag(diag))


def lazy(kernel: Kernel, a: float) -> Kernel:
    """Blend with the identity: (1 - a) K + a I, for a in [0, 1].

    Holding shrinks the Dirichlet form by the factor (1 - a), which makes
    lazified kernels the canonical dominated comparison case.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"hold probability must lie in [0, 1], got {a}")
    return Kernel((1.0 - a) * kernel.matrix + a * np.eye(kernel.n))


def _reaches_all(edges: np.ndarray) -> bool:
    """True when every state is reachable from state 0 along the boolean
    adjacency matrix `edges`; a breadth-first sweep, one frontier per step."""
    seen = np.zeros(edges.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def is_irreducible(kernel: Kernel) -> bool:
    """True when the positive-entry graph is strongly connected: state 0
    reaches every state, and every state reaches state 0."""
    edges = kernel.matrix > 0.0
    return _reaches_all(edges) and _reaches_all(edges.T)


def random_reversible(pi: Dist, seed: int) -> Kernel:
    """Seeded irreducible kernel reversible for pi.

    Metropolises a random Dirichlet-row proposal; retries with derived seeds,
    at most REVERSIBLE_TRIES times, until the positive-entry graph is
    strongly connected.
    """
    for attempt in range(REVERSIBLE_TRIES):
        rng = np.random.default_rng(derive_seed(seed, attempt))
        proposal = Kernel(rng.dirichlet(np.ones(pi.n), size=pi.n))
        candidate = metropolis_kernel(pi, proposal)
        if is_irreducible(candidate):
            return candidate
    raise ReducibilityError(
        f"no irreducible kernel found in {REVERSIBLE_TRIES} attempts for seed {seed}"
    )

