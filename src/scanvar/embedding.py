"""Block operators advancing k staggered copies of a kernel cycle.

A block vector holds one function per cycle phase. The embedding operator
sends phase i to kernel i applied to the phase-sigma(i) component, with
sigma(i) = i mod k + 1, which is exactly the blockwise kernel action
composed with the forward cyclic shift. That factorisation gives the
adjoint by inspection (shift back after the blockwise action) and a clean
self-adjoint / skew split.

Every operator here is one row (blocks, step): phase q reads blocks[q]
applied to phase q + step, with step 0 for the blockwise action and +1 or
-1 for the selectors, whose rows _cycle_row gives. _apply applies a row
and _place writes it as a dense matrix. So (I - lam Op) x = b is solved
by elimination around the cycle: one n x n factorisation of
I - lam^k M_1 ... M_k in the first phase, then k back-substitutions, with a
residual guard on the full block system. The product M_1 ... M_k does not
depend on lam; for the embed row the family keeps it. A system in the
family's mixed kernel alone (one block) is solved in that kernel's cached
eigenbasis instead, O(n^2) per solve, under the same guard (_mixed_solve).
Dense nk x nk realizations serve only as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from scanvar.kernels import (
    Dist,
    KernelFamily,
    Observable,
    ValidationError,
    _check_lam,
    _cycle_product,
)

# Relative residual allowed for a resolvent solve.
RESOLVENT_RTOL = 1e-10

#: Valid operator selectors for realizations and resolvent solves: the
#: embedding itself, its adjoint, its self-adjoint part, and the forward
#: shift after the blockwise action, which blend derivatives pair with the adjoint.
OPERATORS = ("embed", "embed_adjoint", "symmetric", "shift_diag")

__all__ = [
    "RESOLVENT_RTOL",
    "OPERATORS",
    "BlockVector",
    "CycleEmbedding",
    "block_inner",
    "block_norm",
    "shift",
    "diag_apply",
    "apply_embedding",
    "apply_embedding_adjoint",
    "symmetric_part",
    "skew_part",
    "shift_realization",
    "diag_realization",
    "embedding_realization",
    "resolvent_solve",
]


@dataclass(frozen=True, eq=False)
class BlockVector:
    """A k-tuple of functions on the state space, stored as a (k, n) array.

    Row j-1 is the component attached to cycle phase j.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2 or v.size == 0:
            raise ValidationError(f"block vector must be 2-d, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @classmethod
    def repeat(cls, f: Observable, k: int) -> "BlockVector":
        """The constant block (f, f, ..., f)."""
        return cls(np.tile(f.values, (k, 1)))

    def flat(self) -> np.ndarray:
        """Phase-major stacked vector of length k*n."""
        return self.values.reshape(-1)


def _check_block(fam: KernelFamily, phi: BlockVector) -> None:
    if phi.k != fam.k or phi.n != fam.n:
        raise ValidationError(
            f"block vector is {phi.k}x{phi.n}, family needs {fam.k}x{fam.n}"
        )


def block_inner(phi: BlockVector, psi: BlockVector, pi: Dist) -> float:
    """Sum of the componentwise weighted inner products.

    Per-phase terms are added with exact rounding, so the value is invariant
    under any permutation of the phases (the cyclic shift is an isometry
    exactly, not just within roundoff). Each term is one np.dot with pi,
    so equal phases give equal terms, whatever their number.
    """
    if phi.values.shape != psi.values.shape or phi.n != pi.n:
        raise ValidationError("block vectors and target must share dimensions")
    return math.fsum(np.dot(pi.weights, row) for row in phi.values * psi.values)


def block_norm(phi: BlockVector, pi: Dist) -> float:
    return float(np.sqrt(max(block_inner(phi, phi, pi), 0.0)))


def shift(phi: BlockVector, direction: int) -> BlockVector:
    """Cyclic shift of components: phase j of the output reads phase
    sigma^{direction}(j) of the input. Directions +1 and -1 are inverse
    to each other (and coincide for k = 2)."""
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    return BlockVector(np.roll(phi.values, -direction, axis=0))


def _apply(blocks: Sequence[np.ndarray], step: int, x: np.ndarray) -> np.ndarray:
    """Phase q of the result is blocks[q] applied to phase q + step of x
    (indices mod k); step 0 is the blockwise action."""
    k = len(blocks)
    return np.stack([m @ x[(q + step) % k] for q, m in enumerate(blocks)])


def _place(blocks: Sequence[np.ndarray], step: int) -> np.ndarray:
    """Dense kn x kn matrix of _apply(blocks, step, .) on the phase-major
    stacked vector: block row q holds blocks[q] in block column q + step."""
    k = len(blocks)
    n = blocks[0].shape[0]
    out = np.zeros((k * n, k * n))
    for q, m in enumerate(blocks):
        c = (q + step) % k
        out[q * n : (q + 1) * n, c * n : (c + 1) * n] = m
    return out


def _cycle_row(op: str, mats: Sequence[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """(blocks, step) of a selector: phase q of the operator is blocks[q]
    applied to phase q + step. The symmetric part is block-cyclic only for
    k <= 2, where both its terms read the same phase and every block
    (K_q + K_{q-1}) / 2 is the family's mixed kernel, bit for bit: two-term
    addition commutes, and (K + K) / 2 = K."""
    k = len(mats)
    if op == "embed":
        return list(mats), 1
    if op == "embed_adjoint":
        return [mats[q - 1] for q in range(k)], -1
    if op == "shift_diag":
        return [mats[(q + 1) % k] for q in range(k)], 1
    if op == "symmetric":
        if k > 2:
            raise ValueError(
                f"the symmetric part is not block-cyclic for k = {k} > 2 kernels"
            )
        return [(mats[q] + mats[q - 1]) / 2.0 for q in range(k)], 1
    raise ValueError(f"unknown operator selector {op!r}; choose from {OPERATORS}")


def diag_apply(fam: KernelFamily, phi: BlockVector) -> BlockVector:
    """Blockwise kernel action: phase i becomes kernel i applied to phase i."""
    _check_block(fam, phi)
    return BlockVector(_apply(fam.matrices, 0, phi.values))


def apply_embedding(fam: KernelFamily, phi: BlockVector) -> BlockVector:
    """One step of the embedded product chain on functions.

    Phase i of the output is kernel i applied to phase sigma(i) of the
    input; identically the blockwise action after a forward shift.
    """
    _check_block(fam, phi)
    return BlockVector(_apply(*_cycle_row("embed", fam.matrices), phi.values))


def apply_embedding_adjoint(fam: KernelFamily, phi: BlockVector) -> BlockVector:
    """Adjoint of the embedding in the block inner product: shift back after
    the blockwise action. Relies on each kernel being self-adjoint for pi."""
    _check_block(fam, phi)
    return BlockVector(_apply(*_cycle_row("embed_adjoint", fam.matrices), phi.values))


def symmetric_part(fam: KernelFamily, phi: BlockVector) -> BlockVector:
    """Self-adjoint part: the mean of the embedding and its adjoint."""
    fwd = apply_embedding(fam, phi)
    bwd = apply_embedding_adjoint(fam, phi)
    return BlockVector((fwd.values + bwd.values) / 2.0)


def skew_part(fam: KernelFamily, phi: BlockVector) -> BlockVector:
    """Skew part: half the difference of the embedding and its adjoint.

    Its quadratic form vanishes identically.
    """
    fwd = apply_embedding(fam, phi)
    bwd = apply_embedding_adjoint(fam, phi)
    return BlockVector((fwd.values - bwd.values) / 2.0)


def shift_realization(k: int, n: int, direction: int) -> np.ndarray:
    """Dense kn x kn matrix of the cyclic shift."""
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    return _place([np.eye(n)] * k, direction)


def diag_realization(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Dense block-diagonal matrix of the blockwise kernel action."""
    return _place(blocks, 0)


def embedding_realization(op: str, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Dense realization of a selected operator built from the given blocks.

    Selectors: "embed" (blockwise action after forward shift),
    "embed_adjoint" (backward shift after blockwise action, equal to the
    adjoint when the blocks are reversible), "symmetric" (their mean) and
    "shift_diag" (forward shift after blockwise action).
    """
    if op == "symmetric":
        fwd = _place(*_cycle_row("embed", blocks))
        return (fwd + _place(*_cycle_row("embed_adjoint", blocks))) / 2.0
    return _place(*_cycle_row(op, blocks))


def _check_residual(
    blocks: Sequence[np.ndarray], step: int, lam: float, x, rhs, weights, floor: float
) -> None:
    """Raise LinAlgError unless x solves x_q = rhs_q + lam * blocks[q] @
    x_{q+step} to within RESOLVENT_RTOL of rhs in the weighted norm, or
    within `floor`. A residual that is not a number is refused too."""
    residual = x - rhs - lam * _apply(blocks, step, x)
    res_norm = float(np.sqrt(np.sum(residual**2 @ weights)))
    rhs_norm = float(np.sqrt(np.sum(rhs**2 @ weights)))
    if not res_norm <= max(RESOLVENT_RTOL * max(rhs_norm, 1e-300), floor):
        raise np.linalg.LinAlgError(
            f"resolvent residual {res_norm:.3g} exceeds "
            f"{RESOLVENT_RTOL:g} * {rhs_norm:.3g}"
        )


def _cycle_solve(
    blocks: Sequence[np.ndarray],
    step: int,
    lam: float,
    rhs: np.ndarray,
    weights: np.ndarray,
    product: np.ndarray | None = None,
    *,
    floor: float = 0.0,
) -> np.ndarray:
    """Solve x_q = rhs_q + lam * blocks[q] @ x_{q+step} for every phase q.

    Substituting each phase into the one before it around the cycle leaves
    one n x n system (I - lam^k M) x_0 = r, with M = `product`, the
    unscaled product of the blocks in visiting order, blocks[0] @
    blocks[step] @ blocks[2 step] @ ... (built here when not given), and
    r reduced from rhs by k - 1 matrix-vector products; the other phases
    follow by back-substitution.
    At lam = 1 the rank-one term ones * weights' pins the constant
    direction, which is valid only when every phase of rhs is centred for
    weights and the blocks leave weights invariant; the solution is then
    the centred one. The residual of the full block system must stay
    within RESOLVENT_RTOL of rhs in the weighted norm, or within `floor`,
    the absolute residual the rounding of rhs accounts for (its caller
    knows it; zero otherwise). This also rejects a rhs that is not
    centred at lam = 1 by more than that rounding.
    """
    k, n = rhs.shape
    order = [(j * step) % k for j in range(k)]
    if product is None:
        product = _cycle_product([blocks[q] for q in order])
    reduced = rhs[order[-1]]
    for q in reversed(order[:-1]):
        reduced = rhs[q] + lam * (blocks[q] @ reduced)
    system = np.eye(n) - lam**k * product
    if lam == 1.0:
        system += np.outer(np.ones(n), weights)
    x = np.empty((k, n))
    try:
        x[0] = np.linalg.solve(system, reduced)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"cycle system singular at lam={lam}") from err
    for j in range(k - 1, 0, -1):
        q = order[j]
        x[q] = rhs[q] + lam * (blocks[q] @ x[order[(j + 1) % k]])
    _check_residual(blocks, step, lam, x, rhs, weights, floor)
    return x


def _mixed_solve(
    fam: KernelFamily, lam: float, rhs: np.ndarray, *, floor: float = 0.0
) -> np.ndarray:
    """Solve x = rhs + lam * M @ x for one function rhs, with M the
    family's mixed kernel and lam in (-1, 1].

    M is reversible, so S = D^{1/2} M D^{-1/2} (D = diag(pi)) is symmetric
    up to its skew part, and the family keeps the eigendecomposition
    V diag(mu) V' of its symmetric part. Then
    x = rhs + D^{-1/2} V (c * lam mu / (1 - lam mu)), c = V' D^{1/2} rhs:
    the correction is exactly zero at lam = 0. At lam = 1 the largest
    eigenvalue, the unit one, is deflated (its term dropped), which gives
    the centred solution as _cycle_solve's rank-one term does; the callers
    have shown that eigenvalue alone. The skew part and the rounding of
    the basis are left out, so _cycle_solve's residual guard, with
    `floor`, is checked on the original system; where it refuses, the
    one-block LU of _cycle_solve gives the solution.
    """
    mu, vecs, _ = fam._spectrum
    weights = fam.pi.weights
    root = np.sqrt(weights)
    scaled = lam * mu
    if lam == 1.0:
        scaled[-1] = 0.0
    x = rhs + (vecs @ ((vecs.T @ (root * rhs)) * (scaled / (1.0 - scaled)))) / root
    blocks = [fam._mixed.matrix]
    try:
        _check_residual(blocks, 1, lam, x[None], rhs[None], weights, floor)
    except np.linalg.LinAlgError:
        return _cycle_solve(blocks, 1, lam, rhs[None], weights, floor=floor)[0]
    return x


class CycleEmbedding:
    """Resolvent solves for one family, plus dense realizations as oracles.

    Solves eliminate around the cycle (see _cycle_solve) and never build a
    kn x kn matrix.
    """

    def __init__(self, family: KernelFamily):
        self.family = family

    def realization(self, op: str) -> np.ndarray:
        """Dense kn x kn matrix of a selector, for tests to compare against."""
        return embedding_realization(op, self.family.matrices)

    def resolvent_solve(self, op: str, lam: float, rhs: BlockVector) -> BlockVector:
        """Solve (I - lam * Op) x = rhs by elimination around the cycle.

        Requires 0 <= lam < 1; the solution is checked to reproduce the
        right-hand side within RESOLVENT_RTOL in the weighted norm. The
        "symmetric" selector needs k <= 2.
        """
        fam = self.family
        _check_lam(lam)
        _check_block(fam, rhs)
        blocks, step = _cycle_row(op, fam.matrices)
        prod = fam._cycle if op == "embed" else None
        return BlockVector(_cycle_solve(blocks, step, lam, rhs.values, fam.pi.weights, prod))


def resolvent_solve(
    op: str, fam: KernelFamily, lam: float, rhs: BlockVector
) -> BlockVector:
    """Resolvent solve for a family; see CycleEmbedding.resolvent_solve."""
    return CycleEmbedding(fam).resolvent_solve(op, lam, rhs)
