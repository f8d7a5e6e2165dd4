"""The staggered embedding of a kernel cycle and its one resolvent solve.

A function on the k staggered copies of the state space is a (k, n)
array, row q the copy at cycle phase q. The embedding T sends phase q to
kernel q applied to phase q + 1 (indices mod k): the blockwise kernel
action composed with the forward cyclic shift. (I - lam T) x = b is
solved by elimination around the cycle (_cycle_solve): one n x n
factorisation of I - lam^k M_1 ... M_k in the first phase, then k - 1
back-substitutions, with a residual guard on the full block system. The
product M_1 ... M_k does not depend on lam, and the family keeps it. A
system in the family's mixed kernel alone (one block) is solved in that
kernel's cached eigenbasis instead, O(n^2) per solve, under the same
guard (_mixed_solve). Dense kn x kn realizations of T, its adjoint, its
self-adjoint part and the forward shift after the blockwise action serve
only as test oracles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from scanvar.kernels import KernelFamily, ValidationError, _check_lam

# Relative residual allowed for a resolvent solve.
RESOLVENT_RTOL = 1e-10

#: Valid operator selectors for realizations: the embedding itself, its
#: adjoint, its self-adjoint part, and the forward shift after the
#: blockwise action, which blend derivatives pair with the adjoint.
OPERATORS = ("embed", "embed_adjoint", "symmetric", "shift_diag")

__all__ = [
    "RESOLVENT_RTOL",
    "OPERATORS",
    "CycleEmbedding",
    "shift_realization",
    "diag_realization",
    "embedding_realization",
    "resolvent_solve",
]


def _place(blocks: Sequence[np.ndarray], step: int) -> np.ndarray:
    """Dense kn x kn matrix whose phase q reads blocks[q] applied to phase
    q + step (indices mod k) of the phase-major stacked vector: block row
    q holds blocks[q] in block column q + step."""
    k = len(blocks)
    n = blocks[0].shape[0]
    out = np.zeros((k * n, k * n))
    for q, m in enumerate(blocks):
        c = (q + step) % k
        out[q * n : (q + 1) * n, c * n : (c + 1) * n] = m
    return out


def shift_realization(k: int, n: int, direction: int) -> np.ndarray:
    """Dense kn x kn matrix of the cyclic shift: phase q reads phase
    q + direction."""
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
    k = len(blocks)
    behind = [blocks[q - 1] for q in range(k)]  # the adjoint's phase q reads K_{q-1}
    if op == "embed":
        return _place(blocks, 1)
    if op == "embed_adjoint":
        return _place(behind, -1)
    if op == "shift_diag":
        return _place([blocks[(q + 1) % k] for q in range(k)], 1)
    if op == "symmetric":
        return (_place(blocks, 1) + _place(behind, -1)) / 2.0
    raise ValueError(f"unknown operator selector {op!r}; choose from {OPERATORS}")


def _check_residual(blocks: Sequence[np.ndarray], lam: float, x, rhs, weights) -> None:
    """Raise LinAlgError unless x solves x_q = rhs_q + lam * blocks[q] @
    x_{q+1} to within RESOLVENT_RTOL of rhs in the weighted norm. A
    residual that is not a number is refused too."""
    k = len(blocks)
    image = np.stack([m @ x[(q + 1) % k] for q, m in enumerate(blocks)])
    residual = x - rhs - lam * image
    res_norm = float(np.sqrt(np.sum(residual**2 @ weights)))
    rhs_norm = float(np.sqrt(np.sum(rhs**2 @ weights)))
    if not res_norm <= RESOLVENT_RTOL * max(rhs_norm, 1e-300):
        raise np.linalg.LinAlgError(
            f"resolvent residual {res_norm:.3g} exceeds "
            f"{RESOLVENT_RTOL:g} * {rhs_norm:.3g}"
        )


def _cycle_solve(
    blocks: Sequence[np.ndarray],
    lam: float,
    rhs: np.ndarray,
    weights: np.ndarray,
    product: np.ndarray,
) -> np.ndarray:
    """Solve x_q = rhs_q + lam * blocks[q] @ x_{q+1} for every phase q.

    Substituting each phase into the one before it around the cycle leaves
    one n x n system (I - lam^k M) x_0 = r, with M = `product`, the
    unscaled product blocks[0] @ blocks[1] @ ... @ blocks[k - 1], and r
    reduced from rhs by k - 1 matrix-vector products; the other phases
    follow by back-substitution. The LU solves for s * x_0, s the powers of
    two nearest sqrt(weights), so its rounding follows the weighted norm of
    x_0 that the guard measures, not the largest entry, which a state of
    tiny weight can carry; the scaling is exact (lam = 0 returns rhs).
    The system is built in one n x n buffer, M's rows times -lam^k s, then
    its columns divided by s and one added on the diagonal: as s holds
    powers of two, only the product by lam^k rounds, once, as in
    I - lam^k (s M / s), whose entries it equals (a zero may carry the
    other sign, which changes no nonzero value of the solve).
    At lam = 1 the rank-one term ones * weights' pins the constant
    direction, which is valid only when every phase of rhs is centred for
    weights and the blocks leave weights invariant; the solution is then
    the centred one. The residual of the full block system must stay
    within RESOLVENT_RTOL of rhs in the weighted norm. This also rejects a
    rhs that is not centred at lam = 1 beyond the rounding of its own norm
    (kernels.center leaves it there).
    """
    k, n = rhs.shape
    reduced = rhs[-1]
    for q in range(k - 2, -1, -1):
        reduced = rhs[q] + lam * (blocks[q] @ reduced)
    scale = np.exp2(np.round(np.log2(weights) / 2))
    system = product * (-(lam**k) * scale)[:, None]
    system /= scale
    system.flat[:: n + 1] += 1.0
    if lam == 1.0:
        system += np.outer(scale, weights / scale)
    x = np.empty((k, n))
    x[0] = np.linalg.solve(system, scale * reduced) / scale
    for q in range(k - 1, 0, -1):
        x[q] = rhs[q] + lam * (blocks[q] @ x[(q + 1) % k])
    _check_residual(blocks, lam, x, rhs, weights)
    return x


def _mixed_solve(fam: KernelFamily, lam: float, rhs: np.ndarray) -> np.ndarray:
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
    the basis are left out, so _cycle_solve's residual guard is checked on
    the original system; where it refuses, the one-block LU of _cycle_solve
    gives the solution.
    """
    mu, vecs, _ = fam._spectrum
    weights = fam.pi.weights
    root = np.sqrt(weights)
    scaled = lam * mu
    if lam == 1.0:
        scaled[-1] = 0.0
    x = rhs + (vecs @ ((vecs.T @ (root * rhs)) * (scaled / (1.0 - scaled)))) / root
    mixed = fam._mixed.matrix
    try:
        _check_residual([mixed], lam, x[None], rhs[None], weights)
    except np.linalg.LinAlgError:
        return _cycle_solve([mixed], lam, rhs[None], weights, mixed)[0]
    return x


class CycleEmbedding:
    """The resolvent solve of one family's embedding, plus dense
    realizations as oracles.

    The solve eliminates around the cycle (see _cycle_solve) and never
    builds a kn x kn matrix.
    """

    def __init__(self, family: KernelFamily):
        self.family = family

    def realization(self, op: str) -> np.ndarray:
        """Dense kn x kn matrix of a selector, for tests to compare against."""
        return embedding_realization(op, self.family.matrices)

    def resolvent_solve(self, lam: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - lam T) x = rhs for the embedding T, with rhs and x
        (k, n) arrays, row q the function at cycle phase q.

        Requires 0 <= lam < 1 and refuses any other shape of rhs with
        ValidationError; the solution is checked to reproduce rhs within
        RESOLVENT_RTOL in the weighted norm.
        """
        fam = self.family
        _check_lam(lam)
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (fam.k, fam.n):
            raise ValidationError(
                f"right-hand side has shape {rhs.shape}, family needs ({fam.k}, {fam.n})"
            )
        return _cycle_solve(fam.matrices, lam, rhs, fam.pi.weights, fam._cycle)


def resolvent_solve(fam: KernelFamily, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Resolvent solve for a family; see CycleEmbedding.resolvent_solve."""
    return CycleEmbedding(fam).resolvent_solve(lam, rhs)
