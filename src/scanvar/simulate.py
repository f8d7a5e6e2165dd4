"""Seeded simulation of the scan schemes with replicated variance estimates.

A path is an int64 array of states, of shape (steps,), or (steps, k) for
the embedded scheme.

Reproducibility contract: a path is a pure function of the configuration.
State draws invert the cumulative row at a uniform variate, taking the
first index whose cumulative weight strictly exceeds the draw. A path
reads default_rng(seed) in a fixed documented order: one start uniform
per coordinate, then (rand only) integers(0, k, transitions), then
random((transitions, coords)), with k coordinates for the embedded scheme
and one otherwise. Replica r uses derive_seed(seed, r), so
results are bit-identical under any replica order or lockstep blocking.
A draw is one lookup in a table of counts over the rows' cumulative
weights when that table is small next to the run, and a comparison with
the gathered row otherwise; the two give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scanvar.kernels import KernelFamily, Observable, ValidationError, center
from scanvar.kernels import _check_integer, _check_steps
from scanvar.seeding import derive_seed

SIM_SCHEMES = ("rand", "strat", "embedded")

__all__ = [
    "SIM_SCHEMES",
    "SimulationConfig",
    "VarianceEstimate",
    "simulate",
    "estimate_variance",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Length, seeding and scheme for one simulation run: integers
    1 <= steps < 2**63 and 0 <= seed < 2**64, or ValidationError.

    Every path starts stationary, the regime every exact reference quantity
    assumes. A path burned in for b steps is the longer path sliced,
    simulate(fam, SimulationConfig(steps + b, ...))[b:].
    """

    steps: int
    seed: int = 0
    scheme: str = "strat"

    def __post_init__(self):
        _check_steps(self.steps)
        if self.scheme not in SIM_SCHEMES:
            raise ValidationError(
                f"scheme must be one of {SIM_SCHEMES}, got {self.scheme!r}"
            )
        _check_integer("seed", self.seed)
        if not 0 <= self.seed < 2**64:  # derive_seed reads the seed modulo 2**64
            raise ValidationError(f"seed must satisfy 0 <= seed < 2**64, got {self.seed}")


@dataclass(frozen=True)
class VarianceEstimate:
    point: float
    standard_error: float


# Most draws (replicas x recorded steps x slots) one lockstep block holds.
BLOCK_DRAWS = 2**20
# Most bytes a count table may take (see _CountTable); larger ones step by
# gather. The route reads the bound k n (k n (n - 1) + 1) on a table's
# entries, so the limit is a size: n <= 101 at k = 2, n <= 64 at k = 4.
TABLE_BYTES = 2**22
# Replicas whose uniforms turn into table keys together: larger groups
# spend less per call on the key search, smaller ones hold less at once.
KEY_GROUP = 16


class _Gather:
    """Draws by comparing each uniform with its row's cumulative weights."""

    dtype = np.float64

    def __init__(self, cum: np.ndarray):
        self.cum = cum

    def encode(self, uniforms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        return uniforms

    def step(self, uniforms, offsets, states, out) -> None:
        # take(out=...) is several times slower than a fresh gather
        rows = self.cum.take(offsets + states, axis=0)
        np.argmax(rows > uniforms[..., None], axis=-1, out=out)


class _CountTable:
    """Draws by one lookup in a table of counts over the rows' breakpoints.

    The breakpoints b are the sorted distinct values of every row's first
    n - 1 cumulative weights, and counts[g, row] is how many of the row's
    breakpoints are <= b[g - 1] (none for g = 0). No row's count changes
    between two consecutive breakpoints, so a uniform u with g = #(b <= u)
    draws counts[g, row], the count argmax(row > u) takes, by the same
    comparisons cum <= u. A uniform's key is g times the row count plus its
    kernel's first row, and a step adds the state and reads one entry.
    g starts from a guide table over 2**m equal buckets of [0, 1), as in
    Chen and Asau (1974); u * 2**m is exact, so u's bucket is too.
    """

    dtype = np.int64

    def __init__(self, cum: np.ndarray):
        rows, n = cum.shape
        points = cum[:, :-1]
        b = np.unique(points)
        # b and an inf after it, which the searches may read
        self.breaks = np.append(b, np.inf)
        counts = np.zeros((b.size + 1, rows), dtype=np.min_scalar_type(n - 1))
        np.add.at(counts, (np.searchsorted(b, points) + 1, np.arange(rows)[:, None]), 1)
        self.counts = np.cumsum(counts, axis=0, out=counts).reshape(-1)
        self.width = rows
        self.grid = 1 << (4 * b.size).bit_length()
        # guide[j]: breakpoints below j / grid, so below every u in bucket j
        self.guide = np.searchsorted(b, np.arange(self.grid) / self.grid)

    @staticmethod
    def fits(n: int, k: int, draws: int) -> bool:
        """Whether the largest table for k kernels on n states fits
        TABLE_BYTES and holds fewer entries than the comparisons a gather
        would make for `draws` draws."""
        entries = k * n * (k * n * (n - 1) + 1)
        size = entries * np.min_scalar_type(n - 1).itemsize
        return size <= TABLE_BYTES and entries < draws * n

    def search(self, u: np.ndarray) -> np.ndarray:
        """#(b <= u) per uniform: the guide's count, one step up where the
        next breakpoint is <= u, and a binary search for the few uniforms
        in a bucket holding still more breakpoints below them."""
        g = self.guide[(u * self.grid).astype(np.intp)]
        up = np.flatnonzero(self.breaks[g] <= u)
        g[up] += 1
        up = up[self.breaks[g[up]] <= u[up]]
        g[up] = np.searchsorted(self.breaks, u[up], side="right")
        return g

    def encode(self, uniforms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        g = self.search(uniforms.reshape(-1)).reshape(uniforms.shape)
        return g * self.width + offsets

    def step(self, keys, offsets, states, out) -> None:
        out[...] = self.counts.take(keys + states)


def _lockstep(fam: KernelFamily, cfg: SimulationConfig, seeds, slots=None):
    """Advance one path per seed together, yielding blocks of paths.

    Each path draws `coords` coordinates, k for embedded and 1 otherwise.
    Blocks are int64 (steps, replicas, slots) arrays; `slots` defaults to
    all coords, and a smaller value steps only the first ones. Slot s
    holds at recorded time i the coordinate (s + i) mod coords,
    so slot 0 is the strat or rand path and the embedded diagonal
    component: at transition t slot s goes through kernel (s + t) mod k
    (rand: the drawn choice) and reads the uniform of the coordinate it
    holds. No slot reads another's state, and every generator is still
    read at full width, so each stepped slot has the same bits whatever
    `slots` is. A draw is the first index whose cumulative weight strictly
    exceeds the uniform, argmax(row > u), on rows whose last entry is set
    to inf. Kernel entries are nonnegative, so each row is nondecreasing
    and that index is the count of entries not above the uniform,
    searchsorted(side="right"); the inf caps it at n - 1.

    Two routes draw it with the same bits. When the count table fits
    (_CountTable.fits), each group of KEY_GROUP replicas turns its
    uniforms into table keys right after reading its generators, and a
    step is one add and one lookup per draw. Otherwise a step gathers each
    draw's cumulative row and compares it with the uniform.
    """
    k, n = fam.k, fam.n
    rand = cfg.scheme == "rand"
    coords = k if cfg.scheme == "embedded" else 1
    slots = coords if slots is None else slots
    transitions = cfg.steps - 1
    pi_cum = np.cumsum(fam.pi.weights)
    pi_cum[-1] = np.inf
    cum = np.cumsum(np.stack(fam.matrices), axis=2).reshape(k * n, n)
    cum[:, -1] = np.inf
    phase = np.arange(transitions)[:, None] + np.arange(slots)
    # slot s reads the uniform of the coordinate it holds: flat indices
    # into a generator's (transitions, coords) move uniforms
    picks = np.arange(transitions)[:, None] * coords + phase % coords
    fits = _CountTable.fits(n, k, transitions * len(seeds) * slots)
    route = _CountTable(cum) if fits else _Gather(cum)
    block = max(1, BLOCK_DRAWS // (cfg.steps * slots))
    for first in range(0, len(seeds), block):
        chunk = seeds[first : first + block]
        start = np.empty((len(chunk), slots, 1))
        shape = (transitions, len(chunk), slots)
        draws = np.empty(shape, dtype=route.dtype)
        if rand:
            offsets = np.empty(shape, dtype=np.int64)
        else:
            offsets = np.broadcast_to((phase % k * n)[:, None, :], shape)
        for group in range(0, len(chunk), KEY_GROUP):
            members = range(group, min(group + KEY_GROUP, len(chunk)))
            uniforms = np.empty((transitions, len(members), slots))
            for r in members:
                rng = np.random.default_rng(chunk[r])
                start[r, :, 0] = rng.random(coords)[:slots]
                if rand:
                    offsets[:, r, 0] = rng.integers(0, k, size=transitions) * n
                uniforms[:, r - group] = rng.random((transitions, coords)).take(picks)
            part = slice(group, members.stop)
            draws[:, part] = route.encode(uniforms, offsets[:, part])
        states = np.empty((transitions + 1, len(chunk), slots), dtype=np.int64)
        np.argmax(pi_cum > start, axis=-1, out=states[0])
        for t in range(transitions):
            route.step(draws[t], offsets[t], states[t], states[t + 1])
        del draws, offsets  # spent before the caller reads the block
        yield states


def simulate(fam: KernelFamily, cfg: SimulationConfig) -> np.ndarray:
    """Run one seeded path of the configured scheme: its int64 states, of
    shape (steps,), or (steps, k) for the embedded scheme.

    The initial state (or tuple, for the embedded scheme) is drawn from the
    target; step t applies the scheme's kernel(s) for that step. Output is
    fully determined by (fam, cfg).
    """
    (slots,) = _lockstep(fam, cfg, [cfg.seed])
    width = slots.shape[2]
    # coordinate j at recorded time i sits in slot (j - i) mod width
    times = np.arange(cfg.steps)[:, None]
    states = np.take_along_axis(slots[:, 0], (np.arange(width) - times) % width, axis=1)
    return states if cfg.scheme == "embedded" else states[:, 0]


def estimate_variance(
    fam: KernelFamily,
    f: Observable,
    steps: int,
    replicas: int,
    seed: int,
    scheme: str,
) -> VarianceEstimate:
    """Replicated estimate of the variance of sqrt(M) times the M-step average.

    Each replica runs an independent path from a derived seed and reports
    sqrt(M) S_M(f - mean); the point estimate is the sample variance across
    replicas and its standard error comes from the spread of the squared
    deviations. f needs one value per state, and replicas an integer R with
    2 <= R < 2**63 (ValidationError otherwise, before any seed is derived).
    Only slot 0 is stepped, for every scheme: the embedded estimate reads
    only the diagonal component, and as no slot reads another and every
    generator is read at full width, that slot has the same bits as in the
    full embedded path.
    """
    _check_integer("replicas", replicas)
    if replicas < 2:
        raise ValidationError(f"need at least 2 replicas, got {replicas}")
    if replicas >= 2**63:
        raise ValidationError("replicas must be below 2**63")
    cfg = SimulationConfig(steps=steps, seed=seed, scheme=scheme)
    fc = center(f, fam.pi).values
    blocks = _lockstep(fam, cfg, [derive_seed(seed, r) for r in range(replicas)], slots=1)
    # each replica's mean runs over one C-contiguous row, as for a lone path
    values = np.sqrt(steps) * np.concatenate(
        [np.ascontiguousarray(fc[b[:, :, 0].T]).mean(axis=1) for b in blocks]
    )
    point = float(np.var(values, ddof=1))
    deviations_sq = (values - values.mean()) ** 2
    standard_error = float(np.sqrt(np.var(deviations_sq, ddof=1) / replicas))
    return VarianceEstimate(point=point, standard_error=standard_error)
