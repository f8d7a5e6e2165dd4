"""Seeded simulation of the scan schemes with replicated variance estimates.

Reproducibility contract: a path is a pure function of the configuration.
State draws invert the cumulative row at a uniform variate, taking the
first index whose cumulative weight strictly exceeds the draw. A path
reads default_rng(seed) in a fixed documented order: one start uniform
per coordinate, then (rand only) integers(0, k, transitions), then
random((transitions, coords)), with k coordinates for the embedded scheme
and one otherwise. Replica r uses derive_seed(seed, r), so
results are bit-identical under any replica order or lockstep blocking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scanvar.kernels import KernelFamily, Observable, ValidationError, center
from scanvar.seeding import derive_seed

SIM_SCHEMES = ("rand", "strat", "embedded")

__all__ = [
    "SIM_SCHEMES",
    "SimulationConfig",
    "SamplePath",
    "VarianceEstimate",
    "simulate",
    "estimate_variance",
    "extract_embedded_component",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Length, seeding and scheme for one simulation run.

    Every path starts stationary, the regime every exact reference quantity
    assumes. A path burned in for b steps is the longer path sliced,
    simulate(fam, SimulationConfig(steps + b, ...)).states[b:].
    """

    steps: int
    seed: int = 0
    scheme: str = "strat"

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError(f"steps must be at least 1, got {self.steps}")
        if self.scheme not in SIM_SCHEMES:
            raise ValidationError(
                f"scheme must be one of {SIM_SCHEMES}, got {self.scheme!r}"
            )
        if not 0 <= self.seed < 2**64:  # derive_seed reads the seed modulo 2**64
            raise ValidationError(f"seed must satisfy 0 <= seed < 2**64, got {self.seed}")


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Recorded states: shape (steps,) or (steps, k) for the embedded scheme."""

    states: np.ndarray
    scheme: str

    @property
    def steps(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class VarianceEstimate:
    point: float
    standard_error: float


# Most draws (replicas x recorded steps x slots) one lockstep block holds.
BLOCK_DRAWS = 2**20


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
    """
    k, n = fam.k, fam.n
    coords = k if cfg.scheme == "embedded" else 1
    slots = coords if slots is None else slots
    transitions = cfg.steps - 1
    pi_cum = np.cumsum(fam.pi.weights)
    pi_cum[-1] = np.inf
    cum = np.cumsum(np.stack(fam.matrices), axis=2).reshape(k * n, n)
    cum[:, -1] = np.inf
    phase = np.arange(transitions)[:, None] + np.arange(slots)
    # slot s reads the uniform of the coordinate it holds
    columns = phase % coords
    block = max(1, BLOCK_DRAWS // (cfg.steps * slots))
    for first in range(0, len(seeds), block):
        chunk = seeds[first : first + block]
        start = np.empty((len(chunk), slots, 1))
        uniforms = np.empty((transitions, len(chunk), slots, 1))
        if cfg.scheme == "rand":
            offsets = np.empty(uniforms.shape[:3], dtype=np.int64)
        else:
            offsets = np.broadcast_to((phase % k * n)[:, None, :], uniforms.shape[:3])
        for r, seed in enumerate(chunk):
            rng = np.random.default_rng(seed)
            start[r, :, 0] = rng.random(coords)[:slots]
            if cfg.scheme == "rand":
                offsets[:, r, 0] = rng.integers(0, k, size=transitions) * n
            moves = rng.random((transitions, coords))
            uniforms[:, r, :, 0] = np.take_along_axis(moves, columns, axis=1)
        states = np.empty((transitions + 1, len(chunk), slots), dtype=np.int64)
        np.argmax(pi_cum > start, axis=-1, out=states[0])
        for t in range(transitions):
            # take(out=...) is several times slower than a fresh gather
            rows = cum.take(offsets[t] + states[t], axis=0)
            np.argmax(rows > uniforms[t], axis=-1, out=states[t + 1])
        yield states


def simulate(fam: KernelFamily, cfg: SimulationConfig) -> SamplePath:
    """Run one seeded path of the configured scheme.

    The initial state (or tuple, for the embedded scheme) is drawn from the
    target; step t applies the scheme's kernel(s) for that step. Output is
    fully determined by (fam, cfg).
    """
    (slots,) = _lockstep(fam, cfg, [cfg.seed])
    width = slots.shape[2]
    # coordinate j at recorded time i sits in slot (j - i) mod width
    times = np.arange(cfg.steps)[:, None]
    states = np.take_along_axis(slots[:, 0], (np.arange(width) - times) % width, axis=1)
    return SamplePath(states if cfg.scheme == "embedded" else states[:, 0], cfg.scheme)


def extract_embedded_component(path: SamplePath) -> SamplePath:
    """Diagonal component of an embedded path: at time i, the coordinate at
    cycle phase sigma^i(1). Its law coincides with the deterministic-scan
    chain."""
    if path.states.ndim != 2:
        raise ValidationError(
            f"component extraction needs an embedded path, got scheme {path.scheme!r}"
        )
    steps, k = path.states.shape
    times = np.arange(steps)
    return SamplePath(states=path.states[times, times % k], scheme="extracted")


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
    deviations. f needs one value per state (ValidationError otherwise).
    Only slot 0 is stepped, for every scheme: the embedded estimate reads
    only the diagonal component, and as no slot reads another and every
    generator is read at full width, that slot has the same bits as in the
    full embedded path.
    """
    if replicas < 2:
        raise ValidationError(f"need at least 2 replicas, got {replicas}")
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
