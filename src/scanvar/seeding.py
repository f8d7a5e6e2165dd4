"""Counter-based seed derivation for reproducible parallel streams.

Replica r of a run seeded with `master` always uses ``derive_seed(master, r)``,
so replicas may execute in any order (or concurrently) without changing any
output. The mixer is SplitMix64 with its standard constants.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def splitmix64(value: int) -> int:
    """One SplitMix64 output step on a 64-bit counter."""
    z = (value + SPLITMIX64_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Seed for stream `index` under `master`.

    Two independent mixing rounds keep nearby master seeds and nearby
    indices statistically unrelated.
    """
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    return splitmix64(splitmix64(int(master) & _MASK64) ^ splitmix64((index + 1) & _MASK64))
