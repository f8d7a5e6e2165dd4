"""Seeded model files for the benchmark, generated with plain numpy.

A run draws one base family from its workload seed; op i then gets that
family with its states relabelled by a permutation drawn from (seed, i) and
a fresh observable, so no two ops of a run read the same model and a run is
reproducible from its seed. Relabelling moves whole rows and columns, which
lets each file be assembled from the base's number tokens instead of
formatting a few hundred thousand floats per op. The program under test only
ever sees the JSON files written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def _ring_metropolis(rng: np.random.Generator, pi: np.ndarray) -> np.ndarray:
    """Reversible kernel: a Metropolised proposal that mostly steps to a
    neighbour on a random ring of the states and otherwise jumps to a state
    drawn from a random Dirichlet row. Distinct rings per kernel make the
    cycle order matter."""
    n = pi.size
    order = rng.permutation(n)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    rows = np.arange(n)
    proposal = 0.3 * rng.dirichlet(np.ones(n), size=n)
    proposal[rows, order[(pos + 1) % n]] += 0.35
    proposal[rows, order[(pos - 1) % n]] += 0.35
    flow = pi[:, None] * proposal
    flow = np.minimum(flow, flow.T)
    off = flow / pi[:, None]
    np.fill_diagonal(off, 0.0)
    return off + np.diag(1.0 - off.sum(axis=1))


def _tokens(values: np.ndarray) -> np.ndarray:
    """Python's shortest round-trip repr of each entry, as json.dumps writes
    it, in a fixed-width bytes array. Built a row at a time, so the
    benchmark's own memory stays below the program's peak."""
    rows = [np.array([repr(x).encode() for x in row]) for row in np.atleast_2d(values).tolist()]
    width = max(r.dtype.itemsize for r in rows)
    return np.stack([r.astype(f"S{width}") for r in rows]).reshape(values.shape)


def _write_array(fh, tokens: np.ndarray) -> None:
    """Stream the JSON text of a token array a row at a time."""
    if tokens.ndim == 1:
        fh.write(b"[" + b",".join(tokens.tolist()) + b"]")
        return
    fh.write(b"[")
    for i, row in enumerate(tokens):
        if i:
            fh.write(b",")
        _write_array(fh, row)
    fh.write(b"]")


@dataclass(frozen=True)
class Model:
    """One op's model: a relabelling of the base family and an observable.
    Arrays are built on demand, so an op in flight holds none of them."""

    base: "BaseFamily"
    perm: np.ndarray
    f: np.ndarray
    lazy: bool

    @property
    def pi(self) -> np.ndarray:
        return self.base.pi[self.perm]

    @property
    def kernels(self) -> tuple[np.ndarray, ...]:
        cells = np.ix_(self.perm, self.perm)
        return tuple(m[cells] for m in self.base.matrices(self.lazy))

    def write(self, path, lambda_grid=None, simulation=None) -> None:
        """Write the JSON model file the CLI reads."""
        cells = np.ix_(self.perm, self.perm)
        with open(path, "wb") as fh:
            fh.write(b'{"states": %d, "pi": ' % self.perm.size)
            _write_array(fh, self.base.pi_tokens[self.perm])
            fh.write(b', "kernels": [')
            for i, tokens in enumerate(self.base.tokens(self.lazy)):
                fh.write(b"," if i else b"")
                _write_array(fh, tokens[cells])
            fh.write(b'], "f": ' + json.dumps(self.f.tolist()).encode())
            if lambda_grid is not None:
                fh.write(b', "lambda_grid": ' + json.dumps(list(lambda_grid)).encode())
            if simulation is not None:
                fh.write(b', "simulation": ' + json.dumps(simulation).encode())
            fh.write(b"}")


class BaseFamily:
    """A seeded k-kernel family on n states, and (with `hold`) its kernelwise
    identity blend (1 - hold) K + hold I, which the original dominates in
    Dirichlet form."""

    def __init__(self, seed: int, n: int, k: int, hold: float | None = None):
        rng = np.random.default_rng([seed, 0, 0])
        w = 0.5 + rng.random(n)
        self.pi = w / w.sum()
        self._kernels = [_ring_metropolis(rng, self.pi) for _ in range(k)]
        self._lazy = None
        if hold is not None:
            self._lazy = [(1.0 - hold) * m + hold * np.eye(n) for m in self._kernels]
        self.pi_tokens = _tokens(self.pi)
        self._tokens = [_tokens(m) for m in self._kernels]
        self._lazy_tokens = [_tokens(m) for m in self._lazy or []]

    def matrices(self, lazy: bool) -> list[np.ndarray]:
        return self._lazy if lazy else self._kernels

    def tokens(self, lazy: bool) -> list[np.ndarray]:
        return self._lazy_tokens if lazy else self._tokens

    def op(self, seed: int, index: int, lazy: bool = False) -> Model:
        """Op `index`'s relabelled family (the blend if `lazy`) and observable."""
        rng = np.random.default_rng([seed, index + 1, 0])
        perm = rng.permutation(self.pi.size)
        return Model(self, perm, rng.standard_normal(self.pi.size), lazy)
