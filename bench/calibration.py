"""Fixed reference computations that gauge how fast the machine runs now.

The benchmark's machine is shared. For minutes at a time, neighbours slow
this process by 20-65 %, which moves a run's median op time far more than
any bound worth keeping (on 40 s windows of back-to-back `compare` ops, the
window medians spread by 39 % between quartiles). Each timed interval is
divided by the mean of a reference run just before and one just after it,
and multiplied by that reference's undisturbed time: the result is the
interval's length at the machine's undisturbed speed. The reference does
the same kind of work as the workload's ops, because neighbours slow
dense linear algebra and the Python interpreter by different amounts:

- "dense": a LAPACK solve and a matrix product with an 8 MB working set, a
  nonsymmetric eigenproblem, JSON parsing and a short Python loop. On the
  windows above it cut the spread of `compare` to 9 % and of `limit` to 4 %.
- "interpreter": a Python loop of scalar `np.searchsorted` draws, the inner
  step of `scanvar.simulate`.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# Undisturbed seconds of one reference run on the 2-core machine the
# baseline comes from (about the minimum of 50 runs).
REFERENCE_S = {"dense": 0.135, "interpreter": 0.1}


class Calibration:
    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self._kind = kind
        if kind == "dense":
            self._system = rng.random((800, 800)) + 800.0 * np.eye(800)
            self._rhs = rng.random((800, 200))
            self._square = rng.random((300, 300))
            self._text = json.dumps(rng.random(60_000).tolist())
        else:
            self._cumulative = np.cumsum(rng.dirichlet(np.ones(30)))
            self._uniforms = rng.random(40_000).tolist()
        self._last = self.sample()

    def sample(self) -> float:
        """Seconds one reference run takes now."""
        start = perf_counter()
        if self._kind == "dense":
            np.linalg.solve(self._system, self._rhs)
            self._system @ self._rhs
            np.linalg.eigvals(self._square)
            json.loads(self._text)
            total = 0
            for i in range(100_000):
                total += i * i
        else:
            cumulative = self._cumulative
            for u in self._uniforms:
                int(np.searchsorted(cumulative, u, side="right"))
        return perf_counter() - start

    def scale(self, seconds: float) -> float:
        """`seconds`, just measured, at the undisturbed speed; call it right
        after the interval ends."""
        after = self.sample()
        speed = REFERENCE_S[self._kind] / ((self._last + after) / 2.0)
        self._last = after
        return seconds * speed
