"""Independent reference values for every number the CLI prints.

Plain numpy on n x n matrices, never the kn x kn block operators the
library solves with:

- strat: elimination around the cycle (x_q = f + lam K_q x_{q+1}) leaves one
  n x n solve of (I - lam^k K_1...K_k), then back-substitution; at lam = 1
  the constant direction is deflated;
- rand: one eigh of the symmetrised mean kernel, var = sum c^2 (1 + lam mu) /
  (1 - lam mu); the limit drops mu = 1;
- gap bound (two kernels): the same variational optimiser as the library,
  with each block system eliminated to n x n;
- finite-M variances: a backward recursion u_i = K_i (f + u_{i+1}) for strat
  and the eigh closed form for rand.
"""

from __future__ import annotations

import numpy as np


class Reference:
    def __init__(self, model):
        self.pi = model.pi
        self.mats = model.kernels
        self.k = len(self.mats)
        self.n = self.pi.size
        f = model.f
        self.fc = f - float(self.pi @ f)
        self.norm_sq = float(self.pi @ (self.fc * self.fc))
        self._eye = np.eye(self.n)
        self._cycle = None
        self._spectrum = None

    def _inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.pi @ (a * b))

    def cycle(self) -> np.ndarray:
        """K_1 K_2 ... K_k, the full-cycle product from phase 1."""
        if self._cycle is None:
            out = self._eye
            for m in self.mats:
                out = out @ m
            self._cycle = out
        return self._cycle

    def strat(self, lam: float) -> float:
        """Deterministic-scan variance at discount lam in [0, 1]."""
        fc, mats, k = self.fc, self.mats, self.k
        # x_1 = r + lam^k K_1..K_k x_1 with r = f + lam K_1 (f + ... + lam K_{k-1} f)
        rhs = fc
        for q in range(k - 2, -1, -1):
            rhs = fc + lam * (mats[q] @ rhs)
        system = self._eye - lam**k * self.cycle()
        if lam == 1.0:
            system = system + np.outer(np.ones(self.n), self.pi)
        x = np.linalg.solve(system, rhs)
        total = self._inner(fc, x)
        for q in range(k - 1, 0, -1):  # x_k, x_{k-1}, ..., x_2
            x = fc + lam * (mats[q] @ x)
            total += self._inner(fc, x)
        return 2.0 / k * total - self.norm_sq

    def _rand_spectrum(self):
        if self._spectrum is None:
            mean = sum(self.mats) / self.k
            root = np.sqrt(self.pi)
            sym = root[:, None] * mean / root[None, :]
            mu, vecs = np.linalg.eigh((sym + sym.T) / 2.0)
            c = vecs.T @ (root * self.fc)
            self._spectrum = (mu, c)
        return self._spectrum

    def rand(self, lam: float) -> float:
        """Random-scan variance at discount lam in [0, 1]."""
        mu, c = self._rand_spectrum()
        if lam == 1.0:
            mu, c = mu[:-1], c[:-1]  # eigh sorts ascending; mu = 1 is last
        return float(np.sum(c * c * (1.0 + lam * mu) / (1.0 - lam * mu)))

    def gap_bound(self, lam: float) -> float:
        """Certified gap lower bound for two kernels (skew term at the
        variational optimiser)."""
        if lam == 0.0:
            return 0.0
        k1, k2 = self.mats
        mean = (k1 + k2) / 2.0
        half_diff = (k1 - k2) / 2.0
        eye, fc = self._eye, self.fc
        # forward: (I - lam E) x = (f, f) with E x = (K1 x2, K2 x1)
        x1 = np.linalg.solve(eye - lam * lam * (k1 @ k2), fc + lam * (k1 @ fc))
        x2 = fc + lam * (k2 @ x1)
        # h = x - lam S x with S x = (Kbar x2, Kbar x1)
        h1 = x1 - lam * (mean @ x2)
        h2 = x2 - lam * (mean @ x1)
        # adjoint: (I - lam E*) g = h with E* g = (K2 g2, K1 g1)
        g1 = np.linalg.solve(eye - lam * lam * (k2 @ k1), h1 + lam * (k2 @ h2))
        g2 = h2 + lam * (k1 @ g1)
        # skew part A g = (D g2, -D g1)
        a1 = half_diff @ g2
        a2 = -(half_diff @ g1)
        y1 = np.linalg.solve(eye - lam * lam * (mean @ mean), a1 + lam * (mean @ a2))
        y2 = a2 + lam * (mean @ y1)
        return lam * lam * (self._inner(a1, y1) + self._inner(a2, y2))

    def contraction(self) -> float:
        """Spectral radius of the full-cycle product on centered functions."""
        centered = self.cycle() - np.outer(np.ones(self.n), self.pi)
        return float(np.abs(np.linalg.eigvals(centered)).max())

    def finite_m(self, steps: int, scheme: str) -> float:
        """Variance of sqrt(M) times the M-step average, started stationary."""
        fc = self.fc
        if scheme == "rand":
            mu, c = self._rand_spectrum()
            lags = np.arange(1, steps)
            weights = (steps - lags) / steps
            series = np.power(mu[:, None], lags[None, :]) @ weights
            return float(np.sum(c * c * (1.0 + 2.0 * series)))
        # u_i = sum_{j > i} E[f(X_j) | X_i], advanced backwards in time; the
        # transition out of time i uses kernel i mod k.
        u = np.zeros(self.n)
        cross = 0.0
        for i in range(steps - 2, -1, -1):
            u = self.mats[i % self.k] @ (fc + u)
            cross += self._inner(fc, u)
        return self.norm_sq + 2.0 * cross / steps
