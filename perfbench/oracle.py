"""Exact reference values for the benchmark's fixed models, from numpy alone.

The models the CLI loads are a Poisson(lam) stream of integer marks >= 1,
watched at inspections tau_0 = 0 < tau_1 < ... with Exp(mu) gaps; nu is
the first inspection with A > M.  Nothing here imports crosswatch: every
value is derived afresh from the embedded chain of inspection levels, so
it can judge the package without sharing its code.

Building blocks, for one Exp(mu) gap T and the mark total J over it:

* ``P_q(j) = E[e^{-qT}; J = j] = sum_k mu lam^k / (mu+lam+q)^{k+1} f^{*k}(j)``;
* ``R_q(j) = int_0^inf e^{-qs} P{T > s, A(s) = j} ds
           = sum_n lam^n / (q+mu+lam)^{n+1} f^{*n}(j)``;
* the discounted occupation of benign levels,
  ``pi_q(a) = E[sum_{i < nu} e^{-q tau_i}; A(tau_i) = a]``, which solves
  ``pi_q = e_0 + pi_q P_q`` on levels 0..M;
* the value of the future from a benign look at level a,
  ``h(a) = E[e^{-w(tau_pre - now)} u^{A_pre} v^{A_nu} e^{-x T_last}]``.

Marks are >= 1, so n arrivals reach at least level n and every sum over
arrival counts up to a level is finite: all values are finite sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Model:
    """Poisson(lam) arrivals with marks on {1, 2, ...}, Exp(mu) gaps, alarm level M.

    Marks are geometric(``a``) when ``pmf`` is empty, else ``pmf[k]`` is P{mark = k}.
    """

    lam: float
    mu: float
    m: int
    a: float = 0.0
    pmf: tuple[float, ...] = ()

    @classmethod
    def from_config(cls, cfg: dict) -> "Model":
        if cfg["obs"]["initial"] != "zero":
            raise ValueError("the oracle needs the first inspection at time 0")
        marks = cfg["marks"]
        lam, mu, m = float(cfg["lambda"]), float(cfg["obs"]["mu"]), int(cfg["threshold"])
        if "geometric" in marks:
            return cls(lam, mu, m, a=float(marks["geometric"]["a"]))
        pmf = tuple(float(p) for p in marks["pmf"])
        if pmf[0] != 0.0:
            raise ValueError("the oracle needs marks >= 1")
        return cls(lam, mu, m, pmf=pmf)

    def mark_probs(self, size: int) -> np.ndarray:
        """P{mark = k} for k = 0..size-1."""
        out = np.zeros(size)
        if self.pmf:
            src = np.asarray(self.pmf[:size])
            out[: src.size] = src
        else:
            k = np.arange(1, size)
            out[1:] = self.a * (1.0 - self.a) ** (k - 1)
        return out

    def mark_pgf(self, z: complex) -> complex:
        z = complex(z)
        if self.pmf:
            return complex(np.polyval(np.asarray(self.pmf[::-1], dtype=complex), z))
        return self.a * z / (1.0 - (1.0 - self.a) * z)

    @property
    def mark_mean(self) -> float:
        if self.pmf:
            return float(np.arange(len(self.pmf)) @ np.asarray(self.pmf))
        return 1.0 / self.a

    # -- one gap -----------------------------------------------------------

    def powers(self, size: int) -> np.ndarray:
        """``out[n, j] = P{S_n = j}`` for n, j < size (S_n: total of n marks)."""
        f = self.mark_probs(size)
        out = np.zeros((size, size))
        out[0, 0] = 1.0
        for n in range(1, size):
            out[n] = np.convolve(out[n - 1], f)[:size]
        return out

    @cached_property
    def conv(self) -> np.ndarray:
        return self.powers(self.m + 1)

    def gap_law(self, q: float, size: int | None = None) -> np.ndarray:
        """``P_q(j)`` for j < size (default M + 1)."""
        size = self.m + 1 if size is None else size
        conv = self.conv if size == self.m + 1 else self.powers(size)
        base = self.mu + self.lam + q
        return ((self.mu / base) * (self.lam / base) ** np.arange(size)) @ conv

    def resolvent(self, q: float) -> np.ndarray:
        """``R_q(j)`` for j = 0..M."""
        base = q + self.mu + self.lam
        return ((self.lam / base) ** np.arange(self.m + 1) / base) @ self.conv

    def gap_transform(self, q: float, v: complex) -> complex:
        """``E[e^{-qT} v^J] = mu / (mu + q + lam (1 - g(v)))``."""
        return self.mu / (self.mu + q + self.lam * (1.0 - self.mark_pgf(v)))

    # -- the chain of benign looks ----------------------------------------

    def occupation(self, q: float) -> np.ndarray:
        """``pi_q(a)`` for a = 0..M."""
        p = self.gap_law(q)
        pi = np.zeros(self.m + 1)
        for a in range(self.m + 1):
            inflow = 1.0 if a == 0 else float(pi[:a] @ p[a:0:-1])
            pi[a] = inflow / (1.0 - p[0])
        return pi

    def _backward(self, terminal: np.ndarray, q: float) -> np.ndarray:
        """Solve ``h(a) = terminal(a) + sum_{j >= 0, a + j <= M} P_q(j) h(a + j)``."""
        p = self.gap_law(q)
        h = np.zeros(terminal.shape, dtype=complex)
        for a in range(self.m, -1, -1):
            h[a] = (terminal[a] + p[1 : self.m + 1 - a] @ h[a + 1 :]) / (1.0 - p[0])
        return h

    def future(self, w: float, u: complex, v: complex, x: float) -> np.ndarray:
        """``h(a)`` for a = 0..M (see the module docstring)."""
        levels = np.arange(self.m + 1)
        vj = complex(v) ** levels
        head = np.cumsum(self.gap_law(x) * vj)[::-1]  # head[a] = sum over j <= M - a
        overshoot = vj * (self.gap_transform(x, v) - head)
        return self._backward(complex(u) ** levels * overshoot, w)

    # -- time domain -------------------------------------------------------

    def _poisson(self, mean: float, size: int) -> np.ndarray:
        n = np.arange(size)
        if mean == 0.0:
            return (n == 0).astype(float)
        lgam = np.array([math.lgamma(k + 1.0) for k in n])
        return np.exp(-mean + n * math.log(mean) - lgam)

    def _counts_next_look(self, t: float) -> np.ndarray:
        """P{N(t + E) = n}, n = 0..M: arrivals up to the first look after t."""
        size = self.m + 1
        geo = (self.mu / (self.mu + self.lam)) * (self.lam / (self.mu + self.lam)) ** np.arange(size)
        return np.convolve(self._poisson(self.lam * t, size), geo)[:size]

    def survival_pre(self, t: float) -> float:
        """``P{tau_pre > t} = P{A(t + E) <= M}``: the first look after t is still benign."""
        return float(self._counts_next_look(t) @ self.conv.sum(axis=1))

    def survival_cross(self, t: float) -> float:
        """``P{tau_cross > t} = P{A(L_t) <= M}``, L_t the last look at or before t.

        With lam = mu the arrival count over [0, L_t] is a Poisson(lam t)
        count shifted down by one, plus the atom e^{-mu t} of no look in (0, t].
        """
        if self.lam != self.mu:
            raise ValueError("survival_cross is derived for lam == mu")
        counts = self._poisson(self.lam * t, self.m + 2)[1:].copy()
        counts[0] += math.exp(-self.mu * t)
        return float(counts @ self.conv.sum(axis=1))

    def crossing_levels(self, r_max: int) -> np.ndarray:
        """``H[a, r] = P{A_nu = r | benign look at a}`` for a = 0..M, r = 0..r_max."""
        levels = np.arange(self.m + 1)
        jumps = self.gap_law(0.0, r_max + 1)
        gap = np.arange(r_max + 1)[None, :] - levels[:, None]
        terminal = np.where((gap >= 0) & (np.arange(r_max + 1)[None, :] > self.m), jumps[np.clip(gap, 0, r_max)], 0.0)
        return self._backward(terminal, 0.0).real

    def joint_table(self, times, r_max: int) -> np.ndarray:
        """``P{A_nu = r, tau_pre > t}`` for t in ``times`` (rows) and r = 0..r_max."""
        chain = self.conv @ self.crossing_levels(r_max)
        return np.array([self._counts_next_look(t) @ chain for t in times])

    def moments(self) -> dict[str, float]:
        """Means of the quantities ``crosswatch simulate`` reports."""
        levels = np.arange(self.m + 1)
        pi = self.occupation(0.0)
        p = self.gap_law(0.0)
        cross_prob = 1.0 - np.cumsum(p)[::-1]  # P{a + J > M}
        jump_mean = self.lam * self.mark_mean / self.mu
        head_mean = np.cumsum(levels * p)[::-1]  # E[J; J <= M - a]
        nu = float(pi.sum())
        arrivals_below = self.conv.sum(axis=1)
        ratio = self.lam / (self.mu + self.lam)
        tau_pre = float(arrivals_below @ (1.0 - ratio ** (levels + 1))) / self.lam
        a_cross = float(pi @ (levels * cross_prob + jump_mean - head_mean))
        return {
            "nu": nu,
            "a_pre": float(pi @ (levels * cross_prob)),
            "a_cross": a_cross,
            "overshoot": a_cross - self.m,
            "tau_pre": tau_pre,
            "tau_cross": nu / self.mu,
        }

    # -- transforms --------------------------------------------------------

    def g_parts(self, theta: float, u=1.0, v=1.0, w=0.0, x=0.0, y=1.0) -> tuple[complex, complex]:
        """``(G1*, G2*)`` at (theta, u, v, w, x, y): windows t < tau_pre and tau_pre <= t < tau_cross.

        G1 runs the window through one benign gap (kernel ``R * y^j`` then
        ``P_w``) and hands over to the future; G2 runs it through the last gap.
        """
        levels = np.arange(self.m + 1)
        u, v, y = complex(u), complex(v), complex(y)
        pi = self.occupation(theta + w)
        future = self.future(w, u, v, x)
        inside = np.convolve(self.resolvent(theta + w) * y**levels, self.gap_law(w))[: self.m + 1]
        g1 = sum(pi[a] * y**a * (inside[: self.m + 1 - a] @ future[a:]) for a in levels)
        last = np.convolve(self.resolvent(theta + x) * (v * y) ** levels, self.gap_law(x) * v**levels)
        head = np.cumsum(last[: self.m + 1])[::-1]
        whole = self.gap_transform(x, v) / (theta + x + self.mu + self.lam * (1.0 - self.mark_pgf(v * y)))
        g2 = pi @ ((u * v * y) ** levels * (whole - head))
        return complex(g1), complex(g2)
