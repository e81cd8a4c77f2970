"""Truncated spectral representation of -A and its analytic semigroup.

A is diagonal in the eigenbasis with eigenvalues -lambda_i, lambda_i > 0
ascending, so S(t) acts coefficientwise as exp(-lambda_i t) and fractional
power spaces are weighted l2 norms.  verify_semigroup_bounds measures the
smoothing constants instead of assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralOperator",
    "laplacian_1d",
    "semigroup_apply",
    "frac_power_norm",
    "verify_semigroup_bounds",
]


@dataclass(frozen=True)
class SpectralOperator:
    """Eigenvalues of -A (ascending, positive) and noise trace weights q_i."""

    eigenvalues: np.ndarray
    trace_weights: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        q = np.asarray(self.trace_weights, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-D sequence")
        if lam[0] <= 0 or np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be positive and nondecreasing")
        if q.shape != lam.shape or np.any(q < 0):
            raise ValueError("trace_weights must be nonnegative, same length")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "trace_weights", q)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def trace(self) -> float:
        return float(self.trace_weights.sum())


def laplacian_1d(n_modes: int = 32, length: float = np.pi, trace_weights=None):
    """Dirichlet Laplacian on (0, length): lambda_i = (i*pi/length)^2.

    Default trace weights q_i = 1/i^2 keep the noise trace-class.
    """
    i = np.arange(1, n_modes + 1)
    lam = (i * np.pi / length) ** 2
    q = 1.0 / i**2 if trace_weights is None else np.asarray(trace_weights, float)
    return SpectralOperator(eigenvalues=lam, trace_weights=q)


def semigroup_apply(op: SpectralOperator, t, u: np.ndarray) -> np.ndarray:
    """Coefficients of S(t)u: c_i -> exp(-lambda_i t) c_i.  An array of
    times, e.g. the nodes of a grid, gives one row per time."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("semigroup defined for t >= 0 only")
    u = np.asarray(u, dtype=float)
    return np.exp(-np.multiply.outer(t, op.eigenvalues)) * u


def frac_power_norm(op: SpectralOperator, delta: float, u: np.ndarray) -> float:
    """Norm of u in the domain of (-A)^delta: sqrt(sum lambda_i^{2 delta} c_i^2)."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    u = np.asarray(u, dtype=float)
    if delta == 0.0:
        return float(np.linalg.norm(u))
    return float(np.sqrt(np.sum(op.eigenvalues ** (2.0 * delta) * u**2)))


def verify_semigroup_bounds(op: SpectralOperator, gamma: float, t_grid) -> dict:
    """Measure the semigroup smoothing constants on a grid of times.

    Reports, per time t:
      * smoothing: t^gamma e^{lam_1 t} sup_i lam_i^gamma e^{-lam_i t}
        (finite constant c_S candidate), and its analytic envelope
        e^{lam_1 t} t^gamma (gamma/(e t))^gamma when the continuous max
        over lambda dominates the discrete spectrum;
      * difference bounds ||(S(t)-I)|| between fractional power spaces for
        (theta, sigma) in {(0,1), (0,gamma), (gamma,1)} measured as
        sup_i lam_i^{theta-sigma} (1-e^{-lam_i t}) / t^{sigma-theta},
        each of which must stay bounded by 1 (from 1-e^{-x} <= x^p for
        p in [0,1], x >= 0).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if np.any(t_grid <= 0):
        raise ValueError("t_grid must be strictly positive")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    lam = op.eigenvalues
    lam1 = lam[0]
    smooth, envel, diff = [], {}, {}
    pairs = [(0.0, 1.0), (0.0, gamma), (gamma, 1.0)]
    for th, sg in pairs:
        diff[(th, sg)] = []
    for t in t_grid:
        decay = np.exp(-lam * t)
        smooth.append(t**gamma * np.exp(lam1 * t) * np.max(lam**gamma * decay))
        for th, sg in pairs:
            p = sg - th
            val = np.max(lam ** (-p) * (1.0 - decay)) / t**p
            diff[(th, sg)].append(val)
    envelope = [
        t**gamma * np.exp(lam1 * t) * (gamma / (np.e * t)) ** gamma
        if gamma / t >= lam1
        else t**gamma * np.exp(lam1 * t) * lam1**gamma * np.exp(-lam1 * t)
        for t in t_grid
    ]
    return {
        "gamma": gamma,
        "t_grid": t_grid,
        "smoothing_constant": float(np.max(smooth)),
        "smoothing_per_t": np.asarray(smooth),
        "smoothing_envelope_per_t": np.asarray(envelope),
        "difference_constants": {
            f"theta={th:g},sigma={sg:g}": float(np.max(v))
            for (th, sg), v in diff.items()
        },
    }
