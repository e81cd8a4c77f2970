"""Truncated spectral representation of -A and its analytic semigroup.

A is diagonal in the eigenbasis with eigenvalues -lambda_i, lambda_i > 0
ascending, so S(t) acts coefficientwise as exp(-lambda_i t) and fractional
power spaces are weighted l2 norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralOperator",
    "laplacian_1d",
    "semigroup_apply",
    "frac_power_norm",
]

# The one piece size: arrays built in pieces (heat's node fields, kummer_decay's
# table, write_series' rows, the pair search's chunks) hold at most this many
# float64s per piece, 128 KiB: glibc's default mmap threshold.  Larger arrays
# come as fresh zero-filled mappings, so whole (n+1) x m_phys fields paid page
# faults on every Picard step; pieces below it reuse heap memory in cache.
_BLOCK_FLOATS = 1 << 14


def _row_blocks(rows: int, width: int):
    """Row slices of a (rows, width) array in equal pieces of at most
    _BLOCK_FLOATS // width rows (one at least); the last may be shorter."""
    most = max(1, _BLOCK_FLOATS // width)
    n_blocks = max(1, -(-rows // most))
    size = max(1, -(-rows // n_blocks))
    return (slice(a, a + size) for a in range(0, rows, size))


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
            raise ValueError("trace_weights must be nonnegative, one per eigenvalue")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "trace_weights", q)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def laplacian_1d(n_modes: int) -> SpectralOperator:
    """Dirichlet Laplacian on (0, pi): lambda_i = i^2 exactly, with trace
    weights q_i = 1/i^2, which keep the noise trace-class."""
    i = np.arange(1.0, n_modes + 1)
    return SpectralOperator(eigenvalues=i**2, trace_weights=1.0 / i**2)


def semigroup_apply(op: SpectralOperator, t, u: np.ndarray, out=None) -> np.ndarray:
    """Coefficients of S(t)u: c_i -> exp(-lambda_i t) c_i.  An array of
    times, e.g. the nodes of a grid, gives one row per time; out, if given,
    receives the rows (shape t.shape + (N,)), with u broadcast to it."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("semigroup defined for t >= 0 only")
    u = np.asarray(u, dtype=float)
    rows = np.multiply(t[..., None], op.eigenvalues, out=out)
    np.negative(rows, out=rows)
    np.exp(rows, out=rows)
    return np.multiply(rows, u, out=out)


def frac_power_norm(op: SpectralOperator, delta: float, u: np.ndarray) -> float:
    """Norm of u in the domain of (-A)^delta: sqrt(sum lambda_i^{2 delta} c_i^2)."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    u = np.asarray(u, dtype=float)
    if delta == 0.0:
        return float(np.linalg.norm(u))
    return float(np.sqrt(np.sum(op.eigenvalues ** (2.0 * delta) * u**2)))
