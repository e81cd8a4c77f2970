"""Sampling and Hölder statistics of fractional Brownian driving paths.

Scalar and Hilbert-valued fBm are sampled exactly in law by circulant
embedding of fractional Gaussian noise (Davies-Harte: one 2n-point FFT per
mode, O(n log n) time and O(n) memory), shifted by the Wiener shift, and
measured through the Hölder seminorm, the weighted (rho-damped) Hölder norm
and the small-gap modulus used to detect membership in the little-Hölder
class.  All three sups over node pairs are exact: a block branch-and-bound
search evaluates only the block pairs whose bound can beat the best term,
with direct differences, and returns the all-pairs max bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HolderParams",
    "GridPath",
    "SampledPath",
    "fbm_covariance",
    "sample_fbm_1d",
    "sample_qfbm",
    "wiener_shift",
    "holder_seminorm",
    "weighted_holder_norm",
    "wiener_modulus",
]

@dataclass(frozen=True)
class HolderParams:
    """Exponent quadruple (H, beta, beta', alpha).

    The constructor enforces the standing chain
    1/2 < beta < beta' < H < 1 and 1 - beta' < alpha < beta.
    """

    hurst: float = 0.75
    beta: float = 0.55
    beta_prime: float = 0.65
    alpha: float = 0.5

    def __post_init__(self):
        if not (0.5 < self.beta < self.beta_prime < self.hurst < 1.0):
            raise ValueError(
                "require 1/2 < beta < beta' < hurst < 1, got "
                f"beta={self.beta}, beta'={self.beta_prime}, H={self.hurst}"
            )
        if not (1.0 - self.beta_prime < self.alpha < self.beta):
            raise ValueError(
                f"require 1-beta' < alpha < beta, got alpha={self.alpha}"
            )


# the grid rule: a time within _GRID_RTOL (relative to its index) of a node
# is that node; two grids whose steps agree to _STEP_RTOL share their step
_GRID_RTOL = 1e-9
_STEP_RTOL = 1e-12


@dataclass
class GridPath:
    """Values on the uniform time grid t0 + k*dt, k = 0..n_nodes-1, node k
    along the first axis of values.

    The one owner of the grid rule: node lookup, windows and the grid-step
    test.  Subclasses define _lift, which checks and shapes the values.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = self._lift(np.asarray(self.values, dtype=float))
        if self.values.shape[0] < 2:
            raise ValueError("need at least 2 grid nodes")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def t_end(self) -> float:
        return self.t0 + self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_nodes)

    def index_of(self, t: float) -> int:
        """Grid index of time t; raises ValueError when t is not a node."""
        k = (t - self.t0) / self.dt
        ki = int(round(k))
        off_grid = abs(k - ki) > _GRID_RTOL * max(1.0, abs(k)) + 1e-12
        if off_grid or not 0 <= ki < self.n_nodes:
            raise ValueError(f"time {t} is not a grid node of this path")
        return ki

    def window(self, s=None, t=None):
        """The path on the nodes from s to t (default: the first and the
        last node) as a view of the same type, starting at t0 + i*dt for
        the node index i of s.  The window must contain at least one step."""
        i = 0 if s is None else self.index_of(s)
        j = self.n_steps if t is None else self.index_of(t)
        if j <= i:
            raise ValueError("window must contain at least one grid step")
        return type(self)(self.t0 + i * self.dt, self.dt, self.values[i : j + 1])

    def same_step(self, other: "GridPath") -> bool:
        """Whether other lies on a grid with the same step."""
        return abs(self.dt - other.dt) <= _STEP_RTOL * max(self.dt, other.dt)


class SampledPath(GridPath):
    """A vector path on a uniform time grid, stored mode-wise.

    values has shape (n_nodes, n_modes); a scalar path may pass (n_nodes,).
    Grid paths are read as their piecewise-linear interpolants everywhere
    the integration machinery needs off-node values.
    """

    @staticmethod
    def _lift(values):
        values = np.atleast_1d(values)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError("values must be (n_nodes,) or (n_nodes, n_modes)")
        return values

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]


def fbm_covariance(t, s, hurst: float):
    """Covariance 0.5(|t|^2H + |s|^2H - |t-s|^2H) of two-sided fBm."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(t) ** h2 + np.abs(s) ** h2 - np.abs(t - s) ** h2)


def _circulant_eigenvalues(hurst: float, n_steps: int, dt: float) -> np.ndarray:
    """Eigenvalues of the 2n-point circulant whose first row embeds the
    fractional Gaussian noise autocovariance
    gamma(k) = dt^2H (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2 as
    gamma(0), ..., gamma(n), gamma(n-1), ..., gamma(1).

    The embedding is nonnegative definite for every H in (0, 1) (Davies &
    Harte 1987; Craigmile 2003); a negative eigenvalue beyond round-off
    raises RuntimeError.
    """
    h2 = 2.0 * hurst
    k = np.arange(n_steps + 1, dtype=float)
    gamma = 0.5 * dt**h2 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigs = np.fft.fft(row).real
    if eigs.min() < -np.finfo(float).eps * row.size * np.abs(eigs).max():
        raise RuntimeError(
            f"circulant embedding not nonnegative definite (H={hurst}, n={n_steps})"
        )
    return eigs


def _fbm_from_normals(sqrt_eigs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Map standard normals z (..., 4n) to fBm values (..., n+1) at
    0, dt, ..., n*dt: the real part of the first n outputs of the FFT of
    sqrt_eigs * (z[:2n] + i z[2n:]) is fractional Gaussian noise, and its
    cumulative sum from 0 is the path.  sqrt_eigs holds sqrt(eig / 2n) of
    the 2n circulant eigenvalues."""
    m = sqrt_eigs.size
    n = m // 2
    noise = np.fft.fft(sqrt_eigs * (z[..., :m] + 1j * z[..., m:]), axis=-1)
    out = np.zeros(z.shape[:-1] + (n + 1,))
    np.cumsum(noise[..., :n].real, axis=-1, out=out[..., 1:])
    return out


def _sqrt_eigs(hurst: float, n_steps: int, dt: float) -> np.ndarray:
    """sqrt(eig / 2n) of the circulant eigenvalues, as _fbm_from_normals
    takes them."""
    if not (0.0 < hurst < 1.0):
        raise ValueError("hurst must lie in (0, 1)")
    if n_steps < 1 or dt <= 0:
        raise ValueError("need n_steps >= 1 and dt > 0")
    eigs = _circulant_eigenvalues(hurst, n_steps, dt)
    return np.sqrt(np.maximum(eigs, 0.0) / eigs.size)


def sample_fbm_1d(hurst: float, n_steps: int, dt: float, seed) -> SampledPath:
    """Scalar fBm on {0, dt, ..., n_steps*dt}, exact in law, zero at zero."""
    sqrt_eigs = _sqrt_eigs(hurst, n_steps, dt)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal(2 * sqrt_eigs.size)
    return SampledPath(t0=0.0, dt=dt, values=_fbm_from_normals(sqrt_eigs, z))


def sample_qfbm(op, hurst: float, n_steps: int, dt: float, seed) -> SampledPath:
    """Trace-class fBm: mode i carries an independent scalar fBm times sqrt(q_i).

    Mode i uses the sub-seed (seed, i) so adding modes never reshuffles the
    earlier ones; the nonzero modes share one FFT along the last axis.
    """
    q = np.asarray(op.trace_weights, dtype=float)
    if np.all(q == 0.0):
        warnings.warn("all trace weights are zero; returning the zero path")
    sqrt_eigs = _sqrt_eigs(hurst, n_steps, dt)
    vals = np.zeros((n_steps + 1, q.size))
    live = np.flatnonzero(q)
    if live.size:
        seqs = [np.random.SeedSequence([int(seed), int(i)]) for i in live]
        n_z = 2 * sqrt_eigs.size
        z = np.stack([np.random.default_rng(ss).standard_normal(n_z) for ss in seqs])
        vals[:, live] = _fbm_from_normals(sqrt_eigs, z).T * np.sqrt(q[live])
    return SampledPath(t0=0.0, dt=dt, values=vals)


def wiener_shift(omega: SampledPath, shift_steps: int) -> SampledPath:
    """theta_tau omega = omega(tau + .) - omega(tau), tau = shift_steps*dt."""
    if not isinstance(shift_steps, (int, np.integer)):
        raise ValueError("shift must be a whole number of grid steps")
    k = int(shift_steps)
    if k < 0 or k > omega.n_steps - 1:
        raise ValueError(
            f"shift of {k} steps leaves fewer than 2 nodes in the window"
        )
    vals = omega.values[k:] - omega.values[k]
    return SampledPath(t0=omega.t0, dt=omega.dt, values=vals)


# Block branch and bound behind every pair sup: nodes are cut into at most
# _MAX_BLOCKS contiguous blocks of at least _MIN_BLOCK nodes, and a batch of
# exact block pairs holds at most _CHUNK pair differences.
_MIN_BLOCK = 16
_MAX_BLOCKS = 512
_CHUNK = 2**15
_EPS = np.finfo(float).eps


def _row_norms(d):
    """Euclidean norms of the rows of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _pair_sup(u, a, b, c, max_gap):
    """Exact max over node pairs j < k with k - j <= max_gap of
    (a[j]*b[k]) * ||u[k]-u[j]|| / c[k-j], Euclidean norm across modes; 0.0
    when no pair qualifies, NaN when a node value is not finite.

    a, b >= 0 are node weights and c[g] > 0 (g >= 1) is nondecreasing in
    the gap g.  Each block gets a bounding box (centre and half-diagonal),
    which bounds every pair term of a block pair by the centre distance plus
    both radii, the largest a and b of the two blocks and the smallest gap
    between them.  Block pairs are evaluated exactly, in order of decreasing
    bound, until no bound left exceeds the best exact term.  The bound is
    inflated by a relative slack for its own rounding and by an absolute
    term for the rounding of the box centres, so a pruned pair never holds
    a larger term; every term is the expression a per-gap pass over direct
    differences u[k]-u[j] computes, so the max is that pass's bit for bit.
    """
    n, m = u.shape
    if not np.isfinite(u).all():
        return np.nan
    max_gap = min(max_gap, n - 1)
    if max_gap < 1:
        return 0.0
    nb = min(_MAX_BLOCKS, max(1, n // _MIN_BLOCK))
    edges = (np.arange(nb + 1) * n) // nb
    starts, last = edges[:-1], edges[1:] - 1
    lo = np.minimum.reduceat(u, starts)
    hi = np.maximum.reduceat(u, starts)
    centre = 0.5 * (lo + hi)
    radius = _row_norms(0.5 * (hi - lo))
    a_top = np.maximum.reduceat(a, starts)
    b_top = np.maximum.reduceat(b, starts)

    # block pairs I <= J; their bounds are built in place, one mode of the
    # centre distance at a time, so no temporary holds pairs times modes
    bi, bj = np.triu_indices(nb)
    bound = np.zeros(bi.size)
    for col in centre.T:
        bound += (col[bj] - col[bi]) ** 2
    np.sqrt(bound, out=bound)
    # the relative slack covers the rounding of the bound and of the exact
    # terms; centre_err covers that of the box centres, which is relative
    # to |u| and so not to the increments when u carries a large offset
    centre_err = 4 * _EPS * float(np.abs(u).max()) * np.sqrt(m)
    bound += radius[bi] + radius[bj] + centre_err
    bound *= a_top[bi] * b_top[bj] * (1.0 + 1e-12 + 4 * m * _EPS)
    gap_min = np.maximum(starts[bj] - last[bi], 1)
    bound /= c[gap_min]
    bound[gap_min > max_gap] = 0.0
    del gap_min
    order = np.argsort(-bound, kind="stable")

    width = int((last - starts).max()) + 1
    offs = np.arange(width)
    batch = max(1, _CHUNK // (width * width * m))
    best = 0.0
    pos = 0
    while pos < order.size and bound[order[pos]] > best:
        take = order[pos : pos + batch]
        take = take[bound[take] > best]
        pos += batch
        # node indices of each block pair; short blocks repeat their last node
        j = np.minimum(starts[bi[take], None] + offs, last[bi[take], None])
        k = np.minimum(starts[bj[take], None] + offs, last[bj[take], None])
        j, k = j[:, :, None], k[:, None, :]
        gap = k - j
        ok = (gap >= 1) & (gap <= max_gap)
        dn = _row_norms((u[k] - u[j]).reshape(-1, m)).reshape(gap.shape)
        q = (a[j] * b[k]) * dn / c[np.where(ok, gap, 1)]
        best = max(best, float(q[ok].max()))
    return best


def _holder_pair_sup(u, dt, beta, max_gap):
    """max over node pairs j<k with (k-j)*dt < max_gap of
    ||u[k]-u[j]|| / ((k-j)*dt)^beta, Euclidean norm across modes."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    span_pow = (dt * np.arange(n)) ** beta
    n_gaps = np.count_nonzero(dt * np.arange(1, n) < max_gap)
    ones = np.ones(n)
    return _pair_sup(u, ones, ones, span_pow, n_gaps)


def holder_seminorm(u: SampledPath, beta: float, s=None, t=None) -> float:
    """Grid estimator of |||u|||_beta over [s, t]: max over node pairs of
    ||u(t_k)-u(t_j)|| / (t_k-t_j)^beta.  A lower bound of the continuum
    seminorm, nondecreasing under grid refinement; NaN when a node value in
    [s, t] is not finite."""
    return _holder_pair_sup(u.window(s, t).values, u.dt, beta, max_gap=np.inf)


def wiener_modulus(u: SampledPath, beta: float, delta: float) -> float:
    """Small-gap Hölder quotient sup over pairs with t - s < delta; NaN
    when a node value is not finite."""
    if not (0.0 < delta <= u.n_steps * u.dt + 1e-12):
        raise ValueError("delta must lie in (0, window length]")
    if delta <= u.dt:
        warnings.warn("delta below grid resolution; modulus degenerates to 0")
    return _holder_pair_sup(u.values, u.dt, beta, max_gap=delta)


def weighted_holder_norm(u: SampledPath, beta: float, rho: float) -> float:
    """Weighted norm on the grid nodes: sup_s e^{-rho(s-t0)}||u(s)||
    + sup_{s<t} (s-t0)^beta e^{-rho(t-t0)} ||u(t)-u(s)||/(t-s)^beta.

    rho = 0 recovers the plain (beta, beta)-norm.  NaN when a node value is
    not finite.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    n, dt = u.n_nodes, u.dt
    span_pow = (dt * np.arange(n)) ** beta
    decay = np.exp(-rho * dt * np.arange(n))
    sup_val = float(np.max(decay * _row_norms(u.values)))
    return sup_val + _pair_sup(u.values, span_pow, decay, span_pow, n - 1)
