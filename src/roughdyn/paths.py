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

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral import _BLOCK_FLOATS

__all__ = [
    "HolderParams",
    "GridPath",
    "SampledPath",
    "fbm_covariance",
    "sample_fbm_1d",
    "sample_qfbm",
    "stream",
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
    # one complex array, filled and transformed in place
    w = np.empty(z.shape[:-1] + (m,), dtype=complex)
    w.real = z[..., :m]
    w.imag = z[..., m:]
    w *= sqrt_eigs
    np.fft.fft(w, axis=-1, out=w)
    out = np.zeros(z.shape[:-1] + (n + 1,))
    np.cumsum(w[..., :n].real, axis=-1, out=out[..., 1:])
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


_STREAMS = ("starts", "usc", "battery")  # the consumers of stream()


def stream(seed: int, consumer: str, *key: int) -> np.random.Generator:
    """Child of seed with spawn key (consumer's _STREAMS index, *key): for
    0 <= seed < 2^64 it has >= 5 entropy words, a driver mode's [seed, i] <= 3."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2^64)")
    key = (_STREAMS.index(consumer), *key)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def sample_fbm_1d(hurst: float, n_steps: int, dt: float, seed) -> SampledPath:
    """Scalar fBm on {0, dt, ..., n_steps*dt}, exact in law, from default_rng(seed)."""
    sqrt_eigs = _sqrt_eigs(hurst, n_steps, dt)
    rng = np.random.default_rng(seed)
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


# Block branch and bound behind every pair sup: nodes are cut into equal
# blocks of _MIN_BLOCK nodes (wider only where that would make more than
# _MAX_BLOCKS blocks), the last block padded by repeating the last node with
# weight 0.  A row chunk holds at most _CHUNK block-pair bounds and an exact
# batch at most 2 * _CHUNK pair differences, one piece (a block pair that
# alone holds more is split by rows), so the working set is the plan (O(n),
# see _Plan) plus a fixed number of pieces.  The weighted norm keeps the
# plans of its last _PLANS grids.
_MIN_BLOCK = 8
_MAX_BLOCKS = 512
_CHUNK = _BLOCK_FLOATS // 2
_PLANS = 8
_EPS = np.finfo(float).eps
# the squares behind a Euclidean norm overflow past about 2^511, so a path
# with a larger node value is searched scaled by an exact power of two; they
# leave the normal range below 2^-511, so a nonzero path whose node values
# all lie below _TINY is scaled up the same way: from _TINY on, the squares
# of a node value and of a difference down to one ulp of it (2^-52 of it)
# stay normal
_BIG = 2.0**500
_TINY = 2.0**-459


def _scale_down(u):
    """(u, 0) when _TINY <= max|u| <= _BIG or u is all zeros, else
    (u * 2^-e, e) with 1/2 <= max|u * 2^-e| < 1; (None, 0) when a node value
    is not finite.  Only a scaled path is copied."""
    top = max(float(u.max()), -float(u.min()))
    if not top < np.inf:  # NaN or inf
        return None, 0
    if _TINY <= top <= _BIG or top == 0.0:
        return u, 0
    e = math.frexp(top)[1]
    return np.ldexp(u, -e), e


def _scale_up(x, e):
    """x * 2^e: inf where the true value exceeds the largest double."""
    if not e:
        return x
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def _row_norms(d):
    """Euclidean norms of the rows of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _windows(x, k):
    """Read-only view out[..., i, j] = x[..., i + j] of the length-k windows
    along the last axis of a C- or F-contiguous x, a transpose too:
    sliding_window_view without its argument checks and as_strided's view
    machinery, which cost as much as a small search's bounds."""
    s = x.strides[-1]
    shape = x.shape[:-1] + (x.shape[-1] - k + 1, k)
    out = np.ndarray(shape, x.dtype, x, strides=x.strides + (s,))
    out.flags.writeable = False
    return out


class _Plan(NamedTuple):
    """Everything a pair search reads besides u, as read-only arrays: the
    block width w, the block count nb and the number n_off of block offsets
    D = J - I whose smallest gap is at most max_gap; the weights a and b
    zero-padded to nb blocks of w nodes (ab, bb) and their block maxima,
    b's followed by n_off - 1 zeros (empty blocks past the end, bound 0);
    the smallest divisor c_min[D] of a block pair at offset D; the divisor
    table table[D, p, q] = c[D*w + q - p] between node p of block I and node
    q of block I + D, inf outside 1 <= gap <= max_gap; and the first node
    starts[I] (contiguous: reduceat copies a strided index on every call)
    and all node indices nodes[I] of each block, a padded node past n - 1.  About 4 floats per node: ab, bb, the divisors behind table,
    and nodes."""

    w: int
    nb: int
    n_off: int
    ab: np.ndarray
    bb: np.ndarray
    a_top: np.ndarray
    b_top: np.ndarray
    c_min: np.ndarray
    table: np.ndarray
    starts: np.ndarray
    nodes: np.ndarray


def _plan(a, b, c, max_gap):
    """The _Plan of node weights a, b (n nodes) and gap divisors c for the
    pairs with gap at most max_gap, 1 <= max_gap <= n - 1."""
    n = a.size
    w = max(_MIN_BLOCK, -(-n // _MAX_BLOCKS))
    nb = -(-n // w)
    pad = nb * w - n
    ab = np.concatenate([a, np.zeros(pad)]).reshape(nb, w)
    bb = np.concatenate([b, np.zeros(pad)]).reshape(nb, w)
    n_off = min(nb, (max_gap - 1) // w + 2)
    b_top = np.zeros(nb + n_off - 1)
    b_top[:nb] = bb.max(axis=1)
    c_min = c[np.maximum(np.arange(n_off) * w - (w - 1), 1)]
    # cg[g + w - 1] = c[g] on 1 <= g <= max_gap, inf elsewhere, read as
    # table[D, p, q] = cg[D*w + q - p + w - 1]
    cg = np.full(n_off * w + w - 1, np.inf)
    top = min(max_gap, n_off * w - 1)
    cg[w : w + top] = c[1 : top + 1]
    table = _windows(cg, w)[: n_off * w].reshape(n_off, w, w)[:, ::-1]
    nodes = np.arange(nb * w).reshape(nb, w)
    plan = _Plan(
        w, nb, n_off, ab, bb, ab.max(axis=1), b_top, c_min, table, nodes[:, 0].copy(), nodes
    )
    for x in plan[3:] + (cg,):
        x.flags.writeable = False
    return plan


def _pair_sup(u, a, b, c, max_gap):
    """Exact max over node pairs j < k with k - j <= max_gap of
    (a[j]*b[k]) * ||u[k]-u[j]|| / c[k-j], Euclidean norm across modes; 0.0
    when no pair qualifies, NaN when a node value is not finite.

    a, b >= 0 are node weights and c[g] > 0 (g >= 1) is nondecreasing in
    the gap g.  Each block gets a bounding box (centre and half-diagonal),
    which bounds every pair term of a block pair by the centre distance plus
    both radii, the largest a and b of the two blocks and the smallest gap
    between them.  The bounds are built one row chunk of block pairs
    (I, I + D) at a time; a chunk's block pairs are evaluated exactly, a
    batch of the largest bounds at a time, until no bound left in it
    exceeds the best exact term.  The bound is inflated by a relative slack
    for its own rounding and by an absolute term for the rounding of the box
    centres, so a pruned pair never holds a larger term.  The divisor of a
    node pair is read from one table over the block offset D, which holds
    c[k-j] for 1 <= k-j <= max_gap and inf elsewhere, so the pairs of a
    block pair outside that range, and those of the padding, are exactly 0.
    Every term is the expression a per-gap pass over direct differences
    u[k]-u[j] computes, so the max is that pass's bit for bit.  A u with
    max|u| > _BIG, or nonzero with max|u| < _TINY, is searched scaled by a
    power of two and the max scaled back, so its squares can neither
    overflow nor underflow.

    The plan is built for this call; weighted_holder_norm reuses its plans
    through the same search.
    """
    u, e = _scale_down(u)
    if u is None:
        return np.nan
    max_gap = int(min(max_gap, u.shape[0] - 1))
    if max_gap < 1:
        return 0.0
    return _scale_up(_search(u, _plan(a, b, c, max_gap)), e)


def _search(u, plan):
    """The pair sup of _pair_sup over a finite u (n, m) under plan."""
    m = u.shape[1]
    w, nb, n_off = plan.w, plan.nb, plan.n_off
    # per block: box centre (rows :m), radius (row m) and largest b (row
    # m + 1); the empty blocks past the end give every block a full window
    # win[:, I, D] = box[:, I + D]
    lo = np.minimum.reduceat(u, plan.starts)
    hi = np.maximum.reduceat(u, plan.starts)
    box = np.zeros((m + 2, nb + n_off - 1))
    box[:m, :nb] = (0.5 * (lo + hi)).T
    box[m, :nb] = _row_norms(0.5 * (hi - lo))
    box[m + 1] = plan.b_top
    win = _windows(box, n_off)
    # the relative slack covers the rounding of the bound and of the exact
    # terms; centre_err covers that of the box centres, which is relative
    # to |u| and so not to the increments when u carries a large offset
    centre_err = 4 * _EPS * max(float(hi.max()), -float(lo.min())) * np.sqrt(m)
    del lo, hi
    slack = 1.0 + 1e-12 + 4 * m * _EPS
    # an exact batch: `batch` block pairs, `rows` nodes p of block I at a
    # time, its differences in one buffer that every batch of the call reuses
    rows = min(w, max(1, 2 * _CHUNK // (w * m)))
    batch = max(1, 2 * _CHUNK // (rows * w * m))
    buf = np.empty(batch * rows * w * m)
    best = 0.0
    i0 = 0
    while i0 < nb:
        cols = min(n_off, nb - i0)
        i1 = min(nb, i0 + max(1, _CHUNK // cols))
        wc = win[:, i0:i1, :cols]
        bound = np.zeros((i1 - i0, cols))
        # the centre distance, g modes at a time: at most _CHUNK differences
        g = min(m, max(1, _CHUNK // bound.size))
        d = np.empty((g,) + bound.shape)
        for k in range(0, m, g):
            dk = d[: min(g, m - k)]
            np.copyto(dk, wc[k : k + len(dk)])
            dk -= box[k : k + len(dk), i0:i1, None]
            bound += np.einsum("kij,kij->ij", dk, dk)
        del d, dk
        np.sqrt(bound, out=bound)
        bound += wc[m]
        bound += box[m, i0:i1, None] + centre_err
        bound *= wc[m + 1]
        bound *= plan.a_top[i0:i1, None] * slack
        bound /= plan.c_min[:cols]
        flat = bound.ravel()
        while True:
            live = np.flatnonzero(flat > best)
            if live.size == 0:
                break
            if live.size > batch:
                live = live[np.argpartition(flat[live], -batch)[-batch:]]
            flat[live] = 0.0
            bi, off = np.divmod(live, cols)
            bi += i0
            bj = bi + off
            # a padded node reads u[n - 1]
            u_k = u.take(plan.nodes[bj], 0, mode="clip")[:, None]
            b_k = plan.bb[bj][:, None, :]
            for p in range(0, w, rows):
                # diff[:, r, q] = u[k] - u[j] for node j = p + r of block bi
                # and node k = q of block bj
                u_j = u.take(plan.nodes[bi, p : p + rows], 0, mode="clip")
                diff = buf[: u_j.size * w].reshape(u_j.shape[:2] + (w, m))
                np.subtract(u_k, u_j[:, :, None], out=diff)
                dn = _row_norms(diff.reshape(-1, m)).reshape(diff.shape[:3])
                terms = plan.ab[bi, p : p + rows, None] * b_k
                terms *= dn
                terms /= plan.table[off, p : p + rows]
                best = max(best, float(terms.max()))
        i0 = i1
    return best


def _check_exponents(beta, rho=0.0):
    """Reject a Hölder exponent or weight that is negative or not finite:
    (dt k)^beta and e^{-rho dt k} would warn, or give 0 or NaN norms."""
    if not 0.0 <= beta < np.inf:
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")
    if not 0.0 <= rho < np.inf:
        raise ValueError(f"rho must be finite and nonnegative, got {rho}")


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
    _check_exponents(beta)
    return _holder_pair_sup(u.window(s, t).values, u.dt, beta, max_gap=np.inf)


def wiener_modulus(u: SampledPath, beta: float, delta: float) -> float:
    """Small-gap Hölder quotient sup over pairs with t - s < delta; NaN
    when a node value is not finite."""
    _check_exponents(beta)
    if not (0.0 < delta <= u.n_steps * u.dt + 1e-12):
        raise ValueError("delta must lie in (0, window length]")
    if delta <= u.dt:
        warnings.warn("delta below grid resolution; modulus degenerates to 0")
    return _holder_pair_sup(u.values, u.dt, beta, max_gap=delta)


@functools.lru_cache(maxsize=_PLANS)
def _weighted_plan(n, dt, beta, rho):
    """The decay weights e^{-rho dt k} and the pair-search plan of the
    weighted norm on n nodes of step dt: built once per grid and exponents,
    not on every call.  The decay is a view of the plan's padded bb."""
    k = np.arange(n)
    span_pow = (dt * k) ** beta
    plan = _plan(span_pow, np.exp(-rho * dt * k), span_pow, n - 1)
    return plan.bb.reshape(-1)[:n], plan


def _norm_terms(u: SampledPath, beta: float, rho: float):
    """(values, e, sup, plan): u's values as _scale_down scales them, by
    2^-e, the sup term sup_s e^{-rho(s-t0)}||u(s)|| over those values, and
    the plan of the pair search; (None, 0, NaN, None) when a node value is
    not finite.  The one place weighted_holder_norm and _sup_term read them."""
    _check_exponents(beta, rho)
    values, e = _scale_down(u.values)
    if values is None:
        return None, 0, np.nan, None
    decay, plan = _weighted_plan(u.n_nodes, float(u.dt), float(beta), float(rho))
    return values, e, float(np.max(decay * _row_norms(values))), plan


def _sup_term(u: SampledPath, beta: float, rho: float) -> float:
    """The sup term of weighted_holder_norm(u, beta, rho), the bits the norm
    adds, scaled back: a lower bound of the norm, NaN exactly when the norm
    is.  The pair term is nonnegative, so a sup term at or above a tolerance
    puts the norm there too, with no pair search."""
    _, e, sup, _ = _norm_terms(u, beta, rho)
    return _scale_up(sup, e)


def weighted_holder_norm(u: SampledPath, beta: float, rho: float) -> float:
    """Weighted norm on the grid nodes: sup_s e^{-rho(s-t0)}||u(s)||
    + sup_{s<t} (s-t0)^beta e^{-rho(t-t0)} ||u(t)-u(s)||/(t-s)^beta.

    rho = 0 recovers the plain (beta, beta)-norm.  NaN when a node value is
    not finite; a path above _BIG or below _TINY is scaled as _pair_sup
    scales it.
    """
    values, e, sup, plan = _norm_terms(u, beta, rho)
    if values is None:
        return np.nan
    return _scale_up(sup + _search(values, plan), e)
