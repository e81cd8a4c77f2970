"""Sampling and Hölder statistics of fractional Brownian driving paths.

Scalar and Hilbert-valued fBm are sampled exactly in law by circulant
embedding of fractional Gaussian noise (Davies-Harte: one 2n-point FFT per
mode, O(n log n) time; past the path, O(n) memory for one piece of modes),
shifted by the Wiener shift, and measured through the Hölder seminorm, the
weighted (rho-damped) Hölder norm and the small-gap modulus used to detect
membership in the little-Hölder class.  All three sups over node pairs
are exact: a branch-and-bound search evaluates only the node pairs whose
bound can beat the best term, with direct differences, and returns the
all-pairs max bit for bit.  It bounds pairs of blocks of nodes; past 512
nodes it bounds pairs of coarser units first and refines the pairs that
survive level by level, down to 4-node halves of the blocks.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral import _BLOCK_FLOATS, _row_blocks

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


def _grid_slack(k):
    """How far, in grid steps, a time k steps from the first node may lie
    from a node and still be that node."""
    return _GRID_RTOL * max(1.0, abs(k)) + 1e-12


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
        off_grid = abs(k - ki) > _grid_slack(k)
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
    earlier ones.  The nonzero modes are drawn, transformed and scattered
    into the path one piece at a time, spectral._row_blocks of their 4n
    normals (one mode a piece past n = 2048), so the call holds the path,
    the 2n circulant factors and one piece; a mode's FFT row has the same
    bits in any piece.
    """
    q = np.asarray(op.trace_weights, dtype=float)
    if np.all(q == 0.0):
        warnings.warn("all trace weights are zero; returning the zero path")
    sqrt_eigs = _sqrt_eigs(hurst, n_steps, dt)
    vals = np.zeros((n_steps + 1, q.size))
    live = np.flatnonzero(q)
    m = sqrt_eigs.size
    for rows in _row_blocks(live.size, 2 * m):
        modes = live[rows]
        vals[:, modes] = (
            _fbm_from_normals(sqrt_eigs, _mode_normals(seed, modes, m)).T
            * np.sqrt(q[modes])
        )
    return SampledPath(t0=0.0, dt=dt, values=vals)


def _mode_normals(seed, modes, m):
    """The 2m standard normals of each mode i in modes, drawn in place into
    its row from SeedSequence([seed, i])."""
    z = np.empty((modes.size, 2 * m))
    for row, i in zip(z, modes):
        ss = np.random.SeedSequence([int(seed), int(i)])
        np.random.default_rng(ss).standard_normal(out=row)
    return z


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


# Block branch and bound behind every pair sup.  The nodes are cut into
# units on one or more levels, each unit holding r units of the level below
# it (see _widths): blocks of _MIN_BLOCK nodes alone while at most
# _MAX_UNITS of them cover the path, else the blocks' halves as the leaves
# and levels above the blocks with fan-outs 4, 8, 8, ... (_FAN) until the top
# has at most _MAX_UNITS units.  The nodes are padded to whole top units with
# weight 0 (a padded node reads the last node).  A row chunk holds at most
# _CHUNK top-level pair bounds, and a batch of unit pairs refined into their
# child pairs' bounds, or evaluated on the leaf level, at most 2 * _CHUNK
# floats in any one array, one piece (a unit pair whose children or nodes
# alone hold more is split by rows).  Below the top, a level's boxes are
# built once per search where they fit in a piece or take at most a float a
# node, and gathered from the path for each batch otherwise, so the working
# set is the plan (O(n), see _Plan), the kept boxes (at most about a float a
# node) and a fixed number of pieces.  The weighted norm keeps the plans of
# its last _PLANS grids.
_MIN_BLOCK = 8
_MAX_UNITS = 64
_FAN = 8
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


def _offset_table(cg, w, n_off):
    """table[D, p, q] = cg[D*w + q - p + w - 1]: a view of the windows of cg,
    n_off * w + w - 1 entries long."""
    return _windows(cg, w)[: n_off * w].reshape(n_off, w, w)[:, ::-1]


def _smallest_divisors(c_min, r, n_off):
    """c_min over the offsets D' = D*r + q - p of child q of a parent pair at
    offset D and child p of its first parent, r children a parent, as
    _offset_table's view: the smallest divisor at D' >= 0, c_min[D'], and
    inf at D' < 0 and past c_min."""
    ext = np.full(n_off * r + r - 1, np.inf)
    ext[r - 1 : r - 1 + c_min.size] = c_min
    return _offset_table(ext, r, n_off)


def _widths(n):
    """The unit widths of a search on n nodes, the top level's first: one
    level of _MIN_BLOCK-node blocks while at most _MAX_UNITS of them cover
    the nodes; else the blocks' halves as the leaves, and above the blocks
    levels whose fan-out doubles from the leaves' 2 up to _FAN, until the
    top level has at most _MAX_UNITS units."""
    widths, fan = [_MIN_BLOCK], 2
    if -(-n // _MIN_BLOCK) > _MAX_UNITS:
        widths.append(_MIN_BLOCK // fan)
    while -(-n // widths[0]) > _MAX_UNITS:
        fan = min(2 * fan, _FAN)
        widths.insert(0, widths[0] * fan)
    return widths


class _Level(NamedTuple):
    """Units of w nodes, r to a unit of the level above (1 on the top
    level): the largest a and b on each unit, b's followed by n_off - 1
    zeros on the top level (empty units past the end, bound 0), and the
    smallest divisor c of a unit pair, inf where the pair holds no gap in
    range: c[D] at unit offset D on the top level, c[E, p, q] of child p of
    parent I and child q of parent I + E below it."""

    w: int
    r: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


class _Plan(NamedTuple):
    """Everything a pair search reads besides u, as read-only arrays: the
    number n_off of top-level unit offsets D = J - I whose smallest gap is
    at most max_gap; the _Level of every level, the top's first and the
    leaf's last; the weights a and b zero-padded to whole top units, one
    row of v nodes per leaf unit (ab, bb); and the divisor table
    table[D, p, q] = c[D*v + q - p] between node p of leaf unit I and node
    q of leaf unit I + D, inf outside 1 <= gap <= max_gap.  About 3 floats
    per node (ab, bb and the divisors behind table) and 3 per unit of a
    level below the top (its largest a and b, and the smallest divisor of
    a unit offset), with the padding to whole top units: measured at 4.2
    floats per node at 512 nodes (one level), 4.8 at 1025, 4.6 at 4097, 4.8
    at 16385 and 4.4 at 65537."""

    n_off: int
    levels: tuple
    ab: np.ndarray
    bb: np.ndarray
    table: np.ndarray


def _pad(x, size):
    """x followed by zeros up to size entries."""
    out = np.zeros(size)
    out[: x.size] = x
    return out


def _block_reduce(extreme, x, w):
    """extreme (np.minimum or np.maximum) of x over blocks of w rows, the
    last possibly shorter: the full blocks from their w strided row offsets,
    which is several times faster than reduceat, the last on its own."""
    full = x.shape[0] // w
    out = np.empty((-(-x.shape[0] // w),) + x.shape[1:])
    body = out[:full]
    body[...] = x[0 : full * w : w]
    for j in range(1, w):
        extreme(body, x[j : full * w : w], out=body)
    if full < out.shape[0]:
        out[full] = extreme.reduce(x[full * w :], axis=0)
    return out


def _plan(a, b, c, max_gap):
    """The _Plan of node weights a, b (n nodes) and gap divisors c for the
    pairs with gap at most max_gap, 1 <= max_gap <= n - 1."""
    widths = _widths(a.size)
    w, v = widths[0], widths[-1]
    n_top = -(-a.size // w)
    a, b = _pad(a, n_top * w), _pad(b, n_top * w)
    n_off = min(n_top, (max_gap - 1) // w + 2)
    # cg[g + v - 1] = c[g] on 1 <= g <= max_gap, inf elsewhere, over the
    # gaps of the n_off top-level offsets, read as
    # table[D, p, q] = cg[D*v + q - p + v - 1]
    span = n_off * w
    cg = np.full(span + v - 1, np.inf)
    top = min(max_gap, span - 1)
    cg[v : v + top] = c[1 : top + 1]
    levels = []
    for k, wk in enumerate(widths):
        # the smallest gap of unit offset D >= 1 is D*wk - (wk - 1)
        c_min = cg[v - 1 + np.maximum(np.arange(span // wk) * wk - (wk - 1), 1)]
        a_k = a.reshape(-1, wk).max(axis=1)
        b_k = b.reshape(-1, wk).max(axis=1)
        if k:
            r = widths[k - 1] // wk
            levels.append(_Level(wk, r, a_k, b_k, _smallest_divisors(c_min, r, span // widths[k - 1])))
        else:
            levels.append(_Level(wk, 1, a_k, _pad(b_k, n_top + n_off - 1), c_min))
    plan = _Plan(n_off, tuple(levels), a.reshape(-1, v), b.reshape(-1, v), _offset_table(cg, v, span // v))
    for x in _plan_arrays(plan) + [cg]:
        x.flags.writeable = False
    return plan


def _plan_arrays(plan):
    """Every array of a plan, its levels' included."""
    out = [x for x in plan if isinstance(x, np.ndarray)]
    return out + [x for lv in plan.levels for x in lv if isinstance(x, np.ndarray)]


def _pair_sup(u, a, b, c, max_gap):
    """Exact max over node pairs j < k with k - j <= max_gap of
    (a[j]*b[k]) * ||u[k]-u[j]|| / c[k-j], Euclidean norm across modes; 0.0
    when no pair qualifies, NaN when a node value is not finite.

    a, b >= 0 are node weights and c[g] > 0 (g >= 1) is nondecreasing in
    the gap g.  Each unit of consecutive nodes (see _widths) gets a bounding
    box (centre and half-diagonal), which bounds every pair term of a unit
    pair by the centre distance plus both radii, the largest a and b of the
    two units and the smallest gap between them.  The top-level bounds are
    built one row chunk of unit pairs (I, I + D) at a time; a chunk's pairs
    are refined, a batch of the largest bounds at a time, into the bounds of
    their child pairs, and those into theirs, level by level, until no bound
    left exceeds the best exact term, and the leaf pairs that can beat it
    are evaluated exactly.  Up to _MIN_BLOCK * _MAX_UNITS nodes (512) the
    one level is 8-node blocks: at 257 nodes and 16 modes 561 bounds and
    4992 node pairs.  Past it the leaves are 4-node halves of the blocks
    under levels of 32, 256, 2048, ... nodes: at 4097 nodes and 16 modes
    153 top bounds, 2752, 5376 and 3620 child bounds and 9328 node pairs;
    at 65537 nodes 561, about 1.4 * 10^5 and 2.7 to 5.0 * 10^4 at 16 and 1
    modes.
    Every bound is inflated by a relative slack for its own rounding and by
    an absolute term for the rounding of the box centres, so a pruned pair
    never holds a larger term.  The divisor of a node pair is read from one
    table over the unit offset D, which holds c[k-j] for 1 <= k-j <= max_gap
    and inf elsewhere, so the pairs of a unit pair outside that range, and
    those of the padding, are exactly 0.  Every term is the expression a
    per-gap pass over direct differences u[k]-u[j] computes, so the max is
    that pass's bit for bit.  A u with max|u| > _BIG, or nonzero with
    max|u| < _TINY, is searched scaled by a power of two and the max scaled
    back, so its squares can neither overflow nor underflow.

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


def _boxes(lo, hi):
    """(centre, radius): the box centres, in lo's place, and radii of the
    units with coordinate minima lo and maxima hi (k, m); hi is
    overwritten."""
    hi -= lo
    hi *= 0.5
    lo += hi
    return lo, _row_norms(hi)


def _batches(flat, best, batch):
    """Yield the indices of the bounds in flat above best(), the `batch`
    largest first, each set to 0 in flat, until none is left."""
    while True:
        live = np.flatnonzero(flat > best())
        more = live.size > batch
        if more:
            live = live[np.argpartition(flat[live], -batch)[-batch:]]
        elif not live.size:
            return
        flat[live] = 0.0
        yield live
        if not more:
            return


def _geometry(levels, m):
    """Per level, the top's first, (rows, batch, floats) of a batch of its
    unit pairs of m modes: `batch` pairs, `rows` rows of the first unit at a
    time, and the floats of the batch's largest array, at most 2 * _CHUNK
    unless one row of one pair alone holds more.  A level above the leaf
    refines a pair into its r x r child pairs and holds both units' r
    children's centres; a leaf pair holds its w x w node pairs.  A child or
    node pair is counted as its m differences, and as at least 4 floats (a
    distance, weight, divisor and bound or term), so that one-mode batches
    are no larger than a few-mode ones."""
    f = max(m, 4)
    out = []
    for r, row, pair in [(lv.r, lv.r * f, 2 * lv.r * m) for lv in levels[1:]] + [
        (levels[-1].w, levels[-1].w * f, 0)
    ]:
        rows = min(r, max(1, 2 * _CHUNK // row))
        batch = max(1, 2 * _CHUNK // max(rows * row, pair))
        out.append((rows, batch, batch * max(rows * row, pair)))
    return out


def _exact(best, u, plan, ui, uj, rows, buf, nodes):
    """The larger of best and every term of the leaf unit pairs (ui, uj),
    rows nodes of unit ui at a time, their differences in buf; nodes[I] are
    the node indices of leaf unit I."""
    w, m = nodes.shape[1], u.shape[1]
    off = uj - ui
    # a padded node reads u[n - 1]
    u_k = u.take(nodes[uj], 0, mode="clip")[:, None]
    b_k = plan.bb[uj][:, None, :]
    for p in range(0, w, rows):
        # diff[:, r, q] = u[k] - u[j] for node j = p + r of unit ui and node
        # k = q of unit uj
        u_j = u.take(nodes[ui, p : p + rows], 0, mode="clip")
        diff = buf[: u_j.size * w].reshape(u_j.shape[:2] + (w, m))
        np.subtract(u_k, u_j[:, :, None], out=diff)
        dn = _row_norms(diff.reshape(-1, m)).reshape(diff.shape[:3])
        terms = plan.ab[ui, p : p + rows, None] * b_k
        terms *= dn
        terms /= plan.table[off, p : p + rows]
        best = max(best, float(terms.max()))
    return best


def _child_boxes(u, lv, boxes, units):
    """The box centres units.shape + (m,) and radii units.shape of the units
    of level lv: read from its boxes, or where those are None gathered from
    u, as many units at a time as a piece holds the nodes of (one at
    least), node j of every unit in row j of the gathered nodes."""
    if boxes is not None:
        # a unit past the last kept one reads it; its weights are 0
        return boxes[0].take(units, 0, mode="clip"), boxes[1].take(units, mode="clip")
    m, w = u.shape[1], lv.w
    flat = units.ravel()
    centre, radius = np.empty((flat.size, m)), np.empty(flat.size)
    nodes = np.arange(w)[:, None]
    step = max(1, 2 * _CHUNK // (w * m))
    for i in range(0, flat.size, step):
        part = flat[i : i + step]
        # a padded node reads u[n - 1]
        x = u.take((part * w + nodes).ravel(), 0, mode="clip").reshape(w, -1)
        lo, hi = (_block_reduce(f, x, w).reshape(part.size, m) for f in (np.minimum, np.maximum))
        centre[i : i + step], radius[i : i + step] = _boxes(lo, hi)
    return centre.reshape(units.shape + (m,)), radius.reshape(units.shape)


def _child_bounds(u, lv, boxes, ui, uj, centre_err, slack, rows):
    """(kids, bounds): the units kids[0, k] of level lv in unit ui[k] and
    kids[1, k] in unit uj[k] of the level above, and the bounds (K, r, r) of
    their pairs, from their boxes, their largest weights and their smallest
    divisors, the centre distances rows units of kids[0, k] at a time."""
    kids = np.concatenate((ui, uj)).reshape(2, -1, 1) * lv.r + np.arange(lv.r)
    (c_i, c_j), (r_i, r_j) = _child_boxes(u, lv, boxes, kids)
    dist = np.empty(ui.shape + (lv.r, lv.r))
    for p in range(0, lv.r, rows):
        d = c_j[:, None] - c_i[:, p : p + rows, None]
        dist[:, p : p + rows] = np.sqrt(np.einsum("kpqi,kpqi->kpq", d, d))
    dist += r_j[:, None, :]
    dist += r_i[:, :, None] + centre_err
    dist *= lv.b[kids[1]][:, None, :]
    dist *= lv.a[kids[0]][:, :, None] * slack
    dist /= lv.c[uj - ui]
    return kids, dist


def _refine(best, u, plan, run, k, ui, uj):
    """The larger of best and every term of the unit pairs (ui, uj) of level
    k, under the per-search boxes, geometry, centre_err, slack, exact buffer
    and leaf node indices run: the bounds of their child pairs, and of those
    that can beat best the child pairs in turn, down to the leaf pairs,
    which are evaluated."""
    boxes, geometry, centre_err, slack, buf, nodes = run
    if k == len(plan.levels) - 1:
        return _exact(best, u, plan, ui, uj, geometry[k][0], buf, nodes)
    lv = plan.levels[k + 1]
    kids, bound = _child_bounds(u, lv, boxes[k + 1], ui, uj, centre_err, slack, geometry[k][0])
    for live in _batches(bound.ravel(), lambda: best, geometry[k + 1][1]):
        i, pq = np.divmod(live, lv.r * lv.r)
        best = _refine(best, u, plan, run, k + 1, kids[0, i, pq // lv.r], kids[1, i, pq % lv.r])
    return best


def _search(u, plan):
    """The pair sup of _pair_sup over a finite u (n, m) under plan."""
    m = u.shape[1]
    levels, n_off = plan.levels, plan.n_off
    top, leaf = levels[0], levels[-1]
    # the levels below the top keep their units' boxes where those fit in a
    # piece or take at most a float a node, the coarsest levels first
    kept = 1 + sum(lv.a.size * (m + 1) <= max(2 * _CHUNK, u.shape[0]) for lv in levels[1:])
    geometry = _geometry(levels, m)
    # the coordinate extremes of the units of the finest kept level, and
    # from them those of every level above it
    lo = _block_reduce(np.minimum, u, levels[kept - 1].w)
    hi = _block_reduce(np.maximum, u, levels[kept - 1].w)
    boxes = [None] * len(levels)
    for k in range(kept - 1, 0, -1):
        up = _block_reduce(np.minimum, lo, levels[k].r), _block_reduce(np.maximum, hi, levels[k].r)
        boxes[k] = _boxes(lo, hi)
        lo, hi = up
    # the relative slack covers the rounding of the bound and of the exact
    # terms; centre_err covers that of the box centres, which is relative
    # to |u| and so not to the increments when u carries a large offset
    centre_err = 4 * _EPS * max(float(hi.max()), -float(lo.min())) * np.sqrt(m)
    slack = 1.0 + 1e-12 + 4 * m * _EPS
    # the top units' box centres (rows :m), radii (row m) and largest b
    # (row m + 1); the empty units past the end give every unit a full
    # window win[:, I, D] = box[:, I + D]
    centre, radius = _boxes(lo, hi)
    box = np.zeros((m + 2, top.b.size))
    box[:m, : len(lo)] = centre.T
    box[m, : len(lo)] = radius
    box[m + 1] = top.b
    win = _windows(box, n_off)
    del lo, hi, centre
    rows, batch, _ = geometry[-1]
    nodes = np.arange(plan.ab.size).reshape(plan.ab.shape)
    run = (boxes, geometry, centre_err, slack, np.empty(batch * rows * leaf.w * m), nodes)
    best = 0.0
    i0, n_top = 0, top.a.size
    while i0 < n_top:
        cols = min(n_off, n_top - i0)
        i1 = min(n_top, i0 + max(1, _CHUNK // cols))
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
        bound *= top.a[i0:i1, None] * slack
        bound /= top.c[:cols]
        for live in _batches(bound.ravel(), lambda: best, geometry[0][1]):
            ti, off = np.divmod(live, cols)
            ti += i0
            best = _refine(best, u, plan, run, 0, ti, ti + off)
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
    # delta in grid steps, so that the grid rule's tolerance scales with dt
    steps = float(delta) / float(u.dt)
    if not (0.0 < delta and steps <= u.n_steps + _grid_slack(u.n_steps)):
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
