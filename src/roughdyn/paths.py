"""Sampling and Hölder statistics of fractional Brownian driving paths.

Scalar and Hilbert-valued fBm are sampled exactly in law by circulant
embedding of fractional Gaussian noise (Davies-Harte: one 2n-point FFT per
mode, O(n log n) time; past the path, O(n) memory for one piece of modes),
shifted by the Wiener shift, and measured through the Hölder seminorm, the
weighted (rho-damped) Hölder norm and the small-gap modulus used to detect
membership in the little-Hölder class.  All three sups over node pairs
are exact: a branch-and-bound search evaluates only the node pairs whose
bound can beat the best term, with direct differences, and returns the
all-pairs max bit for bit.  It bounds pairs of blocks of nodes; past 2048
nodes it bounds pairs of superblocks first, then the block pairs of the
superblock pairs that survive, then the 3-node sub-block pairs of the block
pairs that survive, which at 4097 nodes is about a tenth of the block
level's bounds and node pairs.
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


# Block branch and bound behind every pair sup: nodes are cut into equal
# blocks of _MIN_BLOCK nodes (wider only where that would make more than
# _MAX_BLOCKS blocks), the last block padded by repeating the last node with
# weight 0.  A row chunk holds at most _CHUNK pair bounds and an exact batch
# at most 2 * _CHUNK pair differences, one piece (a unit pair that alone
# holds more is split by rows), so the working set is the plan (O(n), see
# _Plan) plus a fixed number of pieces.  Past _LEVELS_FROM blocks the search
# has three levels: the row chunks bound superblocks of _SUPER blocks, block
# pairs are bounded only inside superblock pairs that can beat the best
# term, and such a block pair is split into sub-blocks of _SUB nodes (the
# block width rounded up to a multiple of _SUB) with their own boxes, of
# which only the pairs that can beat it are evaluated.  The weighted norm
# keeps the plans of its last _PLANS grids.
_MIN_BLOCK = 8
_MAX_BLOCKS = 512
_LEVELS_FROM = 256
_SUPER = 8
_SUB = 3
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


class _Units(NamedTuple):
    """Units of w nodes that a search evaluates exactly: the node indices
    nodes[I] of each unit, the weights ab and bb on them, and the divisor
    table table[D, p, q] of node p of unit I and node q of unit I + D."""

    nodes: np.ndarray
    ab: np.ndarray
    bb: np.ndarray
    table: np.ndarray


class _Levels(NamedTuple):
    """The outer and inner levels of a three-level search.  Superblocks: s
    blocks each, their count n_sup, the number n_off of superblock offsets E
    whose smallest gap is at most max_gap, the maxima a_top and b_top of a
    and b on each (b's followed by n_off - 1 zeros) and the smallest
    divisor c_min[E] of a superblock pair.
    Blocks: their maxima a_blk and b_blk zero-padded to n_sup * s blocks and
    the smallest divisor c_blk[E, p, q] of block p of superblock I and block
    q of superblock I + E.  Sub-blocks: their maxima a_sub[I, P] and
    b_sub[I, P] of the weights on sub-block P of block I, the smallest
    divisor c_sub[D, P, Q] of sub-block P of block I and sub-block Q of block
    I + D, and the sub-blocks as _Units, views of the plan's blocks.  Every
    smallest divisor is inf where the pair holds no gap in range."""

    s: int
    n_sup: int
    n_off: int
    a_top: np.ndarray
    b_top: np.ndarray
    c_min: np.ndarray
    a_blk: np.ndarray
    b_blk: np.ndarray
    c_blk: np.ndarray
    a_sub: np.ndarray
    b_sub: np.ndarray
    c_sub: np.ndarray
    subs: _Units


class _Plan(NamedTuple):
    """Everything a pair search reads besides u, as read-only arrays: the
    block width w, the block count nb and the number n_off of block offsets
    D = J - I whose smallest gap is at most max_gap; the weights a and b
    zero-padded to nb blocks of w nodes (ab, bb) and their block maxima,
    b's followed by n_off - 1 zeros (empty blocks past the end, bound 0);
    the smallest divisor c_min[D] of a block pair at offset D; the divisor
    table table[D, p, q] = c[D*w + q - p] between node p of block I and node
    q of block I + D, inf outside 1 <= gap <= max_gap; the node indices
    nodes[I] of each block, a padded node past n - 1; and the _Levels of a
    search past _LEVELS_FROM blocks, else None.  About
    4 floats per node: ab, bb, the divisors behind table, and nodes; the
    levels add about 3 per sub-block: its largest a and b, and the smallest
    divisor of a sub-block offset."""

    w: int
    nb: int
    n_off: int
    ab: np.ndarray
    bb: np.ndarray
    a_top: np.ndarray
    b_top: np.ndarray
    c_min: np.ndarray
    table: np.ndarray
    nodes: np.ndarray
    levels: _Levels | None


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


def _smallest_divisors(c_min, w, n_off):
    """c_min over the offsets D' = D*w + q - p of unit q of a parent pair at
    offset D and unit p of its first parent, as _offset_table's view: the
    smallest divisor at D' >= 0, c_min[D'], and inf at D' < 0 and past
    c_min."""
    ext = np.full(n_off * w + w - 1, np.inf)
    ext[w - 1 : w - 1 + c_min.size] = c_min
    return _offset_table(ext, w, n_off)


def _levels(plan, cg):
    """The _Levels of a plan whose width w is a multiple of _SUB; cg holds
    the divisors behind its table."""
    w, nb, n_off, v, s = plan.w, plan.nb, plan.n_off, _SUB, _SUPER
    ns = w // v
    n_sup = -(-nb // s)
    e_off = min(n_sup, (n_off - 2) // s + 2)
    # the smallest gap of superblock offset E is that of block offset
    # E*s - (s - 1), and of sub-block offset D' >= 1 it is D'*v - (v - 1)
    c_sub = cg[w - 1 + np.maximum(np.arange(n_off * ns) * v - (v - 1), 1)]
    return _Levels(
        s, n_sup, e_off,
        _block_reduce(np.maximum, plan.a_top, s),
        _pad(_block_reduce(np.maximum, plan.b_top[:nb], s), n_sup + e_off - 1),
        plan.c_min[np.maximum(np.arange(e_off) * s - (s - 1), 0)],
        _pad(plan.a_top, n_sup * s),
        _pad(plan.b_top[:nb], n_sup * s),
        _smallest_divisors(plan.c_min, s, e_off),
        plan.ab.reshape(nb, ns, v).max(axis=2),
        plan.bb.reshape(nb, ns, v).max(axis=2),
        _smallest_divisors(c_sub, ns, n_off),
        _Units(
            plan.nodes.reshape(-1, v),
            plan.ab.reshape(-1, v),
            plan.bb.reshape(-1, v),
            _offset_table(cg[w - v :], v, n_off * ns),
        ),
    )


def _plan(a, b, c, max_gap):
    """The _Plan of node weights a, b (n nodes) and gap divisors c for the
    pairs with gap at most max_gap, 1 <= max_gap <= n - 1."""
    n = a.size
    w = max(_MIN_BLOCK, -(-n // _MAX_BLOCKS))
    deep = -(-n // w) > _LEVELS_FROM
    if deep:
        w = -(-w // _SUB) * _SUB
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
    nodes = np.arange(nb * w).reshape(nb, w)
    plan = _Plan(
        w, nb, n_off, ab, bb, ab.max(axis=1), b_top, c_min,
        _offset_table(cg, w, n_off), nodes, None,
    )
    if deep:
        plan = plan._replace(levels=_levels(plan, cg))
    for x in _plan_arrays(plan) + [cg]:
        x.flags.writeable = False
    return plan


def _plan_arrays(plan):
    """Every array of a plan, its levels' included."""
    out = [x for x in plan if isinstance(x, np.ndarray)]
    if plan.levels is not None:
        out += [x for x in plan.levels[:-1] if isinstance(x, np.ndarray)]
        out += list(plan.levels.subs)
    return out


def _pair_sup(u, a, b, c, max_gap):
    """Exact max over node pairs j < k with k - j <= max_gap of
    (a[j]*b[k]) * ||u[k]-u[j]|| / c[k-j], Euclidean norm across modes; 0.0
    when no pair qualifies, NaN when a node value is not finite.

    a, b >= 0 are node weights and c[g] > 0 (g >= 1) is nondecreasing in
    the gap g.  Each unit of consecutive nodes (a superblock, block or
    sub-block) gets a bounding box (centre and half-diagonal), which bounds
    every pair term of a unit pair by the centre distance plus both radii,
    the largest a and b of the two units and the smallest gap between them.
    The top-level bounds are built one row chunk of unit pairs (I, I + D) at
    a time; a chunk's pairs are refined, a batch of the largest bounds at a
    time, until no bound left in it exceeds the best exact term, and so on
    down every level.  Up to _LEVELS_FROM blocks (2048 nodes) the top units
    are blocks, evaluated exactly: about (n/w)^2 / 2 bounds and 1-2% of the
    w^2 node pairs of a block pair.  Past it they are superblocks of _SUPER
    blocks; a superblock pair that can beat the best term is refined into
    the bounds of its block pairs, and such a block pair into the bounds of
    its _SUB-node sub-block pairs, whose survivors are evaluated exactly.  At
    4097 nodes that is 1653 superblock bounds, about 10^4 block and 8 * 10^3
    sub-block bounds and 4-6 * 10^3 node pairs, where the block level alone
    made 10^5 bounds and 9 * 10^4 node pairs; at 16385 nodes, about 10^4
    block and 1.4 * 10^5 sub-block bounds and 10^4 node pairs.  Every bound
    is inflated by a relative slack for its own rounding and by an absolute
    term for the rounding of the box centres, so a pruned pair never holds a
    larger term.  The divisor of a node pair is read from one table over the
    unit offset D, which holds c[k-j] for 1 <= k-j <= max_gap and inf
    elsewhere, so the pairs of a unit pair outside that range, and those of
    the padding, are exactly 0.  Every term is the expression a per-gap pass
    over direct differences u[k]-u[j] computes, so the max is that pass's
    bit for bit.  A u with max|u| > _BIG, or nonzero with max|u| < _TINY, is
    searched scaled by a power of two and the max scaled back, so its
    squares can neither overflow nor underflow.

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


def _boxes(lo, hi, b_top):
    """Per unit of nodes with coordinate minima lo and maxima hi (units, m):
    box centre (rows :m), radius (row m) and b_top (row m + 1), whose zeros
    past the units give every unit a full window of partners."""
    m = lo.shape[1]
    box = np.zeros((m + 2, b_top.size))
    box[:m, : len(lo)] = (0.5 * (lo + hi)).T
    box[m, : len(lo)] = _row_norms(0.5 * (hi - lo))
    box[m + 1] = b_top
    return box


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


def _exact(best, u, units, ui, uj, rows, buf):
    """The larger of best and every term of the unit pairs (ui, uj), rows
    nodes of unit ui at a time, their differences in buf."""
    w, m = units.nodes.shape[1], u.shape[1]
    off = uj - ui
    # a padded node reads u[n - 1]
    u_k = u.take(units.nodes[uj], 0, mode="clip")[:, None]
    b_k = units.bb[uj][:, None, :]
    for p in range(0, w, rows):
        # diff[:, r, q] = u[k] - u[j] for node j = p + r of unit ui and node
        # k = q of unit uj
        u_j = u.take(units.nodes[ui, p : p + rows], 0, mode="clip")
        diff = buf[: u_j.size * w].reshape(u_j.shape[:2] + (w, m))
        np.subtract(u_k, u_j[:, :, None], out=diff)
        dn = _row_norms(diff.reshape(-1, m)).reshape(diff.shape[:3])
        terms = units.ab[ui, p : p + rows, None] * b_k
        terms *= dn
        terms /= units.table[off, p : p + rows]
        best = max(best, float(terms.max()))
    return best


def _exact_geometry(w, m):
    """(rows, batch) of an exact batch of unit pairs of w nodes: `batch`
    pairs, `rows` nodes of the first unit at a time, at most 2 * _CHUNK
    differences, or one row of a unit pair where that alone holds more."""
    rows = min(w, max(1, 2 * _CHUNK // (w * m)))
    return rows, max(1, 2 * _CHUNK // (rows * w * m))


def _child_bounds(dist, r_i, r_k, a_i, b_k, c, centre_err, slack):
    """The bounds, in place of the centre distances dist (K, r, r), of the r
    x r child pairs (p, q) of K unit pairs, from the children's radii r_i,
    r_k (K, r) and largest weights a_i, b_k and their smallest divisors c."""
    dist += r_k[:, None, :]
    dist += r_i[:, :, None] + centre_err
    dist *= b_k[:, None, :]
    dist *= a_i[:, :, None] * slack
    dist /= c
    return dist


def _block_bounds(box, lv, ti, off, centre_err, slack):
    """(bi, bj, bounds): the blocks bi[k, p] of superblock ti[k], bj[k, q]
    of superblock ti[k] + off[k], and the bounds (K, s, s) of their block
    pairs, from the block boxes."""
    m = box.shape[0] - 2
    bi = ti[:, None] * lv.s + np.arange(lv.s)
    bj = bi + off[:, None] * lv.s
    c_i, c_j = box[:, bi], box[:, bj]
    d = c_j[:m, :, None, :] - c_i[:m, :, :, None]
    dist = np.sqrt(np.einsum("ikpq,ikpq->kpq", d, d))
    del d
    bounds = _child_bounds(
        dist, c_i[m], c_j[m], lv.a_blk[bi], c_j[m + 1], lv.c_blk[off], centre_err, slack)
    return bi, bj, bounds


def _sub_bounds(u, plan, pi, pj, centre_err, slack):
    """The bounds (K, ns, ns) of the sub-block pairs of block pairs (pi, pj),
    from the sub-blocks' boxes, built node r of every sub-block at a time
    (a sub-block being short)."""
    lv, m, ns = plan.levels, u.shape[1], plan.w // _SUB
    first = plan.nodes[np.concatenate([pi, pj]), ::_SUB]
    # a padded node reads u[n - 1]
    lo = u.take(first, 0, mode="clip").reshape(2, pi.size, ns, m)
    hi = lo.copy()
    x = np.empty_like(lo)
    for _ in range(1, _SUB):
        first += 1
        u.take(first, 0, out=x.reshape(first.shape + (m,)), mode="clip")
        np.minimum(lo, x, out=lo)
        np.maximum(hi, x, out=hi)
    del x, first
    rad = 0.5 * (hi - lo)
    rad = np.sqrt(np.einsum("xkpi,xkpi->xkp", rad, rad))
    lo += hi
    lo *= 0.5
    del hi
    d = lo[1, :, None, :, :] - lo[0, :, :, None, :]
    dist = np.sqrt(np.einsum("kpqi,kpqi->kpq", d, d))
    del d, lo
    return _child_bounds(
        dist, rad[0], rad[1], lv.a_sub[pi], lv.b_sub[pj], lv.c_sub[pj - pi], centre_err, slack)


def _level_batches(plan, m):
    """(superblock pairs, block pairs, sub-block pairs) per batch of a
    three-level search of m modes, each batch within a piece: per child
    pair, the m differences of its centres and 2 or 3 more floats (its
    bound and divisor, or the sub-blocks' boxes) in the first two, and per
    node pair m differences and 4 more floats in an exact batch.  None when
    the plan has one level, or a single pair would not fit."""
    lv = plan.levels
    if lv is None:
        return None
    ns = plan.w // _SUB
    sup = 2 * _CHUNK // ((m + 2) * lv.s * lv.s)
    blk = 2 * _CHUNK // ((m + 3) * max(ns * ns, 2 * ns))
    if not (sup and blk):
        return None
    return sup, blk, _exact_geometry(_SUB, m + 4)


def _search(u, plan):
    """The pair sup of _pair_sup over a finite u (n, m) under plan."""
    m = u.shape[1]
    lo = _block_reduce(np.minimum, u, plan.w)
    hi = _block_reduce(np.maximum, u, plan.w)
    # the top units' boxes; the empty units past the end give every unit a
    # full window win[:, I, D] = top[:, I + D]
    levels = _level_batches(plan, m)
    lv = plan.levels
    if levels is None:
        top = _boxes(lo, hi, plan.b_top)
    else:
        box = _boxes(lo, hi, lv.b_blk)
        top = _boxes(
            _block_reduce(np.minimum, lo, lv.s), _block_reduce(np.maximum, hi, lv.s), lv.b_top)
    # the relative slack covers the rounding of the bound and of the exact
    # terms; centre_err covers that of the box centres, which is relative
    # to |u| and so not to the increments when u carries a large offset
    centre_err = 4 * _EPS * max(float(hi.max()), -float(lo.min())) * np.sqrt(m)
    del lo, hi
    slack = 1.0 + 1e-12 + 4 * m * _EPS
    if levels is None:
        n_top, n_off, a_top, c_min = plan.nb, plan.n_off, plan.a_top, plan.c_min
        units = _Units(plan.nodes, plan.ab, plan.bb, plan.table)
        # an exact batch: `batch` block pairs, `rows` nodes p of block I at
        # a time
        rows, batch = _exact_geometry(plan.w, m)
        buf = np.empty(batch * rows * plan.w * m)
    else:
        n_top, n_off, a_top, c_min = lv.n_sup, lv.n_off, lv.a_top, lv.c_min
        units = lv.subs
        batch, block_batch, (rows, sub_batch) = levels
        buf = np.empty(sub_batch * rows * _SUB * m)
        s, ns = lv.s, plan.w // _SUB
    win = _windows(top, n_off)
    best = 0.0
    i0 = 0
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
            dk -= top[k : k + len(dk), i0:i1, None]
            bound += np.einsum("kij,kij->ij", dk, dk)
        del d, dk
        np.sqrt(bound, out=bound)
        bound += wc[m]
        bound += top[m, i0:i1, None] + centre_err
        bound *= wc[m + 1]
        bound *= a_top[i0:i1, None] * slack
        bound /= c_min[:cols]
        for live in _batches(bound.ravel(), lambda: best, batch):
            ti, off = np.divmod(live, cols)
            ti += i0
            if levels is None:
                best = _exact(best, u, units, ti, ti + off, rows, buf)
                continue
            bi, bj, blk = _block_bounds(box, lv, ti, off, centre_err, slack)
            for pick in _batches(blk.ravel(), lambda: best, block_batch):
                k, pq = np.divmod(pick, s * s)
                pi, pj = bi[k, pq // s], bj[k, pq % s]
                sub = _sub_bounds(u, plan, pi, pj, centre_err, slack)
                for hit in _batches(sub.ravel(), lambda: best, sub_batch):
                    k, pq = np.divmod(hit, ns * ns)
                    ui, uj = pi[k] * ns + pq // ns, pj[k] * ns + pq % ns
                    best = _exact(best, u, units, ui, uj, rows, buf)
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
