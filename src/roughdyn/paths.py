"""Sampling and Hölder statistics of fractional Brownian driving paths.

Scalar and Hilbert-valued fBm are sampled exactly (Cholesky factor of the
grid covariance), shifted by the Wiener shift, and measured through the
Hölder seminorm, the weighted (rho-damped) Hölder norm and the
small-gap modulus used to detect membership in the little-Hölder class.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "HolderParams",
    "SampledPath",
    "fbm_covariance",
    "sample_fbm_1d",
    "sample_qfbm",
    "wiener_shift",
    "holder_seminorm",
    "weighted_holder_norm",
    "wiener_modulus",
    "path_to_csv",
    "path_from_csv",
]

_GRID_RTOL = 1e-9


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


@dataclass
class SampledPath:
    """A function on a uniform time grid, stored mode-wise.

    values has shape (n_nodes, n_modes); node k sits at t0 + k*dt.  Grid
    paths are read as their piecewise-linear interpolants everywhere the
    integration machinery needs off-node values.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.ndim != 2:
            raise ValueError("values must be (n_nodes,) or (n_nodes, n_modes)")
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
    def n_modes(self) -> int:
        return self.values.shape[1]

    @property
    def t_end(self) -> float:
        return self.t0 + self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_nodes)

    def index_of(self, t: float) -> int:
        """Grid index of time t; rejects off-grid times."""
        k = (t - self.t0) / self.dt
        ki = int(round(k))
        if abs(k - ki) > _GRID_RTOL * max(1.0, abs(k)) + 1e-12 or not (
            0 <= ki < self.n_nodes
        ):
            raise ValueError(f"time {t} is not a grid node of this path")
        return ki

    def restrict(self, s: float, t: float) -> "SampledPath":
        i, j = self.index_of(s), self.index_of(t)
        if j - i < 1:
            raise ValueError("restriction window must contain at least one step")
        return SampledPath(t0=s, dt=self.dt, values=self.values[i : j + 1].copy())

    def scalar(self) -> np.ndarray:
        if self.n_modes != 1:
            raise ValueError("path is not scalar")
        return self.values[:, 0]


def fbm_covariance(t, s, hurst: float):
    """Covariance 0.5(|t|^2H + |s|^2H - |t-s|^2H) of two-sided fBm."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(t) ** h2 + np.abs(s) ** h2 - np.abs(t - s) ** h2)


@lru_cache(maxsize=32)
def _fbm_cholesky(hurst: float, n_steps: int, dt: float) -> np.ndarray:
    # exact method: Cholesky factor of the covariance of (B(t_1),...,B(t_n))
    times = dt * np.arange(1, n_steps + 1)
    cov = fbm_covariance(times[:, None], times[None, :], hurst)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - valid H never hits
        raise RuntimeError(
            f"fBm covariance not positive definite (H={hurst}, n={n_steps})"
        ) from exc


def fbm_cholesky_factor(hurst: float, n_steps: int, dt: float) -> np.ndarray:
    """Cholesky factor of the exact grid covariance (cached)."""
    if not (0.0 < hurst < 1.0):
        raise ValueError("hurst must lie in (0, 1)")
    if n_steps < 1 or dt <= 0:
        raise ValueError("need n_steps >= 1 and dt > 0")
    return _fbm_cholesky(float(hurst), int(n_steps), float(dt))


def sample_fbm_1d(hurst: float, n_steps: int, dt: float, seed) -> SampledPath:
    """Scalar fBm on {0, dt, ..., n_steps*dt}, exact in law, zero at zero."""
    chol = fbm_cholesky_factor(hurst, n_steps, dt)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal(n_steps)
    vals = np.concatenate([[0.0], chol @ z])
    return SampledPath(t0=0.0, dt=dt, values=vals)


def sample_qfbm(op, hurst: float, n_steps: int, dt: float, seed) -> SampledPath:
    """Trace-class fBm: mode i carries an independent scalar fBm times sqrt(q_i).

    Mode i uses the sub-seed (seed, i) so adding modes never reshuffles the
    earlier ones.
    """
    q = np.asarray(op.trace_weights, dtype=float)
    if np.all(q == 0.0):
        warnings.warn("all trace weights are zero; returning the zero path")
    chol = fbm_cholesky_factor(hurst, n_steps, dt)
    vals = np.zeros((n_steps + 1, q.size))
    for i, qi in enumerate(q):
        if qi == 0.0:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        vals[1:, i] = np.sqrt(qi) * (chol @ rng.standard_normal(n_steps))
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


def _window_indices(u: SampledPath, s, t):
    i = 0 if s is None else u.index_of(s)
    j = u.n_nodes - 1 if t is None else u.index_of(t)
    if j - i < 1:
        raise ValueError("window contains fewer than 2 grid nodes")
    return i, j


def _holder_pair_sup(u, dt, beta, max_gap):
    """max over node pairs j<k with (k-j)*dt < max_gap of
    ||u[k]-u[j]|| / ((k-j)*dt)^beta, Euclidean norm across modes.

    One vectorized pass per gap over the direct differences u[k]-u[k-gap],
    so a large common offset cancels exactly instead of through |a|^2+|b|^2-2ab.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    span_pow = (dt * np.arange(n)) ** beta
    best = 0.0
    for gap in range(1, n):
        if gap * dt >= max_gap:
            break
        d = u[gap:] - u[:-gap]
        top = float(np.sqrt(np.einsum("ij,ij->i", d, d).max()))
        q = top / span_pow[gap]
        if q > best:
            best = q
    return best


def _weighted_holder_sup(u, dt, beta, rho):
    """Weighted Hölder norm on the grid, measured from the left endpoint:

    sup_k e^{-rho*k*dt} ||u[k]||
      + sup_{j<k} (j*dt)^beta e^{-rho*k*dt} ||u[k]-u[j]|| / ((k-j)*dt)^beta.

    The j = 0 terms carry weight 0^beta = 0 and drop out.  Increments are
    direct differences, one vectorized pass per gap.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    span_pow = (dt * np.arange(n)) ** beta
    decay = np.exp(-rho * dt * np.arange(n))
    sup_val = float(np.max(decay * np.sqrt(np.einsum("ij,ij->i", u, u))))
    sup_inc = 0.0
    for gap in range(1, n):
        d = u[gap:] - u[:-gap]
        dn = np.sqrt(np.einsum("ij,ij->i", d, d))
        # pair (j, k=j+gap): weight (j dt)^beta e^{-rho k dt} / (gap dt)^beta
        q = float(np.max(span_pow[: n - gap] * decay[gap:] * dn)) / span_pow[gap]
        if q > sup_inc:
            sup_inc = q
    return sup_val + sup_inc


def holder_seminorm(u: SampledPath, beta: float, s=None, t=None) -> float:
    """Grid estimator of |||u|||_beta over [s, t]: max over node pairs of
    ||u(t_k)-u(t_j)|| / (t_k-t_j)^beta.  A lower bound of the continuum
    seminorm, nondecreasing under grid refinement."""
    i, j = _window_indices(u, s, t)
    return _holder_pair_sup(u.values[i : j + 1], u.dt, beta, max_gap=np.inf)


def wiener_modulus(u: SampledPath, beta: float, delta: float) -> float:
    """Small-gap Hölder quotient sup over pairs with t - s < delta."""
    if not (0.0 < delta <= u.n_steps * u.dt + 1e-12):
        raise ValueError("delta must lie in (0, window length]")
    if delta <= u.dt:
        warnings.warn("delta below grid resolution; modulus degenerates to 0")
        return 0.0
    return _holder_pair_sup(u.values, u.dt, beta, max_gap=delta)


def weighted_holder_norm(u: SampledPath, beta: float, rho: float) -> float:
    """Weighted norm: sup_s e^{-rho(s-t0)}||u(s)||
    + sup_{s<t} (s-t0)^beta e^{-rho(t-t0)} ||u(t)-u(s)||/(t-s)^beta.

    rho = 0 recovers the plain (beta, beta)-norm.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return _weighted_holder_sup(u.values, u.dt, beta, rho)


def path_to_csv(u: SampledPath, stream, header_lines=()) -> None:
    """Write `t, mode_1..mode_N` rows with 17-significant-digit payload."""
    own = isinstance(stream, (str,))
    fh = open(stream, "w", newline="") if own else stream
    try:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"mode_{i + 1}" for i in range(u.n_modes)])
        for k, t in enumerate(u.times):
            writer.writerow(
                [format(t, ".17g")]
                + [format(v, ".17g") for v in u.values[k]]
            )
    finally:
        if own:
            fh.close()


def path_from_csv(source) -> SampledPath:
    """Inverse of path_to_csv; '#' lines are ignored."""
    own = isinstance(source, str)
    fh = open(source, "r", newline="") if own else source
    try:
        rows = [
            row
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    finally:
        if own:
            fh.close()
    body = np.array([[float(x) for x in row] for row in rows[1:]])
    times, vals = body[:, 0], body[:, 1:]
    dt = float(np.mean(np.diff(times)))
    if not np.allclose(np.diff(times), dt, rtol=1e-8, atol=1e-12):
        raise ValueError("CSV grid is not uniform")
    return SampledPath(t0=float(times[0]), dt=dt, values=vals)


def csv_roundtrip_string(u: SampledPath, header_lines=()) -> str:
    buf = io.StringIO()
    path_to_csv(u, buf, header_lines)
    return buf.getvalue()
