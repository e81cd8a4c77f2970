"""Fractional derivatives and the pathwise integral against Hölder paths.

The integral of an operator-valued integrand g against a vector path omega
is defined through one-sided Riemann-Liouville derivatives,

    int_s^t g domega
      = sign * sum_i int_s^t D^alpha_{s+}(g e_i)[r] * D^{1-alpha}_{t-}(e_i,
        omega - omega(t))[r] dr,

valid when the Hölder exponents of g and omega sum above 1.  The complex
unit factors of the textbook definition are absorbed into a real sign,
calibrated once per alpha by requiring int_s^t c domega = c (omega(t) -
omega(s)) on a linear test path.

Grid data are read as piecewise-linear interpolants.  Two quadratures are
provided:

* pathwise_integral: splits [s, t] at the grid nodes (the integral is
  additive), evaluates the derivative product on each cell in closed form
  (both interpolants are linear there), and sums.  Exact for
  piecewise-linear data, so all its error lives in the interpolation of
  the inputs.
* pathwise_integral_window: single-window quadrature, midpoint evaluation
  of both derivatives and midpoint outer rule.  Kept as an independent
  cross-check of the composite scheme; its midpoint derivatives are
  convolutions of the path increments, O(n log n) by FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln

from .paths import HolderParams, SampledPath

__all__ = [
    "IntegrandPath",
    "frac_deriv_left",
    "frac_deriv_right",
    "pathwise_integral",
    "pathwise_integral_window",
    "integral_norm_bound",
]


@dataclass
class IntegrandPath:
    """Operator-valued path on a uniform grid.

    values has shape (n_nodes, J, I): node k holds the matrix with entries
    (e_j, g(t_k) e_i).  Scalar integrands pass shape (n_nodes,) and are
    lifted to 1x1 matrices.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None, None]
        elif v.ndim == 2:  # diagonal integrand: one row per node
            v = np.stack([np.diag(row) for row in v])
        if v.ndim != 3 or v.shape[0] < 2:
            raise ValueError("values must be (n_nodes, J, I) with >= 2 nodes")
        self.values = v
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @property
    def n_nodes(self):
        return self.values.shape[0]

    @property
    def hs_norms(self) -> np.ndarray:
        return np.sqrt(np.einsum("kji,kji->k", self.values, self.values))

    def index_of(self, t: float) -> int:
        k = (t - self.t0) / self.dt
        ki = int(round(k))
        if abs(k - ki) > 1e-9 * max(1.0, abs(k)) + 1e-12 or not (
            0 <= ki < self.n_nodes
        ):
            raise ValueError(f"time {t} is not a grid node of this integrand")
        return ki

    @staticmethod
    def constant(c: np.ndarray, like: SampledPath) -> "IntegrandPath":
        c = np.atleast_2d(np.asarray(c, dtype=float))
        vals = np.broadcast_to(c, (like.n_nodes,) + c.shape).copy()
        return IntegrandPath(t0=like.t0, dt=like.dt, values=vals)


def _check_alpha(alpha: float):
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")


def frac_deriv_left(g, alpha: float, s: float, r: float):
    """Left fractional derivative of order alpha at grid node r:

        D[r] = (1/Gamma(1-alpha)) ( g(r)/(r-s)^alpha
               + alpha int_s^r (g(r)-g(q)) (r-q)^{-1-alpha} dq ),

    the singular integral evaluated exactly for the piecewise-linear
    interpolant of g (per-cell antiderivative of (A + Bx) x^{-1-alpha}).
    Accepts an IntegrandPath (returns a matrix) or a SampledPath with one
    mode (returns a scalar).
    """
    _check_alpha(alpha)
    scalar = isinstance(g, SampledPath)
    gp = IntegrandPath(g.t0, g.dt, g.scalar()) if scalar else g
    i_s, i_r = gp.index_of(s), gp.index_of(r)
    if i_r <= i_s:
        raise ValueError("need s < r (kernel singular at zero gap)")
    dt = gp.dt
    v = gp.values
    gr = v[i_r]
    acc = gr / ((i_r - i_s) * dt) ** alpha
    for k in range(i_s, i_r):
        sl = (v[k + 1] - v[k]) / dt
        if k == i_r - 1:
            # cell touching r: g(r)-g(q) = sl*(r-q), no constant part
            acc += alpha * sl * dt ** (1.0 - alpha) / (1.0 - alpha)
            continue
        xa = (i_r - k - 1) * dt
        xb = (i_r - k) * dt
        A = gr - v[k + 1] - sl * xa
        acc += alpha * (
            A * (xa**-alpha - xb**-alpha) / alpha
            + sl * (xb ** (1.0 - alpha) - xa ** (1.0 - alpha)) / (1.0 - alpha)
        )
    out = acc / gamma_fn(1.0 - alpha)
    return float(out[0, 0]) if scalar else out


def frac_deriv_right(omega: SampledPath, alpha: float, r: float, t: float):
    """Right fractional derivative of order 1-alpha of omega - omega(t):

        D[r] = (1/Gamma(alpha)) ( (omega(r)-omega(t))/(t-r)^{1-alpha}
               + (1-alpha) int_r^t (omega(r)-omega(q)) (q-r)^{alpha-2} dq ),

    exact on the piecewise-linear interpolant.  Returns an array over the
    modes of omega (a scalar path yields a length-1 array).
    """
    _check_alpha(alpha)
    i_r, i_t = omega.index_of(r), omega.index_of(t)
    if i_t <= i_r:
        raise ValueError("need r < t (kernel singular at zero gap)")
    dt = omega.dt
    v = omega.values
    wr = v[i_r]
    acc = (wr - v[i_t]) / ((i_t - i_r) * dt) ** (1.0 - alpha)
    for k in range(i_r, i_t):
        sl = (v[k + 1] - v[k]) / dt
        if k == i_r:
            # cell touching r: omega(r)-omega(q) = -sl*(q-r)
            acc += (1.0 - alpha) * (-sl) * dt**alpha / alpha
            continue
        xa = (k - i_r) * dt
        xb = (k + 1 - i_r) * dt
        A = wr - v[k] + sl * xa
        acc += (1.0 - alpha) * (
            A * (xb ** (alpha - 1.0) - xa ** (alpha - 1.0)) / (alpha - 1.0)
            - sl * (xb**alpha - xa**alpha) / alpha
        )
    return acc / gamma_fn(alpha)


def _cell_kernel(n: int, dt: float, order: float) -> np.ndarray:
    """Integral of |u - r_p|^(order-1) over the cell k cells away from the
    midpoint r_p = (p + 1/2) dt, for k = 0..n-1: the half cell touching r_p
    gives (dt/2)^order/order, cell k >= 1 gives
    dt^order ((k+1/2)^order - (k-1/2)^order)/order."""
    edges = (np.arange(n + 1) - 0.5).clip(0.0)  # 0, 1/2, 3/2, ...
    return dt**order * np.diff(edges**order) / order


def _causal_conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """y[p] = sum_{j <= p} x[j] w[p-j] for p < len(x), along axis 0 of x.
    FFT zero-padded to twice the length, so nothing wraps around."""
    n = x.shape[0]
    size = 2 * n
    spec = np.fft.rfft(x, size, axis=0) * np.fft.rfft(w, size)[:, None]
    return np.fft.irfft(spec, size, axis=0)[:n]


def frac_deriv_left_mid(g, dt, alpha, gamma_rec):
    """Left fractional derivative of order alpha at every cell midpoint.

    g has shape (n+1, m): nodes of a piecewise-linear function on
    [0, n*dt].  Returns (n, m) with, at r_p = (p + 1/2) dt,

        D[p] = gamma_rec * ( g(r_p)/r_p^alpha
                 + alpha * int_0^{r_p} (g(r_p)-g(q)) (r_p-q)^{-1-alpha} dq ),

    gamma_rec = 1/Gamma(1-alpha).  Swapping the order of integration gives
    gamma_rec * ( g(0)/r_p^alpha + int_0^{r_p} g'(u) (r_p-u)^{-alpha} du ).
    The slope g' is constant on each cell, so the integral is exactly a
    causal convolution of the cell slopes with the cell integrals of the
    kernel.  A constant offset of g enters only through g(0).
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0] - 1
    slopes = np.diff(g, axis=0) / dt
    r = (np.arange(n) + 0.5) * dt
    conv = _causal_conv(slopes, _cell_kernel(n, dt, 1.0 - alpha))
    return gamma_rec * (g[0] / r[:, None] ** alpha + conv)


def frac_deriv_right_mid(w, dt, alpha, gamma_rec):
    """Right fractional derivative of order 1-alpha of w - w(T) at every
    cell midpoint.

    w has shape (n+1, m).  Returns (n, m) with, at r_p = (p + 1/2) dt,
    T = n*dt,

        D[p] = gamma_rec * ( (w(r_p)-w(T))/(T-r_p)^{1-alpha}
                 + (1-alpha) * int_{r_p}^T (w(r_p)-w(q)) (q-r_p)^{alpha-2} dq ),

    gamma_rec = 1/Gamma(alpha).  Swapping the order of integration gives
    -gamma_rec * int_{r_p}^T w'(u) (u-r_p)^{alpha-1} du: a convolution of
    the cell slopes running backwards from T, computed as a causal one on
    the reversed slopes.  It reads increments only, so it ignores offsets.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0] - 1
    slopes = np.diff(w, axis=0)[::-1] / dt
    return -gamma_rec * _causal_conv(slopes, _cell_kernel(n, dt, alpha))[::-1]


@lru_cache(maxsize=16)
def _cell_weights(alpha: float):
    """Moments of the derivative product over one cell with linear data.

    With g(r) = g0 + m(r-s) and omega linear of slope sigma on a cell of
    width h, the product of the two one-sided derivatives integrates to

        -(sigma h / (Gamma(1+alpha) Gamma(1-alpha)))
            * ( g0 * B(1-alpha, 1+alpha) + m h * B(2-alpha, 1+alpha)/(1-alpha) )

    via the substitution r = s + x h.  Returns (c0, c1): the coefficients
    of g0 and of the increment m h after dividing out the Gamma prefactor.
    """
    lg = gammaln
    logpre = lg(1.0 - alpha) + lg(1.0 + alpha)
    c0 = np.exp(lg(1.0 - alpha) + lg(1.0 + alpha) - lg(2.0) - logpre)
    c1 = np.exp(
        lg(2.0 - alpha) + lg(1.0 + alpha) - lg(3.0) - logpre
    ) / (1.0 - alpha)
    return float(c0), float(c1)


def _raw_composite(gv: np.ndarray, wv: np.ndarray, alpha: float) -> np.ndarray:
    """Sum of per-cell closed-form derivative products, before the sign
    calibration.  gv: (n+1, J, I); wv: (n+1, I).  Returns (J,)."""
    c0, c1 = _cell_weights(alpha)
    dw = np.diff(wv, axis=0)  # (n, I)
    gmid = c0 * gv[:-1] + c1 * (gv[1:] - gv[:-1])  # (n, J, I)
    return -np.einsum("kji,ki->j", gmid, dw)


@lru_cache(maxsize=16)
def _calibrate_sign(alpha: float) -> float:
    """Pin the real-valued convention: the constant-integrand identity
    int_s^t c domega = c (omega(t)-omega(s)) must hold.  Evaluated on a
    linear test path with c = 1."""
    wv = np.linspace(0.0, 1.0, 9)[:, None]
    gv = np.ones((9, 1, 1))
    raw = _raw_composite(gv, wv, alpha)[0]
    target = 1.0  # omega(1) - omega(0)
    if abs(abs(raw) - abs(target)) > 1e-10 * abs(target):
        raise RuntimeError(
            f"sign calibration failed at alpha={alpha}: raw={raw}"
        )
    return 1.0 if raw * target > 0 else -1.0


def _window(g: IntegrandPath, omega: SampledPath, s, t):
    if abs(g.dt - omega.dt) > 1e-12 * omega.dt:
        raise ValueError("integrand and driver must share the grid step")
    s = omega.t0 if s is None else s
    t = omega.t_end if t is None else t
    i0, i1 = omega.index_of(s), omega.index_of(t)
    j0, j1 = g.index_of(s), g.index_of(t)
    if i1 <= i0:
        raise ValueError("need s < t")
    return g.values[j0 : j1 + 1], omega.values[i0 : i1 + 1]


def pathwise_integral(
    g: IntegrandPath,
    omega: SampledPath,
    params: HolderParams,
    s=None,
    t=None,
) -> np.ndarray:
    """int_s^t g domega by the composite per-cell scheme.

    The window is split at the grid nodes (the integral is additive over
    subintervals); on each cell both interpolants are linear, the two
    fractional derivatives are known in closed form and their product
    integrates to Beta-function moments.  Exact for piecewise-linear data.
    """
    if not isinstance(params, HolderParams):
        raise TypeError("params must be a HolderParams (enforces exponent chain)")
    alpha = params.alpha
    gv, wv = _window(g, omega, s, t)
    return _calibrate_sign(alpha) * _raw_composite(gv, wv, alpha)


def pathwise_integral_window(
    g: IntegrandPath,
    omega: SampledPath,
    params: HolderParams,
    s=None,
    t=None,
) -> np.ndarray:
    """int_s^t g domega by single-window quadrature (cross-check route).

    Both derivatives are evaluated at cell midpoints (avoiding the
    endpoint singularities), with singular inner kernels integrated
    exactly on the piecewise-linear interpolants as convolutions of the
    path increments; the outer integral uses the midpoint rule.
    O(n log n) in the window length.
    """
    if not isinstance(params, HolderParams):
        raise TypeError("params must be a HolderParams (enforces exponent chain)")
    alpha = params.alpha
    gv, wv = _window(g, omega, s, t)
    n1, J, I = gv.shape
    dt = omega.dt
    dl = frac_deriv_left_mid(
        gv.reshape(n1, J * I), dt, alpha, 1.0 / gamma_fn(1.0 - alpha)
    ).reshape(n1 - 1, J, I)
    dr = frac_deriv_right_mid(wv, dt, alpha, 1.0 / gamma_fn(alpha))
    return _calibrate_sign(alpha) * dt * np.einsum("pji,pi->j", dl, dr)


def integral_norm_bound(
    g: IntegrandPath, omega: SampledPath, params: HolderParams, s=None, t=None
) -> dict:
    """Measured |integral| next to the a-priori Hölder bound
    c * ||g||_{beta,beta;[s,t]} * |||omega|||_{beta';[s,t]} * (t-s)^{beta'},
    with c the product of the two Gamma prefactors and the Beta moment of
    the endpoint kernels.  The constant is reported, not assumed."""
    from .paths import holder_seminorm, weighted_holder_norm

    s = omega.t0 if s is None else s
    t = omega.t_end if t is None else t
    val = pathwise_integral(g, omega, params, s, t)
    a, bp = params.alpha, params.beta_prime
    gwin = SampledPath(
        t0=s,
        dt=g.dt,
        values=g.values[g.index_of(s) : g.index_of(t) + 1].reshape(
            -1, g.values.shape[1] * g.values.shape[2]
        ),
    )
    gnorm = weighted_holder_norm(gwin, params.beta, rho=0.0)
    wnorm = holder_seminorm(omega.restrict(s, t), bp)
    b = params.beta

    def beta_fn(x, y):
        return np.exp(gammaln(x) + gammaln(y) - gammaln(x + y))

    # |D^a g[r]| <= ||g|| (r-s)^{-a} (1 + a B(1-b, b-a)) / Gamma(1-a)
    # (difference quotients weighted by (q-s)^b), |D^{1-a} omega[r]| <=
    # |||omega||| (t-r)^{a+b'-1} (1 + (1-a)/(a+b'-1)) / Gamma(a); the outer
    # r-integral of the two power kernels is B(1-a, a+b') (t-s)^{b'}.
    c = (
        (1.0 + a * beta_fn(1.0 - b, b - a))
        * (1.0 + (1.0 - a) / (a + bp - 1.0))
        * beta_fn(1.0 - a, a + bp)
        / (gamma_fn(1.0 - a) * gamma_fn(a))
    )
    return {
        "value": val,
        "measured": float(np.linalg.norm(val)),
        "bound": float(c * gnorm * wnorm * (t - s) ** bp),
        "g_norm": gnorm,
        "omega_seminorm": wnorm,
    }
