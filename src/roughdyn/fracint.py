"""Fractional derivatives and the pathwise integral against Hölder paths.

The integral of an operator-valued integrand g against a vector path omega
is Zähle's fractional-derivative integral,

    int_s^t g domega
      = (-1)^alpha sum_i int_s^t D^alpha_{s+}(g e_i)[r]
          * D^{1-alpha}_{t-}(e_i, omega - omega(t))[r] dr,

valid when the Hölder exponents of g and omega sum above 1; it then equals
the Riemann-Stieltjes integral and does not depend on alpha (Zähle 1998,
Integration with respect to fractal functions and stochastic calculus I).
frac_deriv_right_mid returns the right derivative without its
(-1)^(1-alpha) factor; with the leading (-1)^alpha the two factors
multiply to -1.

Grid data are read as piecewise-linear interpolants.  Two routes are
provided:

* pathwise_integral: for piecewise-linear g and omega the integral is the
  Riemann-Stieltjes one, which on a cell with g linear and omega of slope
  sigma is (g_k + dg_k/2) * sigma * dt.  Their sum, the per-cell
  trapezoid Stieltjes sum, is the exact value for the interpolated data,
  so all its error lives in the interpolation of the inputs.
* pathwise_integral_window: evaluates the fractional derivatives
  themselves, at cell midpoints as convolutions of the path increments
  (O(n log n) by FFT), with the midpoint outer rule.  It shares no
  formula with the trapezoid sum and is kept as its independent oracle.
"""

from __future__ import annotations

from math import exp, gamma, lgamma

import numpy as np

from .paths import GridPath, HolderParams, SampledPath

__all__ = [
    "IntegrandPath",
    "frac_deriv_left_mid",
    "frac_deriv_right_mid",
    "pathwise_integral",
    "pathwise_integral_window",
    "integral_norm_bound",
    "beta_fn",
]


def beta_fn(x: float, y: float) -> float:
    """Euler's Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), x, y > 0,
    through lgamma so that large arguments do not overflow."""
    return exp(lgamma(x) + lgamma(y) - lgamma(x + y))


class IntegrandPath(GridPath):
    """Operator-valued path on a uniform grid.

    values has shape (n_nodes, J, I): node k holds the matrix with entries
    (e_j, g(t_k) e_i).  Scalar integrands pass shape (n_nodes,) and are
    lifted to 1x1 matrices; diagonal ones pass (n_nodes, I), one diagonal
    per node.
    """

    @staticmethod
    def _lift(values):
        if values.ndim == 1:
            values = values[:, None, None]
        elif values.ndim == 2:
            values = np.stack([np.diag(row) for row in values])
        if values.ndim != 3:
            raise ValueError("values must have shape (n_nodes[, J], I) or (n_nodes,)")
        return values

    @staticmethod
    def constant(c: np.ndarray, like: SampledPath) -> "IntegrandPath":
        c = np.atleast_2d(np.asarray(c, dtype=float))
        vals = np.broadcast_to(c, (like.n_nodes,) + c.shape).copy()
        return IntegrandPath(t0=like.t0, dt=like.dt, values=vals)


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


def frac_deriv_left_mid(g, dt, alpha):
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
    gamma_rec = 1.0 / gamma(1.0 - alpha)
    return gamma_rec * (g[0] / r[:, None] ** alpha + conv)


def frac_deriv_right_mid(w, dt, alpha):
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
    gamma_rec = 1.0 / gamma(alpha)
    return -gamma_rec * _causal_conv(slopes, _cell_kernel(n, dt, alpha))[::-1]


def _window(g: IntegrandPath, omega: SampledPath, s, t):
    """Node values of omega and of g on [s, t] (default: all of omega)."""
    if not g.same_step(omega):
        raise ValueError("integrand and driver must share the grid step")
    om = omega.window(s, t)
    return g.window(om.t0, om.t_end).values, om.values


def pathwise_integral(
    g: IntegrandPath,
    omega: SampledPath,
    params: HolderParams,
    s=None,
    t=None,
) -> np.ndarray:
    """int_s^t g domega as the trapezoid Stieltjes sum.

    Zähle's integral of the piecewise-linear interpolants is the
    Riemann-Stieltjes integral, sum_k (g_k + dg_k/2) domega_k over the
    cells of [s, t]; exact for piecewise-linear data.  params carries the
    exponent-chain contract shared with pathwise_integral_window; the value
    does not read alpha.
    """
    if not isinstance(params, HolderParams):
        raise TypeError("params must be a HolderParams (enforces exponent chain)")
    gv, wv = _window(g, omega, s, t)
    return np.einsum(
        "kji,ki->j", gv[:-1] + 0.5 * (gv[1:] - gv[:-1]), np.diff(wv, axis=0)
    )


def pathwise_integral_window(
    g: IntegrandPath,
    omega: SampledPath,
    params: HolderParams,
    s=None,
    t=None,
) -> np.ndarray:
    """int_s^t g domega by single-window quadrature (oracle route).

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
    dl = frac_deriv_left_mid(gv.reshape(n1, J * I), dt, alpha).reshape(n1 - 1, J, I)
    dr = frac_deriv_right_mid(wv, dt, alpha)
    # Zähle's (-1)^alpha times the (-1)^(1-alpha) of the right Weyl
    # derivative, which frac_deriv_right_mid leaves out, is -1
    return -dt * np.einsum("pji,pi->j", dl, dr)


def integral_norm_bound(
    g: IntegrandPath, omega: SampledPath, params: HolderParams, s=None, t=None
) -> dict:
    """Measured |integral| next to the a-priori Hölder bound
    c * ||g||_{beta,beta;[s,t]} * |||omega|||_{beta';[s,t]} * (t-s)^{beta'},
    with c the product of the two Gamma prefactors and the Beta moment of
    the endpoint kernels (verify-all checks measured <= bound)."""
    from .paths import holder_seminorm, weighted_holder_norm

    s = omega.t0 if s is None else s
    t = omega.t_end if t is None else t
    val = pathwise_integral(g, omega, params, s, t)
    a, bp = params.alpha, params.beta_prime
    gwin = g.window(s, t)
    gflat = SampledPath(gwin.t0, gwin.dt, gwin.values.reshape(gwin.n_nodes, -1))
    gnorm = weighted_holder_norm(gflat, params.beta, rho=0.0)
    wnorm = holder_seminorm(omega, bp, s, t)
    b = params.beta
    # |D^a g[r]| <= ||g|| (r-s)^{-a} (1 + a B(1-b, b-a)) / Gamma(1-a)
    # (difference quotients weighted by (q-s)^b), |D^{1-a} omega[r]| <=
    # |||omega||| (t-r)^{a+b'-1} (1 + (1-a)/(a+b'-1)) / Gamma(a); the outer
    # r-integral of the two power kernels is B(1-a, a+b') (t-s)^{b'}.
    c = (
        (1.0 + a * beta_fn(1.0 - b, b - a))
        * (1.0 + (1.0 - a) / (a + bp - 1.0))
        * beta_fn(1.0 - a, a + bp)
        / (gamma(1.0 - a) * gamma(a))
    )
    return {
        "value": val,
        "measured": float(np.linalg.norm(val)),
        "bound": float(c * gnorm * wnorm * (t - s) ** bp),
        "g_norm": gnorm,
        "omega_seminorm": wnorm,
    }
