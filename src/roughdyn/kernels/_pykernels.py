"""Pure-numpy implementations of the hot kernels.

Two families live here:

* fractional derivative sweeps for the windowed quadrature scheme
  (left derivative of the integrand, right derivative of the driver,
  both evaluated at cell midpoints of a uniform grid), and
* pairwise Hölder-quotient suprema over all node pairs of a grid path.

A Cython twin (_fastkernels) implements the same signatures; the package
__init__ picks whichever imports.
"""

import numpy as np

BACKEND = "numpy"


def frac_deriv_left_mid(g, dt, alpha, gamma_rec):
    """Left fractional derivative of order alpha at cell midpoints.

    g has shape (n+1, m): nodes of a piecewise-linear function on
    [0, n*dt].  Returns array (n, m) with, at r_p = (p + 1/2) dt,

        D[p] = gamma_rec * ( g(r_p)/r_p^alpha
                 + alpha * int_0^{r_p} (g(r_p)-g(q)) (r_p-q)^{-1-alpha} dq )

    where gamma_rec = 1/Gamma(1-alpha).  The integral is exact for the
    piecewise-linear interpolant: on each full cell [q_a, q_b] left of r_p
    the integrand is (A + B x) x^{-1-alpha} in x = r_p - q, with
    antiderivative -A x^{-alpha}/alpha + B x^{1-alpha}/(1-alpha); the
    half-cell touching r_p has A = 0 exactly.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0] - 1
    m = g.shape[1]
    out = np.zeros((n, m))
    for p in range(n):
        r = (p + 0.5) * dt
        gr = 0.5 * (g[p] + g[p + 1])
        acc = gr / r**alpha
        # half cell [p*dt, r]: g(r)-g(q) = slope*(r-q), A=0, B=slope
        slope = (g[p + 1] - g[p]) / dt
        acc += alpha * slope * (0.5 * dt) ** (1.0 - alpha) / (1.0 - alpha)
        # full cells [k*dt, (k+1)*dt] for k < p
        for k in range(p):
            xa = r - (k + 1) * dt
            xb = r - k * dt
            sl = (g[k + 1] - g[k]) / dt
            # g(r) - g(q) = A + B*(r-q) with B = sl, A = gr - g[k+1] - sl*xa
            A = gr - g[k + 1] - sl * xa
            B = sl
            acc += alpha * (
                A * (xa ** (-alpha) - xb ** (-alpha)) / alpha
                + B * (xb ** (1.0 - alpha) - xa ** (1.0 - alpha)) / (1.0 - alpha)
            )
        out[p] = gamma_rec * acc
    return out


def frac_deriv_right_mid(w, dt, alpha, gamma_rec):
    """Right fractional derivative of order 1-alpha of w - w(T), midpoints.

    w has shape (n+1, m).  Returns (n, m) with, at r_p = (p + 1/2) dt,
    T = n*dt,

        D[p] = gamma_rec * ( (w(r_p)-w(T))/(T-r_p)^{1-alpha}
                 + (1-alpha) * int_{r_p}^T (w(r_p)-w(q)) (q-r_p)^{alpha-2} dq )

    with gamma_rec = 1/Gamma(alpha).  Exact on the piecewise-linear
    interpolant by the same per-cell antiderivative trick, now with
    x = q - r_p and antiderivative A x^{alpha-1}/(alpha-1) + B x^alpha/alpha.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0] - 1
    m = w.shape[1]
    T = n * dt
    out = np.zeros((n, m))
    for p in range(n):
        r = (p + 0.5) * dt
        wr = 0.5 * (w[p] + w[p + 1])
        acc = (wr - w[n]) / (T - r) ** (1.0 - alpha)
        # half cell [r, (p+1)*dt]: w(r)-w(q) = -slope*(q-r), A=0, B=-slope
        slope = (w[p + 1] - w[p]) / dt
        acc += (1.0 - alpha) * (-slope) * (0.5 * dt) ** alpha / alpha
        # full cells [k*dt, (k+1)*dt] for k > p
        for k in range(p + 1, n):
            xa = k * dt - r
            xb = (k + 1) * dt - r
            sl = (w[k + 1] - w[k]) / dt
            # w(r) - w(q) = A + B*(q-r) with B = -sl, A = wr - w[k] + sl*xa
            A = wr - w[k] + sl * xa
            B = -sl
            acc += (1.0 - alpha) * (
                A * (xb ** (alpha - 1.0) - xa ** (alpha - 1.0)) / (alpha - 1.0)
                + B * (xb**alpha - xa**alpha) / alpha
            )
        out[p] = gamma_rec * acc
    return out


def holder_pair_sup(u, dt, beta, max_gap):
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


def weighted_holder_sup(u, dt, beta, rho):
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
