import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma

from roughdyn import fracint, paths

PP = paths.HolderParams()


def _linear_path(n=64, t_end=1.0, slope=1.0):
    tt = np.linspace(0.0, t_end, n + 1)
    return paths.SampledPath(0.0, tt[1], slope * tt)


# ---------------------------------------------------------------- derivatives

ALPHAS = [0.3, 0.5, 0.7]


def _midpoints(n, dt):
    return (np.arange(n) + 0.5) * dt


def _random_paths(n=96, m=3):
    # random-walk columns of Hölder size, rounded to multiples of 2^-30 so
    # that adding an offset up to 1e4 (< 2^14) is exact in binary64
    rng = np.random.default_rng(1)
    dt = 1.0 / n
    g = np.cumsum(rng.standard_normal((n + 1, m)), axis=0) * dt**0.75
    return np.round(g * 2.0**30) / 2.0**30, dt


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


# Quadrature oracle, independent of the library: the defining Marchaud/Weyl
# integrals of the piecewise-linear interpolant at each cell midpoint r,
# with scipy's plain rule on each whole cell and the algebraic weight
# (r - q)^-alpha or (q - r)^(alpha-1) on the half cell touching r, where
# g(r) - g(q) is the cell slope times r - q.
_QUAD_TOL = dict(epsabs=1e-14, epsrel=1e-13)


def _cell_integrand(q, gr, gk, slope, qk, r, power):
    """(g(r) - g(q)) |r - q|^power, with g(q) = gk + slope (q - qk) on the
    cell that starts at qk."""
    return (gr - gk - slope * (q - qk)) * abs(r - q) ** power


def _left_quad(g, dt, alpha):
    """(1/Gamma(1-alpha)) (g(r)/r^alpha
    + alpha int_0^r (g(r)-g(q)) (r-q)^(-1-alpha) dq) per column of g."""
    n = g.shape[0] - 1
    out = np.empty((n, g.shape[1]))
    for i, col in enumerate(g.T):
        sl = np.diff(col) / dt
        for p in range(n):
            r = (p + 0.5) * dt
            gr = 0.5 * (col[p] + col[p + 1])
            acc = gr / r**alpha
            half = quad(lambda q: sl[p], p * dt, r, weight="alg", wvar=(0.0, -alpha))
            acc += alpha * half[0]
            for k in range(p):
                args = (gr, col[k], sl[k], k * dt, r, -1.0 - alpha)
                cell = quad(_cell_integrand, k * dt, (k + 1) * dt, args, **_QUAD_TOL)
                acc += alpha * cell[0]
            out[p, i] = acc / gamma(1.0 - alpha)
    return out


def _right_quad(w, dt, alpha):
    """(1/Gamma(alpha)) ((w(r)-w(T))/(T-r)^(1-alpha)
    + (1-alpha) int_r^T (w(r)-w(q)) (q-r)^(alpha-2) dq) per column of w."""
    n = w.shape[0] - 1
    T = n * dt
    out = np.empty((n, w.shape[1]))
    for i, col in enumerate(w.T):
        sl = np.diff(col) / dt
        for p in range(n):
            r = (p + 0.5) * dt
            wr = 0.5 * (col[p] + col[p + 1])
            acc = (wr - col[n]) / (T - r) ** (1.0 - alpha)
            wvar = (alpha - 1.0, 0.0)
            half = quad(lambda q: -sl[p], r, (p + 1) * dt, weight="alg", wvar=wvar)
            acc += (1.0 - alpha) * half[0]
            for k in range(p + 1, n):
                args = (wr, col[k], sl[k], k * dt, r, alpha - 2.0)
                cell = quad(_cell_integrand, k * dt, (k + 1) * dt, args, **_QUAD_TOL)
                acc += (1.0 - alpha) * cell[0]
            out[p, i] = acc / gamma(alpha)
    return out


@pytest.mark.parametrize("alpha", ALPHAS)
def test_frac_deriv_left_mid_matches_quadrature_oracle(alpha):
    vals, dt = _random_paths(n=32)
    got = fracint.frac_deriv_left_mid(vals, dt, alpha)
    assert got.shape == (32, vals.shape[1])
    assert _rel_err(got, _left_quad(vals, dt, alpha)) <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_frac_deriv_right_mid_matches_quadrature_oracle(alpha):
    vals, dt = _random_paths(n=32)
    got = fracint.frac_deriv_right_mid(vals, dt, alpha)
    assert got.shape == (32, vals.shape[1])
    assert _rel_err(got, _right_quad(vals, dt, alpha)) <= 1e-12


def test_frac_deriv_left_constant():
    # difference integral vanishes: c / (Gamma(1-a) r^a), Gamma(1/2) = sqrt(pi)
    n, dt = 64, 1 / 64
    got = fracint.frac_deriv_left_mid(3.0 * np.ones((n + 1, 1)), dt, 0.5)[:, 0]
    ref = 3.0 / np.sqrt(np.pi * _midpoints(n, dt))
    assert _rel_err(got, ref) <= 1e-12


def _ending_at_one(n):
    # n cells whose last midpoint is r = 1
    dt = 1.0 / (n - 0.5)
    return dt * np.arange(n + 1), dt


def test_frac_deriv_left_linear():
    # power rule Gamma(2)/Gamma(1.5) r^{0.5} = 2 sqrt(r/pi); at r = 1 the
    # quadrature oracle (scipy.integrate.quad on the defining integral)
    # gives 1.1283791670955436
    tt, dt = _ending_at_one(64)
    got = fracint.frac_deriv_left_mid(tt[:, None], dt, 0.5)[:, 0]
    r = _midpoints(64, dt)
    assert _rel_err(got, 2.0 * np.sqrt(r / np.pi)) <= 1e-12
    assert r[-1] == pytest.approx(1.0, rel=1e-15)
    assert got[-1] == pytest.approx(1.1283791670955436, rel=1e-10)


def test_frac_deriv_left_small_alpha_is_near_identity():
    # D^alpha -> identity as alpha -> 0; quadrature oracle for g = sin,
    # alpha = 1e-3, r = 1: 0.8416979099142762 (within 0.03% of sin(1))
    tt, dt = _ending_at_one(2048)
    got = fracint.frac_deriv_left_mid(np.sin(tt)[:, None], dt, 1e-3)[:, 0]
    r = _midpoints(2048, dt)
    assert got[-1] == pytest.approx(0.8416979099142762, rel=1e-6)
    assert np.all(np.abs(got - np.sin(r)) / np.sin(r) < 0.01)


def test_frac_deriv_right_constant_is_zero():
    got = fracint.frac_deriv_right_mid(4.0 * np.ones((33, 1)), 1 / 32, 0.5)
    assert np.all(got == 0.0)


def test_frac_deriv_right_linear():
    # closed form for omega(q) = q: -(T-r)^alpha / Gamma(1+alpha), which at
    # alpha = 1/2 is -2 sqrt((T-r)/pi)
    tt, dt = _ending_at_one(64)
    got = fracint.frac_deriv_right_mid(tt[:, None], dt, 0.5)[:, 0]
    T = tt[-1]
    r = _midpoints(64, dt)
    assert _rel_err(got, -2.0 * np.sqrt((T - r) / np.pi)) <= 1e-12


def test_frac_deriv_right_quadratic_oracle():
    # omega(q) = q^2, T = 1, alpha = 1/2: the closed form
    # -(2/sqrt(pi)) ((1-r)^{3/2}/(3/2) + 2 r (1-r)^{1/2}), which at r = 0.25
    # the quadrature oracle (scipy.integrate.quad on the defining integral)
    # gives as -0.9772050238058516.  The only error is piecewise-linear
    # interpolation of q^2, which the singular kernel amplifies to
    # O(dt^{3/2}).  With n = 4p + 2 cells, r = 0.25 is the midpoint of cell p.
    errs, sups = {}, {}
    for n in (514, 4098):
        tt = np.linspace(0.0, 1.0, n + 1)
        got = fracint.frac_deriv_right_mid((tt**2)[:, None], tt[1], 0.5)[:, 0]
        r = _midpoints(n, tt[1])
        exact = -(2.0 / np.sqrt(np.pi)) * (
            (1.0 - r) ** 1.5 / 1.5 + 2.0 * r * np.sqrt(1.0 - r)
        )
        p = (n - 2) // 4
        assert r[p] == pytest.approx(0.25, rel=1e-14)
        assert exact[p] == pytest.approx(-0.9772050238058516, rel=1e-13)
        errs[n] = abs(got[p] - exact[p])
        sups[n] = np.max(np.abs(got - exact))
    assert errs[4098] < 1e-5 and sups[4098] < 2e-6
    assert errs[4098] < errs[514] / 8.0  # observed rate ~ dt^{3/2}
    assert sups[4098] < sups[514] / 8.0


def test_frac_deriv_right_fbm_envelope():
    # |D^{1-a} omega[r]| <= c |||omega|||_{b'} (t-r)^{a+b'-1} with
    # c = (1 + (1-a)/(a+b'-1)) / Gamma(a), at every cell midpoint
    om = paths.sample_fbm_1d(0.75, 128, 1 / 128, 31)
    a, bp = PP.alpha, PP.beta_prime
    wnorm = paths.holder_seminorm(om, bp)
    c = (1.0 + (1.0 - a) / (a + bp - 1.0)) / gamma(a)
    got = np.abs(fracint.frac_deriv_right_mid(om.values, om.dt, a)[:, 0])
    r = _midpoints(128, om.dt)
    assert np.all(got <= c * wnorm * (1.0 - r) ** (a + bp - 1.0) * (1 + 1e-12))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_frac_deriv_mid_linear_closed_forms(alpha):
    # omega(t) = t: D_left[r] = r^{1-alpha}/Gamma(2-alpha) and
    # D_right[r] = -(T-r)^alpha/Gamma(1+alpha), exact for linear data
    n, T = 200, 1.0
    dt = T / n
    lin = (dt * np.arange(n + 1))[:, None]
    r = (np.arange(n) + 0.5) * dt
    left = fracint.frac_deriv_left_mid(lin, dt, alpha)
    right = fracint.frac_deriv_right_mid(lin, dt, alpha)
    assert _rel_err(left[:, 0], r ** (1.0 - alpha) / gamma(2.0 - alpha)) <= 1e-12
    assert _rel_err(right[:, 0], -((T - r) ** alpha) / gamma(1.0 + alpha)) <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("offset", [1e2, 1e4])
def test_frac_deriv_mid_constant_offset(alpha, offset):
    # the right sweep reads increments only; the left one moves by exactly
    # the g(0) term gamma_rec * c / r_p^alpha
    vals, dt = _random_paths()
    n = vals.shape[0] - 1
    r = (np.arange(n) + 0.5) * dt
    assert np.array_equal(
        fracint.frac_deriv_right_mid(vals + offset, dt, alpha),
        fracint.frac_deriv_right_mid(vals, dt, alpha),
    )
    grec_l = 1.0 / gamma(1.0 - alpha)
    moved = fracint.frac_deriv_left_mid(
        vals + offset, dt, alpha
    ) - fracint.frac_deriv_left_mid(vals, dt, alpha)
    expected = np.broadcast_to((grec_l * offset / r**alpha)[:, None], moved.shape)
    assert _rel_err(moved, expected) <= 1e-12


# ---------------------------------------------------------------- integral


def test_constant_integrand_identity_exact():
    om = paths.sample_fbm_1d(0.75, 256, 1 / 256, 5)
    g = fracint.IntegrandPath.constant([[2.5]], om)
    val = fracint.pathwise_integral(g, om, PP)[0]
    ref = 2.5 * (om.values[-1, 0] - om.values[0, 0])
    assert val == pytest.approx(ref, rel=1e-13)


def test_linear_linear_integral():
    # int_0^1 r dr = 1/2 (g = r against omega = r)
    om = _linear_path(256)
    g = fracint.IntegrandPath(0.0, om.dt, om.times)
    assert fracint.pathwise_integral(g, om, PP)[0] == pytest.approx(0.5, rel=1e-12)


def test_young_quadratic_value_and_order():
    # int_0^1 r d(r^2) = 2/3; input interpolation is the only error source
    errs = {}
    for k in (8, 10, 12):
        n = 2**k
        tt = np.linspace(0.0, 1.0, n + 1)
        om = paths.SampledPath(0.0, tt[1], tt**2)
        g = fracint.IntegrandPath(0.0, tt[1], tt)
        errs[n] = abs(fracint.pathwise_integral(g, om, PP)[0] - 2.0 / 3.0)
    assert errs[4096] < 1e-3
    order = np.log2(errs[256] / errs[1024]) / 2.0
    assert order >= 1.0


def test_additivity_and_shift_on_fbm():
    om = paths.sample_fbm_1d(0.75, 256, 1 / 256, 17)
    g = fracint.IntegrandPath(0.0, om.dt, np.sin(2.0 * om.times))
    full = fracint.pathwise_integral(g, om, PP, 0.0, 1.0)[0]
    scale = 1.0 + abs(full)
    for tau_idx in (32, 100, 200):
        tau = tau_idx / 256
        a = fracint.pathwise_integral(g, om, PP, 0.0, tau)[0]
        b = fracint.pathwise_integral(g, om, PP, tau, 1.0)[0]
        assert abs(a + b - full) / scale < 1e-12
    # shift: int_s^t g domega = int_0^{t-s} g(tau+.) d(theta_tau omega)
    for k in (16, 64):
        sh_om = paths.wiener_shift(om, k)
        sh_g = fracint.IntegrandPath(0.0, g.dt, g.values[k:])
        lhs = fracint.pathwise_integral(g, om, PP, k / 256, 1.0)[0]
        rhs = fracint.pathwise_integral(sh_g, sh_om, PP)[0]
        assert abs(lhs - rhs) / (1.0 + abs(lhs)) < 1e-12


def test_bilinearity():
    om = paths.sample_fbm_1d(0.75, 64, 1 / 64, 2)
    om2 = paths.sample_fbm_1d(0.75, 64, 1 / 64, 3)
    g1 = fracint.IntegrandPath(0.0, om.dt, np.cos(om.times))
    g2 = fracint.IntegrandPath(0.0, om.dt, om.times**2)
    gsum = fracint.IntegrandPath(0.0, om.dt, np.cos(om.times) + 2.0 * om.times**2)
    lhs = fracint.pathwise_integral(gsum, om, PP)[0]
    rhs = (
        fracint.pathwise_integral(g1, om, PP)[0]
        + 2.0 * fracint.pathwise_integral(g2, om, PP)[0]
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)
    omsum = paths.SampledPath(0.0, om.dt, om.values + 3.0 * om2.values)
    lhs = fracint.pathwise_integral(g1, omsum, PP)[0]
    rhs = (
        fracint.pathwise_integral(g1, om, PP)[0]
        + 3.0 * fracint.pathwise_integral(g1, om2, PP)[0]
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_matrix_integrand_contraction():
    om = paths.sample_qfbm(
        __import__("roughdyn.spectral", fromlist=["laplacian_1d"]).laplacian_1d(3),
        0.75,
        64,
        1 / 64,
        9,
    )
    c = np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 0.0]])  # J=2, I=3
    g = fracint.IntegrandPath.constant(c, om)
    val = fracint.pathwise_integral(g, om, PP)
    ref = c @ (om.values[-1] - om.values[0])
    assert np.allclose(val, ref, rtol=1e-12)


def test_norm_bound_holds():
    om = paths.sample_fbm_1d(0.75, 128, 1 / 128, 13)
    g = fracint.IntegrandPath(0.0, om.dt, np.cos(om.times))
    rep = fracint.integral_norm_bound(g, om, PP)
    assert rep["measured"] <= rep["bound"]
    rep2 = fracint.integral_norm_bound(g, om, PP, 0.25, 0.75)
    assert rep2["measured"] <= rep2["bound"]


def test_window_scheme_cross_check():
    # smooth data: both quadratures see the same piecewise-linear inputs
    tt = np.linspace(0.0, 1.0, 257)
    om = paths.SampledPath(0.0, tt[1], tt**2)
    g = fracint.IntegrandPath(0.0, tt[1], tt)
    a = fracint.pathwise_integral(g, om, PP)[0]
    b = fracint.pathwise_integral_window(g, om, PP)[0]
    assert b == pytest.approx(a, rel=1e-4)
    # rough driver: the window midpoint rule converges slowly; check the
    # defect against the exact composite value shrinks when the same paths
    # are refined (n = 64 is every 4th node of n = 256), summed over 8 seeds
    defects = {64: 0.0, 256: 0.0}
    for s in range(8):
        fine = paths.sample_fbm_1d(0.75, 256, 1.0 / 256, [99, s])
        for n in (64, 256):
            om = paths.SampledPath(0.0, 1.0 / n, fine.values[:: 256 // n])
            gr = fracint.IntegrandPath(0.0, om.dt, np.cos(om.times))
            ac = fracint.pathwise_integral(gr, om, PP)[0]
            aw = fracint.pathwise_integral_window(gr, om, PP)[0]
            defects[n] += abs(ac - aw)
    assert defects[256] < 0.75 * defects[64]


def test_parameter_chain_rejected():
    om = _linear_path()
    g = fracint.IntegrandPath.constant([[1.0]], om)
    with pytest.raises(TypeError):
        fracint.pathwise_integral(g, om, 0.5)
    with pytest.raises(ValueError):
        fracint.pathwise_integral(g, om, PP, 0.3, 0.3)
    with pytest.raises(ValueError):
        paths.HolderParams(alpha=0.56)  # outside (1-beta', beta)


# ---------------------------------------------------------------- properties

# deterministic examples, no example database on disk, no timing flakes
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def _grid_data(draw):
    """Random-walk integrand (n+1, J, I) and driver (n+1, I) on [0, 1],
    on the dyadic grid 2^-30 plus a constant offset up to 1e4, so every
    difference of node values is exact in binary64."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 512))
    J = draw(st.integers(1, 4))
    I = draw(st.integers(1, 4))
    offset = draw(st.sampled_from([0.0, 1e2, 1e4]))
    rng = np.random.default_rng(seed)
    dt = 1.0 / n
    g = np.cumsum(rng.standard_normal((n + 1, J, I)), axis=0) * dt**0.75
    w = np.cumsum(rng.standard_normal((n + 1, I)), axis=0) * dt**0.75
    g = np.round(g * 2.0**30) / 2.0**30 + offset
    w = np.round(w * 2.0**30) / 2.0**30 + offset
    return g, w, dt


def _abs_terms(g, w):
    # sum over cells and input modes of |(g_k + dg_k/2) domega_k|, per output
    return np.einsum(
        "kji,ki->j", np.abs(0.5 * (g[:-1] + g[1:])), np.abs(np.diff(w, axis=0))
    )


@PROPERTY
@given(_grid_data(), st.data())
def test_property_additivity_at_split_node(gw, data):
    g, w, dt = gw
    n = w.shape[0] - 1
    k = data.draw(st.integers(1, n - 1))
    gp, om = fracint.IntegrandPath(0.0, dt, g), paths.SampledPath(0.0, dt, w)
    full = fracint.pathwise_integral(gp, om, PP)
    left = fracint.pathwise_integral(gp, om, PP, 0.0, k * dt)
    right = fracint.pathwise_integral(gp, om, PP, k * dt, 1.0)
    assert np.all(np.abs(left + right - full) <= 1e-12 * _abs_terms(g, w))


@PROPERTY
@given(_grid_data(), st.data())
def test_property_wiener_shift(gw, data):
    # int_{k dt}^1 g domega = int_0^{1 - k dt} g(k dt + .) d(theta_{k dt} omega)
    g, w, dt = gw
    n = w.shape[0] - 1
    k = data.draw(st.integers(0, n - 1))
    om = paths.SampledPath(0.0, dt, w)
    lhs = fracint.pathwise_integral(
        fracint.IntegrandPath(0.0, dt, g), om, PP, k * dt, 1.0
    )
    rhs = fracint.pathwise_integral(
        fracint.IntegrandPath(0.0, dt, g[k:]), paths.wiener_shift(om, k), PP
    )
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * _abs_terms(g[k:], w[k:]))


@PROPERTY
@given(_grid_data())
def test_property_constant_integrand(gw):
    g, w, dt = gw
    c = g[-1]  # an arbitrary (J, I) matrix
    om = paths.SampledPath(0.0, dt, w)
    val = fracint.pathwise_integral(fracint.IntegrandPath.constant(c, om), om, PP)
    ref = c @ (w[-1] - w[0])
    bound = np.abs(c) @ np.abs(np.diff(w, axis=0)).sum(axis=0)
    assert np.all(np.abs(val - ref) <= 1e-12 * bound)


@PROPERTY
@given(
    _grid_data(),
    st.floats(0.36, 0.54),  # 1 - beta' < alpha < beta for the default chain
    st.floats(0.21, 0.74),  # the same for (H, beta, beta') = (0.9, 0.75, 0.8)
)
def test_property_alpha_independence(gw, a1, a2):
    # for piecewise-linear data the integral is the Riemann-Stieltjes one,
    # whatever admissible alpha the exponent chain carries
    g, w, dt = gw
    gp, om = fracint.IntegrandPath(0.0, dt, g), paths.SampledPath(0.0, dt, w)
    v1 = fracint.pathwise_integral(gp, om, paths.HolderParams(alpha=a1))
    v2 = fracint.pathwise_integral(
        gp, om, paths.HolderParams(hurst=0.9, beta=0.75, beta_prime=0.8, alpha=a2)
    )
    assert np.all(np.abs(v1 - v2) <= 1e-14 * _abs_terms(g, w))
