import numpy as np
import pytest
from scipy.special import gamma

from roughdyn import fracint, paths

PP = paths.HolderParams()


def _linear_path(n=64, t_end=1.0, slope=1.0):
    tt = np.linspace(0.0, t_end, n + 1)
    return paths.SampledPath(0.0, tt[1], slope * tt)


# ---------------------------------------------------------------- derivatives


def test_frac_deriv_left_constant():
    g = paths.SampledPath(0.0, 1 / 64, 3.0 * np.ones(65))
    # difference integral vanishes: c / (Gamma(1-a) (r-s)^a)
    assert fracint.frac_deriv_left(g, 0.5, 0.0, 1.0) == pytest.approx(
        3.0 / np.sqrt(np.pi), rel=1e-12
    )


def test_frac_deriv_left_linear():
    # power rule Gamma(2)/Gamma(1.5) (r-s)^{0.5} = 2/sqrt(pi); independent
    # quadrature oracle (scipy.integrate.quad on the defining integral)
    # gives 1.1283791670955436
    got = fracint.frac_deriv_left(_linear_path(), 0.5, 0.0, 1.0)
    assert got == pytest.approx(2.0 / np.sqrt(np.pi), rel=1e-12)
    assert got == pytest.approx(1.1283791670955436, rel=1e-10)


def test_frac_deriv_left_small_alpha_is_near_identity():
    # D^alpha -> identity as alpha -> 0; quadrature oracle for g = sin,
    # alpha = 1e-3, r = 1: 0.8416979099142762 (within 0.03% of sin(1))
    tt = np.linspace(0.0, 1.0, 2049)
    g = paths.SampledPath(0.0, tt[1], np.sin(tt))
    got = fracint.frac_deriv_left(g, 1e-3, 0.0, 1.0)
    assert got == pytest.approx(0.8416979099142762, rel=1e-6)
    assert abs(got - np.sin(1.0)) / np.sin(1.0) < 0.01


def test_frac_deriv_left_rejects_zero_gap():
    with pytest.raises(ValueError):
        fracint.frac_deriv_left(_linear_path(), 0.5, 0.5, 0.5)


def test_frac_deriv_right_constant_is_zero():
    om = paths.SampledPath(0.0, 1 / 32, 4.0 * np.ones(33))
    assert fracint.frac_deriv_right(om, 0.5, 0.0, 1.0)[0] == 0.0


def test_frac_deriv_right_linear():
    # closed form for omega(q) = q: -(t-r)^alpha / Gamma(1+alpha); magnitude
    # 2/sqrt(pi) at r=0, t=1, alpha=0.5
    got = fracint.frac_deriv_right(_linear_path(), 0.5, 0.0, 1.0)[0]
    assert abs(got) == pytest.approx(2.0 / np.sqrt(np.pi), rel=1e-12)
    assert got == pytest.approx(-1.0 / gamma(1.5), rel=1e-12)


def test_frac_deriv_right_quadratic_oracle():
    # omega(q) = q^2, r = 0.25, t = 1, alpha = 0.5: quadrature oracle
    # (scipy.integrate.quad on the defining integral) = -0.9772050238058516.
    # The only error is piecewise-linear interpolation of q^2, which the
    # singular kernel amplifies to O(dt^{3/2}).
    errs = {}
    for n in (512, 4096):
        tt = np.linspace(0.0, 1.0, n + 1)
        om = paths.SampledPath(0.0, tt[1], tt**2)
        got = fracint.frac_deriv_right(om, 0.5, 0.25, 1.0)[0]
        errs[n] = abs(got - (-0.9772050238058516))
    assert errs[4096] < 1e-5
    assert errs[4096] < errs[512] / 8.0  # observed rate ~ dt^{3/2}


def test_frac_deriv_right_fbm_envelope():
    # |D^{1-a} omega[r]| <= c |||omega|||_{b'} (t-r)^{a+b'-1} with
    # c = (1 + (1-a)/(a+b'-1)) / Gamma(a)
    om = paths.sample_fbm_1d(0.75, 128, 1 / 128, 31)
    a, bp = PP.alpha, PP.beta_prime
    wnorm = paths.holder_seminorm(om, bp)
    c = (1.0 + (1.0 - a) / (a + bp - 1.0)) / gamma(a)
    for k in range(0, 128, 9):
        r = k / 128
        got = abs(fracint.frac_deriv_right(om, a, r, 1.0)[0])
        assert got <= c * wnorm * (1.0 - r) ** (a + bp - 1.0) * (1 + 1e-12)


# ------------------------------------------------------- midpoint sweeps

ALPHAS = [0.3, 0.5, 0.7]


def _random_paths(n=96, m=3):
    # random-walk columns of Hölder size, rounded to multiples of 2^-30 so
    # that adding an offset up to 1e4 (< 2^14) is exact in binary64
    rng = np.random.default_rng(1)
    dt = 1.0 / n
    g = np.cumsum(rng.standard_normal((n + 1, m)), axis=0) * dt**0.75
    return np.round(g * 2.0**30) / 2.0**30, dt


def _refined(vals):
    # insert linear midpoints: the piecewise-linear interpolant is unchanged
    # and every cell midpoint of the coarse grid becomes a node
    fine = np.empty((2 * vals.shape[0] - 1,) + vals.shape[1:])
    fine[::2] = vals
    fine[1::2] = 0.5 * (vals[:-1] + vals[1:])
    return fine


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_frac_deriv_left_mid_matches_nodewise_oracle(alpha):
    vals, dt = _random_paths()
    n = vals.shape[0] - 1
    got = fracint.frac_deriv_left_mid(vals, dt, alpha, 1.0 / gamma(1.0 - alpha))
    fine = fracint.IntegrandPath(0.0, dt / 2, _refined(vals))  # diagonal lift
    ref = np.array(
        [np.diag(fracint.frac_deriv_left(fine, alpha, 0.0, (p + 0.5) * dt)) for p in range(n)]
    )
    assert got.shape == (n, vals.shape[1])
    assert _rel_err(got, ref) <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_frac_deriv_right_mid_matches_nodewise_oracle(alpha):
    vals, dt = _random_paths()
    n = vals.shape[0] - 1
    got = fracint.frac_deriv_right_mid(vals, dt, alpha, 1.0 / gamma(alpha))
    fine = paths.SampledPath(0.0, dt / 2, _refined(vals))
    ref = np.array(
        [fracint.frac_deriv_right(fine, alpha, (p + 0.5) * dt, n * dt) for p in range(n)]
    )
    assert got.shape == (n, vals.shape[1])
    assert _rel_err(got, ref) <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_frac_deriv_mid_linear_closed_forms(alpha):
    # omega(t) = t: D_left[r] = r^{1-alpha}/Gamma(2-alpha) and
    # D_right[r] = -(T-r)^alpha/Gamma(1+alpha), exact for linear data
    n, T = 200, 1.0
    dt = T / n
    lin = (dt * np.arange(n + 1))[:, None]
    r = (np.arange(n) + 0.5) * dt
    left = fracint.frac_deriv_left_mid(lin, dt, alpha, 1.0 / gamma(1.0 - alpha))
    right = fracint.frac_deriv_right_mid(lin, dt, alpha, 1.0 / gamma(alpha))
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
    grec_r = 1.0 / gamma(alpha)
    assert np.array_equal(
        fracint.frac_deriv_right_mid(vals + offset, dt, alpha, grec_r),
        fracint.frac_deriv_right_mid(vals, dt, alpha, grec_r),
    )
    grec_l = 1.0 / gamma(1.0 - alpha)
    moved = fracint.frac_deriv_left_mid(
        vals + offset, dt, alpha, grec_l
    ) - fracint.frac_deriv_left_mid(vals, dt, alpha, grec_l)
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
    # defect against the exact composite value shrinks under refinement
    defects = {}
    for n in (64, 256):
        om = paths.sample_fbm_1d(0.75, n, 1.0 / n, 99)
        gr = fracint.IntegrandPath(0.0, om.dt, np.cos(om.times))
        ac = fracint.pathwise_integral(gr, om, PP)[0]
        aw = fracint.pathwise_integral_window(gr, om, PP)[0]
        defects[n] = abs(ac - aw)
    assert defects[256] < defects[64]


def test_parameter_chain_rejected():
    om = _linear_path()
    g = fracint.IntegrandPath.constant([[1.0]], om)
    with pytest.raises(TypeError):
        fracint.pathwise_integral(g, om, 0.5)
    with pytest.raises(ValueError):
        fracint.pathwise_integral(g, om, PP, 0.3, 0.3)
    with pytest.raises(ValueError):
        paths.HolderParams(alpha=0.56)  # outside (1-beta', beta)
