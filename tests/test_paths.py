import io

import numpy as np
import pytest

from roughdyn import paths
from roughdyn.spectral import SpectralOperator


def test_holder_params_chain_enforced():
    paths.HolderParams()  # defaults valid
    with pytest.raises(ValueError):
        paths.HolderParams(hurst=0.6, beta=0.65)  # beta > ... > H broken
    with pytest.raises(ValueError):
        paths.HolderParams(alpha=0.6)  # alpha >= beta
    with pytest.raises(ValueError):
        paths.HolderParams(alpha=0.3)  # alpha <= 1 - beta_prime


def test_covariance_formula_values():
    # cov(2,1) = 0.5(2^{1.5} + 1 - 1) = sqrt(2) for H = 0.75
    assert paths.fbm_covariance(2.0, 1.0, 0.75) == pytest.approx(np.sqrt(2.0))
    assert paths.fbm_covariance(1.0, 1.0, 0.75) == pytest.approx(1.0)


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
def test_cholesky_reproduces_covariance(hurst):
    n, dt = 128, 1.0 / 128
    L = paths.fbm_cholesky_factor(hurst, n, dt)
    tt = dt * np.arange(1, n + 1)
    cov = paths.fbm_covariance(tt[:, None], tt[None, :], hurst)
    assert np.max(np.abs(L @ L.T - cov)) < 1e-10


def test_fbm_variance_and_cross_covariance_monte_carlo():
    n, dt, m = 4, 0.5, 4000
    samples = np.array(
        [paths.sample_fbm_1d(0.75, n, dt, [9, k]).scalar() for k in range(m)]
    )
    # Var B(1) = 1; SE of the variance estimator of a Gaussian is ~ var*sqrt(2/m)
    v = np.var(samples[:, 2])
    assert abs(v - 1.0) < 3.0 * np.sqrt(2.0 / m)
    # cov(B(2), B(1)) = sqrt(2) for H = 0.75
    c = np.mean(samples[:, 4] * samples[:, 2])
    assert abs(c - np.sqrt(2.0)) < 4.0 * np.sqrt(2.0 / m) * np.sqrt(2.0) * 2.0


def test_bm_increments_uncorrelated():
    m = 4000
    samples = np.array(
        [paths.sample_fbm_1d(0.5, 4, 0.25, [11, k]).scalar() for k in range(m)]
    )
    inc1 = samples[:, 1] - samples[:, 0]
    inc2 = samples[:, 3] - samples[:, 2]
    corr = np.corrcoef(inc1, inc2)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(m)


def test_fbm_deterministic_given_seed():
    a = paths.sample_fbm_1d(0.75, 32, 1 / 32, 123)
    b = paths.sample_fbm_1d(0.75, 32, 1 / 32, 123)
    assert np.array_equal(a.values, b.values)
    assert a.values[0, 0] == 0.0


def test_qfbm_modes_and_trace():
    op = SpectralOperator(np.array([1.0, 4.0, 9.0]), np.array([1.0, 0.0, 0.0]))
    p = paths.sample_qfbm(op, 0.7, 16, 1 / 16, 5)
    assert np.all(p.values[:, 1:] == 0.0)
    assert np.any(p.values[:, 0] != 0.0)

    op2 = SpectralOperator(
        np.array([1.0, 4.0, 9.0]), np.array([0.5, 0.25, 0.125])
    )
    m = 3000
    terminal = np.array(
        [
            paths.sample_qfbm(op2, 0.7, 4, 0.25, k).values[-1]
            for k in range(m)
        ]
    )
    e2 = np.mean(np.sum(terminal**2, axis=1))
    assert abs(e2 - 0.875) < 3.0 * np.std(np.sum(terminal**2, axis=1)) / np.sqrt(m)
    corr = np.corrcoef(terminal[:, 0], terminal[:, 1])[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(m)


def test_qfbm_mode_seeds_stable_under_mode_count():
    op3 = SpectralOperator(np.ones(3), np.ones(3))
    op5 = SpectralOperator(np.ones(5), np.ones(5))
    p3 = paths.sample_qfbm(op3, 0.75, 8, 0.125, 77)
    p5 = paths.sample_qfbm(op5, 0.75, 8, 0.125, 77)
    assert np.array_equal(p3.values, p5.values[:, :3])


def test_qfbm_zero_trace_warns():
    op = SpectralOperator(np.array([1.0]), np.array([0.0]))
    with pytest.warns(UserWarning):
        p = paths.sample_qfbm(op, 0.75, 8, 0.125, 0)
    assert np.all(p.values == 0.0)


def test_wiener_shift_flow_property():
    om = paths.sample_fbm_1d(0.75, 64, 1 / 64, 3)
    assert np.array_equal(paths.wiener_shift(om, 0).values, om.values)
    ab = paths.wiener_shift(paths.wiener_shift(om, 16), 8)
    direct = paths.wiener_shift(om, 24)
    # composition agrees up to one rounding of the re-based subtraction
    assert np.allclose(ab.values, direct.values, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        paths.wiener_shift(om, 64)
    with pytest.raises(ValueError):
        paths.wiener_shift(om, 0.5)


def test_wiener_shift_linear_invariant():
    tt = np.linspace(0, 1, 33)
    om = paths.SampledPath(0.0, tt[1], 2.0 * tt)
    sh = paths.wiener_shift(om, 8)
    assert np.allclose(sh.values[:, 0], 2.0 * tt[:25])


def test_holder_seminorm_examples():
    tt = np.linspace(0, 1, 65)
    const = paths.SampledPath(0.0, tt[1], np.ones_like(tt))
    assert paths.holder_seminorm(const, 0.6) == 0.0
    lin = paths.SampledPath(0.0, tt[1], tt)
    # sup (t-s)^{1-beta} attained at the full span
    assert paths.holder_seminorm(lin, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        paths.holder_seminorm(lin, 0.5, 0.5, 0.5)


def test_holder_seminorm_monotone_under_refinement():
    # refining by exact conditional midpoints can only add candidate pairs
    om_fine = paths.sample_fbm_1d(0.75, 256, 1 / 256, 21)
    coarse = paths.SampledPath(0.0, 1 / 64, om_fine.values[::4])
    assert paths.holder_seminorm(om_fine, 0.55) >= paths.holder_seminorm(
        coarse, 0.55
    )


def test_weighted_norm_against_brute_force():
    rng = np.random.default_rng(4)
    vals = np.cumsum(rng.standard_normal((33, 2)), axis=0) * 0.1
    u = paths.SampledPath(0.0, 1 / 32, vals)
    beta, rho = 0.6, 10.0
    got = paths.weighted_holder_norm(u, beta, rho)
    tt = u.times
    sup_v = max(
        np.exp(-rho * tt[k]) * np.linalg.norm(vals[k]) for k in range(33)
    )
    sup_i = max(
        tt[j] ** beta
        * np.exp(-rho * tt[k])
        * np.linalg.norm(vals[k] - vals[j])
        / (tt[k] - tt[j]) ** beta
        for j in range(33)
        for k in range(j + 1, 33)
    )
    assert got == pytest.approx(sup_v + sup_i, rel=1e-12)


def test_weighted_norm_rho_monotone_and_equivalent():
    u = paths.sample_fbm_1d(0.75, 64, 1 / 64, 8)
    n0 = paths.weighted_holder_norm(u, 0.55, 0.0)
    n5 = paths.weighted_holder_norm(u, 0.55, 5.0)
    assert n5 <= n0
    assert n5 >= np.exp(-5.0 * 1.0) * n0


def test_weighted_norm_constant_path():
    u = paths.SampledPath(0.0, 0.25, 3.0 * np.ones(5))
    assert paths.weighted_holder_norm(u, 0.6, 0.0) == pytest.approx(3.0)


def test_wiener_modulus_examples():
    tt = np.linspace(0, 1, 257)
    const = paths.SampledPath(0.0, tt[1], np.ones_like(tt))
    assert paths.wiener_modulus(const, 0.5, 0.25) == 0.0
    lin = paths.SampledPath(0.0, tt[1], tt)
    # sup over gaps < 0.25 of gap^{0.5}: attained at the largest grid gap
    assert paths.wiener_modulus(lin, 0.5, 0.25) == pytest.approx(0.5, abs=0.01)
    m1 = paths.wiener_modulus(lin, 0.5, 0.1)
    m2 = paths.wiener_modulus(lin, 0.5, 0.4)
    assert m1 <= m2
    with pytest.warns(UserWarning):
        assert paths.wiener_modulus(lin, 0.5, tt[1] / 2) == 0.0


def test_csv_roundtrip():
    om = paths.sample_qfbm(
        SpectralOperator(np.array([1.0, 4.0]), np.array([1.0, 0.5])),
        0.75,
        16,
        1 / 16,
        2,
    )
    buf = io.StringIO(paths.csv_roundtrip_string(om, ["config_hash: abc"]))
    back = paths.path_from_csv(buf)
    assert np.array_equal(back.values, om.values)
    assert back.dt == pytest.approx(om.dt)


# ------------------------------------------- Hölder sups: direct differences


def _dyadic_smooth_path(n=64, m=2, size=1e-3):
    # smooth path of size ~1e-3 rounded to multiples of 2^-30: adding an
    # offset up to 1e4 (< 2^14) is then exact in binary64, so the exact
    # increments of u + c equal those of u bit for bit
    tt = np.linspace(0.0, 1.0, n + 1)
    raw = size * np.column_stack([np.sin(3.0 * (i + 1) * tt) for i in range(m)])
    return np.round(raw * 2.0**30) / 2.0**30


def _brute_pair_sup(vals, dt, beta, max_gap=np.inf):
    n = vals.shape[0]
    return max(
        [
            np.linalg.norm(vals[k] - vals[j]) / ((k - j) * dt) ** beta
            for j in range(n)
            for k in range(j + 1, n)
            if (k - j) * dt < max_gap
        ],
        default=0.0,
    )


def _brute_weighted_parts(vals, dt, beta, rho):
    n = vals.shape[0]
    tt = dt * np.arange(n)
    sup_v = max(np.exp(-rho * tt[k]) * np.linalg.norm(vals[k]) for k in range(n))
    sup_i = max(
        tt[j] ** beta
        * np.exp(-rho * tt[k])
        * np.linalg.norm(vals[k] - vals[j])
        / (tt[k] - tt[j]) ** beta
        for j in range(n)
        for k in range(j + 1, n)
    )
    return sup_v, sup_i


class _PublicRoute:
    """The array-level sups reached through the public SampledPath functions."""

    @staticmethod
    def holder_pair_sup(vals, dt, beta, max_gap):
        u = paths.SampledPath(0.0, dt, vals)
        if np.isinf(max_gap):
            return paths.holder_seminorm(u, beta)
        return paths.wiener_modulus(u, beta, max_gap)

    @staticmethod
    def weighted_holder_sup(vals, dt, beta, rho):
        return paths.weighted_holder_norm(paths.SampledPath(0.0, dt, vals), beta, rho)


class _ArrayRoute:
    """The array-level sups called directly on the node values."""

    holder_pair_sup = staticmethod(paths._holder_pair_sup)
    weighted_holder_sup = staticmethod(paths._weighted_holder_sup)


# "numpy": the array helpers themselves; "active": the public functions that
# every caller goes through (window slicing, delta and rho checks included)
_ROUTES = pytest.mark.parametrize(
    "backend", [_ArrayRoute, _PublicRoute], ids=["numpy", "active"]
)


@_ROUTES
@pytest.mark.parametrize("offset", [1e2, 1e4])
def test_holder_pair_sup_constant_offset_invariant(backend, offset):
    vals = _dyadic_smooth_path()
    dt = 1.0 / 64
    base = backend.holder_pair_sup(vals, dt, 0.65, np.inf)
    shifted = backend.holder_pair_sup(vals + offset, dt, 0.65, np.inf)
    assert base > 0.0
    assert shifted == pytest.approx(base, rel=1e-12)
    assert base == pytest.approx(_brute_pair_sup(vals, dt, 0.65), rel=1e-12)


@_ROUTES
@pytest.mark.parametrize("offset", [1e2, 1e4])
def test_weighted_holder_sup_constant_offset(backend, offset):
    # the sup term moves with the offset, the increment term must not:
    # compare against the brute-force sup of u + c plus the increments of u
    vals = _dyadic_smooth_path()
    dt, beta, rho = 1.0 / 64, 0.55, 3.0
    sup_v, _ = _brute_weighted_parts(vals + offset, dt, beta, rho)
    _, sup_i = _brute_weighted_parts(vals, dt, beta, rho)
    got = backend.weighted_holder_sup(vals + offset, dt, beta, rho)
    assert got == pytest.approx(sup_v + sup_i, rel=1e-13)


@_ROUTES
def test_holder_sups_against_brute_force_pair_loop(backend):
    rng = np.random.default_rng(12)
    vals = np.cumsum(rng.standard_normal((25, 3)), axis=0) * 0.2 + 5.0
    dt = 1.0 / 24
    for max_gap in (np.inf, 0.3, 1.5 * dt):
        got = backend.holder_pair_sup(vals, dt, 0.6, max_gap)
        ref = _brute_pair_sup(vals, dt, 0.6, max_gap)
        assert got == pytest.approx(ref, rel=1e-12)
    for rho in (0.0, 4.0):
        got = backend.weighted_holder_sup(vals, dt, 0.6, rho)
        ref = sum(_brute_weighted_parts(vals, dt, 0.6, rho))
        assert got == pytest.approx(ref, rel=1e-12)
