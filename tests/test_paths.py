import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughdyn import fracint, heat, paths, solver
from roughdyn import io as rdio
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
def test_sampler_map_reproduces_covariance(hurst):
    n, dt = 128, 1.0 / 128
    sqrt_eigs = paths._sqrt_eigs(hurst, n, dt)
    A = paths._fbm_from_normals(sqrt_eigs, np.eye(4 * n))[:, 1:].T
    tt = dt * np.arange(1, n + 1)
    cov = paths.fbm_covariance(tt[:, None], tt[None, :], hurst)
    assert np.max(np.abs(A @ A.T - cov)) < 1e-10
    # A is the map sample_fbm_1d applies to its seeded normals
    z = np.random.default_rng(np.random.SeedSequence(5)).standard_normal(4 * n)
    path = paths.sample_fbm_1d(hurst, n, dt, 5).values[:, 0]
    assert path[0] == 0.0
    assert np.allclose(path[1:], A @ z, rtol=0, atol=1e-12)


def _fgn_autocovariance(hurst, n, dt):
    # written out here, independent of the library
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * dt**h2 * ((k + 1) ** h2 - 2 * k**h2 + np.abs(k - 1) ** h2)


@pytest.mark.parametrize("n", [256, 4096, 65536])
@pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
def test_circulant_embedding_nonnegative_and_exact(hurst, n):
    dt = 1.0 / n
    eigs = paths._circulant_eigenvalues(hurst, n, dt)
    assert eigs.shape == (2 * n,)
    assert np.all(eigs >= 0.0)
    gamma = _fgn_autocovariance(hurst, n, dt)
    row = np.fft.ifft(eigs).real
    # first row of the circulant: gamma(0..n), then gamma(n-1..1)
    assert np.max(np.abs(row[: n + 1] - gamma)) < 1e-12 * gamma[0]
    assert np.max(np.abs(row[n + 1 :] - gamma[n - 1 : 0 : -1])) < 1e-12 * gamma[0]


def test_sampler_rejects_bad_grid():
    for args in ((0.0, 8, 0.125), (1.0, 8, 0.125), (0.75, 0, 0.125), (0.75, 8, 0.0)):
        with pytest.raises(ValueError):
            paths.sample_fbm_1d(*args, 0)


def test_fbm_variance_and_cross_covariance_monte_carlo():
    n, dt, m = 4, 0.5, 4000
    samples = np.array(
        [paths.sample_fbm_1d(0.75, n, dt, [9, k]).values[:, 0] for k in range(m)]
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
        [paths.sample_fbm_1d(0.5, 4, 0.25, [11, k]).values[:, 0] for k in range(m)]
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


def test_grid_rule_shared_by_driver_and_integrand():
    # one grid rule for both path types: the same times are nodes, the
    # same windows exist, and a window is a view of the same type
    dt = 1 / 64
    om = paths.SampledPath(0.25, dt, paths.sample_fbm_1d(0.75, 64, dt, 5).values)
    g = fracint.IntegrandPath(om.t0, dt, np.cos(om.times))
    probes = [om.t0 + k * dt for k in range(-2, 67)]
    probes += [om.t0 + (k + 0.5) * dt for k in range(-1, 65)]
    probes += [om.t0 + 7 * dt * (1 + 1e-13), om.t0 + 7 * dt * (1 + 1e-6)]

    def outcome(path, fn):
        try:
            return fn(path)
        except ValueError:
            return None

    nodes = [outcome(om, lambda p: p.index_of(t)) for t in probes]
    assert nodes == [outcome(g, lambda p: p.index_of(t)) for t in probes]
    # every node, plus the one within the node tolerance of node 7
    assert sorted(k for k in nodes if k is not None) == sorted([*range(65), 7])
    windows = [
        (None, None, True),
        (om.t0, om.t_end, True),
        (om.t0 + 8 * dt, om.t0 + 40 * dt, True),
        (None, om.t0 + 17 * dt, True),
        (om.t0 + dt, None, True),
        (om.t0 + 3 * dt, om.t0 + 3 * dt, False),  # no step
        (om.t0 + 9 * dt, om.t0 + 2 * dt, False),  # reversed
        (om.t0 + 0.5 * dt, None, False),  # off the grid
    ]
    for s, t, exists in windows:
        wo = outcome(om, lambda p: p.window(s, t))
        wg = outcome(g, lambda p: p.window(s, t))
        assert (wo is not None) == (wg is not None) == exists
        if not exists:
            continue
        assert type(wo) is paths.SampledPath and type(wg) is fracint.IntegrandPath
        assert (wo.t0, wo.n_nodes) == (wg.t0, wg.n_nodes)
        assert np.shares_memory(wo.values, om.values)
        assert np.shares_memory(wg.values, g.values)
        assert paths.holder_seminorm(om, 0.6, s, t) == paths.holder_seminorm(wo, 0.6)
    whole = om.window()
    assert (whole.t0, whole.dt) == (om.t0, om.dt)
    assert np.array_equal(whole.values, om.values)
    assert np.array_equal(g.window().values, g.values)


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


def test_csv_roundtrip(tmp_path):
    om = paths.sample_qfbm(
        SpectralOperator(np.array([1.0, 4.0]), np.array([1.0, 0.5])),
        0.75,
        16,
        1 / 16,
        2,
    )
    rdio.write_series(str(tmp_path / "om.csv"), om, {"seed": 2})
    with open(tmp_path / "om.csv", newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    body = np.array(rows[1:], dtype=float)
    assert np.array_equal(body[:, 1:], om.values)
    assert np.diff(body[:, 0]) == pytest.approx(om.dt)


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


def _public_pair_sup(vals, dt, beta, max_gap):
    """The pair sup through the public function that serves max_gap."""
    u = paths.SampledPath(0.0, dt, vals)
    if np.isinf(max_gap):
        return paths.holder_seminorm(u, beta)
    return paths.wiener_modulus(u, beta, max_gap)


def _weighted_norm(vals, dt, beta, rho):
    return paths.weighted_holder_norm(paths.SampledPath(0.0, dt, vals), beta, rho)


@pytest.mark.parametrize("offset", [1e2, 1e4])
def test_holder_pair_sup_constant_offset_invariant(offset):
    vals = _dyadic_smooth_path()
    dt = 1.0 / 64
    base = _public_pair_sup(vals, dt, 0.65, np.inf)
    shifted = _public_pair_sup(vals + offset, dt, 0.65, np.inf)
    assert base > 0.0
    assert shifted == pytest.approx(base, rel=1e-12)
    assert base == pytest.approx(_brute_pair_sup(vals, dt, 0.65), rel=1e-12)


@pytest.mark.parametrize("offset", [1e2, 1e4])
def test_weighted_holder_sup_constant_offset(offset):
    # the sup term moves with the offset, the increment term must not:
    # compare against the brute-force sup of u + c plus the increments of u
    vals = _dyadic_smooth_path()
    dt, beta, rho = 1.0 / 64, 0.55, 3.0
    sup_v, _ = _brute_weighted_parts(vals + offset, dt, beta, rho)
    _, sup_i = _brute_weighted_parts(vals, dt, beta, rho)
    got = _weighted_norm(vals + offset, dt, beta, rho)
    assert got == pytest.approx(sup_v + sup_i, rel=1e-13)


def test_holder_sups_against_brute_force_pair_loop():
    rng = np.random.default_rng(12)
    vals = np.cumsum(rng.standard_normal((25, 3)), axis=0) * 0.2 + 5.0
    dt = 1.0 / 24
    for max_gap in (np.inf, 0.3, 1.5 * dt):
        got = _public_pair_sup(vals, dt, 0.6, max_gap)
        ref = _brute_pair_sup(vals, dt, 0.6, max_gap)
        assert got == pytest.approx(ref, rel=1e-12)
    for rho in (0.0, 4.0):
        got = _weighted_norm(vals, dt, 0.6, rho)
        ref = sum(_brute_weighted_parts(vals, dt, 0.6, rho))
        assert got == pytest.approx(ref, rel=1e-12)


# ------------------------------- Hölder sups: exact against the per-gap pass


def _per_gap_pair_sup(vals, dt, beta, max_gap=np.inf):
    # one vectorized pass per gap over the direct differences, the same
    # floating-point expression per pair as the library's pair search
    n = vals.shape[0]
    span_pow = (dt * np.arange(n)) ** beta
    best = 0.0
    for gap in range(1, n):
        if gap * dt >= max_gap:
            break
        d = vals[gap:] - vals[:-gap]
        q = float(np.sqrt(np.einsum("ij,ij->i", d, d).max())) / span_pow[gap]
        best = max(best, q)
    return best


def _per_gap_weighted_sup(vals, dt, beta, rho):
    n = vals.shape[0]
    span_pow = (dt * np.arange(n)) ** beta
    decay = np.exp(-rho * dt * np.arange(n))
    sup_val = float(np.max(decay * np.sqrt(np.einsum("ij,ij->i", vals, vals))))
    sup_inc = 0.0
    for gap in range(1, n):
        d = vals[gap:] - vals[:-gap]
        dn = np.sqrt(np.einsum("ij,ij->i", d, d))
        q = float(np.max(span_pow[: n - gap] * decay[gap:] * dn)) / span_pow[gap]
        sup_inc = max(sup_inc, q)
    return sup_val + sup_inc


def _assert_sups_exact(vals, dt, beta, max_gaps=(np.inf,), rhos=(0.0, 1.0, 64.0)):
    for max_gap in max_gaps:
        got = paths._holder_pair_sup(vals, dt, beta, max_gap)
        assert got == _per_gap_pair_sup(vals, dt, beta, max_gap), max_gap
    for rho in rhos:
        got = _weighted_norm(vals, dt, beta, rho)
        assert got == _per_gap_weighted_sup(vals, dt, beta, rho), rho


def test_pair_search_exact_on_heat_residual():
    # a Picard residual T(u) - u of the 16-mode heat problem at n = 1025,
    # the input the solver's stopping test sees
    n = 1024
    spec = heat.build_heat_problem(params=paths.HolderParams(), n_modes=16, m_phys=64)
    om = paths.sample_qfbm(spec.operator, 0.75, n, 1.0 / n, 11)
    u0 = np.zeros(16)
    u0[0] = 1.0
    start = paths.SampledPath(0.0, om.dt, np.tile(u0, (n + 1, 1)))
    u = solver.apply_mild(start, om, u0, spec)
    res = solver.apply_mild(u, om, u0, spec).values - u.values
    assert res.shape == (n + 1, 16) and np.abs(res).max() > 0.0
    _assert_sups_exact(res, om.dt, 0.55, max_gaps=(np.inf, 100.5 / n))


def test_pair_search_exact_on_long_driver():
    # n = 4097 nodes: 256 blocks, so most block pairs are pruned; the modulus
    # windows end mid-block
    n = 4096
    op = heat.build_heat_problem(params=paths.HolderParams(), n_modes=16).operator
    om = paths.sample_qfbm(op, 0.75, n, 1.0 / n, 3)
    assert paths.holder_seminorm(om, 0.65) == _per_gap_pair_sup(om.values, om.dt, 0.65)
    for delta in (40.5 / n, 200.0 / n):
        got = paths.wiener_modulus(om, 0.65, delta)
        assert got == _per_gap_pair_sup(om.values, om.dt, 0.65, delta)


def test_pair_search_exact_on_linear_ramp():
    # the max sits at the widest pair, far from the diagonal blocks
    n = 1001
    vals = 3.0 + np.outer(np.arange(n), [1e-3, -2e-3, 5e-4])
    _assert_sups_exact(vals, 1.0 / (n - 1), 0.6, max_gaps=(np.inf, 0.5, 0.0301))
    lin = paths.SampledPath(0.0, 1.0 / (n - 1), np.arange(n) / (n - 1))
    assert paths.holder_seminorm(lin, 0.5) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 17, 31, 33, 500])
def test_pair_search_exact_on_small_and_ragged_grids(n):
    # n not a multiple of the block size, down to a single pair
    rng = np.random.default_rng(n)
    vals = np.cumsum(rng.standard_normal((n, 3)), axis=0) - 7.0
    dt = 1.0 / max(n - 1, 1)
    _assert_sups_exact(vals, dt, 0.55, max_gaps=(np.inf, 1.5 * dt, 16.5 * dt, 0.4))


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_pair_search_exact_under_large_offset(offset):
    # the dyadic path: increments of u + c are those of u bit for bit, so
    # the seminorm must not move with the offset, while the bound's centre
    # term grows with it
    n = 1024
    vals = _dyadic_smooth_path(n=n, m=2)
    dt = 1.0 / n
    base = paths._holder_pair_sup(vals, dt, 0.65, np.inf)
    assert paths._holder_pair_sup(vals + offset, dt, 0.65, np.inf) == base
    _assert_sups_exact(vals + offset, dt, 0.65, max_gaps=(np.inf, 64.5 * dt))


def _tight_box_path(offset, n=2048, beta=0.6, step=0.1):
    # A path on which the box bound of the block pair holding the max is
    # tight, and a near tie is found first.  Blocks hold 16 nodes here.
    # - Block 2 is flat at the offset; block 3 steps up by `step` at its
    #   first node and comes back down in small steps.  The max is that
    #   gap-1 step, and its block-pair bound equals it up to the rounding
    #   of block 3's box centre.
    # - Block 0 is a 12-gap ramp whose rise is the largest increment at
    #   this offset with a quotient below the max, and its bound is the
    #   largest of all.
    # - A triangle wave from block 5 on gives about 240 block pairs with
    #   bounds between the two and small values, so the max is evaluated in
    #   a later batch than the near tie, after pruning has started.
    dt = 1.0 / (n - 1)
    c = (dt * np.arange(n)) ** beta
    u = np.full(n, offset)
    u[48:56] = offset + step
    u[56:64] = offset + step * np.arange(7, -1, -1) / 8
    top = (u[48] - u[47]) / c[1]
    u[80:] = offset + 1.2 * step * np.abs((np.arange(n - 80) + 16) % 32 - 15.5) / 15.5
    ulp = np.spacing(offset)
    rise = np.floor(top * c[12] / ulp) * ulp
    while (offset + rise) - offset != rise or rise / c[12] >= top:
        rise -= ulp
    u[:13] = offset + rise * np.arange(12, -1, -1) / 12
    return u[:, None], dt, beta, top


def test_pair_search_exact_on_tight_box_bounds():
    # dropping a radius, the gap of adjacent blocks or the absolute term
    # for the rounding of the box centres prunes the max here
    for k in range(6):
        vals, dt, beta, top = _tight_box_path(1e4 + k / 7)
        for v in (vals, vals[::-1]):
            assert _per_gap_pair_sup(v, dt, beta) == top
            assert paths._holder_pair_sup(v, dt, beta, np.inf) == top


def _tight_weighted_path(n=2048, m=16, beta=0.6, rho=16.0):
    # The weighted analogue of _tight_box_path, without an offset.  Blocks
    # hold 16 nodes, and a batch holds 8 block pairs at 16 modes.
    # - A unit step at node 144, the first of block 9, after the flat block
    #   8: its term is the max, and the bound of block pair (8, 9) equals
    #   it, because the largest (j dt)^beta of block 8 and the largest
    #   e^{-rho k dt} of block 9 sit at the two nodes of the step.
    # - A step at node 80 whose term is 0.95 of the max; block 5 then rises
    #   by a fifth, so its bound is the largest of all.
    # - Four tents over blocks 16-23 give eight block pairs with bounds of
    #   1.07 times the max and small values, so the max is evaluated in a
    #   later batch than the near tie.
    dt = 1.0 / (n - 1)
    a = (dt * np.arange(n)) ** beta
    b = np.exp(-rho * dt * np.arange(n))
    u = np.zeros((n, m))
    u[144:160, 0] = 1.0
    u[160:224, 0] = np.linspace(1.0, 0.0, 64)
    top = a[143] * b[144] / a[1]
    rise = 0.95 * top * a[1] / (a[79] * b[80])
    u[80:96, 0] = rise * np.linspace(1.0, 1.2, 16)
    u[96:128, 0] = rise * np.linspace(1.2, 0.0, 32)
    for s0 in range(256, 384, 32):
        tent = 1.07 * top * a[1] / (a[s0 + 31] * b[s0])
        u[s0 : s0 + 16, 0] = tent * np.linspace(0.0, 1.0, 16)
        u[s0 + 16 : s0 + 32, 0] = tent * np.linspace(1.0, 0.0, 16)
    return u, dt, beta, rho


def test_weighted_pair_search_exact_on_tight_bounds():
    # bounding a block's weights by their smallest values instead of their
    # largest prunes the max here
    vals, dt, beta, rho = _tight_weighted_path()
    got = _weighted_norm(vals, dt, beta, rho)
    assert got == _per_gap_weighted_sup(vals, dt, beta, rho)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.integers(2, 300),
    st.sampled_from([1, 3]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1.0, -1e3, 1e6]),
    st.floats(0.0, 1.2),
)
def test_property_pair_search_matches_per_gap_pass(n, m, seed, offset, gap_frac):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.standard_normal((n, m)), axis=0) * 1e-2 + offset
    dt = 1.0 / (n - 1)
    _assert_sups_exact(vals, dt, 0.6, max_gaps=(np.inf, gap_frac), rhos=(0.0, 64.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_node_gives_nan(bad):
    vals = np.linspace(0.0, 1.0, 65)
    vals[40] = bad
    u = paths.SampledPath(0.0, 1.0 / 64, vals)
    assert np.isnan(paths.holder_seminorm(u, 0.6))
    assert np.isnan(paths.wiener_modulus(u, 0.6, 0.25))
    assert np.isnan(paths.weighted_holder_norm(u, 0.6, 1.0))
    with pytest.warns(UserWarning):
        assert np.isnan(paths.wiener_modulus(u, 0.6, 0.5 / 64))
    # outside the window the seminorm does not look
    assert np.isfinite(paths.holder_seminorm(u, 0.6, 0.0, 0.5))


def test_write_series_matches_csv_writer_reference(tmp_path):
    vals = np.array(
        [
            [0.0, -0.0, 1.0],
            [np.nan, np.inf, -np.inf],
            [5e-324, 1e300, -1e-300],
            [1.0 / 3.0, -2.5, 123456789.123456789],
        ]
    )
    u = paths.SampledPath(0.1, 1.0 / 3.0, vals)
    config = {"seed": 3}
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, indent=1).encode())
    ref = io.StringIO()
    ref.write(f"# config_hash: {digest.hexdigest()[:16]}\n")
    writer = csv.writer(ref)
    writer.writerow(["t"] + [f"mode_{i + 1}" for i in range(u.n_modes)])
    for k, t in enumerate(u.times):
        writer.writerow([format(t, ".17g")] + [format(v, ".17g") for v in vals[k]])
    rdio.write_series(str(tmp_path / "u.csv"), u, config)
    with open(tmp_path / "u.csv", newline="") as fh:
        assert fh.read() == ref.getvalue()
