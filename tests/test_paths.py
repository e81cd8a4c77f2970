import csv
import fractions
import functools
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughdyn import fracint, heat, paths, solver
from roughdyn import io as rdio
from roughdyn.spectral import SpectralOperator, laplacian_1d


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


@pytest.mark.parametrize("seed", [0, 3, 2**32 + 5, 2**64 - 1])
def test_streams_reuse_no_driver_modes_normals(seed):
    # driver mode i draws default_rng([seed, i]), as sample_fbm_1d does
    op = SpectralOperator(np.ones(3), np.ones(3))
    qfbm = paths.sample_qfbm(op, 0.75, 8, 0.125, seed).values
    for i in range(3):
        mode = paths.sample_fbm_1d(0.75, 8, 0.125, [seed, i]).values[:, 0]
        assert np.array_equal(qfbm[:, i], mode)
    # every consumer key, with and without sub-keys, against driver modes
    # 0..4095 and against each other
    seen = {
        np.random.default_rng([seed, i]).standard_normal(64).tobytes()
        for i in range(4096)
    }
    assert len(seen) == 4096
    subs = [()] + [(k,) for k in range(8)]
    keys = [(c, *sub) for c in paths._STREAMS for sub in subs]
    for key in keys:
        seen.add(paths.stream(seed, *key).standard_normal(64).tobytes())
    assert len(seen) == 4096 + len(keys)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**100 + 12345])
def test_stream_rejects_seeds_outside_64_bits(seed):
    # past 2^96 a child's entropy can equal a driver mode's list
    with pytest.raises(ValueError):
        paths.stream(seed, "starts")


def _davies_harte_reference(hurst, n, dt, seed, q):
    """sample_qfbm's path written out mode by mode, with no library code:
    the circulant factors of the fGn autocovariance, each mode's normals
    from SeedSequence([seed, i]), one FFT per mode, the real part, a
    cumulative sum from 0 and sqrt(q_i)."""
    gamma = _fgn_autocovariance(hurst, n, dt)
    eigs = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    factors = np.sqrt(np.maximum(eigs, 0.0) / (2 * n))
    vals = np.zeros((n + 1, q.size))
    for i in np.flatnonzero(q):
        z = np.random.default_rng(np.random.SeedSequence([seed, i])).standard_normal(4 * n)
        fgn = np.fft.fft(factors * (z[: 2 * n] + 1j * z[2 * n :])).real[:n]
        vals[1:, i] = np.cumsum(fgn) * np.sqrt(q[i])
    return vals


@pytest.mark.parametrize("n", [64, 1024, 4096])
@pytest.mark.parametrize("n_modes", [1, 3, 16, 64])
def test_qfbm_is_the_davies_harte_reference_bit_for_bit(n_modes, n):
    # the modes are drawn and transformed a piece at a time (several modes
    # a piece at n = 64 and 1024, one at 4096), and a zero trace weight
    # between live modes leaves its column at 0 and shifts no piece's seeds
    q = 1.0 / np.arange(1.0, n_modes + 1) ** 2
    if n_modes > 1:
        q[n_modes // 2] = 0.0
    op = SpectralOperator(np.arange(1.0, n_modes + 1) ** 2, q)
    got = paths.sample_qfbm(op, 0.7, n, 1.0 / n, 31).values
    assert np.array_equal(got, _davies_harte_reference(0.7, n, 1.0 / n, 31, q))


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_qfbm_memory_is_the_path_and_one_piece(n):
    # past the path, the 2n circulant factors and one piece: 4n normals,
    # the 2n-point complex FFT row and n+1 path values, one mode a piece
    # past n = 2048, so 11 floats a step, and up to 128 KiB of the FFT's
    # own buffers (3n floats at n = 2^12, none at 2^14).  Drawing all 16
    # modes at once held 10x the path (5.07 MiB at n = 2^12, 81 MiB at 2^16)
    op = laplacian_1d(16)
    paths.sample_qfbm(op, 0.75, n, 1.0 / n, 2)  # FFT plan caches
    tracemalloc.start()
    try:
        path = paths.sample_qfbm(op, 0.75, n, 1.0 / n, 3).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.nbytes + 8 * 11 * (n + 1) + 8 * paths._BLOCK_FLOATS


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


@pytest.mark.parametrize(
    "horizon, too_long", [(1e-300, 1e-13), (1e-300, 1.00000001e-300), (1e20, 1.00000001e20)]
)
def test_wiener_modulus_range_is_measured_in_grid_steps(horizon, too_long):
    # the window length was padded by an absolute 1e-12 in time units, so
    # delta = 1e-13 passed on a window of length 1e-300 (and read 9.05e-19);
    # in grid steps the grid rule's relative tolerance holds at every scale
    n = 64
    u = paths.SampledPath(0.0, horizon / n, np.linspace(0.0, 1.0, n + 1) ** 2)
    for delta in (horizon, horizon * (1 + 1e-10), horizon / 3):
        got = paths.wiener_modulus(u, 0.6, delta)
        assert got == _per_gap_pair_sup(u.values, u.dt, 0.6, delta) > 0.0
    with pytest.raises(ValueError, match="window length"):
        paths.wiener_modulus(u, 0.6, too_long)


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


@functools.lru_cache(maxsize=1)
def _heat_residual(n=1024):
    # a Picard residual T(u) - u of the 16-mode heat problem at n + 1 nodes,
    # the input the solver's stopping test sees
    spec = heat.build_heat_problem(params=paths.HolderParams(), n_modes=16, m_phys=64)
    om = paths.sample_qfbm(spec.operator, 0.75, n, 1.0 / n, 11)
    u0 = np.zeros(16)
    u0[0] = 1.0
    start = paths.SampledPath(0.0, om.dt, np.tile(u0, (n + 1, 1)))
    u = solver.apply_mild(start, om, u0, spec)
    res = solver.apply_mild(u, om, u0, spec).values - u.values
    assert res.shape == (n + 1, 16) and np.abs(res).max() > 0.0
    res.flags.writeable = False
    return res, om.dt


def test_pair_search_exact_on_heat_residual():
    res, dt = _heat_residual()
    _assert_sups_exact(res, dt, 0.55, max_gaps=(np.inf, 100.5 * dt))


@pytest.mark.parametrize("seed", [3, 103])
def test_pair_search_exact_on_long_driver(seed):
    # n = 4097 nodes, the drivers workload's grid at its default and held-out
    # seeds: 456 blocks of 9 nodes, the last one padded, in 57 superblocks
    # of 8 blocks whose bounds fill one row chunk; the block pairs of the
    # surviving superblock pairs are bounded and those that survive are
    # split into 3-node sub-blocks, so most pairs are pruned at every
    # level; the modulus windows end mid-block
    n = 4096
    op = heat.build_heat_problem(params=paths.HolderParams(), n_modes=16).operator
    om = paths.sample_qfbm(op, 0.75, n, 1.0 / n, seed)
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


def _first_chunk_nodes(n):
    # nodes of the block rows in the first row chunk of block-pair bounds,
    # for n a multiple of the block size and the full gap range
    n_blocks = n // paths._MIN_BLOCK
    return paths._MIN_BLOCK * (paths._CHUNK // n_blocks)


def _tight_box_path(offset, n=2048, beta=0.6, step=0.1):
    # A path on which the box bound of the block pair holding the max is
    # tight, and a near tie lies in an earlier row chunk, so it is the best
    # term when the max's chunk is searched.  Blocks hold 8 nodes, and the
    # first row chunk holds the pairs of blocks 0-31 (nodes 0-255).
    # - Block 40 is flat at the offset; block 41 steps up by `step` at its
    #   first node and comes back down in eighths.  The max is that gap-1
    #   step, and its block-pair bound equals it up to the rounding of
    #   block 41's box centre: centre distance 9/16 step, radius 7/16 step.
    # - Nodes 0-12 are a 12-gap ramp whose rise is the largest increment at
    #   this offset with a quotient below the max: the near tie.  The last
    #   13 nodes mirror it, so the reversed path has the same near tie, and
    #   its max leaves the block with the radius for the flat one.
    dt = 1.0 / (n - 1)
    c = (dt * np.arange(n)) ** beta
    u = np.full(n, offset)
    s = 8 * 41
    assert s - 8 >= _first_chunk_nodes(n)
    u[s : s + 8] = offset + step * np.arange(8, 0, -1) / 8
    top = (u[s] - u[s - 1]) / c[1]
    ulp = np.spacing(offset)
    rise = np.floor(top * c[12] / ulp) * ulp
    while (offset + rise) - offset != rise or rise / c[12] >= top:
        rise -= ulp
    u[:13] = offset + rise * np.arange(12, -1, -1) / 12
    u[n - 13 :] = u[12::-1]
    return u[:, None], dt, beta, top


def test_pair_search_exact_on_tight_box_bounds():
    # dropping either radius, the gap of adjacent blocks or the absolute
    # term for the rounding of the box centres prunes the max here
    for k in range(6):
        vals, dt, beta, top = _tight_box_path(1e4 + k / 7)
        for v in (vals, vals[::-1]):
            assert _per_gap_pair_sup(v, dt, beta) == top
            assert paths._holder_pair_sup(v, dt, beta, np.inf) == top


def _tight_weighted_path(n=2048, m=16, beta=0.6, rho=16.0):
    # The weighted analogue of _tight_box_path, without an offset.
    # - A unit step at node 320, the first of block 40, after the flat
    #   block 39, coming back down in eighths: its term is the max, and the
    #   bound of block pair (39, 40) equals it, because the largest
    #   (j dt)^beta of block 39 and the largest e^{-rho k dt} of block 40
    #   sit at the two nodes of the step.  The smallest weights of the two
    #   blocks are 1.3% and 5.3% lower.
    # - A step at node 80, in the first row chunk, whose term is 0.99 of the
    #   max: the near tie.
    dt = 1.0 / (n - 1)
    a = (dt * np.arange(n)) ** beta
    b = np.exp(-rho * dt * np.arange(n))
    u = np.zeros((n, m))
    s = 320
    assert 80 < _first_chunk_nodes(n) <= s - 8
    u[s : s + 8, 0] = np.arange(8, 0, -1) / 8
    tie = 0.99 * a[s - 1] * b[s] / (a[79] * b[80])
    u[80:88, 0] = tie
    u[88:120, 0] = tie * np.linspace(1.0, 0.0, 32)
    return u, dt, beta, rho


def test_weighted_pair_search_exact_on_tight_bounds():
    # bounding a block's weights by their smallest values instead of their
    # largest, on either side, or dropping the radius prunes the max here
    vals, dt, beta, rho = _tight_weighted_path()
    got = _weighted_norm(vals, dt, beta, rho)
    assert got == _per_gap_weighted_sup(vals, dt, beta, rho)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.integers(2, 300),
    st.sampled_from([1, 3, 16]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1.0, -1e3, 1e6]),
    st.floats(0.0, 1.2),
)
def test_property_pair_search_matches_per_gap_pass(n, m, seed, offset, gap_frac):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.standard_normal((n, m)), axis=0) * 1e-2 + offset
    dt = 1.0 / (n - 1)
    _assert_sups_exact(vals, dt, 0.6, max_gaps=(np.inf, gap_frac), rhos=(0.0, 64.0))


@pytest.mark.parametrize("n, m", [(4097, 16), (4609, 3), (5001, 1)])
def test_pair_search_exact_above_the_block_cap(n, m):
    # past _MIN_BLOCK * _MAX_BLOCKS nodes the blocks widen (9, 12 and 12
    # nodes here: n / _MAX_BLOCKS rounded up to a multiple of _SUB, as these
    # searches have three levels) and the last one is ragged; the modulus
    # windows end mid-block
    ones = np.ones(n)
    w = paths._plan(ones, ones, np.arange(n) ** 0.6, n - 1).w
    assert n > paths._MIN_BLOCK * paths._MAX_BLOCKS and w > paths._MIN_BLOCK
    assert n % w != 0
    rng = np.random.default_rng(n)
    vals = np.cumsum(rng.standard_normal((n, m)), axis=0) * 1e-2 + 3.0
    dt = 1.0 / (n - 1)
    gaps = (2 * w + 3.5, 7 * w + 1.5)
    assert all(int(g) % w != 0 for g in gaps)
    _assert_sups_exact(vals, dt, 0.6, max_gaps=(np.inf,) + tuple(g * dt for g in gaps), rhos=(4.0,))


@pytest.mark.parametrize("m", [1, 3, 16])
@pytest.mark.parametrize("chunk", [12, 16, 192])
def test_pair_search_exact_in_split_block_pairs(monkeypatch, m, chunk):
    # a small _CHUNK makes one block pair hold more differences than a batch,
    # as past 2^14 nodes at 16 modes: it is evaluated a few rows of block I
    # at a time (1 to 8 rows here, the last slab short where they do not
    # divide 8), and the bounds stream in many row chunks
    monkeypatch.setattr(paths, "_CHUNK", chunk)
    w = paths._MIN_BLOCK
    rng = np.random.default_rng(chunk + m)
    vals = np.cumsum(rng.standard_normal((301, m)), axis=0) * 1e-2 + 2.0
    _assert_sups_exact(vals, 1.0 / 300, 0.6, max_gaps=(np.inf, (2 * w + 3.5) / 300), rhos=(0.0, 64.0))


@pytest.mark.parametrize("n, m", [(4097, 1), (16385, 1), (16385, 16)])
def test_pair_search_memory_is_affine_in_grid_size(n, m):
    # past the padded weights and the divisor table (3 floats per node) the
    # search holds a fixed number of chunks, whatever n and m: its
    # block-pair arrays grew as (n/16)^2 / 2 before the bounds were
    # streamed (2.7 MB at 4097 nodes, 6.1 MB at 16385), and one block pair
    # of 33 x 33 nodes at 16 modes went into a batch whole before it was
    # split by rows (2.9 MB)
    rng = np.random.default_rng(5)
    u = np.cumsum(rng.standard_normal((n, m)), axis=0)
    dt = 1.0 / (n - 1)
    span_pow = (dt * np.arange(n)) ** 0.55
    decay = np.exp(-4.0 * dt * np.arange(n))
    for a, b in ((np.ones(n), np.ones(n)), (span_pow, decay)):
        paths._pair_sup(u, a, b, span_pow, n - 1)
        tracemalloc.start()
        try:
            paths._pair_sup(u, a, b, span_pow, n - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (6 * n + 16 * paths._CHUNK)


# ------------------------------- the multilevel search

# level geometries under which paths of a few hundred nodes take every level
# of the search: blocks of 4 nodes with 2-node sub-blocks and superblocks of
# 2 blocks, or blocks of 5 nodes rounded up to 6 with 3-node sub-blocks and
# superblocks of 3 blocks, the superblock bounds in row chunks of one to a
# few superblock rows
_SMALL_LEVELS = {
    "4-2-2": dict(_MIN_BLOCK=4, _SUB=2, _SUPER=2, _LEVELS_FROM=3, _CHUNK=128),
    "5-3-3": dict(_MIN_BLOCK=5, _SUB=3, _SUPER=3, _LEVELS_FROM=4, _CHUNK=192),
}


def _patch_geometry(monkeypatch, geometry):
    # plans are cached by grid and exponents alone, so those built under
    # another geometry are dropped; the caller clears the cache again after
    paths._weighted_plan.cache_clear()
    for name, value in geometry.items():
        monkeypatch.setattr(paths, name, value)


@pytest.fixture
def clean_plans():
    yield
    paths._weighted_plan.cache_clear()


@pytest.fixture(params=list(_SMALL_LEVELS))
def small_levels(request, monkeypatch, clean_plans):
    _patch_geometry(monkeypatch, _SMALL_LEVELS[request.param])
    return request.param


def _count_levels(monkeypatch):
    # calls of the block-pair and sub-block-pair bounds, which run only on
    # the inner levels of a search
    counts = {"_block_bounds": 0, "_sub_bounds": 0}
    for name in counts:

        def counted(*args, real=getattr(paths, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(paths, name, counted)
    return counts


def test_every_level_runs_on_the_drivers_grid(monkeypatch):
    # the default geometry: a search on more than _LEVELS_FROM blocks (past
    # 2048 nodes) takes every level, one on at most 1025 nodes, as every
    # solve and dynamics search, keeps the single block level
    op = heat.build_heat_problem(params=paths.HolderParams(), n_modes=16).operator
    for n, deep in ((257, False), (1025, False), (2048, False), (2049, True), (4097, True)):
        ones = np.ones(n)
        plan = paths._plan(ones, ones, np.arange(n) ** 0.65, n - 1)
        assert (plan.levels is not None) == deep, n
        assert (paths._level_batches(plan, 16) is not None) == deep, n
    # (test_pair_search_exact_on_long_driver checks the values)
    counts = _count_levels(monkeypatch)
    paths.holder_seminorm(paths.sample_qfbm(op, 0.75, 1024, 1.0 / 1024, 3), 0.65)
    assert counts == {"_block_bounds": 0, "_sub_bounds": 0}
    paths.holder_seminorm(paths.sample_qfbm(op, 0.75, 4096, 1.0 / 4096, 3), 0.65)
    assert counts["_block_bounds"] > 0 and counts["_sub_bounds"] > 0


def test_levels_exact_on_ramps_offsets_and_ragged_grids(small_levels, monkeypatch):
    counts = _count_levels(monkeypatch)
    n = 301
    vals = 3.0 + np.outer(np.arange(n), [1e-3, -2e-3, 5e-4])
    _assert_sups_exact(vals, 1.0 / (n - 1), 0.6, max_gaps=(np.inf, 0.5, 0.0301))
    vals = _dyadic_smooth_path(n=256, m=2)
    for offset in (0.0, 1e4):
        _assert_sups_exact(vals + offset, 1.0 / 256, 0.65, max_gaps=(np.inf, 16.5 / 256))
    for n in (2, 13, 17, 31, 33, 97):
        rng = np.random.default_rng(n)
        vals = np.cumsum(rng.standard_normal((n, 3)), axis=0) - 7.0
        dt = 1.0 / (n - 1)
        _assert_sups_exact(vals, dt, 0.55, max_gaps=(np.inf, 1.5 * dt, 16.5 * dt, 0.4))
    assert counts["_block_bounds"] > 0 and counts["_sub_bounds"] > 0


def test_levels_exact_on_heat_residual(small_levels, monkeypatch):
    counts = _count_levels(monkeypatch)
    res, dt = _heat_residual()
    _assert_sups_exact(res, dt, 0.55, max_gaps=(np.inf, 100.5 * dt))
    assert counts["_block_bounds"] > 0 and counts["_sub_bounds"] > 0


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.integers(2, 300),
    st.sampled_from([1, 3, 16]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1.0, -1e3, 1e6]),
    st.floats(0.0, 1.2),
)
def test_property_levels_match_per_gap_pass(small_levels, n, m, seed, offset, gap_frac):
    # the property test under a small level geometry, which is the same for
    # every example
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.standard_normal((n, m)), axis=0) * 1e-2 + offset
    dt = 1.0 / (n - 1)
    _assert_sups_exact(vals, dt, 0.6, max_gaps=(np.inf, gap_frac), rhos=(0.0, 64.0))


def test_levels_give_way_to_one_level_for_many_modes(monkeypatch, clean_plans):
    # a superblock pair's or a block pair's batch would outgrow its piece
    # past about 2 * _CHUNK / max(_SUPER, w/_SUB)^2 modes (61 here), so such
    # a path is searched on the block level alone, rows of a block pair at a
    # time
    _patch_geometry(monkeypatch, _SMALL_LEVELS["4-2-2"])
    counts = _count_levels(monkeypatch)
    n = 97
    ones = np.ones(n)
    plan = paths._plan(ones, ones, np.arange(n) ** 0.6, n - 1)
    assert paths._level_batches(plan, 61) is not None
    assert paths._level_batches(plan, 62) is None
    rng = np.random.default_rng(62)
    vals = np.cumsum(rng.standard_normal((n, 62)), axis=0) * 1e-2
    _assert_sups_exact(vals, 1.0 / (n - 1), 0.6, max_gaps=(np.inf, 0.3), rhos=(4.0,))
    assert counts == {"_block_bounds": 0, "_sub_bounds": 0}


# a geometry for the tight fixtures below: blocks of 6 nodes, 3-node
# sub-blocks and superblocks of 18 nodes; 720 nodes make 40 superblocks,
# whose bounds stream in row chunks of 4 superblock rows (72 nodes)
_TIGHT_LEVELS = dict(_MIN_BLOCK=6, _SUB=3, _SUPER=3, _LEVELS_FROM=4, _CHUNK=160)


def _assert_tight_geometry(n):
    ones = np.ones(n)
    plan = paths._plan(ones, ones, np.arange(n) ** 0.6, n - 1)
    assert (plan.w, plan.levels.s, plan.levels.n_sup) == (6, 3, 40)
    assert paths._CHUNK // plan.levels.n_off == 4


def _tight_levels_path(offset, n=720, beta=0.6, step=0.1):
    # _tight_box_path for three levels: the box bound of the superblock
    # pair, of the block pair and of the sub-block pair that hold the max is
    # tight at each level, and a near tie lies in the first row chunk.
    # - Superblock 19 (nodes 342-359) is flat at the offset; node 360, the
    #   first of superblock 20, steps up by `step`, and the block from it
    #   comes back down in sixths; the rest of superblock 20 is flat.  At
    #   every level the unit on the right runs from its top, offset + step,
    #   down to at least the offset and the unit on the left is the point
    #   at the offset, so centre distance plus radii is the step up to the
    #   rounding of the centres, and the smallest gap is 1.
    # - Nodes 0-12 are the 12-gap ramp of _tight_box_path, the near tie, and
    #   the last 13 nodes mirror it; n is a multiple of 18, so the reversed
    #   path has the same levels with the flat unit on the right.
    # - The box centres must round at every level, or dropping the absolute
    #   term would change nothing: lo + hi is inexact exactly when lo and hi
    #   lie an odd number of ulps apart, so the step is an odd number of
    #   ulps above the offset and the lowest node of its sub-block an even
    #   number (the assert checks every level).
    dt = 1.0 / (n - 1)
    c = (dt * np.arange(n)) ** beta
    u = np.full(n, offset)
    s = 360
    ulp = np.spacing(offset)
    u[s : s + 6] = offset + step * np.arange(6, 0, -1) / 6
    u[s + 2] = offset + 2 * np.round(step * 4 / 12 / ulp) * ulp
    for k in (s + 18, s + 6, s + 3):  # the superblock, block and sub-block
        lo, hi = u[s:k].min(), u[s:k].max()
        assert (lo + hi) - lo != hi
    top = (u[s] - u[s - 1]) / c[1]
    rise = np.floor(top * c[12] / ulp) * ulp
    while (offset + rise) - offset != rise or rise / c[12] >= top:
        rise -= ulp
    u[:13] = offset + rise * np.arange(12, -1, -1) / 12
    u[n - 13 :] = u[12::-1]
    return u[:, None], dt, beta, top


def test_levels_exact_on_tight_box_bounds(monkeypatch, clean_plans):
    # dropping a radius, the absolute term for the rounding of the box
    # centres, or taking the largest gap of a unit pair for its smallest, on
    # any level, prunes the max here
    _patch_geometry(monkeypatch, _TIGHT_LEVELS)
    _assert_tight_geometry(720)
    counts = _count_levels(monkeypatch)
    for k in range(6):
        vals, dt, beta, top = _tight_levels_path(1e4 + k / 7)
        for v in (vals, vals[::-1]):
            assert _per_gap_pair_sup(v, dt, beta) == top
            assert paths._holder_pair_sup(v, dt, beta, np.inf) == top
    assert counts["_block_bounds"] > 0 and counts["_sub_bounds"] > 0


def _tight_weighted_levels_path(n=720, m=16, beta=0.6, rho=16.0):
    # _tight_weighted_path for three levels: a unit step at node 360, the
    # first of superblock 20, after the flat superblock 19, coming back down
    # in sixths.  The largest (j dt)^beta of every unit that ends at node
    # 359 and the largest e^{-rho k dt} of every unit that starts at node 360
    # sit at the two nodes of the step, so the bound of the unit pair is its
    # term at every level; the smallest weights of the two sub-blocks are
    # 0.33% and 4.4% lower.  A step at node 30, in the first row chunk,
    # whose term is 0.999 of the max is the near tie.
    dt = 1.0 / (n - 1)
    a = (dt * np.arange(n)) ** beta
    b = np.exp(-rho * dt * np.arange(n))
    u = np.zeros((n, m))
    s = 360
    u[s : s + 6, 0] = np.arange(6, 0, -1) / 6
    tie = 0.999 * a[s - 1] * b[s] / (a[29] * b[30])
    u[30:36, 0] = tie
    u[36:68, 0] = tie * np.linspace(1.0, 0.0, 32)
    return u, dt, beta, rho


def test_levels_weighted_exact_on_tight_bounds(monkeypatch, clean_plans):
    # bounding a unit's weights by their smallest values instead of their
    # largest, on either side and on any level, or dropping the radius of
    # the step's unit prunes the max here
    _patch_geometry(monkeypatch, _TIGHT_LEVELS)
    _assert_tight_geometry(720)
    counts = _count_levels(monkeypatch)
    vals, dt, beta, rho = _tight_weighted_levels_path()
    got = _weighted_norm(vals, dt, beta, rho)
    assert got == _per_gap_weighted_sup(vals, dt, beta, rho)
    assert counts["_block_bounds"] > 0 and counts["_sub_bounds"] > 0


def test_deep_plan_is_read_only():
    n = 4097
    decay, plan = paths._weighted_plan(n, 1 / 4096, 0.6, 1.0)
    assert plan.levels is not None
    arrays = [decay] + paths._plan_arrays(plan)
    assert len(arrays) == 8 + 9 + 4
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = 1.0


# ------------------------------- the weighted norm's cached plans


def _random_walk(n, m, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal((n, m)), axis=0) * 1e-2 + 2.0


def test_cached_plans_match_the_per_gap_pass_cold_and_warm():
    # grids that differ from the first in one of nodes, step, beta, rho and
    # mode count, interleaved: after the first round every lookup is warm.
    # The plan reads no mode count, so the last grid shares the first's plan
    grids = [
        (129, 3, 1 / 128, 0.6, 1.0),
        (193, 3, 1 / 128, 0.6, 1.0),
        (129, 3, 1 / 64, 0.6, 1.0),
        (129, 3, 1 / 128, 0.55, 1.0),
        (129, 3, 1 / 128, 0.6, 0.0),
        (129, 16, 1 / 128, 0.6, 1.0),
    ]
    paths._weighted_plan.cache_clear()
    for r in range(3):
        for i, (n, m, dt, beta, rho) in enumerate(grids):
            vals = _random_walk(n, m, 10 * r + i)
            got = _weighted_norm(vals, dt, beta, rho)
            assert got == _per_gap_weighted_sup(vals, dt, beta, rho), (r, i)
    info = paths._weighted_plan.cache_info()
    assert (info.misses, info.hits) == (5, 13)


def test_cached_plan_is_read_only():
    decay, plan = paths._weighted_plan(65, 1 / 64, 0.6, 1.0)
    arrays = [decay] + [x for x in plan if isinstance(x, np.ndarray)]
    assert len(arrays) == 8
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = 1.0


def test_plan_cache_stays_bounded():
    for n in range(17, 37):
        u = paths.SampledPath(0.0, 1.0 / (n - 1), _random_walk(n, 2, n))
        paths.weighted_holder_norm(u, 0.6, 1.0)
    info = paths._weighted_plan.cache_info()
    assert info.maxsize == paths._PLANS
    assert 0 < info.currsize <= info.maxsize


@pytest.mark.parametrize("m", [1, 3, 16])
@pytest.mark.parametrize("chunk", [12, 16, 192])
def test_cached_plan_follows_a_patched_chunk(monkeypatch, m, chunk):
    # plans are cached by grid and exponents alone, so the batch geometry
    # comes from _CHUNK at each call: under a small _CHUNK a plan cached at
    # the default one must make the batches a cold plan makes, a few rows
    # of a block pair at a time where one block pair is too large.  The
    # _row_norms calls on a multiple of w rows are the exact batches (301
    # nodes and 38 blocks are not multiples of w)
    w = paths._MIN_BLOCK
    vals = _random_walk(301, m, chunk + m)
    dt, beta, rho = 1.0 / 300, 0.6, 64.0
    u = paths.SampledPath(0.0, dt, vals)
    calls = []
    row_norms = paths._row_norms
    monkeypatch.setattr(paths, "_row_norms", lambda d: calls.append(len(d)) or row_norms(d))

    def norm_and_batches():
        calls.clear()
        got = paths.weighted_holder_norm(u, beta, rho)
        return got, [k for k in calls if k % w == 0]

    ref, default = norm_and_batches()
    monkeypatch.setattr(paths, "_CHUNK", chunk)
    warm = norm_and_batches()
    paths._weighted_plan.cache_clear()
    cold = norm_and_batches()
    assert warm == cold
    assert warm[0] == ref == _per_gap_weighted_sup(vals, dt, beta, rho)
    # at most 2 * _CHUNK differences per batch, or one row of a block pair
    most = max(2 * chunk // m, w)
    assert max(warm[1]) <= most < max(default)
    if 2 * chunk // (w * m) < w:
        assert min(warm[1]) < w * w


@pytest.mark.parametrize(
    "beta, rho",
    [(np.nan, 0.0), (np.inf, 0.0), (-1.0, 0.0), (0.6, np.nan), (0.6, np.inf), (0.6, -1.0)],
)
def test_bad_exponents_are_rejected(beta, rho):
    # a NaN beta read as a 0.0 seminorm, or as the sup term alone in the
    # weighted norm; beta = -1 and rho = inf warned; rho = NaN gave NaN
    u = paths.SampledPath(0.0, 1.0 / 64, np.linspace(0.0, 1.0, 65) ** 2)
    with pytest.raises(ValueError):
        paths.weighted_holder_norm(u, beta, rho)
    if rho == 0.0:
        with pytest.raises(ValueError):
            paths.holder_seminorm(u, beta)
        with pytest.raises(ValueError):
            paths.wiener_modulus(u, beta, 0.25)


@pytest.mark.parametrize("n", [1, 64, 1024])
def test_windows_of_a_transpose_are_sliding_windows(n):
    # apply_mild's increment pairs pair[k] = (dw[k], dw[k + 1]) over the
    # rows of a C-contiguous (n + 2, M) array, built on its transpose
    dw = np.random.default_rng(n).standard_normal((n + 2, 3))
    got = paths._windows(dw.T, 2).transpose(1, 2, 0)
    ref = np.lib.stride_tricks.sliding_window_view(dw, 2, axis=0).swapaxes(-1, -2)
    assert got.shape == ref.shape and got.strides == ref.strides
    assert np.array_equal(got, ref)
    assert not got.flags.writeable


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


def test_non_finite_node_under_an_underflowed_weight_gives_nan():
    # e^{-rho t} is 0 at node 40 for rho = 2^16: the sup term's 0 * inf
    # warned (an error under -W error) before the path was checked
    vals = np.linspace(0.0, 1.0, 65)
    vals[40] = np.inf
    u = paths.SampledPath(0.0, 1.0 / 64, vals)
    assert np.isnan(paths.weighted_holder_norm(u, 0.6, 2.0**16))


def test_huge_step_path_does_not_overflow():
    # a 3-mode step of 1e200 at node 40: its squared norm overflows, and the
    # search read 0.0 (inf * 0 in a bound) and the weighted norm inf.  Only
    # the gap-1 pair at the step matters: |||u|||_beta = |du| / dt^beta,
    # and at rho = 0 the weighted pair term peaks at j = 39, k = 40
    dt, beta = 1.0 / 64, 0.6
    vals = np.zeros((65, 3))
    vals[40:] = 1e200
    u = paths.SampledPath(0.0, dt, vals)
    jump = np.sqrt(3.0) * 1e200
    assert paths.holder_seminorm(u, beta) == pytest.approx(jump / dt**beta, rel=1e-12)
    assert paths.wiener_modulus(u, beta, 0.25) == pytest.approx(jump / dt**beta, rel=1e-12)
    assert paths.weighted_holder_norm(u, beta, 0.0) == pytest.approx(
        jump * (1.0 + 39.0**beta), rel=1e-12
    )


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_huge_path_norms_scale_exactly_by_powers_of_two(rho):
    # past 2^500 a path is searched scaled by a power of two, which commutes
    # with every rounding: the norms of u * 2^600 are those of u times 2^600
    u = paths.sample_qfbm(laplacian_1d(4), 0.75, 128, 1.0 / 128, 3)
    big = paths.SampledPath(0.0, u.dt, u.values * 2.0**600)
    assert paths.holder_seminorm(big, 0.6) == paths.holder_seminorm(u, 0.6) * 2.0**600
    assert paths.wiener_modulus(big, 0.6, 0.25) == (
        paths.wiener_modulus(u, 0.6, 0.25) * 2.0**600
    )
    assert paths.weighted_holder_norm(big, 0.6, rho) == (
        paths.weighted_holder_norm(u, 0.6, rho) * 2.0**600
    )


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_tiny_path_norms_do_not_underflow(rho):
    # the norms square node differences: at 1e-170 those squares underflow
    # and both norms read 0.0.  Below 2^-459 a path is searched scaled up by
    # a power of two, so the norms are 1e-170 times those of the unit path
    unit = paths.SampledPath(0.0, 1.0 / 64, np.linspace(0.0, 1.0, 65))
    tiny = paths.SampledPath(0.0, unit.dt, 1e-170 * unit.values)
    assert paths.holder_seminorm(tiny, 0.6) == pytest.approx(
        1e-170 * paths.holder_seminorm(unit, 0.6), rel=1e-15, abs=0.0
    )
    assert paths.weighted_holder_norm(tiny, 0.6, rho) == pytest.approx(
        1e-170 * paths.weighted_holder_norm(unit, 0.6, rho), rel=1e-15, abs=0.0
    )


def _csv_writer_reference(u, config):
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, indent=1).encode())
    ref = io.StringIO()
    ref.write(f"# config_hash: {digest.hexdigest()[:16]}\n")
    writer = csv.writer(ref)
    writer.writerow(["t"] + [f"mode_{i + 1}" for i in range(u.n_modes)])
    for t, row in zip(u.times, u.values):
        writer.writerow([format(t, ".17g")] + [format(v, ".17g") for v in row])
    return ref.getvalue()


def _special_values():
    return paths.SampledPath(
        0.1,
        1.0 / 3.0,
        [
            [0.0, -0.0, 1.0],
            [np.nan, np.inf, -np.inf],
            [5e-324, 1e300, -1e-300],
            [1.0 / 3.0, -2.5, 123456789.123456789],
        ],
    )


def _drivers_path():
    # the drivers workload's path: 4097 nodes of 16 modes
    return paths.sample_qfbm(laplacian_1d(16), 0.75, 4096, 1.0 / 4096, 3000)


def _small_modes_path():
    # modes down to 1e-22, as in a solve's higher modes: %g's exponent form
    rng = np.random.default_rng(30)
    scale = 10.0 ** -rng.integers(0, 23, (1025, 16))
    return paths.SampledPath(0.0, 1.0 / 1024, rng.standard_normal((1025, 16)) * scale)


@pytest.mark.parametrize("make", [_special_values, _drivers_path, _small_modes_path])
def test_write_series_matches_csv_writer_reference(tmp_path, make):
    u = make()
    config = {"seed": 3}
    rdio.write_series(str(tmp_path / "u.csv"), u, config)
    with open(tmp_path / "u.csv", newline="") as fh:
        assert fh.read() == _csv_writer_reference(u, config)


def _percent_g_body(vals):
    return "".join(",".join("%.17g" % v for v in row) + "\r\n" for row in vals.tolist())


def _series_body(path, vals):
    # the data rows write_series writes for a path of these node values
    u = paths.SampledPath(0.1, 1.0 / 3.0, vals)
    rdio.write_series(str(path), u, {})
    with open(path, newline="") as fh:
        text = fh.read()
    return text.split("\r\n", 1)[1], np.column_stack([u.times, u.values])


@settings(
    derandomize=True, database=None, deadline=None, max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.integers(1, 4), st.lists(st.floats(), min_size=8, max_size=64))
def test_write_series_formats_every_float_as_percent_g(tmp_path, cols, floats):
    # nan, infinities, signed zeros, subnormals and the extremes included
    vals = np.array(floats[: len(floats) // cols * cols]).reshape(-1, cols)
    body, table = _series_body(tmp_path / "u.csv", vals)
    assert body == _percent_g_body(table)


def _near_decades():
    # +-40 ulps around every power of ten and every 9.99999999999999995e j:
    # log10's floor is off by one on one side, and the 17 digits carry into
    # the next decade on the other
    j = np.arange(-320, 309)
    base = np.concatenate([[float(f"1e{k}") for k in j], [float(f"9.99999999999999995e{k}") for k in j]])
    base = base[np.isfinite(base) & (base > 0)]
    bits = base.view(np.int64)[:, None] + np.arange(-40, 41)
    vals = bits.ravel().view(np.float64)
    vals = vals[np.isfinite(vals)]
    return np.concatenate([vals, -vals])


def _dyadic_ties():
    # m / 2^j with m odd and m * 5^j of 18 digits: the 18th significant
    # digit is an exact 5, a tie of the 17-digit rounding
    rng = np.random.default_rng(31)
    ties = []
    for j in range(1, 60):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        for m in rng.integers(lo, hi, 100) if lo < hi else ():
            m = int(m) | 1
            if len(str(m * 5**j)) == 18 and m < 2**53:
                ties.append(m / 2**j)
    ties = np.array(ties)
    return np.concatenate([ties, -ties])


@pytest.mark.parametrize("make", [_near_decades, _dyadic_ties])
def test_write_series_is_exact_at_decades_and_ties(tmp_path, make):
    vals = make()
    assert vals.size > 4000
    vals = vals[: vals.size // 16 * 16].reshape(-1, 16)
    body, table = _series_body(tmp_path / "u.csv", vals)
    assert body == _percent_g_body(table)


def test_decimal_digits_and_what_goes_to_python():
    # the vector path's own digits and exponents: "%.16e"'s wherever it
    # settles a value.  Near a decade it leaves only exact powers of ten
    # (p = 1e16) and exact ties to Python, which it can only do by moving
    # the exponent log10 gives; every exact 17-digit tie goes to Python
    vals = _near_decades()
    vals = vals[(np.abs(vals) >= 2.0**-900) & (np.abs(vals) <= 2.0**900)]
    d, e, ok = rdio._decimal(vals)
    ref = ["%.16e" % v for v in np.abs(vals)]
    assert np.array_equal(d[ok], [int(r[0] + r[2:18]) for r, k in zip(ref, ok) if k])
    assert np.array_equal(e[ok], [int(r[19:]) for r, k in zip(ref, ok) if k])
    assert (~ok).sum() < 300
    for v, r in zip(vals[~ok], np.array(ref)[~ok]):
        p = fractions.Fraction(abs(float(v))) * fractions.Fraction(10) ** (16 - int(r[19:]))
        p *= 10 if p < 10**16 else 1
        assert p == 10**16 or p - math.floor(p) == fractions.Fraction(1, 2)
    assert not rdio._decimal(_dyadic_ties())[2].any()


def test_write_series_holds_less_than_its_path(tmp_path):
    # the table is formatted in row blocks: a whole-path tolist() held 5.2
    # times the path as Python floats; the rows match csv.writer's across
    # the block boundaries
    vals = np.random.default_rng(8).standard_normal((1025, 64))
    u = paths.SampledPath(0.0, 1.0 / 1024, vals)
    config = {"seed": 8}
    rdio.write_series(str(tmp_path / "warm.csv"), u, config)
    tracemalloc.start()
    try:
        rdio.write_series(str(tmp_path / "u.csv"), u, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * vals.nbytes
    with open(tmp_path / "u.csv", newline="") as fh:
        assert fh.read() == _csv_writer_reference(u, config)


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_sup_term_is_the_norms_own_sup_part(monkeypatch, rho):
    # with the pair search read as 0 the weighted norm is its sup term
    # alone, which _sup_term gives bit for bit: on a 1e200 step, past _BIG,
    # with no overflow, and on a sampled path and its 2^600 multiple
    dt = 1.0 / 64
    step = np.zeros((65, 3))
    step[40:] = 1e200
    u = paths.sample_qfbm(laplacian_1d(4), 0.75, 128, 1.0 / 128, 3)
    cases = [
        paths.SampledPath(0.0, dt, step),
        u,
        paths.SampledPath(0.0, u.dt, u.values * 2.0**600),
    ]
    with np.errstate(over="raise", invalid="raise"):
        sups = [paths._sup_term(v, 0.6, rho) for v in cases]
        monkeypatch.setattr(paths, "_search", lambda values, plan: 0.0)
        assert sups == [paths.weighted_holder_norm(v, 0.6, rho) for v in cases]
    assert sups[2] == sups[1] * 2.0**600
    if rho == 0.0:
        assert sups[0] == np.sqrt(3.0) * 1e200
        assert sups[1] == pytest.approx(np.max(np.linalg.norm(u.values, axis=1)), rel=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sup_term_of_a_non_finite_path_is_nan(bad):
    vals = np.zeros((17, 2))
    vals[5, 1] = bad
    u = paths.SampledPath(0.0, 1.0 / 16, vals)
    assert np.isnan(paths._sup_term(u, 0.6, 0.0))
    assert np.isnan(paths.weighted_holder_norm(u, 0.6, 0.0))
