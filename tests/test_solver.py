import decimal
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import betaln, hyp1f1

from roughdyn import heat, paths, solver
from roughdyn.spectral import SpectralOperator, laplacian_1d, semigroup_apply

PP = paths.HolderParams()


def _zero_drift(u):
    return np.zeros_like(u)


def _zero_diffusion(u, v):
    return np.zeros(np.broadcast_shapes(u.shape[:-1], v.shape[:-1]) + u.shape[-1:])


# ---------------------------------------------------------------- kummer


def _kummer_hypergeometric(rho, a, b, d, T, nt=4001):
    """Independent oracle: the inner integral in closed form,
    B(a+1, b+1) M(b+1, a+b+2, -rho t) with scipy's hyp1f1, and a dense grid
    search for the outer sup."""
    tt = np.concatenate(
        [np.linspace(0.0, T, nt), np.geomspace(1e-12 * T, T, nt // 4)]
    )
    inner = np.exp(betaln(a + 1.0, b + 1.0)) * hyp1f1(b + 1.0, a + b + 2.0, -rho * tt)
    return float(np.max(tt**d * inner))


def test_kummer_zero_rho_closed_form():
    # K(0) = Beta(1-alpha, alpha) T^d; for alpha = 0.4, d = 0.1, T = 1 this
    # is pi/sin(0.4 pi) = 3.3034427710213196 (reflection formula)
    got = solver.kummer_decay(0.0, -0.4, -0.6, 0.1, 1.0)
    assert got == pytest.approx(np.pi / np.sin(0.4 * np.pi), rel=1e-12)
    assert got == pytest.approx(np.exp(betaln(0.6, 0.4)), rel=1e-12)


def test_kummer_a_b_zero_closed_inner_form():
    # a = b = 0: inner integral is (1 - e^{-rho t})/(rho t)
    for rho in (0.5, 4.0):
        t = np.linspace(1e-12, 2.0, 20001)
        ref = float(np.max(t**0.3 * (1.0 - np.exp(-rho * t)) / (rho * t)))
        assert solver.kummer_decay(rho, 0.0, 0.0, 0.3, 2.0) == pytest.approx(
            ref, rel=1e-6
        )


def test_kummer_matches_hypergeometric_oracle():
    # the residual discrepancy is the grid search for the outer sup; a != b
    # reaches the diagonal of the Jacobi recurrence, which is 0 at a = b
    for a, b in ((-0.5, -0.5), (-0.4, -0.6)):
        for rho in (1.0, 10.0, 100.0):
            got = solver.kummer_decay(rho, a, b, 0.1, 1.0)
            ref = _kummer_hypergeometric(rho, a, b, 0.1, 1.0)
            assert got == pytest.approx(ref, rel=1e-4)


@pytest.mark.parametrize(
    "rho, horizon",
    [(1.0, 0.0), (1.0, -1.0), (1.0, np.inf), (1.0, np.nan), (np.nan, 1.0), (-1.0, 1.0)],
)
def test_kummer_rejects_bad_rho_and_horizon(rho, horizon):
    with pytest.raises(ValueError):
        solver.kummer_decay(rho, -0.5, -0.5, 0.1, horizon)


def test_kummer_monotone_decreasing():
    vals = [
        solver.kummer_decay(r, -0.5, -0.5, 0.1, 1.0)
        for r in (1.0, 10.0, 100.0, 1000.0)
    ]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_kummer_parameter_validation():
    with pytest.raises(ValueError):
        solver.kummer_decay(1.0, -1.5, 0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        solver.kummer_decay(1.0, -0.6, -0.6, 0.1, 1.0)  # a + b < -1
    with pytest.raises(ValueError):
        solver.kummer_decay(1.0, 0.0, 0.0, 0.0, 1.0)  # d = 0


# ---------------------------------------------------------------- apply_mild


def test_apply_mild_pure_semigroup():
    op = laplacian_1d(4)
    spec = solver.ProblemSpec(op, _zero_drift, _zero_diffusion, PP)
    om = paths.sample_qfbm(op, 0.75, 64, 1 / 64, 1)
    u0 = np.array([1.0, -2.0, 0.5, 0.0])
    cand = paths.SampledPath(0.0, 1 / 64, np.random.default_rng(0).normal(size=(65, 4)))
    out = solver.apply_mild(cand, om, u0, spec)
    tt = np.arange(65) / 64
    exact = np.exp(-np.outer(tt, op.eigenvalues)) * u0
    assert np.max(np.abs(out.values - exact)) < 1e-14
    assert np.array_equal(out.values[0], u0)


def test_apply_mild_linear_ode_fixed_point():
    # lambda = 1, F(u) = u: u(t) = u0 constant solves u' = -u + u
    op = SpectralOperator(np.array([1.0]), np.array([1.0]))
    spec = solver.ProblemSpec(op, lambda u: u, _zero_diffusion, PP)
    om = paths.sample_qfbm(op, 0.75, 128, 1 / 128, 2)
    cand = paths.SampledPath(0.0, 1 / 128, 2.0 * np.ones((129, 1)))
    out = solver.apply_mild(cand, om, np.array([2.0]), spec)
    assert np.max(np.abs(out.values - 2.0)) < 1e-12


def test_apply_mild_additive_noise_riemann_stieltjes_oracle():
    # G = sigma constant, scalar mode: T(u)(t) = e^{-t}u0 + sigma
    # int_0^t e^{-(t-r)} domega, oracle = trapezoid RS sum on a 4x grid
    lam, sigma, n = 1.0, 0.5, 256
    op = SpectralOperator(np.array([lam]), np.array([1.0]))
    spec = solver.ProblemSpec(
        op,
        _zero_drift,
        lambda u, v: sigma * v,
        PP,
    )
    tt_f = np.linspace(0.0, 1.0, 4 * n + 1)
    fine = paths.SampledPath(0.0, tt_f[1], np.sin(3.0 * tt_f))
    coarse = paths.SampledPath(0.0, 1.0 / n, fine.values[::4, 0])
    u0 = np.array([1.0])
    cand = paths.SampledPath(0.0, 1.0 / n, np.tile(u0, (n + 1, 1)))
    out = solver.apply_mild(cand, coarse, u0, spec)
    for k in (32, 128, 256):
        t = k / n
        ker = np.exp(-lam * (t - tt_f[: 4 * k + 1]))
        dw = np.diff(fine.values[: 4 * k + 1, 0])
        ref = np.exp(-lam * t) + sigma * np.sum(0.5 * (ker[:-1] + ker[1:]) * dw)
        assert abs(out.values[k, 0] - ref) < 1e-4


def _mild_spec(N):
    return solver.ProblemSpec(
        laplacian_1d(N), np.tanh, lambda u, v: 0.5 * u * v, PP
    )


@pytest.mark.parametrize("n, N", [(1, 1), (7, 3), (300, 16)])
def test_apply_mild_is_its_whole_path_expressions_bit_for_bit(n, N):
    # the scratch path runs the operations of these expressions in their
    # order, so T(u) has their bits
    spec = _mild_spec(N)
    lam = spec.operator.eigenvalues
    rng = np.random.default_rng(n + N)
    om = paths.sample_qfbm(spec.operator, 0.75, n, 1.0 / n, 6)
    cand = paths.SampledPath(0.0, om.dt, rng.standard_normal((n + 1, N)))
    u0 = rng.standard_normal(N)
    dt, uv = om.dt, cand.values
    phi0, phi1 = solver._phi_weights(lam * dt)
    dw = np.diff(om.values, axis=0)
    f = np.tanh(uv)
    g_lo, g_hi = 0.5 * uv[:-1] * dw, 0.5 * uv[1:] * dw
    ref = np.zeros((n + 1, N))
    ref[1:] = dt * (phi0 * f[:-1] + phi1 * f[1:]) + phi0 * g_lo + phi1 * g_hi
    decay = np.exp(-lam * dt)
    s = 1
    while s < n:
        ref[s + 1 :] += decay * ref[1 : n + 1 - s]
        decay, s = decay * decay, 2 * s
    ref += np.exp(-np.multiply.outer(dt * np.arange(n + 1), lam)) * u0
    assert np.array_equal(solver.apply_mild(cand, om, u0, spec).values, ref)


def test_apply_mild_memory_is_a_few_paths():
    # beyond its inputs, one call holds G's two-path output (G's own
    # temporary is gone by then), F's path, the result and one scratch path,
    # plus ufunc buffers: 5.3 paths at (4097, 16).  Whole-path expressions
    # for the cell terms, the scan and S(t)u0 held 7.25 paths
    n, N = 4096, 16
    spec = _mild_spec(N)
    om = paths.sample_qfbm(spec.operator, 0.75, n, 1.0 / n, 3)
    cand = paths.SampledPath(0.0, om.dt, np.random.default_rng(7).standard_normal((n + 1, N)))
    u0 = np.ones(N)
    solver.apply_mild(cand, om, u0, spec)  # the grid's cell moments
    tracemalloc.start()
    try:
        solver.apply_mild(cand, om, u0, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * cand.values.nbytes


def test_apply_mild_rejects_grid_mismatch():
    op = laplacian_1d(2)
    spec = solver.ProblemSpec(op, _zero_drift, _zero_diffusion, PP)
    om = paths.sample_qfbm(op, 0.75, 16, 1 / 16, 0)
    cand = paths.SampledPath(0.0, 1 / 32, np.zeros((33, 2)))
    with pytest.raises(ValueError):
        solver.apply_mild(cand, om, np.zeros(2), spec)


# ---------------------------------------------------------------- solve_mild


def test_solve_pure_semigroup_unique():
    op = laplacian_1d(3)
    spec = solver.ProblemSpec(op, _zero_drift, _zero_diffusion, PP)
    om = paths.sample_qfbm(op, 0.75, 64, 1 / 64, 4)
    u0 = np.array([1.0, 0.5, 0.0])
    sols = solver.solve_mild(u0, om, spec, solver.SolverConfig(n_starts=3, seed=4))
    assert len(sols) == 1
    assert max(sols.residuals) < 1e-12
    tt = np.arange(65) / 64
    exact = np.exp(-np.outer(tt, op.eigenvalues)) * u0
    assert np.max(np.abs(sols.elements[0].values - exact)) < 1e-10
    assert all(sols.ball_ok)


@pytest.mark.parametrize("u0", [1e-2, 1e-3])
def test_peano_drift_off_zero_has_one_solution(u0):
    # u' = -u + 2 sqrt|u| from u0 > 0 stays positive, where F is Lipschitz,
    # so the solution is unique: sqrt(u(t)) = 2 + (sqrt(u0) - 2) e^{-t/2}.
    # Accepting in the rho-weighted norm (rho = 32 and 64 here) let 4 and 6
    # paths pass whose residual on the early window was not small
    spec = solver.ProblemSpec(
        laplacian_1d(1),
        lambda u: 2.0 * np.sqrt(np.abs(u)),
        _zero_diffusion,
        PP,
        c_F=1.0,
        L_F=1.0,
    )
    om = paths.SampledPath(0.0, 1.0 / 256, np.zeros((257, 1)))
    sols = solver.solve_mild(np.array([u0]), om, spec, solver.SolverConfig())
    assert len(sols) == 1
    exact = (2.0 + (np.sqrt(u0) - 2.0) * np.exp(-0.5)) ** 2
    assert abs(sols.elements[0].values[-1, 0] - exact) < 1e-5


def test_solve_geometric_decay_and_contraction():
    op = laplacian_1d(3)
    spec = solver.ProblemSpec(
        op,
        lambda u: np.tanh(u),
        lambda u, v: 0.2 * (1.0 + 0.5 * np.tanh(u[..., :1])) * v,
        PP,
        L_F=1.0,
        L_G=0.3,
    )
    om = paths.sample_qfbm(op, 0.75, 64, 1 / 64, 6)
    cfg = solver.SolverConfig(n_starts=2, seed=6)
    u0 = np.array([1.0, 0.0, 0.0])
    sols = solver.solve_mild(u0, om, spec, cfg)
    assert max(sols.residuals) < cfg.fp_tol
    assert sols.contraction_factor < 0.5
    trace = sols.residual_traces[0]
    # start 0 is the constant path u0: iterate T from it and measure each
    # step's full unweighted norm, of which the trace holds the value or
    # its sup term
    u = paths.SampledPath(0.0, om.dt, np.tile(u0, (om.n_nodes, 1)))
    norms = []
    for entry in trace:
        tu = solver.apply_mild(u, om, u0, spec)
        diff = paths.SampledPath(0.0, om.dt, tu.values - u.values)
        norms.append(paths.weighted_holder_norm(diff, PP.beta, 0.0))
        assert entry in (norms[-1], paths._sup_term(diff, PP.beta, 0.0))
        u = tu
    assert trace[-1] == norms[-1] == sols.residuals[0]
    # geometric decay with ratio <= q + 0.05 after the first step
    q = sols.contraction_factor + 0.05
    assert all(b <= q * a + 1e-15 for a, b in zip(norms[1:-1], norms[2:]))


def test_solver_failure_reports_traces():
    op = laplacian_1d(2)
    # absurd drift growth defeats contraction at every weight
    spec = solver.ProblemSpec(op, lambda u: 1e8 * u, _zero_diffusion, PP)
    om = paths.sample_qfbm(op, 0.75, 16, 1 / 16, 0)
    with pytest.raises(solver.SolverError):
        solver.solve_mild(np.array([1.0, 0.0]), om, spec, solver.SolverConfig())


def _drift_off_the_probes(op, om, u0, cfg, on, off):
    """A spec with G = 0 whose drift is the constant `on` on the three rho
    probes of (u0, om, cfg) and `off` on every other path; returns it with
    the probes."""
    clean = solver.ProblemSpec(op, _zero_drift, _zero_diffusion, PP)
    probes = solver._start_family(u0, om, clean, cfg)[0]()

    def drift(u):
        hit = any(np.array_equal(u, p.values) for p in probes)
        return np.full_like(u, on if hit else off)

    return solver.ProblemSpec(op, drift, _zero_diffusion, PP), probes


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_stops_and_is_never_accepted(bad):
    # F = 0 on the probes: starts 0 and 1 step onto S(t)u0 and converge,
    # while start 2, the first bump start, turns non-finite at its first
    # Picard step
    op = laplacian_1d(3)
    om = paths.sample_qfbm(op, 0.75, 64, 1 / 64, 4)
    u0 = np.array([1.0, 0.5, 0.0])
    cfg = solver.SolverConfig(n_starts=3, seed=4)
    spec, probes = _drift_off_the_probes(op, om, u0, cfg, 0.0, bad)
    sols = solver.solve_mild(u0, om, spec, cfg)
    traces = sols.residual_traces
    # the diverging start stops at that step, long before max_iters
    assert [len(t) for t in traces] == [2, 1, 1]
    assert traces[0][-1] == 0.0 and traces[1] == [0.0]
    assert np.isnan(traces[2][0])
    # and is never accepted: the one element is S(t)u0, with a zero residual
    assert len(sols) == 1 and sols.residuals == [0.0]
    assert np.array_equal(sols.elements[0].values, probes[1].values)


def test_every_start_non_finite_is_a_solver_failure():
    # F = 1 on the probes, so their images are finite and equal (rho = 1,
    # q = 0): each start stops at its first step off the probes, and none
    # is accepted
    op = laplacian_1d(2)
    om = paths.sample_qfbm(op, 0.75, 16, 1 / 16, 0)
    u0 = np.array([1.0, 0.0])
    cfg = solver.SolverConfig(n_starts=3, seed=0)
    spec, _ = _drift_off_the_probes(op, om, u0, cfg, 1.0, np.nan)
    with pytest.raises(solver.SolverError) as info:
        solver.solve_mild(u0, om, spec, cfg)
    traces = info.value.residual_traces
    # starts 0 and 1 take one finite step from their probe image
    assert [len(t) for t in traces] == [2, 2, 1]
    assert traces[0][0] > cfg.fp_tol and traces[1][0] > cfg.fp_tol
    assert all(np.isnan(t[-1]) for t in traces)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_choose_rho_rejects_a_non_finite_image(bad):
    # F = 0 on the constant path u0 and non-finite on every other path, so
    # the probe images are [finite, bad, bad]: a NaN ratio must not vanish
    # into the max over the two probe pairs and read as q = 0, and two inf
    # images must not be subtracted (inf - inf warns, and warnings fail)
    op = laplacian_1d(2)
    om = paths.sample_qfbm(op, 0.75, 16, 1 / 16, 0)
    u0 = np.array([1.0, 0.0])
    cfg = solver.SolverConfig(n_starts=3, seed=0)
    clean = solver.ProblemSpec(op, _zero_drift, _zero_diffusion, PP)
    probes = solver._start_family(u0, om, clean, cfg)[0]()

    def drift(u):
        return np.full_like(u, 0.0 if np.array_equal(u, probes[0].values) else bad)

    spec = solver.ProblemSpec(op, drift, _zero_diffusion, PP)
    images = [solver.apply_mild(p, om, u0, spec) for p in probes]
    assert [np.isfinite(im.values).all() for im in images] == [True, False, False]
    with pytest.raises(solver.SolverError, match="no contractive weight"):
        solver._choose_rho(probes, images, PP.beta)
    with pytest.raises(solver.SolverError, match="no contractive weight"):
        solver.solve_mild(u0, om, spec, cfg)


def test_declared_constants_are_keyword_only():
    # a stale call with the old grid arguments must not bind them to
    # c_F and L_F
    op = laplacian_1d(2)
    with pytest.raises(TypeError):
        solver.ProblemSpec(op, _zero_drift, _zero_diffusion, PP, 1.0, 64)
    spec = solver.ProblemSpec(
        op, _zero_drift, _zero_diffusion, PP, L_F=2.0
    )
    assert (spec.c_F, spec.L_F, spec.L_G) == (0.0, 2.0, 0.0)


def test_spot_check_growth():
    op = laplacian_1d(4)
    spec = solver.ProblemSpec(
        op,
        lambda u: np.tanh(u),
        lambda u, v: 0.1 * v,
        PP,
        c_F=0.0,
        L_F=1.0,
        L_G=0.1,
    )
    rep = spec.spot_check_growth(rng=0)
    assert rep["drift_growth_slack"] >= 0.0
    assert rep["diffusion_lipschitz_slack"] >= 0.0


def test_spot_check_growth_needs_the_operators_mode_count():
    # G is applied to the N unit noise vectors, so a noise with M != N modes
    # cannot meet them (N = 3, M = 2: the spec of the scan test below)
    B = np.random.default_rng(30).standard_normal((3, 2))
    spec = solver.ProblemSpec(
        laplacian_1d(3),
        lambda u: np.sin(u) + 0.5,
        lambda u, v: (1.0 + 0.2 * np.cos(u[..., :1])) * (v @ B.T),
        PP,
    )
    with pytest.raises(ValueError):
        spec.spot_check_growth(rng=0)


# -------------------------------------------------- solves without the report


def _peano_spec():
    # one mode, u' = -u + 2 sqrt|u|: not Lipschitz at 0, so from u0 = 0 both
    # 0 and 4(1 - e^{-t/2})^2 solve it
    return solver.ProblemSpec(
        laplacian_1d(1),
        lambda u: 2.0 * np.sqrt(np.abs(u)),
        _zero_diffusion,
        PP,
        c_F=1.0,
        L_F=1.0,
    )


def _assert_same_fixed_points(got, ref):
    """got (report=False) and ref (report=True) hold the same elements,
    residuals and residual traces bit for bit, NaN where NaN."""
    assert len(got) == len(ref) and got.residuals == ref.residuals
    for u, v in zip(got.elements, ref.elements):
        assert np.array_equal(u.values, v.values)
    assert len(got.residual_traces) == len(ref.residual_traces)
    for t, r in zip(got.residual_traces, ref.residual_traces):
        assert np.array_equal(t, r, equal_nan=True)


def test_distinctness_prefilter_keeps_the_elements(monkeypatch):
    # Peano from 0 with 8 starts: a sup term above distinct_tol settles
    # "distinct" with no pair search; with the prefilter off (a sup term of
    # 0 decides nothing) every pair and every step is searched, and the
    # elements are the same.  The step prefilter is off too, so there a
    # rejected step's trace entry is its residual, not its sup term
    spec = _peano_spec()
    om = paths.SampledPath(0.0, 1.0 / 256, np.zeros((257, 1)))
    cfg = solver.SolverConfig(n_starts=8)
    u0 = np.zeros(1)
    real, searches = paths._search, [0]

    def counted(*args):
        searches[0] += 1
        return real(*args)

    monkeypatch.setattr(paths, "_search", counted)
    sols = solver.solve_mild(u0, om, spec, cfg)
    prefiltered = searches[0]
    monkeypatch.setattr(solver, "_sup_term", lambda u, beta, rho: 0.0)
    searches[0] = 0
    every = solver.solve_mild(u0, om, spec, cfg)
    assert searches[0] > prefiltered
    assert len(sols) == len(every) == 2 and sols.residuals == every.residuals
    for u, v in zip(sols.elements, every.elements):
        assert np.array_equal(u.values, v.values)
    assert [len(t) for t in sols.residual_traces] == [len(t) for t in every.residual_traces]
    for t, r in zip(sols.residual_traces, every.residual_traces):
        for x, y in zip(t, r):
            assert x == y if x < cfg.fp_tol or y < cfg.fp_tol else x <= y
    for i, u in enumerate(sols.elements):
        for v in sols.elements[:i]:
            diff = paths.SampledPath(0.0, om.dt, u.values - v.values)
            assert paths.weighted_holder_norm(diff, PP.beta, 0.0) > cfg.distinct_tol


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_step_stops_without_the_report(bad):
    # the non-finite start of test_non_finite_start_stops_and_is_never_accepted,
    # solved with report=False: its sup term is NaN, the trace holds NaN
    # and the start stops, as with the report
    op = laplacian_1d(3)
    om = paths.sample_qfbm(op, 0.75, 64, 1 / 64, 4)
    u0 = np.array([1.0, 0.5, 0.0])
    cfg = solver.SolverConfig(n_starts=3, seed=4)
    spec, _ = _drift_off_the_probes(op, om, u0, cfg, 0.0, bad)
    got = solver.solve_mild(u0, om, spec, cfg, report=False)
    assert [len(t) for t in got.residual_traces] == [2, 1, 1]
    assert np.isnan(got.residual_traces[2][0])
    _assert_same_fixed_points(got, solver.solve_mild(u0, om, spec, cfg))


def test_overflowing_residual_stops_the_start_without_the_report():
    # F = 1.5e308 on a slow mode: T(u) is finite for every u, and T(u) - u
    # has the finite sup term 1.4993e308 but a norm that overflows to inf.
    # A sup term above paths._BIG comes from a scaled path, whose norm can
    # overflow, so that step is searched: its trace reads inf and the start
    # stops, with or without the report.  Were the sup term kept, the next
    # step, T(u) again, would converge
    op = SpectralOperator(np.array([1e-3]), np.array([1.0]))
    spec = solver.ProblemSpec(op, lambda u: np.full_like(u, 1.5e308), _zero_diffusion, PP)
    om = paths.SampledPath(0.0, 1.0 / 16, np.zeros((17, 1)))
    u0 = np.array([1.0])
    cfg = solver.SolverConfig(n_starts=3, seed=0)
    traces = []
    for report in (False, True):
        with pytest.raises(solver.SolverError) as info:
            solver.solve_mild(u0, om, spec, cfg, report=report)
        traces.append(info.value.residual_traces)
    assert traces[0] == traces[1] == [[np.inf]] * 3


def _additive_problem(n, seed):
    # criterion 7's linear additive-noise problem, lambda = 1, sigma = 0.5
    op = SpectralOperator(np.array([1.0]), np.array([1.0]))
    spec = solver.ProblemSpec(op, _zero_drift, lambda u, v: 0.5 * v, PP)
    return spec, paths.sample_fbm_1d(PP.hurst, n, 1.0 / n, seed), np.array([1.0])


def _heat_problem(n, seed):
    spec = heat.build_heat_problem(params=PP, n_modes=4, m_phys=32)
    om = paths.sample_qfbm(spec.operator, PP.hurst, n, 0.5 / n, seed)
    return spec, om, np.array([1.0, 0.0, -0.5, 0.25])


def _peano_problem(n, seed):
    return _peano_spec(), paths.SampledPath(0.0, 1.0 / n, np.zeros((n + 1, 1))), np.zeros(1)


@pytest.mark.parametrize("problem", [_heat_problem, _peano_problem, _additive_problem])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_report_changes_no_fixed_point(problem, seed):
    # the report adds probes, rho and ball norms but no Picard step rule:
    # without it the same starts reach the same elements in the same steps
    spec, om, u0 = problem(64, seed)
    cfg = solver.SolverConfig(n_starts=4, seed=seed)
    got = solver.solve_mild(u0, om, spec, cfg, report=False)
    _assert_same_fixed_points(got, solver.solve_mild(u0, om, spec, cfg))


# ------------------------------------------------- concatenation/translation


def _solved_example(n=64, seed=8):
    op = laplacian_1d(3)
    spec = solver.ProblemSpec(
        op,
        lambda u: np.tanh(u),
        lambda u, v: 0.15 * (1.0 + 0.3 * np.tanh(u[..., 1:2])) * v,
        PP,
        L_F=1.0,
    )
    om = paths.sample_qfbm(op, 0.75, n, 1.0 / n, seed)
    cfg = solver.SolverConfig(n_starts=2, seed=seed)
    sols = solver.solve_mild(np.array([1.0, -0.5, 0.25]), om, spec, cfg)
    return spec, om, cfg, sols


def test_solution_lives_on_the_drivers_grid():
    # the same driver started at t0 = 0.25 gives the same elements on its
    # own times: the starts and probes were once labelled from t = 0
    spec, om, cfg, sols = _solved_example()
    late = paths.SampledPath(0.25, om.dt, om.values)
    moved = solver.solve_mild(np.array([1.0, -0.5, 0.25]), late, spec, cfg)
    assert len(moved) == len(sols)
    for u, v in zip(moved.elements, sols.elements):
        assert np.array_equal(u.times, late.times)
        assert np.array_equal(u.values, v.values)


@pytest.mark.parametrize("seed", [0, 3, 2**32 + 5, 2**64 - 1])
def test_start_directions_are_no_driver_modes_normals(seed):
    # the probe's xi and the bump directions come from the solver's own
    # stream, not from the normals of driver mode i, default_rng([seed, i])
    n_modes, n = 16, 16
    spec = solver.ProblemSpec(laplacian_1d(n_modes), _zero_drift, _zero_diffusion, PP)
    om = paths.SampledPath(0.0, 1.0 / n, np.zeros((n + 1, n_modes)))
    cfg = solver.SolverConfig(n_starts=6, seed=seed)
    make_probes, starts = solver._start_family(np.ones(n_modes), om, spec, cfg)
    probes = make_probes()
    tips = [probes[2].values[-1]] + [s.values[-1] for s in list(starts)[2:]]
    dirs = np.array(tips) - probes[1].values[-1]
    modes = np.array([
        np.random.default_rng([seed, i]).standard_normal(n_modes) for i in range(4096)
    ])
    modes /= np.linalg.norm(modes, axis=1, keepdims=True)
    for d in dirs:
        d = d / np.linalg.norm(d)
        assert np.min(np.max(np.abs(modes - d), axis=1)) > 1e-6


def test_probe_images_are_the_first_picard_steps(monkeypatch):
    # rho is measured on T's images of u0, S(t)u0 and one bump probe; the
    # first two are also the first Picard steps of starts 0 and 1, so a
    # solve applies T once per Picard step plus once to the probe, and once
    # more to S(t)u0 when it is no start (n_starts = 1)
    spec, om, cfg, _ = _solved_example()
    u0 = np.array([1.0, -0.5, 0.25])
    real = solver.apply_mild
    seen = []

    def counting(u, *args):
        seen.append(u)
        return real(u, *args)

    monkeypatch.setattr(solver, "apply_mild", counting)
    for n_starts, probe_calls in ((1, 2), (2, 1), (3, 1)):
        seen.clear()
        c = solver.SolverConfig(n_starts=n_starts, seed=cfg.seed)
        sols = solver.solve_mild(u0, om, spec, c)
        assert len(sols.residual_traces) == n_starts
        steps = sum(len(t) for t in sols.residual_traces)
        assert len(seen) == steps + probe_calls
        # frozen from the solver that applied T to u0 and S(t)u0 twice, with
        # the bump probe's xi from the solver's own stream
        assert (sols.rho, sols.contraction_factor) == (1.0, 0.26284275996138656)

    # _choose_rho measures on the images it is given and applies T to nothing
    make_probes, starts = solver._start_family(u0, om, spec, cfg)
    probes, starts = make_probes(), list(starts)
    assert len(probes) == 3 and len(starts) == cfg.n_starts == 2
    assert starts[0] is probes[0] and starts[1] is probes[1]
    images = [real(p, om, u0, spec) for p in probes]
    seen.clear()
    assert solver._choose_rho(probes, images, PP.beta) == (1.0, 0.26284275996138656)
    assert seen == []


def test_choose_rho_doubles_to_a_frozen_weight():
    # a diffusion strong enough that rho = 1, 2 and 4 do not contract on the
    # probes; (rho, q) is frozen from the solver that applied T to u0 and
    # S(t)u0 twice, the trace lengths from the first solver to accept in the
    # unweighted norm (at rho > 1 that takes more steps than the weighted one)
    op = laplacian_1d(3)
    spec = solver.ProblemSpec(
        op,
        lambda u: np.tanh(u),
        lambda u, v: 6.0 * (1.0 + 0.3 * np.tanh(u[..., 1:2])) * v,
        PP,
        L_F=1.0,
    )
    om = paths.sample_qfbm(op, 0.75, 64, 1.0 / 64, 8)
    u0 = np.array([1.0, -0.5, 0.25])
    for n_starts in (1, 3):
        c = solver.SolverConfig(n_starts=n_starts, seed=8)
        sols = solver.solve_mild(u0, om, spec, c)
        assert (sols.rho, sols.contraction_factor) == (16.0, 0.24921666696172362)
        assert [len(t) for t in sols.residual_traces] == [9] * n_starts


def test_concatenated_solution_residual():
    # solve on [0,1], re-solve from u(1/2) on the shifted driver, paste:
    # the paste must still satisfy the full-window mild equation
    spec, om, cfg, sols = _solved_example()
    u = sols.elements[0]
    k = 32
    om2 = paths.wiener_shift(om, k)
    sols2 = solver.solve_mild(u.values[k], om2, spec, cfg)
    glued = paths.SampledPath(
        0.0, u.dt, np.vstack([u.values[: k + 1], sols2.elements[0].values[1:]])
    )
    tg = solver.apply_mild(glued, om, u.values[0], spec)
    res = paths.weighted_holder_norm(
        paths.SampledPath(0.0, u.dt, tg.values - glued.values), PP.beta, 0.0
    )
    assert res < 3.0 * cfg.fp_tol


def test_translate_check():
    spec, om, cfg, sols = _solved_example()
    u = sols.elements[0]
    res0 = solver.translate_check(u, 0.0, om, spec)
    assert res0 < cfg.fp_tol  # s = 0 reproduces the solve residual
    res = solver.translate_check(u, 0.5, om, spec)
    assert res < 2.0 * cfg.fp_tol


def test_solver_config_validation():
    with pytest.raises(ValueError):
        solver.SolverConfig(fp_tol=0.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(fp_tol=1e-3, distinct_tol=1e-4)


def test_solver_config_rejects_empty_search():
    # no start, or no Picard step, can never converge
    with pytest.raises(ValueError, match="n_starts"):
        solver.SolverConfig(n_starts=0)
    with pytest.raises(ValueError, match="max_iters"):
        solver.SolverConfig(max_iters=0)
    assert solver.SolverConfig(n_starts=1, max_iters=1).n_starts == 1


def test_phi_weights_huge_steps():
    # for z > 1e150, e^{-z} = 0 and phi1 = 1/z - 1/z^2 + e^{-z}/z^2 is 1/z
    # to machine precision, phi0 = 1/z^2 - e^{-z}(1/z + 1/z^2) is 1/z^2;
    # evaluating them must neither overflow nor warn
    z = np.array([1e151, 1e155, 1e200, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi0, phi1 = solver._phi_weights(z)
    assert np.all(np.isfinite(phi0)) and np.all(np.isfinite(phi1))
    assert np.all(phi1 == 1.0 / z)
    assert np.all(phi0 >= 0.0) and np.all(phi0 <= phi1 * 1e-150)
    assert phi0[0] == pytest.approx(1e-302, rel=1e-15, abs=0.0)
    # phi1 is continuous across the switch
    _, p1 = solver._phi_weights(np.array([1e150, np.nextafter(1e150, np.inf)]))
    assert p1 == pytest.approx(np.array([1e-150, 1e-150]), rel=1e-15, abs=0.0)


def _phi0_oracle(z):
    # (1 - (1+z)e^{-z})/z^2 in 60-digit decimal arithmetic
    ctx = decimal.Context(prec=60)
    d = ctx.create_decimal(float(z))
    e = ctx.exp(ctx.minus(d))
    num = ctx.subtract(1, ctx.multiply(ctx.add(1, d), e))
    return float(ctx.divide(num, ctx.multiply(d, d)))


def test_phi0_without_cancellation():
    # (1 - e^{-z})/z - phi1 cancels to ~1/z^2: it gave 1.18e-30 for 1e-30 at
    # z = 1e15, 0 at z = 1e20 and -1.36e-166 at z = 1e150
    z = np.geomspace(1e-4, 1e300, 601)
    phi0, _ = solver._phi_weights(z)
    ref = np.array([_phi0_oracle(x) for x in z])
    assert np.all(phi0 >= 0.0)
    normal = ref >= np.finfo(float).tiny
    assert normal.sum() > 300  # z below ~1.3e154
    rel = np.abs(phi0[normal] - ref[normal]) / ref[normal]
    assert rel.max() <= 1e-12
    for zz, want in ((1e15, 1e-30), (1e20, 1e-40), (1e150, 1e-300)):
        got = solver._phi_weights(np.array([zz]))[0][0]
        assert got == pytest.approx(want, rel=1e-12)


def test_one_diffusion_call_per_apply_on_the_grid_nodes(monkeypatch):
    # T calls the diffusion once, on the n+1 nodes, so no node is
    # synthesized twice: node k meets the increments of both its cells in
    # that call, and a count of diffusion calls is a count of T's
    spec, om, cfg, _ = _solved_example()
    u0 = np.array([1.0, -0.5, 0.25])
    real_g = spec.diffusion
    calls = []

    def recorded(u, v):
        calls.append((np.array(u), np.array(v)))
        return real_g(u, v)

    spec.diffusion = recorded
    cand = paths.SampledPath(0.0, om.dt, np.random.default_rng(9).normal(size=(65, 3)))
    solver.apply_mild(cand, om, u0, spec)
    assert len(calls) == 1
    u, v = calls[0]
    assert u.size == cand.values.size
    assert np.array_equal(u.reshape(cand.values.shape), cand.values)
    dw = np.diff(om.values, axis=0)
    # cell m takes G(u_m) dw[m] and G(u_{m+1}) dw[m]
    assert np.array_equal(v[:-1, 1], dw) and np.array_equal(v[1:, 0], dw)

    real_apply = solver.apply_mild
    applied = []

    def counting(*args):
        applied.append(1)
        return real_apply(*args)

    monkeypatch.setattr(solver, "apply_mild", counting)
    calls.clear()
    solver.solve_mild(u0, om, spec, cfg)
    assert len(calls) == len(applied) > 2


def test_cell_moments_are_cached_read_only_and_bounded():
    # apply_mild reads phi0, phi1 and the decay ladder e^{-lambda dt 2^i}
    # of its doubling scan from a cache keyed by eigenvalues, step and step
    # count: a warm call gives a cold call's bits
    op = laplacian_1d(3)
    spec = solver.ProblemSpec(op, np.sin, _zero_diffusion, PP)
    om = paths.sample_qfbm(op, 0.75, 64, 1 / 64, 2)
    u0 = np.array([1.0, -0.5, 0.25])
    cand = paths.SampledPath(0.0, om.dt, np.cos(om.values))
    solver._cell_moments.cache_clear()
    cold = solver.apply_mild(cand, om, u0, spec).values
    assert np.array_equal(solver.apply_mild(cand, om, u0, spec).values, cold)
    info = solver._cell_moments.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    phi0, phi1, ladder = solver._cell_moments(op.eigenvalues.tobytes(), om.dt, 64)
    z = op.eigenvalues * om.dt
    assert all(np.array_equal(x, y) for x, y in zip((phi0, phi1), solver._phi_weights(z)))
    assert ladder.shape == (6, 3) and np.array_equal(ladder[0], np.exp(-z))
    assert np.array_equal(ladder[1:], ladder[:-1] * ladder[:-1])
    for x in (phi0, phi1, ladder):
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = 1.0
    for n in range(1, 21):
        grid = paths.SampledPath(0.0, 1.0 / n, np.zeros((n + 1, 3)))
        solver.apply_mild(grid, grid, u0, spec)
    info = solver._cell_moments.cache_info()
    assert info.maxsize == solver._GRIDS and 0 < info.currsize <= info.maxsize


@pytest.mark.parametrize("zdt", [1e-6, 1.0, 64.0, 800.0])
def test_apply_mild_scan_matches_sequential_recursion(zdt):
    # the doubling scan against the one-cell-at-a-time recursion
    # D[m+1] = e^{-z} D[m] + cell_m, on a path-valued drift and diffusion
    n, N, M = 100, 3, 2
    dt = 1.0 / n
    lam = zdt / dt * np.array([1.0, 1.25, 1.5])
    op = SpectralOperator(lam, np.ones(N))
    B = np.random.default_rng(30).standard_normal((N, M))
    spec = solver.ProblemSpec(
        op,
        lambda u: np.sin(u) + 0.5,
        lambda u, v: (1.0 + 0.2 * np.cos(u[..., :1])) * (v @ B.T),
        PP,
    )
    rng = np.random.default_rng(31)
    w = np.cumsum(rng.standard_normal((n + 1, M)), axis=0) * 0.1
    om = paths.SampledPath(0.0, dt, w)
    u0 = np.array([1.0, -0.5, 2.0])
    cand = paths.SampledPath(0.0, dt, rng.standard_normal((n + 1, N)))
    got = solver.apply_mild(cand, om, u0, spec).values

    z = lam * dt
    E = np.exp(-z)
    phi0, phi1 = solver._phi_weights(z)
    ref = np.empty((n + 1, N))
    ref[0] = u0
    acc = np.zeros(N)
    for m in range(n):
        a, b = cand.values[m], cand.values[m + 1]
        dw = om.values[m + 1] - om.values[m]
        ga = B * (1.0 + 0.2 * np.cos(a[0]))
        gb = B * (1.0 + 0.2 * np.cos(b[0]))
        cell = dt * (phi0 * (np.sin(a) + 0.5) + phi1 * (np.sin(b) + 0.5))
        cell += phi0 * (ga @ dw) + phi1 * (gb @ dw)
        acc = E * acc + cell
        ref[m + 1] = np.exp(-lam * (m + 1) * dt) * u0 + acc
    assert np.all(np.isfinite(got))
    scale = np.max(np.abs(ref), axis=0)
    assert np.max(np.abs(got - ref) / scale) < 1e-13
