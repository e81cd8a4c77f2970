import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughdyn import dynsys, heat, paths, solver
from roughdyn.spectral import laplacian_1d

PP = paths.HolderParams()


def _pure_semigroup_problem(n_modes=3, n_steps=64):
    op = laplacian_1d(n_modes)
    spec = solver.ProblemSpec(
        op,
        lambda u: np.zeros_like(u),
        lambda u, v: np.zeros(np.broadcast_shapes(u.shape, v.shape)),
        PP,
    )
    om = paths.sample_qfbm(op, 0.75, n_steps, 1.0 / n_steps, 1)
    return spec, om


def test_hausdorff_semidist_examples():
    x = np.array([1.0, 2.0])
    assert dynsys.hausdorff_semidist([x], [x]) == 0.0
    assert dynsys.hausdorff_semidist(
        [np.zeros(3)], [np.array([1.0, 0.0, 0.0])]
    ) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        dynsys.hausdorff_semidist([], [x])


def test_hausdorff_semidist_brute_force_and_asymmetry():
    rng = np.random.default_rng(5)
    A = [rng.standard_normal(4) for _ in range(5)]
    B = [rng.standard_normal(4) for _ in range(3)]
    got = dynsys.hausdorff_semidist(A, B)
    ref = max(min(np.linalg.norm(a - b) for b in B) for a in A)
    assert got == pytest.approx(ref, rel=1e-12)
    # one-sided: A subset of B gives 0 one way, > 0 the other
    sup = A + B
    assert dynsys.hausdorff_semidist(A, sup) == 0.0
    assert dynsys.hausdorff_semidist(sup, A) > 0.0


def test_solution_map_at_zero():
    spec, om = _pure_semigroup_problem()
    u0 = np.array([1.0, 0.5, 0.0])
    got = dynsys.solution_map(0.0, om, u0, spec, solver.SolverConfig())
    assert len(got) == 1
    assert np.array_equal(got[0], u0)


def test_solution_map_pure_semigroup_singleton():
    spec, om = _pure_semigroup_problem()
    u0 = np.array([1.0, 0.5, 0.0])
    cfg = solver.SolverConfig(n_starts=2, seed=1)
    got = dynsys.solution_map(0.5, om, u0, spec, cfg)
    assert len(got) == 1
    exact = np.exp(-spec.operator.eigenvalues * 0.5) * u0
    assert np.max(np.abs(got[0] - exact)) < 1e-10


def test_cocycle_pure_semigroup_machine_precision():
    spec, om = _pure_semigroup_problem()
    u0 = np.array([1.0, -0.5, 0.25])
    cfg = solver.SolverConfig(n_starts=2, seed=2)
    (rep,) = dynsys.check_cocycle((0.25,), 0.25, om, u0, spec, cfg)
    assert rep["d1_lhs_to_rhs"] < 1e-12
    assert rep["d2_rhs_to_lhs"] < 1e-12


def test_cocycle_heat_example_small():
    spec = heat.build_heat_problem(params=PP, n_modes=4, m_phys=32)
    om = paths.sample_qfbm(spec.operator, PP.hurst, 64, 0.5 / 64, 3)
    u0 = np.zeros(4)
    u0[0] = 1.0
    cfg = solver.SolverConfig(n_starts=2, seed=3)
    (rep,) = dynsys.check_cocycle((0.125,), 0.125, om, u0, spec, cfg)
    assert max(rep["d1_lhs_to_rhs"], rep["d2_rhs_to_lhs"]) < 5e-3


def _heat_example(n=64, seed=3):
    spec = heat.build_heat_problem(params=PP, n_modes=4, m_phys=32)
    om = paths.sample_qfbm(spec.operator, PP.hurst, n, 0.5 / n, seed)
    u0 = np.zeros(4)
    u0[0] = 1.0
    return spec, om, u0


def _spy(monkeypatch, module, name):
    """Rebind module.name to a wrapper and return its call log: one
    [args, result] per call, result None while the call runs or if it raised."""
    real = getattr(module, name)
    log = []

    def spy(*args, **kwargs):
        log.append([args, None])
        log[-1][1] = real(*args, **kwargs)
        return log[-1][1]

    monkeypatch.setattr(module, name, spy)
    return log


def _ordered_spies(monkeypatch, module, names):
    """Rebind each module.name to a wrapper that appends (name, args,
    result) to one shared log as the call returns; returns the log."""
    log = []

    def spy_for(name, real):
        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            log.append((name, args, out))
            return out

        return spy

    for name in names:
        monkeypatch.setattr(module, name, spy_for(name, getattr(module, name)))
    return log


def test_solution_map_skips_the_rho_report(monkeypatch):
    # Phi is the fixed points' end values, the same bits as solve_mild's
    # reported solve, found with no rho search, no probe image and no ball
    # norm: T is applied once per Picard step and every norm is unweighted.
    # A step whose sup term max_t ||T(u)(t) - u(t)|| is above fp_tol is
    # rejected with no pair search, as in the reported solve
    spec, om, u0 = _heat_example()
    cfg = solver.SolverConfig(n_starts=3, seed=3)
    full = solver.solve_mild(u0, om.window(t=0.25), spec, cfg)
    assert full.rho == 1.0 and len(full.ball_ok) == len(full)
    choose = _spy(monkeypatch, solver, "_choose_rho")
    real_family, built = solver._start_family, []

    def family(*args):
        make_probes, starts = real_family(*args)

        def counted():
            built.append(True)
            return make_probes()

        return counted, starts

    monkeypatch.setattr(solver, "_start_family", family)
    log = _ordered_spies(
        monkeypatch, solver, ("apply_mild", "_sup_term", "weighted_holder_norm")
    )
    solves = _spy(monkeypatch, dynsys, "solve_mild")
    got = dynsys.solution_map(0.25, om, u0, spec, cfg)
    assert len(got) == len(full)
    for x, u in zip(got, full.elements):
        assert np.array_equal(x, u.values[-1])
    ((_, sols),) = solves
    assert sols.residuals == full.residuals
    for u, v in zip(sols.elements, full.elements):
        assert np.array_equal(u.values, v.values)
    assert sols.residual_traces == full.residual_traces
    assert choose == []
    assert built == []  # the probes, the bump probe among them, are never built
    assert {args[2] for name, args, _ in log if name != "apply_mild"} == {0.0}
    assert np.isnan(sols.rho) and np.isnan(sols.contraction_factor)
    assert sols.ball_ok == []
    # each step: T(u), then the sup term of T(u) - u, then the full norm of
    # that same difference exactly when the sup term is not above fp_tol
    steps = [i for i, (name, _, _) in enumerate(log) if name == "apply_mild"]
    assert len(steps) == sum(len(t) for t in sols.residual_traces)
    searched = 0
    for i in steps:
        name, (diff, *_), sup = log[i + 1]
        assert name == "_sup_term"
        nxt = log[i + 2] if i + 2 < len(log) else ("", (None,), None)
        ran = nxt[0] == "weighted_holder_norm" and nxt[1][0] is diff
        assert ran == (sup <= cfg.fp_tol)
        searched += ran
    # both kinds of step occur
    assert 0 < searched < len(steps)


def test_cocycle_shares_one_solve_of_phi_s(monkeypatch):
    # two t values at one s: Phi(s) once, then Phi(t+s) and Phi(t) from each
    # element of Phi(s) per t, 5 solves where two single-t checks make 6
    spec, om, u0 = _heat_example()
    cfg = solver.SolverConfig(n_starts=2, seed=3)
    singles = [dynsys.check_cocycle((t,), 0.125, om, u0, spec, cfg)[0] for t in (0.125, 0.25)]
    solves = _spy(monkeypatch, dynsys, "solve_mild")
    reps = dynsys.check_cocycle((0.125, 0.25), 0.125, om, u0, spec, cfg)
    assert all(rep["n_lhs"] == rep["n_rhs"] == 1 for rep in reps)
    assert [args[1].n_steps for args, _ in solves] == [16, 32, 16, 48, 32]
    assert reps == singles


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    n=st.sampled_from([16, 32, 64]),
    seed=st.integers(0, 2**32 - 1),
    split=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    u0=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
)
def test_property_cocycle_identity(n, seed, split, u0):
    # Phi(t+s, omega) = Phi(t, theta_s omega) o Phi(s, omega) at random
    # grids, drivers, windows k_s + k_t <= n and initial values, to the
    # solver-accuracy floor of criterion 8
    k_s = 1 + int(split[0] * (n - 2))
    k_t = 1 + int(split[1] * (n - k_s - 1))
    spec = heat.build_heat_problem(params=PP, n_modes=4, m_phys=32)
    om = paths.sample_qfbm(spec.operator, PP.hurst, n, 1.0 / n, seed)
    cfg = solver.SolverConfig(n_starts=2, seed=seed)
    (rep,) = dynsys.check_cocycle((k_t / n,), k_s / n, om, np.array(u0), spec, cfg)
    floor = 20.0 * cfg.fp_tol
    assert rep["d1_lhs_to_rhs"] <= floor
    assert rep["d2_rhs_to_lhs"] <= floor


def test_restriction_consistency():
    # value at t from a solve over [0, T] matches a solve over [0, t]
    spec = heat.build_heat_problem(params=PP, n_modes=4, m_phys=32)
    om = paths.sample_qfbm(spec.operator, PP.hurst, 64, 0.5 / 64, 4)
    u0 = np.zeros(4)
    u0[0] = 1.0
    cfg = solver.SolverConfig(n_starts=2, seed=4)
    full = solver.solve_mild(u0, om, spec, cfg)
    short = dynsys.solution_map(0.25, om, u0, spec, cfg)
    k = full.elements[0].index_of(0.25)
    d = np.linalg.norm(full.elements[0].values[k] - short[0])
    assert d < 2.0 * cfg.fp_tol * np.exp(full.rho * 0.25)


def test_usc_pure_semigroup_contraction():
    # F = G = 0: e(r) = ||S(t)(u0' - u0)|| <= r exactly
    spec, om = _pure_semigroup_problem()
    u0 = np.array([1.0, 0.0, 0.0])
    cfg = solver.SolverConfig(n_starts=1, seed=5)
    rep = dynsys.usc_probe(
        0.5, om, u0, spec, cfg, radii=(0.1, 0.01), m_per_radius=3
    )
    assert rep["failures"] == 0
    for r, e in zip(rep["radii"], rep["e"]):
        assert e <= r * (1.0 + 1e-9)
    assert rep["e"][1] <= rep["e"][0]
    # both sets are singletons, so the two directions are one distance
    assert rep["e_lsc"] == rep["e"]


def test_usc_radii_validation():
    spec, om = _pure_semigroup_problem()
    with pytest.raises(ValueError):
        dynsys.usc_probe(
            0.5,
            om,
            np.ones(3),
            spec,
            solver.SolverConfig(),
            radii=(0.01, 0.1),
        )


def _armed_problem(u0, bad_drift=None, bad_diffusion=None):
    # pure semigroup from u0; from any other initial value the drift or
    # diffusion misbehaves (every candidate path starts at its u0)
    spec, om = _pure_semigroup_problem()
    zero_f, zero_g = spec.drift, spec.diffusion

    def perturbed(u):
        # the drift gets the path (n+1, N), the diffusion (n+1, 1, N)
        return not np.array_equal(np.reshape(u, (-1, u0.size))[0], u0)

    def drift(u):
        return bad_drift(u) if bad_drift and perturbed(u) else zero_f(u)

    def diffusion(u, v):
        if bad_diffusion and perturbed(u):
            return bad_diffusion(u, v)
        return zero_g(u, v)

    spec.drift, spec.diffusion = drift, diffusion
    return spec, om


def test_usc_counts_solver_failures():
    # a non-finite drift off u0: every perturbed solve fails, counted
    u0 = np.array([1.0, 0.0, 0.0])
    spec, om = _armed_problem(u0, bad_drift=lambda u: np.full_like(u, np.nan))
    cfg = solver.SolverConfig(n_starts=1, seed=5)
    rep = dynsys.usc_probe(
        0.5, om, u0, spec, cfg, radii=(0.1,), m_per_radius=2
    )
    assert rep["failures"] == 2
    # a radius where every solve failed measured nothing, not a perfect 0
    assert rep["e"] == [None] and rep["e_lsc"] == [None]


def test_usc_propagates_programming_errors():
    u0 = np.array([1.0, 0.0, 0.0])

    def broken(u, v):
        raise TypeError("diffusion bug")

    spec, om = _armed_problem(u0, bad_diffusion=broken)
    cfg = solver.SolverConfig(n_starts=1, seed=5)
    with pytest.raises(TypeError, match="diffusion bug"):
        dynsys.usc_probe(
            0.5, om, u0, spec, cfg, radii=(0.1,), m_per_radius=2
        )
