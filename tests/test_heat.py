import tracemalloc

import numpy as np
import pytest

from roughdyn import heat, paths, solver


def test_basis_roundtrip_exact():
    basis = heat.SineBasis(n_modes=16, m_phys=256)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(16)
    back = heat.project(basis, heat.synthesize(basis, c))
    assert np.max(np.abs(back - c)) < 1e-10


def test_basis_requires_enough_nodes():
    with pytest.raises(ValueError):
        heat.SineBasis(n_modes=8, m_phys=4)


def test_nemytskii_identity_and_zero():
    basis = heat.SineBasis(n_modes=8, m_phys=128)
    u = np.linspace(1, -1, 8)
    assert np.max(np.abs(heat.nemytskii_apply(lambda z: z, u, basis) - u)) < 1e-10
    assert np.all(heat.nemytskii_apply(lambda z: 0.0 * z, u, basis) == 0.0)


def test_nemytskii_sin_against_dense_oracle():
    # f = sin on u = e_1; dense-grid quadrature oracle at M = 4096:
    # coefficients 0.9225056119315838 (mode 1), 0 (mode 2, odd symmetry),
    # 0.025487044843387166 (mode 3), 0.0002055498074377138 (mode 5)
    basis = heat.SineBasis(n_modes=8, m_phys=256)
    e1 = np.zeros(8)
    e1[0] = 1.0
    got = heat.nemytskii_apply(np.sin, e1, basis)
    assert got[0] == pytest.approx(0.9225056119315838, abs=1e-6)
    assert abs(got[1]) < 1e-12
    assert got[2] == pytest.approx(0.025487044843387166, abs=1e-6)
    assert got[4] == pytest.approx(0.0002055498074377138, abs=1e-6)


def _independent_sine(n_modes, m_phys):
    # e_i(x_a) = sqrt(2/pi) sin(i x_a), x_a = a pi/(M+1), built here rather
    # than through SineBasis
    x = np.pi * np.arange(1, m_phys + 1) / (m_phys + 1)
    i = np.arange(1, n_modes + 1)
    return x, np.sqrt(2.0 / np.pi) * np.sin(np.outer(x, i)), np.pi / (m_phys + 1)


def _dense(g, u, n_modes, m_phys):
    # G(u) = w^2 S^T table S from the full M x M table g(x_a, y_b, u(y_b)),
    # built without SineBasis or KernelSpec
    x, S, w = _independent_sine(n_modes, m_phys)
    table = g(x[:, None], x[None, :], (S @ u)[None, :])
    return w**2 * (S.T @ table @ S)


def _default_g(x, y, z):
    return 0.1 * np.sin(x) * np.sin(y) * np.tanh(z)


def _transposed(kspec, u, basis):
    # G(u) applied to the unit vectors: G(u) transposed, same HS norm
    return heat.kernel_apply(kspec, u, np.eye(basis.n_modes), basis)


def test_kernel_zero():
    basis = heat.SineBasis(n_modes=4, m_phys=64)
    k = heat.KernelSpec(
        phi=np.sin, psi=lambda y, z: 0.0 * y * z, lipschitz_profile=lambda x: 0.0 * x
    )
    assert np.all(_transposed(k, np.ones(4), basis) == 0.0)


def test_kernel_separable_rank_one():
    # z-independent kernel phi(x)psi(y): rank one, HS norm ||phi|| ||psi||;
    # here phi = psi = sin with ||sin||^2 = pi/2
    basis = heat.SineBasis(n_modes=8, m_phys=256)
    k = heat.KernelSpec(
        phi=np.sin,
        psi=lambda y, z: np.sin(y) + 0.0 * z,
        lipschitz_profile=lambda x: 0.0 * x,
    )
    m = _transposed(k, np.zeros(8), basis)
    assert np.linalg.matrix_rank(m, tol=1e-10) == 1
    assert np.linalg.norm(m) == pytest.approx(np.pi / 2.0, rel=1e-6)
    dense = _dense(lambda x, y, z: np.sin(x) * np.sin(y) + 0.0 * z, np.zeros(8), 8, 256)
    assert np.max(np.abs(m - dense.T)) < 1e-12


def test_kernel_apply_default_kernel_matches_dense():
    basis = heat.SineBasis(n_modes=8, m_phys=128)
    kern = heat.default_kernel()
    rng = np.random.default_rng(3)
    vrng = np.random.default_rng(4)
    for _ in range(5):
        u = rng.standard_normal(8)
        dense = _dense(_default_g, u, 8, 128)
        a = _transposed(kern, u, basis)
        assert np.max(np.abs(a - dense.T)) < 1e-12
        v = vrng.standard_normal(8)
        a = heat.kernel_apply(kern, u, v, basis)
        assert np.max(np.abs(a - dense @ v)) < 1e-12


def test_kernel_apply_non_product_psi_matches_dense():
    # psi(y, z) = cos(y + z) does not factor in (y, z); the one path of
    # kernel_apply still matches the full table, on one field and on a path
    N, M, a = 6, 64, 0.37
    basis = heat.SineBasis(n_modes=N, m_phys=M)
    k = heat.KernelSpec(
        phi=lambda x: a * np.sin(2.0 * x),
        psi=lambda y, z: np.cos(y + z),
        lipschitz_profile=lambda x: a * np.abs(np.sin(2.0 * x)),
    )

    def g(x, y, z):
        return a * np.sin(2.0 * x) * np.cos(y + z)

    rng = np.random.default_rng(31)
    path = rng.standard_normal((4, N))
    vs = rng.standard_normal((4, 2, N))
    got = heat.kernel_apply(k, path[:, None, :], vs, basis)
    assert got.shape == (4, 2, N)
    for j in range(4):
        dense = _dense(g, path[j], N, M)
        assert np.max(np.abs(_transposed(k, path[j], basis) - dense.T)) < 1e-13
        assert np.max(np.abs(got[j] - vs[j] @ dense.T)) < 1e-13
    assert k.spot_check_profile(rng=0) >= 0.0


def test_kernel_lipschitz_bound():
    basis = heat.SineBasis(n_modes=16, m_phys=256)
    kern = heat.default_kernel()
    lnorm = heat.lipschitz_norm(kern, basis)
    assert lnorm == pytest.approx(0.1 * np.sqrt(np.pi / 2.0), rel=1e-3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        u1 = rng.standard_normal(16) * rng.uniform(0.1, 3.0)
        u2 = rng.standard_normal(16) * rng.uniform(0.1, 3.0)
        lhs = np.linalg.norm(
            _transposed(kern, u1, basis) - _transposed(kern, u2, basis)
        )
        assert lhs <= lnorm * np.linalg.norm(u1 - u2) + 1e-6


def test_parseval_bound():
    # ||G(u)||_HS^2 <= quadrature of int ||g(x, ., u(.))||^2 dx
    basis = heat.SineBasis(n_modes=8, m_phys=128)
    kern = heat.default_kernel()
    rng = np.random.default_rng(11)
    w = basis.weight
    for _ in range(10):
        u = rng.standard_normal(8)
        uy = heat.synthesize(basis, u)
        gv = kern.g(basis.nodes[:, None], basis.nodes[None, :], uy[None, :])
        full = w**2 * np.sum(gv**2)
        hs = np.linalg.norm(_transposed(kern, u, basis)) ** 2
        assert hs <= full * (1.0 + 1e-12)


def test_profile_spot_check():
    assert heat.default_kernel().spot_check_profile(rng=0) >= 0.0
    bad = heat.KernelSpec(
        phi=np.sin, psi=lambda y, z: z, lipschitz_profile=lambda x: 0.01 * np.sin(x)
    )
    assert bad.spot_check_profile(rng=0) < 0.0


def test_build_heat_problem_constants():
    spec = heat.build_heat_problem(n_modes=8, m_phys=64)
    assert spec.operator.n_modes == 8
    assert spec.operator.eigenvalues[2] == 9.0
    assert spec.L_G == pytest.approx(0.1 * np.sqrt(np.pi / 2.0), rel=1e-2)
    # G(0) = 0 for the default tanh(0) = 0 kernel
    basis = heat.SineBasis(n_modes=8, m_phys=64)
    assert np.all(_transposed(heat.default_kernel(), np.zeros(8), basis) == 0.0)
    rep = spec.spot_check_growth(rng=0)
    assert rep["drift_growth_slack"] >= 0.0
    assert rep["diffusion_lipschitz_slack"] >= -1e-12


def test_truncation_self_convergence():
    # halving the mode count changes the endpoint by a decreasing amount
    params = paths.HolderParams()
    ends = {}
    for N in (4, 8, 16):
        spec = heat.build_heat_problem(params=params, n_modes=N, m_phys=128)
        om = paths.sample_qfbm(spec.operator, 0.75, 64, 0.5 / 64, 5)
        u0 = np.zeros(N)
        u0[0] = 1.0
        sols = solver.solve_mild(
            u0, om, spec, solver.SolverConfig(n_starts=2, seed=5)
        )
        ends[N] = sols.elements[0].values[-1]
    d_8 = np.linalg.norm(ends[8][:4] - ends[4])
    d_16 = np.linalg.norm(ends[16][:8] - ends[8])
    assert d_16 < d_8


# ------------------------------------------------------- whole-path contract


def test_synth_matrix_cached():
    basis = heat.SineBasis(n_modes=8, m_phys=64)
    assert basis.synth_matrix is basis.synth_matrix
    assert basis.nodes is basis.nodes


def test_heat_drift_diffusion_on_path_match_per_node():
    N, M, n = 6, 48, 9
    spec = heat.build_heat_problem(n_modes=N, m_phys=M)
    x, S, w = _independent_sine(N, M)
    a = 0.1  # default kernel g(x, y, z) = a sin(x) sin(y) tanh(z)
    rng = np.random.default_rng(21)
    path = rng.standard_normal((n + 1, N))
    vpath = rng.standard_normal((n + 1, 2, N))
    fpath = spec.drift(path)
    # the mild operator's call: each node against two noise vectors
    gpath = spec.diffusion(path[:, None, :], vpath)
    assert fpath.shape == (n + 1, N)
    assert gpath.shape == (n + 1, 2, N)
    for k in range(n + 1):
        uy = S @ path[k]
        f_ref = w * (S.T @ np.tanh(uy))
        gv = a * np.sin(x)[:, None] * np.sin(x)[None, :] * np.tanh(uy)[None, :]
        g_ref = w**2 * (S.T @ gv @ S)
        assert np.max(np.abs(fpath[k] - f_ref)) < 1e-13
        assert np.max(np.abs(gpath[k] - vpath[k] @ g_ref.T)) < 1e-13
    # a single field is the path contract with no leading axes
    assert np.max(np.abs(spec.drift(path[3]) - fpath[3])) < 1e-14
    assert np.max(np.abs(spec.diffusion(path[3], vpath[3, 1]) - gpath[3, 1])) < 1e-14


def test_kernel_apply_on_path_matches_per_node():
    basis = heat.SineBasis(n_modes=5, m_phys=40)
    kern = heat.default_kernel()
    path = np.random.default_rng(22).standard_normal((2, 3, 5))
    vs = np.random.default_rng(23).standard_normal((2, 3, 5))
    got = heat.kernel_apply(kern, path, vs, basis)
    # one field against three noise vectors: one synthesis per field
    wide = heat.kernel_apply(kern, path[:, :1], vs, basis)
    assert got.shape == wide.shape == (2, 3, 5)
    for idx in np.ndindex(2, 3):
        ref = heat.kernel_apply(kern, path[idx], vs[idx], basis)
        assert np.max(np.abs(got[idx] - ref)) < 1e-13
        dense = _dense(_default_g, path[idx], 5, 40)
        assert np.max(np.abs(ref - dense @ vs[idx])) < 1e-13
        first = _dense(_default_g, path[idx[0], 0], 5, 40)
        assert np.max(np.abs(wide[idx] - first @ vs[idx])) < 1e-13


# ------------------------------------------------------------- node blocks


def _per_node(path, vs, n_modes, m_phys, a=0.1):
    # tanh drift and the default kernel, one node at a time, built without
    # SineBasis: f_k = w S^T tanh(S u_k), g_k = (w S^T phi) (w S^T psi_k . v_k)
    x, S, w = _independent_sine(n_modes, m_phys)
    left = w * (S.T @ np.sin(x))
    f_ref, g_ref = [], []
    for u, v in zip(path, vs):
        uy = S @ u
        f_ref.append(w * (S.T @ np.tanh(uy)))
        right = w * (S.T @ (a * np.sin(x) * np.tanh(uy)))
        g_ref.append(left * (v @ right)[..., None])
    return np.array(f_ref), np.array(g_ref)


@pytest.mark.parametrize(
    "rows, n_modes, m_phys, blocks",
    [
        # 1025 nodes of 256 values: 16 blocks of 61 rows and a ragged 49
        (1025, 16, 256, [61] * 16 + [49]),
        (1, 8, 256, [1]),
        # a node above the budget on its own: one row per block
        (3, 4, (1 << 14) + 100, [1, 1, 1]),
    ],
)
def test_node_blocks_match_per_node(rows, n_modes, m_phys, blocks):
    basis = heat.SineBasis(n_modes=n_modes, m_phys=m_phys)
    kern = heat.default_kernel()
    rng = np.random.default_rng(rows)
    path = rng.standard_normal((rows, n_modes))
    vs = rng.standard_normal((rows, 2, n_modes))
    seen = []

    def tanh(z):
        seen.append(z.shape)
        return np.tanh(z)

    f = heat.nemytskii_apply(tanh, path, basis)
    g = heat.kernel_apply(kern, path[:, None, :], vs, basis)
    assert seen == [(b, m_phys) for b in blocks]
    f_ref, g_ref = _per_node(path, vs, n_modes, m_phys)
    assert np.max(np.abs(f - f_ref)) <= 1e-13
    assert np.max(np.abs(g - g_ref)) <= 1e-13
    # a single (N,) field is a one-row path with no leading axis
    f0 = heat.nemytskii_apply(np.tanh, path[0], basis)
    g0 = heat.kernel_apply(kern, path[0], vs[0], basis)
    assert f0.shape == (n_modes,) and g0.shape == (2, n_modes)
    assert np.max(np.abs(f0 - f_ref[0])) <= 1e-13
    assert np.max(np.abs(g0 - g_ref[0])) <= 1e-13


def test_heat_memory_is_bounded_by_the_node_block():
    # whole-path fields would hold 8.4 MB each at (4097, 16), m_phys = 256;
    # the blocks hold at most three fields of 2^14 values besides the paths
    spec = heat.build_heat_problem(n_modes=16, m_phys=256)
    rng = np.random.default_rng(6)
    path = rng.standard_normal((4097, 16))
    vs = rng.standard_normal((4097, 2, 16))
    # first calls build the cached synthesis matrix
    spec.drift(path[:2])
    spec.diffusion(path[:2, None, :], vs[:2])
    bound = 8 * (3 * (1 << 14) + 4 * path.size)
    for call in (
        lambda: spec.drift(path),
        lambda: spec.diffusion(path[:, None, :], vs),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
