import numpy as np
import pytest

from roughdyn import spectral


def test_operator_validation():
    with pytest.raises(ValueError):
        spectral.SpectralOperator(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        spectral.SpectralOperator(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        spectral.SpectralOperator(np.array([1.0]), np.array([-1.0]))


def test_laplacian_spectrum():
    # exact squares: (i*pi/pi)^2 is one ulp off at i = 11, 13 and 15
    op = spectral.laplacian_1d(16)
    i = np.arange(1, 17)
    assert np.array_equal(op.eigenvalues, i**2)
    assert np.array_equal(op.trace_weights, 1.0 / i**2)


def test_semigroup_apply_examples():
    op = spectral.SpectralOperator(np.array([1.0, 4.0, 9.0]), np.zeros(3))
    u = np.array([1.0, 1.0, 1.0])
    assert np.array_equal(spectral.semigroup_apply(op, 0.0, u), u)

    op1 = spectral.SpectralOperator(np.array([1.0]), np.zeros(1))
    assert spectral.semigroup_apply(op1, 1.0, np.array([1.0]))[0] == pytest.approx(
        np.exp(-1.0)
    )

    op2 = spectral.SpectralOperator(np.array([1.0, 4.0]), np.zeros(2))
    out = spectral.semigroup_apply(op2, 0.5, np.array([2.0, 3.0]))
    assert np.allclose(out, [2 * np.exp(-0.5), 3 * np.exp(-2.0)])

    with pytest.raises(ValueError):
        spectral.semigroup_apply(op1, -0.1, np.array([1.0]))


def test_semigroup_apply_time_vector():
    # one row per time, each the same bits as the scalar call
    op = spectral.laplacian_1d(5)
    u = np.linspace(-1.0, 2.0, 5)
    t = 0.01 * np.arange(9)
    rows = spectral.semigroup_apply(op, t, u)
    assert rows.shape == (9, 5)
    for k, tk in enumerate(t):
        assert np.array_equal(rows[k], spectral.semigroup_apply(op, tk, u))
    assert np.array_equal(rows[0], u)
    with pytest.raises(ValueError):
        spectral.semigroup_apply(op, np.array([0.0, 0.1, -1e-300]), u)


def test_semigroup_law():
    op = spectral.laplacian_1d(8)
    u = np.linspace(1, 2, 8)
    a = spectral.semigroup_apply(op, 0.3, spectral.semigroup_apply(op, 0.2, u))
    b = spectral.semigroup_apply(op, 0.5, u)
    assert np.allclose(a, b, rtol=1e-14, atol=0)


def test_frac_power_norm_examples():
    op = spectral.SpectralOperator(np.array([1.0, 4.0, 9.0]), np.zeros(3))
    assert spectral.frac_power_norm(op, 0.0, np.array([3.0, 4.0, 0.0])) == 5.0
    op4 = spectral.SpectralOperator(np.array([4.0]), np.zeros(1))
    assert spectral.frac_power_norm(op4, 0.5, np.array([1.0])) == pytest.approx(2.0)
    assert spectral.frac_power_norm(op, 1.0, np.ones(3)) == pytest.approx(
        np.sqrt(98.0)
    )
    with pytest.raises(ValueError):
        spectral.frac_power_norm(op, -0.5, np.ones(3))


def test_frac_power_norm_of_semigroup_closed_form():
    # ||S(1/2) e_1|| in D((-A)^0.4) is lambda_1^0.4 e^{-lambda_1/2}; also at
    # lambda_1 = 4, where the power is not 1
    for op in (
        spectral.laplacian_1d(3),
        spectral.SpectralOperator(np.array([4.0, 9.0, 16.0]), np.zeros(3)),
    ):
        e1 = np.array([1.0, 0.0, 0.0])
        got = spectral.frac_power_norm(
            op, 0.4, spectral.semigroup_apply(op, 0.5, e1)
        )
        lam = op.eigenvalues[0]
        assert got == pytest.approx(lam**0.4 * np.exp(-lam * 0.5), rel=1e-12)


def test_smoothing_monotone_in_time():
    op = spectral.laplacian_1d(16)
    u = np.ones(16)
    prev = np.inf
    for t in (0.01, 0.1, 0.5, 1.0):
        cur = spectral.frac_power_norm(op, 0.7, spectral.semigroup_apply(op, t, u))
        assert np.isfinite(cur) and cur <= prev
        prev = cur


def test_contraction_limit():
    op = spectral.laplacian_1d(6)
    u = np.ones(6)
    for t in (0.1, 1.0):
        out = spectral.semigroup_apply(op, t, u)
        assert np.all(np.abs(out) <= np.abs(u))


@pytest.mark.parametrize(
    "rows, width, n_blocks, size",
    [
        (5121, 64, 21, 244),  # kummer_decay's table
        (4097, 136, 35, 118),  # write_series at 16 modes
        (1025, 256, 17, 61),  # heat's node fields at m_phys = 256
        (7, 1 << 20, 7, 1),  # a row wider than a piece is a block of its own
        (1, 1, 1, 1),
        (0, 64, 0, None),
    ],
)
def test_row_blocks_are_equal_pieces(rows, width, n_blocks, size):
    # equal blocks of at most one piece, the last one possibly shorter, and
    # no more of them than pieces need
    blocks = list(spectral._row_blocks(rows, width))
    assert len(blocks) == n_blocks
    sizes = [len(range(rows)[b]) for b in blocks]
    assert sum(sizes) == rows
    assert all(b.start == sum(sizes[:i]) for i, b in enumerate(blocks))
    assert all(s == size for s in sizes[:-1])
    assert all(s <= size for s in sizes[-1:])
    most = max(1, spectral._BLOCK_FLOATS // width)
    assert all(s <= most for s in sizes)
    assert (n_blocks - 1) * most < rows
