"""The eigenvalue wrapper's contract: closed forms, exact zeros, the
imaginary axis, a complex result and input rejection."""

import numpy as np
import pytest

import oracles
from eegnn.eig import eigvals


def test_empty_and_scalar():
    assert eigvals(np.zeros((0, 0))).size == 0
    assert eigvals(np.array([[3.5]])).tolist() == [3.5 + 0.0j]


def test_diagonal_exact():
    lam = eigvals(np.diag([2.0, -1.0, 0.5]))
    assert lam.dtype == np.complex128
    assert sorted(lam.real) == [-1.0, 0.5, 2.0]


def test_rotation_pure_imaginary():
    lam = eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert sorted(lam.imag.tolist()) == [-1.0, 1.0]
    assert np.abs(lam.real).max() == 0.0


def test_known_complex_pair():
    # [[1, -2], [2, 1]] has eigenvalues 1 +/- 2i
    lam = eigvals(np.array([[1.0, -2.0], [2.0, 1.0]]))
    assert oracles.match_complex_sets(lam, [1 + 2j, 1 - 2j], 1e-12)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        eigvals(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_jordan_block_multiple_zero():
    # defective triple zero: forward error scales like eps^(1/3)
    J = np.diag(np.ones(2), 1)
    lam = eigvals(np.vstack([J, np.zeros((1, 3))])[:3, :3])
    assert oracles.match_complex_sets(lam, [0.0, 0.0, 0.0], 1e-4)


def test_scaled_skew_spectrum_on_imaginary_axis():
    # the stability workload: positive diagonal scaling of a skew matrix is
    # similar to a skew matrix, so Re(lambda) = 0 up to solver error
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 17))
        raw = rng.normal(size=(m, m))
        skew = raw - raw.T
        d = rng.uniform(0.1, 2.0, size=m)
        d[rng.random(m) < 0.3] = 0.0       # dead rows decouple
        lam = eigvals(-(d[:, None] * skew))
        worst = max(worst, float(np.abs(lam.real).max()))
    assert worst <= 1e-8


def test_eigenvalue_count_matches_dimension():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 7, 12):
        assert eigvals(rng.normal(size=(n, n))).shape == (n,)


def test_stack_equals_one_call_per_matrix_bit_for_bit():
    rng = np.random.default_rng(3)
    for m in range(1, 33):
        stack = rng.normal(size=(2, 3, m, m))
        lam = eigvals(stack)
        assert lam.shape == (2, 3, m) and lam.dtype == np.complex128
        for i in range(2):
            for j in range(3):
                assert lam[i, j].tobytes() == eigvals(stack[i, j]).tobytes(), m
