"""Symmetric-matrix storage, the integer rule of the API's integer
fields, and the vectorization, Kronecker and duplication-matrix algebra."""

import re

import numpy as np
import pytest

from ngvi._testing import random_spd, random_symmetric, random_well_conditioned
from ngvi.factors import Factor, FactorGraph
from ngvi.fim import duplication, kron, mat, matf, sym, vec, vech
from ngvi.kronmat import AsymmetricMatrixError, DimensionError, SymmetricMatrix, half_len
from ngvi.ngd import NgdConfig
from ngvi.quadrature import ExpectationRule


def test_half_len():
    assert [half_len(n) for n in (1, 2, 3, 4, 5)] == [1, 3, 6, 10, 15]


def test_vec_is_column_major():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])


def test_vec_of_vector_is_identity():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(vec(v), v)


def test_mat_inverts_vec():
    rng = np.random.default_rng(0)
    for rows, cols in ((1, 1), (2, 3), (4, 2)):
        a = rng.standard_normal((rows, cols))
        assert np.array_equal(mat(vec(a), rows, cols), a)


def test_mat_rejects_wrong_length():
    with pytest.raises(DimensionError):
        mat(np.arange(5.0), 2, 3)


def test_vech_is_column_major_lower_triangle():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert np.array_equal(vech(a), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_matf_inverts_vech():
    rng = np.random.default_rng(1)
    for n in range(1, 6):
        a = random_symmetric(n, rng)
        assert np.array_equal(matf(vech(a), n).full(), a)


def test_vech_rejects_asymmetric():
    with pytest.raises(AsymmetricMatrixError):
        vech(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_symmetric_matrix_full_is_bitwise_symmetric():
    rng = np.random.default_rng(2)
    for n in range(1, 6):
        s = SymmetricMatrix.from_full(random_symmetric(n, rng))
        full = s.full()
        assert np.array_equal(full, full.T)


def test_symmetric_matrix_rejects_wrong_half_length():
    with pytest.raises(DimensionError):
        SymmetricMatrix(3, np.zeros(5))


def test_symmetric_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        SymmetricMatrix(1, np.array([np.nan]))


def test_duplication_2x2_explicit():
    d = duplication(2).dup
    expected = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(d, expected)


def test_duplication_pinv_2x2_explicit():
    dp = duplication(2).pinv
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(dp, expected)


def test_duplication_maps_vech_to_vec():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        a = random_symmetric(n, rng)
        d = duplication(n).dup
        assert np.allclose(d @ vech(a), vec(a), atol=1e-15)


def test_duplication_pinv_left_inverse():
    for n in range(1, 6):
        pair = duplication(n)
        assert np.allclose(pair.pinv @ pair.dup, np.eye(half_len(n)), atol=1e-15)


def test_duplication_identity_dup2():
    # D+^T D^T = D D+
    for n in range(1, 6):
        pair = duplication(n)
        assert np.allclose(pair.pinv.T @ pair.dup.T, pair.dup @ pair.pinv, atol=1e-15)


def test_duplication_identity_dup3():
    # D D+ vec(S) = vec(S) for symmetric S
    rng = np.random.default_rng(4)
    for n in range(1, 6):
        pair = duplication(n)
        s = random_symmetric(n, rng)
        assert np.allclose(pair.dup @ pair.pinv @ vec(s), vec(s), atol=1e-14)


def test_duplication_identity_dup4():
    # D D+ (A (x) A) D = (A (x) A) D
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        pair = duplication(n)
        a = random_well_conditioned(n, rng)
        lhs = pair.dup @ pair.pinv @ kron(a, a) @ pair.dup
        rhs = kron(a, a) @ pair.dup
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_sym_operator():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(sym(a), np.array([[1.0, 5.0], [5.0, 4.0]]))


def test_sym_via_duplication():
    # D D^T vec(A) = vec(sym(A))
    rng = np.random.default_rng(6)
    for n in range(1, 6):
        d = duplication(n).dup
        a = rng.standard_normal((n, n))
        assert np.allclose(d @ d.T @ vec(a), vec(sym(a)), atol=1e-14)


def test_kron_mixed_product():
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        a, b, c, d = (random_well_conditioned(n, rng) for _ in range(4))
        assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-13)


def test_kron_inverse():
    rng = np.random.default_rng(8)
    for n in range(1, 5):
        a = random_well_conditioned(n, rng)
        b = random_well_conditioned(n, rng)
        lhs = np.linalg.inv(kron(a, b))
        rhs = kron(np.linalg.inv(a), np.linalg.inv(b))
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_kron_transpose():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 2))
    assert np.array_equal(kron(a, b).T, kron(a.T, b.T))


def test_kron_determinant():
    rng = np.random.default_rng(10)
    for n in range(1, 5):
        a = random_well_conditioned(n, rng)
        b = random_well_conditioned(n, rng)
        expected = np.linalg.det(a) ** n * np.linalg.det(b) ** n
        assert np.isclose(np.linalg.det(kron(a, b)), expected, rtol=1e-10)


def test_kron_trace_and_rank():
    rng = np.random.default_rng(11)
    a = random_well_conditioned(3, rng)
    b = random_well_conditioned(3, rng)
    assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b), atol=1e-12)
    a_low = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    assert np.linalg.matrix_rank(kron(a_low, b)) == (
        np.linalg.matrix_rank(a_low) * np.linalg.matrix_rank(b)
    )


def test_kron_vec_abc():
    # vec(A B C) = (C^T (x) A) vec(B)
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 4))
    c = rng.standard_normal((4, 2))
    assert np.allclose(vec(a @ b @ c), kron(c.T, a) @ vec(b), atol=1e-13)


def test_kron_quadratic_form():
    # a^T B C B^T d = vec(B)^T (C^T (x) d a^T) vec(B)
    rng = np.random.default_rng(13)
    n = 4
    a = rng.standard_normal(n)
    d = rng.standard_normal(n)
    b = rng.standard_normal((n, n))
    c = rng.standard_normal((n, n))
    lhs = float(a @ b @ c @ b.T @ d)
    rhs = float(vec(b) @ kron(c.T, np.outer(d, a)) @ vec(b))
    assert np.isclose(lhs, rhs, atol=1e-12)


def test_duplication_arrays_are_read_only():
    pair = duplication(3)
    with pytest.raises(ValueError):
        pair.dup[0, 0] = 5.0


def test_spd_roundtrip_through_half_vector():
    rng = np.random.default_rng(14)
    a = random_spd(4, rng)
    s = SymmetricMatrix.from_full(a)
    assert np.allclose(s.full(), a, atol=1e-15)


def _phi(u):
    return np.zeros(u.shape[0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Factor("f", (1.7, 0.2), _phi), "factor 'f' variable indices must be integers, found (1.7, 0.2)"),
        (lambda: Factor("f", ("1",), _phi), "factor 'f' variable indices must be integers, found ('1',)"),
        (lambda: Factor("f", (True,), _phi), "factor 'f' variable indices must be integers, found (True,)"),
        (lambda: Factor("f", (np.float64(1.0),), _phi), "factor 'f' variable indices must be integers"),
        (lambda: FactorGraph(2.5, (Factor("f", (0,), _phi),)), "graph dimension must be an integer, found 2.5"),
        (lambda: ExpectationRule("gauss_hermite", 5.5), "rule order must be an integer, found 5.5"),
        (lambda: ExpectationRule("gauss_hermite", True), "rule order must be an integer, found True"),
        (lambda: ExpectationRule("monte_carlo", 10, seed=1.5), "rule seed must be an integer, found 1.5"),
        (lambda: ExpectationRule("monte_carlo", 10, seed=np.True_), "rule seed must be an integer, found"),
        (lambda: NgdConfig(max_iters=2.5), "max_iters must be an integer, found 2.5"),
        (lambda: SymmetricMatrix(1.5, [1.0]), "dimension must be an integer, found 1.5"),
    ],
    ids=[
        "float-indices",
        "string-index",
        "bool-index",
        "numpy-float-index",
        "float-graph-dimension",
        "float-order",
        "bool-order",
        "float-seed",
        "numpy-bool-seed",
        "float-max-iters",
        "float-matrix-dimension",
    ],
)
def test_integer_fields_refuse_non_integers(build, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        build()


def test_integer_fields_take_numpy_integers_as_int():
    three = np.int64(3)
    records = (
        Factor("f", (np.int64(0), three), _phi).indices,
        FactorGraph(three, ()).dim,
        ExpectationRule("monte_carlo", three, seed=three).order,
        ExpectationRule("monte_carlo", three, seed=three).seed,
        NgdConfig(max_iters=three).max_iters,
        SymmetricMatrix(np.int64(1), [1.0]).dim,
    )
    assert records == ((0, 3), 3, 3, 3, 3, 1)
    assert all(type(v) is int for v in records[0] + records[1:])
