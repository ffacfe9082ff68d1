import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from zpreal.errors import (
    DimensionMismatchError,
    Singular11Error,
    SingularMatrixError,
    SingularSchurError,
)
from zpreal.linalg import (
    Block2x2,
    block_inverse_2x2,
    cond_frobenius,
    determinant,
    frobenius,
    identity,
    inverse,
    lu_factor,
    lu_solve,
    matmul,
    max_frobenius,
    rank,
    solve,
)


def matmul_oracle(a, b):
    # naive triple loop, deliberately independent of numpy's product
    n, m = a.shape
    m2, p = b.shape
    assert m == m2
    out = np.zeros((n, p), dtype=complex)
    for i in range(n):
        for j in range(p):
            acc = 0j
            for k in range(m):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = random_complex(rng, 2, 2)
    assert_allclose(matmul(identity(2), m), m)


def test_matmul_imaginary_unit_squares_to_minus_one():
    one_i = np.array([[1j]])
    assert_allclose(matmul(one_i, one_i), np.array([[-1.0 + 0j]]))


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        assert_allclose(matmul(a, b), matmul_oracle(a, b), atol=1e-13)


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_matmul_associativity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_complex(rng, 4, 3)
        b = random_complex(rng, 3, 5)
        c = random_complex(rng, 5, 2)
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert frobenius(left - right) <= 1e-12 * max(1.0, frobenius(left))


# ---------------------------------------------------------------------------
# solve / inverse / determinant


def test_solve_identity_case():
    rng = np.random.default_rng(1)
    b = random_complex(rng, 3, 2)
    assert_allclose(solve(identity(3), b), b)


def test_solve_scalar_division():
    assert_allclose(solve(np.array([[2.0]]), np.array([[4.0]])), np.array([[2.0]]))


def test_solve_residual_well_conditioned():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_complex(rng, 5, 5) + 3 * identity(5)
        b = random_complex(rng, 5, 5)
        x = solve(a, b)
        assert frobenius(a @ x - b) <= 1e-10 * frobenius(b)


def test_solve_vector_rhs_keeps_shape():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 4, 4) + 4 * identity(4)
    b = random_complex(rng, 4)
    x = solve(a, b)
    assert x.shape == (4,)
    assert_allclose(a @ x, b, atol=1e-10)


def test_solve_singular_reports_pivot_index():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
    with pytest.raises(SingularMatrixError) as info:
        solve(a, np.eye(2))
    assert info.value.pivot_index == 1


def test_solve_zero_matrix_dies_on_first_pivot():
    with pytest.raises(SingularMatrixError) as info:
        solve(np.zeros((3, 3)), np.eye(3))
    assert info.value.pivot_index == 0


def test_lu_reconstruction():
    rng = np.random.default_rng(11)
    a = random_complex(rng, 6, 6)
    lu, perm, sign = lu_factor(a)
    lower = np.tril(lu, -1) + identity(6)
    upper = np.triu(lu)
    assert_allclose(lower @ upper, a[perm, :], atol=1e-12)
    assert sign in (-1, 1)


def test_inverse_diagonal():
    assert_allclose(inverse(np.diag([1.0, 2.0])), np.diag([1.0, 0.5]))


def test_inverse_1x1_imaginary():
    assert_allclose(inverse(np.array([[1j]])), np.array([[-1j]]))


def test_inverse_involution():
    rng = np.random.default_rng(4)
    a = random_complex(rng, 4, 4) + 2 * identity(4)
    assert_allclose(inverse(inverse(a)), a, atol=1e-10)


@pytest.mark.parametrize("n", [8, 32, 128])
def test_inverse_agrees_with_hand_lu(n):
    rng = np.random.default_rng(100 + n)
    a = random_complex(rng, n, n)
    hand = lu_solve(lu_factor(a), identity(n))
    cond = frobenius(a) * frobenius(hand)
    assert frobenius(inverse(a) - hand) <= 1e-12 * cond * frobenius(hand)


def test_inverse_well_conditioned_is_lapack_result():
    rng = np.random.default_rng(12)
    a = random_complex(rng, 6, 6) + 3 * identity(6)
    np.testing.assert_array_equal(inverse(a), np.linalg.inv(a))


@pytest.mark.parametrize("a, pivot", [
    (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), 1),
    (np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0 + 1e-14]]), 2),
])
def test_inverse_near_singular_still_raises_hand_lu_pivot(a, pivot):
    # LAPACK inverts these to finite (huge) values; the hand LU decides
    assert np.isfinite(np.linalg.inv(a)).all()
    with pytest.raises(SingularMatrixError) as from_lu:
        lu_factor(a)
    with pytest.raises(SingularMatrixError) as from_inverse:
        inverse(a)
    assert from_inverse.value.pivot_index == from_lu.value.pivot_index == pivot
    assert from_inverse.value.pivot_magnitude == from_lu.value.pivot_magnitude
    assert cond_frobenius(a) == float("inf")


def test_inverse_respects_explicit_pivot_eps():
    a = np.diag([1.0, 1e-6])
    assert_allclose(inverse(a), np.diag([1.0, 1e6]))
    with pytest.raises(SingularMatrixError) as info:
        inverse(a, pivot_eps=1e-3)
    assert info.value.pivot_index == 1


def test_inverse_empty_matrix():
    assert inverse(np.zeros((0, 0))).shape == (0, 0)


def test_determinant_against_numpy():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5):
        a = random_complex(rng, n, n)
        assert_allclose(determinant(a), np.linalg.det(a), rtol=1e-10)


def test_determinant_empty_matrix_is_one():
    assert determinant(np.zeros((0, 0))) == 1 + 0j


def test_determinant_singular_is_zero():
    assert determinant(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0j


def test_cond_frobenius_empty_is_one():
    assert cond_frobenius(np.zeros((0, 0))) == 1.0


def test_cond_frobenius_singular_is_inf():
    assert cond_frobenius(np.ones((2, 2))) == float("inf")


def test_solve_empty_system():
    x = solve(np.zeros((0, 0)), np.zeros((0, 3)))
    assert x.shape == (0, 3)


# ---------------------------------------------------------------------------
# rank


def test_rank_zero_matrix():
    assert rank(np.zeros((3, 4))) == 0


def test_rank_outer_product_is_one():
    rng = np.random.default_rng(6)
    f = random_complex(rng, 4)
    g = random_complex(rng, 4)
    assert rank(np.outer(f, g)) == 1


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_rectangular_and_deficient():
    rng = np.random.default_rng(8)
    a = random_complex(rng, 5, 3)
    b = random_complex(rng, 3, 6)
    assert rank(a @ b) == 3


@given(
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=3),
)
@example(fs=[0.0, 0.0, 1.0], gs=[0.0, 0.0, 2.225e-313])
def test_rank_one_property(fs, gs):
    f = np.asarray(fs, dtype=complex)
    g = np.asarray(gs, dtype=complex)
    m = np.outer(f, g)
    expected = 1 if np.abs(m).max() > 0 else 0  # tiny entries can underflow to 0
    assert rank(m) == expected


# ---------------------------------------------------------------------------
# block 2x2 inversion


def test_block_inverse_diagonal_blocks():
    m = Block2x2(np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)),
                 np.array([[2.0]]))
    out = block_inverse_2x2(m)
    assert_allclose(out.m22, np.array([[0.5]]))
    assert_allclose(out.m11, np.array([[1.0]]))


def test_block_inverse_of_identity():
    m = Block2x2.split(identity(5), 2)
    out = block_inverse_2x2(m)
    assert_allclose(out.assemble(), identity(5), atol=1e-14)


def test_block_inverse_matches_dense_inverse():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        n1 = int(rng.integers(0, n + 1))
        a = random_complex(rng, n, n) + 3 * identity(n)
        out = block_inverse_2x2(Block2x2.split(a, n1)).assemble()
        assert frobenius(out - inverse(a)) <= 1e-9


def test_block_inverse_singular11_distinguished():
    m = Block2x2(
        np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 1))
    )
    # the assembled matrix is invertible, only the 11 block is not
    assert abs(determinant(m.assemble())) == 1.0
    with pytest.raises(Singular11Error):
        block_inverse_2x2(m)


def test_block_inverse_singular_schur_distinguished():
    m = Block2x2(
        np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    with pytest.raises(SingularSchurError):
        block_inverse_2x2(m)


def test_block_inverse_near_singular11_distinguished():
    # LAPACK inverts the 11 block to finite values; it is still refused
    m11 = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    assert np.isfinite(np.linalg.inv(m11)).all()
    m = Block2x2(m11, identity(2), identity(2), np.zeros((2, 2)))
    with pytest.raises(Singular11Error) as info:
        block_inverse_2x2(m)
    assert info.value.pivot_index == 1


def test_block_inverse_near_singular_schur_distinguished():
    # Schur complement [[1, 1], [1, 1 + 1e-15]] - I·I⁻¹·I: nearly singular
    m22 = np.array([[2.0, 1.0], [1.0, 2.0 + 1e-15]])
    m = Block2x2(identity(2), identity(2), identity(2), m22)
    with pytest.raises(SingularSchurError) as info:
        block_inverse_2x2(m)
    assert info.value.pivot_index == 1


def test_block_inverse_empty_split_degenerates_to_plain_inverse():
    rng = np.random.default_rng(10)
    a = random_complex(rng, 3, 3) + 2 * identity(3)
    out = block_inverse_2x2(Block2x2.split(a, 0)).assemble()
    assert_allclose(out, inverse(a), atol=1e-11)


def test_max_frobenius_is_the_running_max_of_frobenius():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    b = rng.standard_normal((2, 3, 3)) + 0j
    want = max(0.0, *(frobenius(s) for s in a), *(frobenius(s) for s in b))
    assert max_frobenius(a, b) == want
    assert max_frobenius(a[0]) == frobenius(a[0])
    assert max_frobenius(np.zeros((0, 2, 2))) == 0.0
    assert max_frobenius() == 0.0
    # a NaN norm is not passed over: the check it feeds must fail
    a[1, 0, 0] = np.nan
    assert np.isnan(max_frobenius(b, a))
    assert np.isnan(max_frobenius(a, b))
