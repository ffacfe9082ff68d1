import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import outcome, reference_frobenius, reference_inverse, same_bits

from zpreal.errors import (DimensionMismatchError, SingularMatrixError,
                           ValidationError)
from zpreal.linalg import (
    cond_frobenius,
    frobenius,
    identity,
    inverse,
    max_frobenius,
    rank,
    solve,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# solve / inverse


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


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve(identity(3), np.ones(2))


def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
    with pytest.raises(SingularMatrixError):
        solve(a, np.eye(2))


def test_solve_zero_matrix_raises():
    with pytest.raises(SingularMatrixError):
        solve(np.zeros((3, 3)), np.eye(3))


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
    # the residual stays at the 1e-12·cond scale that LU with partial
    # pivoting guarantees
    rng = np.random.default_rng(100 + n)
    a = random_complex(rng, n, n)
    inv = inverse(a)
    cond = frobenius(a) * frobenius(inv)
    assert frobenius(a @ inv - identity(n)) <= 1e-12 * cond


def test_inverse_well_conditioned_is_lapack_result():
    rng = np.random.default_rng(12)
    a = random_complex(rng, 6, 6) + 3 * identity(6)
    np.testing.assert_array_equal(inverse(a), np.linalg.inv(a))


def test_inverse_inside_the_bound_is_lapack_result():
    # n·‖A‖∞·‖A⁻¹‖∞·1e-13 = 0.02 < 0.1
    a = np.diag([1.0, 1e-11])
    np.testing.assert_array_equal(inverse(a), np.linalg.inv(a))


def test_inverse_refuses_past_the_bound():
    # n·‖A‖∞·‖A⁻¹‖∞·1e-13 = 0.63: refused although LAPACK's result is
    # finite and exact, and no pivot is below 1e-13·‖A‖∞
    a = np.diag([1.0, 10.0 ** -12.5])
    assert np.isfinite(np.linalg.inv(a)).all()
    with pytest.raises(SingularMatrixError):
        inverse(a)
    assert cond_frobenius(a) == float("inf")


@pytest.mark.parametrize("a", [
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
    np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0 + 1e-14]]),
], ids=["nearly_rank_one_2x2", "nearly_singular_3x3"])
def test_inverse_refuses_near_singular(a):
    # LAPACK inverts these to finite (huge) values; the bound refuses them
    assert np.isfinite(np.linalg.inv(a)).all()
    with pytest.raises(SingularMatrixError):
        inverse(a)
    assert cond_frobenius(a) == float("inf")


@pytest.mark.parametrize("a", [
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    np.zeros((3, 3)),
    np.array([[1.0, np.nan], [0.0, 1.0]]),
    np.array([[1.0, np.inf], [0.0, 1.0]]),
], ids=["rank_one", "zero", "nan", "inf"])
def test_inverse_refuses_singular(a):
    with pytest.raises(SingularMatrixError):
        inverse(a)


def test_inverse_empty_matrix():
    assert inverse(np.zeros((0, 0))).shape == (0, 0)


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


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_rank_of_an_empty_matrix_is_zero(shape):
    assert rank(np.zeros(shape)) == 0


def test_rank_outer_product_is_one():
    rng = np.random.default_rng(6)
    f = random_complex(rng, 4)
    g = random_complex(rng, 4)
    assert rank(np.outer(f, g)) == 1


def test_rank_of_subnormal_rank_one_matrix_is_one():
    # every entry a multiple of the smallest subnormal: the power-of-two
    # scaling makes them exact small integers
    m = np.outer([1.0, 2.0, 3.0], [1.0, 3.0]) * 5e-324
    assert np.abs(m).max() < np.finfo(float).tiny
    assert rank(m) == 1


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


# --- the inverse's guards and the Frobenius norm against references ---------

_REFUSED = {
    "nan": np.array([[np.nan, 0], [0, 1]]),
    "inf": np.array([[1, 0], [0, -np.inf]]),
    "complex-inf": np.array([[1, complex(0, np.inf)], [0, 1]]),
    "non-finite-non-square": np.full((2, 3), np.nan),
    "singular": np.zeros((2, 2)),
    "rank-deficient": np.ones((3, 3)),
    "ill-conditioned": np.array([[1, 1], [1, 1 + 1e-12]]),
    "near-singular-diagonal": np.diag([1.0, 1e-14]),
    # row sums, not column sums, go into the bound it prints
    "ill-conditioned-non-symmetric": np.array([[1, 1e3], [1, 1e3 + 1e-7]]),
    "inverse-overflows": np.diag([1.0, 1e-310]),
    "norm-overflows": np.diag([1e300, 1e-300]),
    # |a₀₀| = 1.41e308 is finite, and the bound is 2.8e295
    "huge-entry": np.array([[1e308 + 1e308j, 0], [0, 1]]),
    # finite, but np.abs overflows to inf: the bound is inf
    "abs-overflows": np.array([[1.5e308 + 1.5e308j, 0], [0, 1]]),
    # LAPACK inverts it to the finite [[0, 0], [0, 1]]
    "non-finite-finite-inverse": np.array([[np.inf, 0], [0, 1]]),
    "non-finite-zero-inverse": np.array([[np.inf]]),
    "1-d": np.ones(3),
    "0-d": np.array(2.0),
    "3-d": np.ones((2, 2, 2)),
    "non-square": np.ones((2, 3)),
    "empty-non-square": np.zeros((0, 3)),
}


@pytest.mark.parametrize("a", list(_REFUSED.values()), ids=list(_REFUSED))
def test_inverse_refuses_as_the_reference_does(a):
    want = outcome(reference_inverse, a)
    assert want[0] in (SingularMatrixError, DimensionMismatchError)
    assert outcome(inverse, a) == want


def test_inverse_refuses_an_overflowing_row_sum_without_a_warning():
    # every entry is finite, and so is LAPACK's result, but the first
    # row sum of |A| overflows: the bound is inf
    a = np.array([[1e308 + 1e308j, 1e308], [0, 1]])
    with np.errstate(over="ignore"):
        want = outcome(reference_inverse, a)
    assert want == (SingularMatrixError, "matrix is numerically singular: "
                    "n·‖A‖∞·‖A⁻¹‖∞·1e-13 = inf ≥ 0.1")
    assert outcome(inverse, a) == want


_EXTREME = st.sampled_from([0.0, 1.0, -2.5, 1e-13, 1e-300, 1e-310, 1e300,
                            1e308, 1.5e308, np.inf, -np.inf, np.nan])
_ENTRY = st.builds(complex, _EXTREME | st.floats(-3.0, 3.0),
                   _EXTREME | st.floats(-3.0, 3.0))


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(_ENTRY, min_size=n * n, max_size=n * n).map(
        lambda v: np.array(v).reshape(n, n))))
def test_inverse_matches_the_reference_on_extreme_entries(a):
    # the reference may warn where a row sum overflows; inverse does not
    with np.errstate(over="ignore"):
        want = outcome(reference_inverse, a)
    got = outcome(inverse, a)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert same_bits(got[1], want[1])
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 32, 128])
def test_inverse_accepts_as_the_reference_does(n):
    rng = np.random.default_rng(n)
    a = random_complex(rng, n, n) + 2 * identity(n)
    assert same_bits(inverse(a), reference_inverse(a))
    assert same_bits(inverse(a.real), reference_inverse(a.real))


@pytest.mark.parametrize("shape", [(0,), (0, 0), (1, 1), (3,), (4, 7),
                                   (33, 33), (2, 3, 4)])
def test_frobenius_has_the_bits_of_the_reference(shape):
    rng = np.random.default_rng(len(shape) + sum(shape))
    a = random_complex(rng, *shape) * 1e5 ** rng.standard_normal(shape)
    got = frobenius(a)
    assert type(got) is float
    assert same_bits(got, reference_frobenius(a))
    assert same_bits(frobenius(a.real), reference_frobenius(a.real))
    assert same_bits(frobenius(a.tolist()), reference_frobenius(a))


def test_identity_reads_its_size_as_a_count():
    for n in (0, 3, np.int64(2)):
        got = identity(n)
        assert same_bits(got, np.eye(n, dtype=np.complex128))
        assert got.flags.writeable
    for n in (True, "2", 2.0, None):
        with pytest.raises(ValidationError) as exc:
            identity(n)
        assert str(exc.value) == f"n must be an integer, got {n}"
    with pytest.raises(ValidationError) as exc:
        identity(-1)
    assert str(exc.value) == "n must not be negative, got -1"
