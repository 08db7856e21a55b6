import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from cautious_lbfgs import Space, make_grid_space


def test_euclidean_inner_dot_product():
    space = Space(2)
    assert space.inner([1.0, 2.0], [3.0, 4.0]) == 11.0


def test_grid_inner_single_node():
    space = make_grid_space(2)
    assert space.dim == 1
    assert space.inner([1.0], [1.0]) == 0.25


def test_inner_of_zero_vector():
    space = Space(3)
    assert space.inner(np.zeros(3), np.zeros(3)) == 0.0


def test_norm_euclidean_345():
    assert Space(2).norm([3.0, 4.0]) == 5.0


def test_norm_grid_weighted():
    assert make_grid_space(2).norm([2.0]) == 1.0


def test_norm_zero():
    assert Space(4).norm(np.zeros(4)) == 0.0


@pytest.mark.parametrize("M,dim,weight", [(2, 1, 0.25), (4, 9, 0.0625), (16, 225, 1 / 256)])
def test_make_grid_space(M, dim, weight):
    space = make_grid_space(M)
    assert space.dim == dim
    assert_allclose(space.weight, weight, rtol=0, atol=0)


def test_make_grid_space_rejects_small_M():
    with pytest.raises(ValueError):
        make_grid_space(1)


def test_dimension_mismatch_raises():
    space = Space(3)
    with pytest.raises(ValueError):
        space.inner([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        space.norm([1.0])


@pytest.mark.parametrize("u", [
    np.array([1.0, 2.0, 3.0 + 0j]),
    np.array([1.0, 2.0, 3.0], dtype=np.complex64),
    [1.0, 2.0, np.complex128(3.0)],
    np.complex128(1j),
])
def test_complex_vector_rejected_without_a_warning(u):
    # a complex dtype raises, even with zero imaginary parts, where a cast
    # would drop them with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="real vector"):
            Space(3).check(u)


def test_real_inputs_of_other_types_are_converted():
    assert Space(3).check([1, 2, np.float32(0.5)]).tolist() == [1.0, 2.0, 0.5]
    assert Space(2).check(np.array([3, 4])).dtype == np.float64


def test_invalid_construction():
    with pytest.raises(ValueError):
        Space(dim=0)
    with pytest.raises(ValueError):
        Space(dim=3, weight=0.0)
    with pytest.raises(ValueError):
        Space(dim=3, weight=-1.0)


finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
    lambda x: x == 0.0 or abs(x) > 1e-150
)


@given(
    st.lists(finite_coord, min_size=1, max_size=8),
    st.lists(finite_coord, min_size=1, max_size=8),
    st.floats(min_value=1e-6, max_value=1e3),
)
def test_cauchy_schwarz_and_symmetry(u, v, weight):
    n = min(len(u), len(v))
    u, v = np.array(u[:n]), np.array(v[:n])
    space = Space(dim=n, weight=weight)
    lhs = abs(space.inner(u, v))
    rhs = space.norm(u) * space.norm(v)
    assert lhs <= rhs * (1 + 1e-12) + 1e-300
    assert space.inner(u, v) == space.inner(v, u)


@given(st.lists(finite_coord, min_size=1, max_size=8))
def test_unit_weight_matches_numpy_dot(u):
    u = np.array(u)
    space = Space(dim=len(u), weight=1.0)
    assert_allclose(space.inner(u, u), np.dot(u, u), rtol=1e-13, atol=1e-300)


@given(st.lists(finite_coord, min_size=1, max_size=8).filter(lambda u: any(x != 0 for x in u)))
def test_inner_positive_definite(u):
    u = np.array(u)
    space = Space(dim=len(u), weight=0.5)
    assert space.inner(u, u) > 0.0


@pytest.mark.parametrize("M", [4, 16, 64, 256])
def test_grid_inner_of_ones_approaches_unit_area(M):
    space = make_grid_space(M)
    ones = np.ones(space.dim)
    # interior-node Riemann sum of the constant 1 over the unit square
    assert_allclose(space.inner(ones, ones), (1 - 1 / M) ** 2, rtol=1e-12)
    assert abs(space.inner(ones, ones) - 1.0) < 2.0 / M


@given(
    hnp.arrays(float, st.integers(1, 256), elements=st.floats(-1e6, 1e6)),
    st.sampled_from([1.0, 1.0 / 32**2]) | st.floats(min_value=1e-6, max_value=1e3),
)
def test_checked_forms_equal_unchecked_bit_for_bit(u, weight):
    # on contiguous vectors and on strided and negative-stride views, every
    # layout that ravel(order="K") copies; np.linalg.norm copies such a view
    # before its dot, so sqrt(inner(v, v)) would differ from norm(v) in the
    # last bit there
    v = u[::-1] + 1.0
    views = (slice(None), slice(None, None, 2), slice(1, None, 3),
             slice(None, None, -1), slice(-1, None, -2))
    for a, b in ((u[view], v[view]) for view in views):
        if len(a) == 0:
            continue
        space = Space(dim=len(a), weight=weight)
        assert space.inner(a, b) == space.inner_unchecked(a, b)
        assert space.norm(a) == space.norm_unchecked(a)
        assert space.norm(a) == np.sqrt(weight) * np.linalg.norm(a)
