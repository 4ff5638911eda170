import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from windec import (
    BatchTensor,
    DivisibilityError,
    DomainError,
    RankError,
    Shape,
    ShapeMismatchError,
    SliceBoundsError,
    impulse,
    pad_zeros,
)
from oracles import flat_index, slice_region, split, stack


def rand_tensor(rng, dims):
    return BatchTensor(rng.standard_normal(dims))


# --- shape and layout --------------------------------------------------------


def test_shape_validation():
    with pytest.raises(RankError):
        Shape(1, (2, 2, 2, 2), 1)
    with pytest.raises(RankError):
        Shape(1, (), 1)
    with pytest.raises(ShapeMismatchError):
        Shape(0, (2,), 1)
    with pytest.raises(ShapeMismatchError):
        Shape(1, (2, 0), 1)


def test_layout_row_major_batch_slowest_channels_fastest():
    dims = (2, 3, 4, 2)
    t = BatchTensor(np.arange(np.prod(dims), dtype=np.float64).reshape(dims))
    flat = t.data.ravel()
    for b in range(2):
        for i in range(3):
            for j in range(4):
                for c in range(2):
                    assert flat[flat_index(dims, (b, i, j, c))] == t.data[b, i, j, c]


def test_from_array_rejects_non_finite():
    with pytest.raises(DomainError):
        BatchTensor.from_array([[[np.nan]]])
    with pytest.raises(DomainError):
        BatchTensor.from_array([[[np.inf]]])


def test_tensor_is_immutable():
    t = BatchTensor(np.zeros((1, 2, 1)))
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 1.0


def test_tensor_adopts_c_contiguous_array_and_freezes_it():
    a = np.arange(12.0).reshape(1, 4, 3)
    t = BatchTensor(a)
    assert t.data is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0, 0] = 1.0


@pytest.mark.parametrize("make", [
    lambda a: a[:, ::2],                # strided view
    lambda a: np.asfortranarray(a),     # Fortran order
    lambda a: a.transpose(0, 2, 1),     # transposed view
])
def test_tensor_copies_any_other_array(make):
    a = make(np.arange(24.0).reshape(1, 8, 3))
    t = BatchTensor(a)
    assert t.data.flags.c_contiguous
    assert np.array_equal(t.data, a)
    assert not np.shares_memory(t.data, a)
    assert a.flags.writeable


# --- split -------------------------------------------------------------------


def test_split_figure_shape():
    rng = np.random.default_rng(0)
    t = rand_tensor(rng, (4, 9, 9, 1))
    parts = split(t, 3, axis=2)
    assert [p.dims for p in parts] == [(4, 9, 3, 1)] * 3


def test_split_single_part_is_identity():
    rng = np.random.default_rng(1)
    t = rand_tensor(rng, (2, 5, 1))
    (only,) = split(t, 1, axis=1)
    assert only.equals(t)


def test_split_halves_by_hand():
    # (2, 4, 1) holding 0..7: item (b, i) = 4b + i
    t = BatchTensor(np.arange(8, dtype=np.float64).reshape(2, 4, 1))
    lo, hi = split(t, 2, axis=1)
    assert lo.data.ravel().tolist() == [0.0, 1.0, 4.0, 5.0]
    assert hi.data.ravel().tolist() == [2.0, 3.0, 6.0, 7.0]


def test_split_error_names_axis_extent_parts():
    t = BatchTensor(np.zeros((1, 9, 1)))
    with pytest.raises(DivisibilityError) as err:
        split(t, 2, axis=1)
    msg = str(err.value)
    assert "1" in msg and "9" in msg and "2" in msg


# --- stack -------------------------------------------------------------------


def test_stack_figure_shape():
    rng = np.random.default_rng(2)
    parts = [rand_tensor(rng, (4, 9, 3, 1)) for _ in range(3)]
    assert stack(parts, 0).dims == (12, 9, 3, 1)


def test_stack_singleton_identity():
    rng = np.random.default_rng(3)
    t = rand_tensor(rng, (2, 3, 3, 1))
    assert stack([t], 0).equals(t)


def test_stack_rejects_heterogeneous():
    a = BatchTensor(np.zeros((1, 2, 1)))
    b = BatchTensor(np.zeros((1, 3, 1)))
    with pytest.raises(ShapeMismatchError):
        stack([a, b], 1)
    with pytest.raises(ShapeMismatchError):
        stack([], 0)


@st.composite
def tensor_and_axis(draw):
    d = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 3))
    channels = draw(st.integers(1, 2))
    parts = draw(st.integers(1, 4))
    axis = draw(st.integers(0, d))
    extents = []
    for i in range(d):
        unit = draw(st.integers(1, 4))
        extents.append(unit * (parts if i + 1 == axis else 1))
    if axis == 0:
        batch *= parts
    seed = draw(st.integers(0, 2**32 - 1))
    dims = (batch, *extents, channels)
    data = np.random.default_rng(seed).standard_normal(dims)
    return BatchTensor(data), parts, axis


@given(tensor_and_axis())
def test_stack_of_split_round_trips_bit_exactly(case):
    t, parts, axis = case
    assert stack(split(t, parts, axis), axis).equals(t)


# --- pad_zeros ---------------------------------------------------------------


def test_pad_zeros_grows_extents():
    t = BatchTensor(np.ones((1, 7, 7, 1)))
    p = pad_zeros(t, (0, 0), (2, 2))
    assert p.dims == (1, 9, 9, 1)
    assert np.array_equal(p.data[:, :7, :7, :], t.data)
    assert np.all(p.data[:, 7:, :, :] == 0.0) and np.all(p.data[:, :, 7:, :] == 0.0)


def test_pad_zeros_identity_and_errors():
    rng = np.random.default_rng(4)
    t = rand_tensor(rng, (2, 4, 1))
    assert pad_zeros(t, (0,), (0,)).equals(t)
    with pytest.raises(DomainError):
        pad_zeros(t, (-1,), (0,))
    with pytest.raises(RankError):
        pad_zeros(t, (0, 0), (0, 0))


@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
def test_pad_zeros_preserves_sum_exactly(seed, before, after):
    # exact accumulation: appended zeros must not change the total at all
    rng = np.random.default_rng(seed)
    t = rand_tensor(rng, (2, 3, 4, 1))
    p = pad_zeros(t, (before, 0), (after, 1))
    assert math.fsum(p.data.ravel()) == math.fsum(t.data.ravel())


# --- slice_region ------------------------------------------------------------


def test_slice_full_extent_identity():
    rng = np.random.default_rng(5)
    t = rand_tensor(rng, (2, 5, 6, 1))
    assert slice_region(t, (0, 0), (5, 6)).equals(t)


def test_slice_loses_exterior_information():
    rng = np.random.default_rng(6)
    t = rand_tensor(rng, (1, 5, 1))
    inner = slice_region(t, (1,), (3,))
    back = pad_zeros(inner, (1,), (1,))
    assert back.dims == t.dims
    assert not back.equals(t)  # border was nonzero, so information was lost


def test_slice_bounds_error_names_dim():
    t = BatchTensor(np.zeros((1, 4, 4, 1)))
    with pytest.raises(SliceBoundsError) as err:
        slice_region(t, (0, 2), (4, 3))
    assert "dim 1" in str(err.value)


# --- impulse -----------------------------------------------------------------


def test_impulse_unit_mass_and_disjoint_support():
    shape = Shape(1, (9, 9), 1)
    a = impulse(shape, (4, 4))
    b = impulse(shape, (2, 7))
    assert a.data.sum() == 1.0
    assert np.sum((a.data != 0) & (b.data != 0)) == 0


def test_impulse_out_of_range():
    with pytest.raises(SliceBoundsError):
        impulse(Shape(1, (9, 9), 1), (9, 0))
