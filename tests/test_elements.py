import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmres import (
    ElementIndex,
    InvalidElementError,
    InvalidStateError,
    all_offdiagonal_elements,
    completely_offdiagonal_elements,
    element_from_flat,
    plan_document,
    plan_res,
    precision_element_set,
)
from dmres.elements import offdiagonal_pairs, pair_labels, shape_groups, supports

from oracles import reference_shape_groups


def test_coupled_set_and_size():
    e = ElementIndex.create((2, 3, 2), (0, 1, 1), (0, 2, 0))
    assert e.coupled_set == (1, 2)
    assert e.n_couplings == 2
    assert not e.is_diagonal


def test_flat_indices_row_major():
    e = ElementIndex.create((2, 2), (0, 1), (1, 0))
    assert e.s_flat == 1
    assert e.s_prime_flat == 2
    assert element_from_flat((2, 2), 1, 2) == e


def test_conjugate_swaps_indices():
    e = ElementIndex.create((3,), (0,), (2,))
    assert e.conjugate() == ElementIndex.create((3,), (2,), (0,))


def test_out_of_range_rejected():
    with pytest.raises(InvalidElementError):
        ElementIndex.create((2,), (2,), (0,))


def test_length_mismatch_rejected():
    with pytest.raises(InvalidElementError):
        ElementIndex.create((2, 2), (0,), (1, 1))


def test_offdiagonal_counts():
    assert len(all_offdiagonal_elements((3,))) == 3
    assert len(all_offdiagonal_elements((3,), ordered=True)) == 6
    assert len(all_offdiagonal_elements((2, 2))) == 6
    assert len(completely_offdiagonal_elements((2, 2))) == 2
    assert len(completely_offdiagonal_elements((3, 3))) == 18


def test_precision_sets():
    assert len(precision_element_set(1, 4)) == 6
    labels = {e.label() for e in precision_element_set(2, 2)}
    assert labels == {"00,11", "01,10"}


def test_flat_element_plan_exports_as_json():
    e = element_from_flat((3,), 0, 2)
    assert all(type(i) is int for i in e.s + e.s_prime)
    doc = json.loads(plan_document(plan_res(e, 0.7)))
    assert doc["element"]["s"] == [0] and doc["element"]["s_prime"] == [2]
    assert all(type(i) is int for i in doc["element"]["s"] + doc["element"]["s_prime"])


def test_labels_name_one_element_each():
    labels = [e.label() for e in all_offdiagonal_elements((12, 12))]
    assert len(set(labels)) == len(labels)
    assert element_from_flat((12, 12), 0, 22).label() == "0.0,1.10"
    assert element_from_flat((12, 12), 0, 132).label() == "0.0,11.0"


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
def test_digit_labels_unchanged(dims):
    for e in all_offdiagonal_elements(dims, ordered=True):
        assert e.label() == "".join(map(str, e.s)) + "," + "".join(map(str, e.s_prime))


@pytest.mark.parametrize("s_flat, sp_flat, shown",
                         [(5, 0, "5"), (-1, 0, "-1"), (0, 3, "3"), (0.5, 1, "0.5"), ("1", 0, "'1'")])
def test_flat_index_outside_the_levels_is_an_element_error(s_flat, sp_flat, shown):
    with pytest.raises(InvalidElementError, match=rf"flat index {shown} .*D=3"):
        element_from_flat((3,), s_flat, sp_flat)


def test_create_takes_integers_only():
    with pytest.raises(InvalidElementError, match="not all integers"):
        ElementIndex.create((3,), (1.7,), (0,))
    e = ElementIndex.create((3,), (np.int64(1),), (np.int32(0),))
    assert e == ElementIndex.create((3,), (1,), (0,))
    assert all(type(i) is int for i in e.s + e.s_prime)


@pytest.mark.parametrize("build", [
    lambda dims: ElementIndex.create(dims, (0,), (2,)),
    lambda dims: element_from_flat(dims, 0, 2),
    lambda dims: all_offdiagonal_elements(dims),
    lambda dims: completely_offdiagonal_elements(dims),
], ids=["create", "element_from_flat", "all_offdiagonal_elements", "completely_offdiagonal_elements"])
class TestIntegerDims:
    """Every entry point that takes dims reads them as integers; int() truncated 3.7 to 3."""

    @pytest.mark.parametrize("dims", [(3.7,), ("3",), (np.float64(3.0),)])
    def test_non_integer_dims_are_refused(self, build, dims):
        with pytest.raises(InvalidElementError, match=r"dims .* are not all integers"):
            build(dims)

    def test_numpy_integer_dims_are_read(self, build):
        got, want = build((np.int64(3),)), build((3,))
        assert got == want
        for element in got if isinstance(got, list) else [got]:
            assert all(type(d) is int for d in element.dims)


@pytest.mark.parametrize("n_qudits, d", [(0, 2), (1, 1), (-1, 3)])
def test_precision_set_of_an_empty_system_is_refused(n_qudits, d):
    with pytest.raises(InvalidStateError, match=rf"invalid system \({n_qudits} qudits of dimension {d}\)"):
        precision_element_set(n_qudits, d)


small_dims = st.lists(st.integers(2, 4), min_size=1, max_size=4).map(tuple).filter(lambda dims: math.prod(dims) <= 64)


@settings(max_examples=60, deadline=None)
@given(dims=small_dims, ordered=st.booleans())
def test_array_groups_and_supports_equal_the_per_element_oracle(dims, ordered):
    u, v = offdiagonal_pairs(dims, ordered)
    elements = all_offdiagonal_elements(dims, ordered)
    assert list(zip(u.tolist(), v.tolist())) == [(e.s_flat, e.s_prime_flat) for e in elements]
    assert pair_labels(dims, u, v) == [e.label() for e in elements]
    got, want = shape_groups(dims, u, v), reference_shape_groups(elements)
    assert len(got) == len(want)
    for members, (positions, support) in zip(got, want):
        assert np.array_equal(members, positions)
        assert np.array_equal(supports(dims, u[members], v[members]), support)


def test_pair_labels_separate_indices_past_ten_levels():
    assert pair_labels((12, 12), [0, 0], [22, 132]) == ["0.0,1.10", "0.0,11.0"]
