import json

import pytest

from dmres import (
    ElementIndex,
    InvalidElementError,
    all_offdiagonal_elements,
    completely_offdiagonal_elements,
    element_from_flat,
    plan_document,
    plan_res,
    precision_element_set,
)


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
