import json

import numpy as np
import pytest

from dmres import Ket, StateFormatError, random_mixed_state, read_state, stream, write_state
from dmres.stateio import format_float, state_document


def test_density_round_trip_bit_exact(tmp_path):
    rho = random_mixed_state((2, 2), stream(0, "io"))
    path = tmp_path / "rho.state"
    write_state(path, rho)
    back = read_state(path)
    assert back.dims == (2, 2)
    assert np.array_equal(back.entries, rho.entries)


def test_ket_round_trip_bit_exact(tmp_path):
    amps = stream(1, "io").standard_normal(3) + 1j * stream(2, "io").standard_normal(3)
    ket = Ket.create(amps / np.linalg.norm(amps), (3,))
    path = tmp_path / "psi.state"
    write_state(path, ket)
    back = read_state(path)
    assert isinstance(back, Ket)
    assert np.array_equal(back.amplitudes, ket.amplitudes)


def test_seventeen_digit_format():
    assert format_float(1 / 3) == "0.33333333333333331"
    assert float(format_float(np.pi)) == np.pi


def test_document_structure():
    rho = random_mixed_state(2, stream(3, "io"))
    doc = state_document(rho)
    assert '"dims": [2]' in doc
    assert '"kind": "density"' in doc


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "bad.state"
    path.write_text("not json at all{")
    with pytest.raises(StateFormatError):
        read_state(path)


def test_missing_fields_rejected(tmp_path):
    path = tmp_path / "bad.state"
    path.write_text('{"dims": [2]}')
    with pytest.raises(StateFormatError):
        read_state(path)


def test_invalid_state_rejected(tmp_path):
    path = tmp_path / "bad.state"
    path.write_text('{"dims": [2], "kind": "density", "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}')
    with pytest.raises(StateFormatError):
        read_state(path)  # trace is 2


@pytest.mark.parametrize("kind, data, cause", [
    ("density", [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "trace (2+0j) differs from 1"),
    ("ket", [[1, 0], [1, 0]], "ket norm 1.4142135623730951 differs from 1"),
])
def test_invalid_state_message_prints_plain_numbers(tmp_path, kind, data, cause):
    path = tmp_path / "bad.state"
    path.write_text(json.dumps({"dims": [2], "kind": kind, "data": data}))
    with pytest.raises(StateFormatError) as err:
        read_state(path)
    assert cause in str(err.value)
    assert "np." not in str(err.value)
