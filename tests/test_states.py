import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmres import (
    DensityMatrix,
    InvalidStateError,
    Ket,
    PrepParams,
    dephase,
    prepare_qutrit,
    prepare_two_qubit,
    random_mixed_state,
    stream,
)

THETA1 = math.asin(math.sqrt(1 / 3)) / 2
THETA2 = math.pi / 8


class TestQutritPreparation:
    def test_zero_angles_give_ground_state(self):
        ket = prepare_qutrit(PrepParams(variant="qutrit"))
        assert_allclose(ket.amplitudes, [1, 0, 0], atol=1e-15)

    def test_balanced_angles_give_equal_moduli(self):
        ket = prepare_qutrit(PrepParams(variant="qutrit", theta1=THETA1, theta2=THETA2,
                                        phi1=0.3, phi2=1.1))
        assert_allclose(np.abs(ket.amplitudes), np.full(3, 1 / math.sqrt(3)), atol=1e-12)

    def test_reference_coherence(self):
        phi2 = 2 * math.pi / 3
        ket = prepare_qutrit(PrepParams(variant="qutrit", theta1=THETA1, theta2=THETA2,
                                        phi1=phi2 + math.pi / 3, phi2=phi2))
        rho = ket.density()
        assert_allclose(rho.entry(0, 1), np.exp(-2j * math.pi / 3) / 3, atol=1e-12)


class TestTwoQubitPreparation:
    def test_zero_angles_give_bell_state(self):
        ket = prepare_two_qubit(PrepParams(variant="two-qubit"))
        want = np.zeros(4)
        want[1] = want[2] = 1 / math.sqrt(2)
        assert_allclose(ket.amplitudes, want, atol=1e-15)

    def test_swap_coherence_phase(self):
        phi11 = 0.77
        params = PrepParams(variant="two-qubit",
                            photon1=(math.pi / 8, phi11, phi11 + math.pi / 4))
        rho = prepare_two_qubit(params).density()
        assert_allclose(rho.entry(1, 2), np.exp(-2j * phi11) / 4, atol=1e-12)

    def test_double_flip_coherence_phase(self):
        phi11 = 0.77
        phi12 = phi11 + math.pi / 4
        params = PrepParams(variant="two-qubit", photon1=(math.pi / 8, phi11, phi12))
        rho = prepare_two_qubit(params).density()
        assert_allclose(rho.entry(0, 3), -np.exp(2j * phi12) / 4, atol=1e-12)

    def test_variant_mismatch_rejected(self):
        with pytest.raises(InvalidStateError):
            prepare_two_qubit(PrepParams(variant="qutrit"))

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(InvalidStateError):
            PrepParams(variant="qutrit", theta1=float("nan"))


class TestDephase:
    def test_gamma_one_is_identity(self):
        rho = random_mixed_state(3, stream(0, "deph"))
        out = dephase(rho, 1.0)
        assert_allclose(out.entries, rho.entries, atol=1e-15)

    def test_gamma_zero_diagonalizes(self):
        rho = random_mixed_state(3, stream(1, "deph"))
        out = dephase(rho, 0.0)
        assert_allclose(out.entries, np.diag(np.diag(rho.entries)), atol=1e-15)

    def test_plus_state_half(self):
        plus = DensityMatrix.create(np.full((2, 2), 0.5), (2,))
        out = dephase(plus, 0.5)
        assert_allclose(out.entries, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)

    def test_rejects_gamma_out_of_range(self):
        rho = random_mixed_state(2, stream(2, "deph"))
        for gamma in (-0.1, 1.1):
            with pytest.raises(InvalidStateError):
                dephase(rho, gamma)

    def test_trace_hermiticity_positivity_random(self):
        rng = stream(3, "deph")
        for _ in range(25):
            rho = random_mixed_state(4, rng)
            out = dephase(rho, 0.37)
            assert abs(np.trace(out.entries) - 1) < 1e-12
            assert_allclose(out.entries, out.entries.conj().T, atol=1e-14)
            assert np.linalg.eigvalsh(out.entries).min() > -1e-10

    def test_completely_offdiag_targets_all_differing_indices(self):
        rng = stream(4, "deph")
        rho = random_mixed_state((2, 2), rng)
        out = dephase(rho, 0.5, mode="completely-offdiag")
        scaled = {(0, 3), (3, 0), (1, 2), (2, 1)}
        for u in range(4):
            for v in range(4):
                factor = 0.5 if (u, v) in scaled else 1.0
                assert abs(out.entries[u, v] - factor * rho.entries[u, v]) < 1e-14

    def test_completely_offdiag_flags_indefinite_results(self):
        # the restricted map is not completely positive; a pure all-qudit
        # coherent state provides a witness and must survive flagged
        amps = np.array([-np.exp(1j * 0.9), np.exp(-1j * 0.3), np.exp(1j * 0.3), np.exp(-1j * 0.9)]) / 2
        rho = DensityMatrix.create(np.outer(amps, amps.conj()), (2, 2))
        out = dephase(rho, 0.2, mode="completely-offdiag")
        assert not out.positive
        assert abs(np.trace(out.entries) - 1) < 1e-12


class TestNonFiniteEntries:
    # a comparison with NaN is False, so the norm check let a NaN ket through
    # and extract_element read nan+nanj from it
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
    def test_ket_rejects_a_non_finite_amplitude(self, bad):
        with pytest.raises(InvalidStateError, match="ket has a non-finite entry"):
            Ket.create([bad, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, math.nan)])
    def test_density_matrix_rejects_a_non_finite_entry(self, bad):
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(InvalidStateError, match="density matrix has a non-finite entry"):
            DensityMatrix.create(mat, check_positive=False)
