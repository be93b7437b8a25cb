import itertools

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from dmres import (
    InvalidCouplingError,
    InvalidElementError,
    make_involution,
    make_subspace_hadamard,
    reflection,
)
from dmres.linalg import SIGMA_X, SIGMA_Y, projector
from dmres.operators import coupling_gate, uniform_superposition_projector

from oracles import coupling_unitary, projector_coupling_unitary, swap_op


class TestInvolution:
    def test_qutrit_01(self):
        assert_allclose(
            make_involution(3, 0, 1).entries,
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        )

    def test_qubit_is_pauli_x(self):
        assert_allclose(make_involution(2, 0, 1).entries, SIGMA_X)

    def test_squares_to_identity_d4(self):
        c = make_involution(4, 1, 3).entries
        assert_allclose(c @ c, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_hermitian_involution_all_pairs(self, d):
        for a, ap in itertools.permutations(range(d), 2):
            c = make_involution(d, a, ap).entries
            assert_allclose(c, c.conj().T, atol=1e-15)
            assert_allclose(c @ c, np.eye(d), atol=1e-15)

    def test_swap_action(self):
        c = make_involution(5, 0, 4).entries
        v = np.zeros(5)
        v[0] = 1
        assert_allclose(c @ v, np.eye(5)[4])
        assert_allclose(c @ np.eye(5)[2], np.eye(5)[2])

    def test_rejects_diagonal_pair(self):
        with pytest.raises(InvalidElementError):
            make_involution(3, 1, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidElementError):
            make_involution(3, 0, 3)


class TestSubspaceHadamard:
    def test_qubit_is_standard_hadamard(self):
        assert_allclose(
            make_subspace_hadamard(2, 0, 1).entries,
            np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        )

    def test_conjugates_reflection_to_involution_d3(self):
        h = make_subspace_hadamard(3, 0, 2).entries
        assert_allclose(h @ np.diag([1, 1, -1]) @ h, make_involution(3, 0, 2).entries, atol=1e-12)

    def test_squares_to_identity(self):
        h = make_subspace_hadamard(3, 0, 1).entries
        assert_allclose(h @ h, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_reflection_identity_all_pairs(self, d):
        # H (1 - 2|a'><a'|) H = C for every valid pair
        for a, ap in itertools.permutations(range(d), 2):
            h = make_subspace_hadamard(d, a, ap).entries
            o = reflection(d, ap).entries
            assert_allclose(h @ o @ h, make_involution(d, a, ap).entries, atol=1e-12)


class TestProjectorDecomposition:
    @pytest.mark.parametrize("d,a,ap", [(2, 0, 1), (3, 0, 2), (4, 2, 0), (5, 1, 4)])
    def test_postselected_involution_reads_the_element(self, d, a, ap):
        # pi_{a'} C = |a'><a|, so Tr(pi_{a'} C rho) = rho[a, a']
        rng = np.random.default_rng(0)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = z @ z.conj().T
        rho /= np.trace(rho)
        c = make_involution(d, a, ap).entries
        unit = np.zeros((d, d), dtype=complex)
        unit[ap, a] = 1
        assert_allclose(projector(d, ap) @ c, unit, atol=1e-15)
        assert_allclose(np.trace(projector(d, ap) @ c @ rho), rho[a, ap], atol=1e-14)


class TestCouplingUnitary:
    def test_zero_strength_is_identity(self):
        u = coupling_unitary(make_involution(2, 0, 1), 0.0).entries
        assert_allclose(u, np.eye(4), atol=1e-15)

    def test_half_pi_kills_cos_term(self):
        u = coupling_unitary(make_involution(2, 0, 1), np.pi / 2).entries
        assert_allclose(u, -1j * np.kron(SIGMA_X, SIGMA_Y), atol=1e-12)

    @pytest.mark.parametrize("d,a,ap,g", [(3, 0, 1, 0.37), (4, 1, 3, 1.1), (2, 0, 1, -0.6)])
    def test_matches_matrix_exponential(self, d, a, ap, g):
        c = make_involution(d, a, ap)
        want = scipy.linalg.expm(-1j * g * np.kron(c.entries, SIGMA_Y))
        assert_allclose(coupling_unitary(c, g).entries, want, atol=1e-12)

    def test_inverse_pairing(self):
        c = make_involution(3, 1, 2)
        u = coupling_unitary(c, 0.8).entries
        v = coupling_unitary(c, -0.8).entries
        assert_allclose(u @ v, np.eye(6), atol=1e-12)

    def test_rejects_non_involution(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvalidCouplingError):
            coupling_unitary(proj, 0.3)


class TestProjectorCoupling:
    @pytest.mark.parametrize("g", [0.05, 0.7, np.pi / 2])
    def test_matches_matrix_exponential(self, g):
        d = 3
        b = np.full(d, 1 / np.sqrt(d))
        p = np.outer(b, b)
        want = scipy.linalg.expm(-1j * g * np.kron(p, SIGMA_Y))
        assert_allclose(projector_coupling_unitary(p, g).entries, want, atol=1e-12)

    def test_rejects_non_projector(self):
        with pytest.raises(InvalidCouplingError):
            projector_coupling_unitary(swap_op(3, 0, 1), 0.3)


def _coupling_ops():
    """One operator of each coupling kind on a qutrit, as ``kind -> op``."""
    return {"involution": make_involution(3, 0, 2).entries,
            "projector": uniform_superposition_projector(3)}


class TestCouplingGate:
    @pytest.mark.parametrize("kind", ["involution", "projector"])
    @pytest.mark.parametrize("g", [0.05, 0.7, np.pi / 2, -1.3])
    def test_matches_matrix_exponential(self, kind, g):
        op = _coupling_ops()[kind]
        want = scipy.linalg.expm(-1j * g * np.kron(op, SIGMA_Y))
        assert_allclose(coupling_gate(kind, op, g), want, atol=1e-12)

    @pytest.mark.parametrize("kind", ["involution", "projector"])
    def test_strength_array_stacks_scalar_gates(self, kind):
        # the stacked path sweeps build a grid of plans with
        op = _coupling_ops()[kind]
        gs = np.array([[0.1, 0.7, np.pi / 4], [1.2, -0.4, 2.9]])
        stack = coupling_gate(kind, op, gs)
        assert stack.shape == gs.shape + (6, 6)
        for k in np.ndindex(gs.shape):
            assert np.array_equal(stack[k], coupling_gate(kind, op, float(gs[k])))

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidCouplingError, match="unknown coupling kind 'swap'"):
            coupling_gate("swap", make_involution(2, 0, 1).entries, 0.3)
