import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmres import (
    DensityMatrix,
    ElementIndex,
    InvalidCouplingError,
    InvalidElementError,
    MeasurementSetting,
    characterize,
    diagonal_element,
    extract_element,
    joint_state,
    outcome_distribution,
    plan_document,
    plan_res,
    random_mixed_state,
    stream,
)
from dmres.elements import element_from_flat
from dmres.linalg import partial_trace
from dmres.plans import (
    ProtocolPlan,
    RES_SCHEME,
    base_amplitudes,
    enumerate_settings,
    functional_matrix,
    readout_amplitudes,
)
from dmres.res import element_plans

from oracles import reference_extract, reference_setting_probabilities


def maximally_mixed(dims):
    total = int(np.prod(dims))
    return DensityMatrix.create(np.eye(total) / total, dims)


def plus_state():
    return DensityMatrix.create(np.full((2, 2), 0.5), (2,))


def bare_res_plan(element, g):
    """A res plan without estimator coefficients, so g may be singular (sin 2g = 0)."""
    couplings = plan_res(element, 0.5).couplings  # the couplings do not depend on g
    settings = enumerate_settings(len(couplings))
    base = base_amplitudes(element.dims, couplings, g)
    shape = (len(settings), element.dim * 2 ** len(couplings))
    return ProtocolPlan(
        element=element, scheme=RES_SCHEME, g=g, couplings=couplings, settings=settings,
        coeff_re=np.zeros(shape), coeff_im=np.zeros(shape),
        base=base, blocks=tuple(range(element.dim)),
        block_amplitudes=readout_amplitudes(base, element.dim),
    )


class TestPlanStructure:
    def test_single_qubit_plan(self):
        plan = plan_res(ElementIndex.create((2,), (0,), (1,)), math.pi / 4)
        assert plan.n_meters == 1
        assert plan.n_settings == 2
        assert plan.post_selectors == (0, 1)

    def test_two_qubit_completely_offdiagonal(self):
        plan = plan_res(ElementIndex.create((2, 2), (0, 0), (1, 1)), math.pi / 8)
        assert plan.n_meters == 2
        assert plan.n_settings == 4

    def test_partial_overlap_couples_one_qudit(self):
        plan = plan_res(ElementIndex.create((2, 2), (0, 1), (0, 0)), 0.3)
        assert plan.n_meters == 1
        assert plan.couplings[0].qudit == 1

    def test_counts_follow_coupled_set(self):
        for dims, s, sp in [((3,), (1,), (2,)), ((2, 2), (0, 1), (1, 0)), ((3, 3), (0, 1), (0, 2))]:
            e = ElementIndex.create(dims, s, sp)
            plan = plan_res(e, 0.5)
            l = e.n_couplings
            assert plan.n_settings == 2 ** l
            assert plan.outcomes_per_setting == e.dim * 2 ** l

    def test_rejects_diagonal_element(self):
        with pytest.raises(InvalidElementError):
            plan_res(ElementIndex.create((3,), (1,), (1,)), 0.5)

    def test_rejects_singular_strength(self):
        for g in (0.0, math.pi / 2, math.pi):
            with pytest.raises(InvalidCouplingError, match="sin"):
                plan_res(ElementIndex.create((2,), (0,), (1,)), g)

    def test_plan_export_lists_coefficients(self):
        plan = plan_res(ElementIndex.create((2,), (0,), (1,)), 0.9)
        doc = plan_document(plan)
        assert '"scheme": "res"' in doc
        assert doc.count('"setting"') == plan.n_settings * plan.outcomes_per_setting


class TestJointState:
    def test_zero_strength_factorizes(self):
        rho = random_mixed_state(3, stream(0, "jt"))
        e = ElementIndex.create((3,), (0,), (1,))
        plan = bare_res_plan(e, 0.0)
        meter0 = np.zeros((2, 2))
        meter0[0, 0] = 1
        jt = joint_state(rho, plan)
        assert_allclose(jt.entries, np.kron(rho.entries, meter0), atol=0)

    def test_meter_polarization_at_quarter_pi(self):
        # ground-state input at g=pi/4 leaves the meter unpolarized in z
        rho = DensityMatrix.create(np.diag([1.0, 0.0]), (2,))
        plan = plan_res(ElementIndex.create((2,), (0,), (1,)), math.pi / 4)
        jt = joint_state(rho, plan)
        meter = partial_trace(jt.entries, (2, 2), [1])
        assert_allclose(meter[0, 0] - meter[1, 1], 0.0, atol=1e-12)

    def test_trace_preserved(self):
        rng = stream(1, "jt")
        for dims, s, sp in [((3,), (0,), (2,)), ((2, 2), (0, 0), (1, 1))]:
            rho = random_mixed_state(dims, rng)
            jt = joint_state(rho, plan_res(ElementIndex.create(dims, s, sp), 0.7))
            assert abs(np.trace(jt.entries) - 1) < 1e-12

    def test_dimension_mismatch_rejected(self):
        rho = random_mixed_state(2, stream(2, "jt"))
        plan = plan_res(ElementIndex.create((3,), (0,), (1,)), 0.5)
        with pytest.raises(InvalidElementError):
            joint_state(rho, plan)


class TestOutcomeDistribution:
    def test_uncoupled_maximally_mixed_is_uniform(self):
        rho = maximally_mixed((3,))
        plan = bare_res_plan(ElementIndex.create((3,), (0,), (1,)), 0.0)
        dist = outcome_distribution(rho, plan, 0)
        assert_allclose(dist.probabilities, np.full(6, 1 / 6), atol=1e-12)

    def test_normalization_random_inputs(self):
        rng = stream(3, "dist")
        for _ in range(10):
            rho = random_mixed_state((2, 2), rng)
            plan = plan_res(ElementIndex.create((2, 2), (0, 1), (1, 0)), 0.9)
            for i in range(plan.n_settings):
                dist = outcome_distribution(rho, plan, i)
                dist.check()
                assert abs(dist.probabilities.sum() - 1) < 1e-10

    def test_matches_projector_contraction_oracle(self):
        rho = plus_state()
        e = ElementIndex.create((2,), (0,), (1,))
        plan = plan_res(e, math.pi / 4)
        idx = plan.settings.index(MeasurementSetting(("y",)))
        got = outcome_distribution(rho, plan, idx).probabilities
        want = reference_setting_probabilities(rho.entries, (2,), (0,), (1,), math.pi / 4, ("y",))
        assert_allclose(got, want, atol=1e-12)


class TestExtraction:
    def test_maximally_mixed_has_zero_coherence(self):
        value = extract_element(maximally_mixed((3,)), plan_res(ElementIndex.create((3,), (0,), (2,)), 0.3))
        assert abs(value) < 1e-12

    def test_plus_state_half(self):
        # frozen from the independent trace-formula oracle
        e = ElementIndex.create((2,), (0,), (1,))
        oracle = reference_extract(plus_state().entries, (2,), (0,), (1,), 1.1)
        assert_allclose(oracle, 0.5, atol=1e-12)
        assert_allclose(extract_element(plus_state(), plan_res(e, 1.1)), oracle, atol=1e-12)

    def test_bell_swap_element_half(self):
        bell = np.zeros((4, 4), dtype=complex)
        for i in (1, 2):
            for j in (1, 2):
                bell[i, j] = 0.5
        rho = DensityMatrix.create(bell, (2, 2))
        e = ElementIndex.create((2, 2), (0, 1), (1, 0))
        oracle = reference_extract(bell, (2, 2), (0, 1), (1, 0), math.pi / 4)
        assert_allclose(oracle, 0.5, atol=1e-12)
        assert_allclose(extract_element(rho, plan_res(e, math.pi / 4)), oracle, atol=1e-12)

    @pytest.mark.parametrize("dims,s,sp", [
        ((2,), (0,), (1,)),
        ((4,), (1,), (3,)),
        ((2, 2), (0, 1), (0, 0)),
        ((3, 3), (0, 2), (2, 1)),
    ])
    def test_matches_reference_and_truth(self, dims, s, sp):
        rng = stream(4, "extract")
        e = ElementIndex.create(dims, s, sp)
        for g in (0.1, math.pi / 8, 1.2):
            plan = plan_res(e, g)
            for _ in range(5):
                rho = random_mixed_state(dims, rng)
                got = extract_element(rho, plan)
                assert abs(got - reference_extract(rho.entries, dims, s, sp, g)) < 1e-11
                assert abs(got - rho.entry(e.s_flat, e.s_prime_flat)) < 1e-11

    def test_strength_independence(self):
        rng = stream(5, "gindep")
        e = ElementIndex.create((3,), (1,), (2,))
        for _ in range(10):
            rho = random_mixed_state((3,), rng)
            a = extract_element(rho, plan_res(e, 0.1))
            b = extract_element(rho, plan_res(e, 1.2))
            assert abs(a - b) < 1e-10

    def test_conjugate_pair_consistency(self):
        rng = stream(6, "conj")
        for dims, s, sp in [((3,), (0,), (1,)), ((2, 2), (0, 0), (1, 1))]:
            e = ElementIndex.create(dims, s, sp)
            rho = random_mixed_state(dims, rng)
            fwd = extract_element(rho, plan_res(e, 0.6))
            rev = extract_element(rho, plan_res(e.conjugate(), 0.6))
            assert abs(fwd - np.conj(rev)) < 1e-10

    def test_coefficient_unbiasedness_on_matrix_units(self):
        # the estimator functional must hit 1 on (s, s') and 0 elsewhere
        for dims, s, sp in [((3,), (0,), (1,)), ((2, 2), (0, 1), (1, 0))]:
            e = ElementIndex.create(dims, s, sp)
            plan = plan_res(e, 0.4)
            k = functional_matrix(plan)
            target = np.zeros((e.dim, e.dim), dtype=complex)
            target[e.s_flat, e.s_prime_flat] = 1.0
            assert np.max(np.abs(k - target)) < 1e-10


class TestDiagonalAndCharacterize:
    def test_diagonal_examples(self):
        assert_allclose(diagonal_element(maximally_mixed((3,)), (1,)), 1 / 3, atol=1e-15)
        ground = DensityMatrix.create(np.diag([1.0, 0.0]), (2,))
        assert_allclose(diagonal_element(ground, (0,)), 1.0, atol=1e-15)

    def test_diagonal_matches_entry(self):
        rho = random_mixed_state((2, 2), stream(7, "diag"))
        for u in range(4):
            s = np.unravel_index(u, (2, 2))
            assert abs(diagonal_element(rho, s) - rho.entries[u, u].real) < 1e-14

    def test_characterize_recovers_state(self):
        for dims in ((3,), (2, 2)):
            rho = random_mixed_state(dims, stream(8, f"char{dims}"))
            est = characterize(rho, math.pi / 4)
            assert np.max(np.abs(est.entries - rho.entries)) < 1e-10
            assert_allclose(est.entries, est.entries.conj().T, atol=1e-14)
            assert abs(np.trace(est.entries) - 1) < 1e-10

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (2, 3)])
    def test_element_plans_row_major_pairs(self, dims):
        built = []

        def builder(element, g):
            built.append(element)
            return plan_res(element, g)

        pairs = list(element_plans(dims, 0.6, builder))
        total = int(np.prod(dims))
        assert [uv for uv, _ in pairs] == [(u, v) for u in range(total) for v in range(u + 1, total)]
        assert len(built) == len(pairs)
        for ((u, v), plan), element in zip(pairs, built):
            assert plan.element == element == element_from_flat(dims, u, v)
