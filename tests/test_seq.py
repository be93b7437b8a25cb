import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmres import (
    CalibrationError,
    DensityMatrix,
    ElementIndex,
    InvalidCouplingError,
    PrepParams,
    ShotPolicy,
    calibrate_estimator,
    element_variance,
    extract_element,
    plan_res,
    plan_seq,
    prepare_qutrit,
    random_mixed_state,
    response_map,
    stream,
)
from dmres.plans import all_probabilities, functional_matrix, sign_products
from dmres.seq import seq_couplings
from dmres.plans import ProtocolPlan, SEQ_SCHEME, base_amplitudes, enumerate_settings, readout_amplitudes

from oracles import hermitian_coordinates


def bare_seq_plan(element, g):
    couplings = seq_couplings(element)
    settings = enumerate_settings(len(couplings))
    base = base_amplitudes(element.dims, couplings, g)
    amps = readout_amplitudes(base, element.dim)
    shape = (len(settings), element.dim * 2 ** len(couplings))
    return ProtocolPlan(
        element=element, scheme=SEQ_SCHEME, g=g, couplings=couplings, settings=settings,
        coeff_re=np.zeros(shape), coeff_im=np.zeros(shape),
        base=base, blocks=tuple(range(element.dim)), block_amplitudes=amps,
    )


class TestPlanStructure:
    def test_single_qubit_two_meters_four_settings(self):
        plan = plan_seq(ElementIndex.create((2,), (0,), (1,)), 0.1)
        assert plan.n_meters == 2
        assert plan.n_settings == 4

    def test_two_qubit_four_meters_sixteen_settings(self):
        plan = plan_seq(ElementIndex.create((2, 2), (0, 0), (1, 1)), 0.3)
        assert plan.n_meters == 4
        assert plan.n_settings == 16

    def test_coupling_order_target_projector_first(self):
        e = ElementIndex.create((3,), (1,), (2,))
        plan = plan_seq(e, 0.4)
        first, second = plan.couplings
        target = np.zeros((3, 3), dtype=complex)
        target[1, 1] = 1
        assert_allclose(first.op, target, atol=1e-15)
        assert_allclose(second.op, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_rejects_zero_strength(self):
        with pytest.raises(InvalidCouplingError):
            plan_seq(ElementIndex.create((2,), (0,), (1,)), 0.0)

    def test_plan_export_carries_seq_tag(self):
        from dmres import plan_document

        doc = plan_document(plan_seq(ElementIndex.create((2,), (0,), (1,)), 0.4))
        assert '"scheme": "seq"' in doc
        assert '"pi[b]@q0"' in doc


class TestResponseMap:
    def test_reproduces_outcome_distribution(self):
        e = ElementIndex.create((3,), (0,), (1,))
        plan = plan_seq(e, 0.45)
        rho = random_mixed_state((3,), stream(0, "rmap"))
        got = response_map(plan) @ hermitian_coordinates(rho.entries)
        want = all_probabilities(plan, rho).reshape(-1)
        assert_allclose(got, want, atol=1e-12)

    def test_identity_input_gives_trace_per_setting(self):
        e = ElementIndex.create((2,), (0,), (1,))
        plan = plan_seq(e, 0.7)
        image = response_map(plan) @ hermitian_coordinates(np.eye(2))
        per_setting = image.reshape(plan.n_settings, -1).sum(axis=1)
        assert_allclose(per_setting, 2.0, atol=1e-12)

    def test_zero_strength_map_has_no_sign_asymmetry(self):
        # without coupling the meters factor out, so off-diagonal inputs
        # produce no signed-correlator response
        e = ElementIndex.create((2,), (0,), (1,))
        plan = bare_seq_plan(e, 0.0)
        signs = sign_products(plan.n_meters)
        offdiag = np.zeros((2, 2), dtype=complex)
        offdiag[0, 1] = offdiag[1, 0] = 1.0
        image = (response_map(plan) @ hermitian_coordinates(offdiag)).reshape(plan.n_settings, e.dim, -1)
        correlators = np.einsum("ske,e->sk", image, signs)
        assert_allclose(correlators, 0.0, atol=1e-14)

    def test_probability_image_normalized_on_states(self):
        rng = stream(1, "rmap")
        e = ElementIndex.create((2, 2), (0, 1), (1, 0))
        plan = plan_seq(e, 0.6)
        rmap = response_map(plan)
        for _ in range(5):
            rho = random_mixed_state((2, 2), rng)
            image = (rmap @ hermitian_coordinates(rho.entries)).reshape(plan.n_settings, -1)
            assert image.min() > -1e-10
            assert_allclose(image.sum(axis=1), 1.0, atol=1e-10)


class TestCalibration:
    def test_res_plan_through_the_calibrator_matches(self):
        # any unbiased coefficient set acts identically on every input
        e = ElementIndex.create((3,), (0,), (2,))
        plan = plan_res(e, 0.8)
        c_re, c_im, info = calibrate_estimator(plan)
        recal = ProtocolPlan(
            element=e, scheme="res", g=0.8, couplings=plan.couplings,
            settings=plan.settings, coeff_re=c_re, coeff_im=c_im,
            base=plan.base, blocks=plan.blocks, block_amplitudes=plan.block_amplitudes,
        )
        rng = stream(2, "cal")
        for _ in range(10):
            rho = random_mixed_state((3,), rng)
            assert abs(extract_element(rho, plan) - extract_element(rho, recal)) < 1e-10

    def test_strong_coupling_plus_state(self):
        e = ElementIndex.create((2,), (0,), (1,))
        plan = plan_seq(e, math.pi / 2)
        plus = DensityMatrix.create(np.full((2, 2), 0.5), (2,))
        assert_allclose(extract_element(plus, plan), 0.5, atol=1e-10)

    def test_functional_reproduced_on_random_hermitian(self):
        e = ElementIndex.create((3,), (1,), (2,))
        plan = plan_seq(e, 0.35)
        k = functional_matrix(plan)
        target = np.zeros((3, 3), dtype=complex)
        target[1, 2] = 1
        assert np.max(np.abs(k - target)) < 1e-8

    def test_residual_reported(self):
        plan = plan_seq(ElementIndex.create((2,), (0,), (1,)), 0.05)
        assert plan.calibration is not None
        assert max(plan.calibration.residual_re, plan.calibration.residual_im) <= 1e-8

    def test_singular_strength_raises_with_singular_value(self):
        # at g=pi the meter rotation is -1, so no correlator signal exists
        with pytest.raises(CalibrationError, match="singular value"):
            plan_seq(ElementIndex.create((2,), (0,), (1,)), math.pi)


class TestExtraction:
    def test_maximally_mixed_zero(self):
        e = ElementIndex.create((3,), (0,), (1,))
        plan = plan_seq(e, 0.5)
        mm = DensityMatrix.create(np.eye(3) / 3, (3,))
        assert abs(extract_element(mm, plan)) < 1e-10

    def test_reference_qutrit_state(self):
        phi2 = 2 * math.pi / 3
        ket = prepare_qutrit(PrepParams(
            variant="qutrit", theta1=math.asin(math.sqrt(1 / 3)) / 2, theta2=math.pi / 8,
            phi1=phi2 + math.pi / 3, phi2=phi2,
        ))
        plan = plan_seq(ElementIndex.create((3,), (0,), (1,)), 0.4)
        got = extract_element(ket.density(), plan)
        assert_allclose(got, np.exp(-2j * math.pi / 3) / 3, atol=1e-9)

    def test_agreement_with_res_on_100_random_states(self):
        rng = stream(3, "agree")
        for dims, s, sp in [((2,), (0,), (1,)), ((3,), (0,), (2,)), ((2, 2), (0, 1), (1, 0))]:
            e = ElementIndex.create(dims, s, sp)
            p_res = plan_res(e, 0.65)
            p_seq = plan_seq(e, 0.65)
            for _ in range(100):
                rho = random_mixed_state(dims, rng)
                a = extract_element(rho, p_res)
                b = extract_element(rho, p_seq)
                assert abs(a - b) < 1e-8

    @pytest.mark.parametrize("g", [0.05, 0.2, math.pi / 4, math.pi / 2])
    def test_unbiasedness_grid(self, g):
        rng = stream(4, "seq-grid")
        for dims, s, sp in [((2,), (0,), (1,)), ((3,), (1,), (2,)),
                            ((2, 2), (0, 0), (1, 1)), ((2, 2), (0, 1), (0, 0))]:
            e = ElementIndex.create(dims, s, sp)
            plan = plan_seq(e, g)
            for _ in range(5):
                rho = random_mixed_state(dims, rng)
                got = extract_element(rho, plan)
                assert abs(got - rho.entry(e.s_flat, e.s_prime_flat)) < 1e-8


class TestScalingAndVariance:
    def test_coefficient_norm_slopes(self):
        # sequential coefficients diverge as g^(-2) per coupled qudit,
        # the single-coupling scheme as g^(-1)
        grid = np.geomspace(1e-3, 1e-2, 5)
        for dims, s, sp, l in [((2,), (0,), (1,), 1), ((3,), (0,), (1,), 1),
                               ((2, 2), (0, 0), (1, 1), 2)]:
            e = ElementIndex.create(dims, s, sp)
            seq_norms, res_norms = [], []
            for g in grid:
                ps = plan_seq(e, g)
                seq_norms.append(np.linalg.norm(np.stack([ps.coeff_re, ps.coeff_im])))
                pr = plan_res(e, g)
                res_norms.append(np.linalg.norm(np.stack([pr.coeff_re, pr.coeff_im])))
            seq_slope = np.polyfit(np.log(grid), np.log(seq_norms), 1)[0]
            res_slope = np.polyfit(np.log(grid), np.log(res_norms), 1)[0]
            assert abs(seq_slope + 2 * l) < 0.05 * 2 * l
            assert abs(res_slope + l) < 0.05 * l

    def test_variance_ordering_weak_regime(self):
        from dmres.sampling import sample_precision_state

        policy = ShotPolicy(n_t=1.0)
        for g in (0.05, 0.2):
            for dims, s, sp in [((3,), (0,), (1,)), ((2, 2), (0, 0), (1, 1))]:
                e = ElementIndex.create(dims, s, sp)
                p_res = plan_res(e, g)
                p_seq = plan_seq(e, g)
                for i in range(25):
                    rho = sample_precision_state(len(dims), dims[0], stream(5, f"order/{dims}", i))
                    vr = element_variance(p_res, rho, policy)
                    vs = element_variance(p_seq, rho, policy)
                    assert vs[0] >= vr[0] - 1e-9
                    assert vs[1] >= vr[1] - 1e-9

    def test_weighted_variant_not_worse_on_its_state(self):
        e = ElementIndex.create((2,), (0,), (1,))
        rho = random_mixed_state((2,), stream(6, "wt"))
        policy = ShotPolicy(n_t=1.0)
        plain = plan_seq(e, 0.3)
        probs = all_probabilities(plain, rho).reshape(-1)
        weighted = plan_seq(e, 0.3, weights=probs)
        v_plain = element_variance(plain, rho, policy)
        v_weighted = element_variance(weighted, rho, policy)
        assert v_weighted[0] <= v_plain[0] + 1e-12
        assert v_weighted[1] <= v_plain[1] + 1e-12
        got = extract_element(rho, weighted)
        assert abs(got - rho.entry(0, 1)) < 1e-8
