import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmres import (
    DensityMatrix,
    ElementIndex,
    InvalidCouplingError,
    PrepParams,
    ShotPolicy,
    calibrate_estimator,
    characterize,
    element_variance,
    extract_element,
    plan_res,
    plan_seq,
    prepare_qutrit,
    random_mixed_state,
    response_map,
    stream,
)
from dmres.elements import element_from_flat
from dmres.plans import _flip_phases, all_probabilities, functional_matrix, sign_products
import dmres.seq as seq_module
from dmres.seq import _correlator_response, _min_norm_solve, _targets, seq_couplings, seq_stack
from dmres.plans import ProtocolPlan, SEQ_SCHEME, base_amplitudes, canonical_element, canonical_rows, enumerate_settings

from oracles import SX, SY, einsum_correlator_response, hermitian_coordinates, kron


def bare_seq_plan(element, g):
    couplings = seq_couplings(element)
    settings = enumerate_settings(len(couplings))
    canonical = canonical_element(element)
    (rows,) = canonical_rows(canonical, seq_couplings(canonical), (g,))
    return ProtocolPlan(
        element=element, scheme=SEQ_SCHEME, g=g, couplings=couplings, settings=settings,
        weights=np.zeros((2, len(settings), 2)), rows=rows, support=plan_seq(element, 0.5).support,
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
        weights, info = calibrate_estimator(plan)
        recal = ProtocolPlan(
            element=e, scheme="res", g=0.8, couplings=plan.couplings,
            settings=plan.settings, weights=weights, rows=plan.rows, support=plan.support,
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

    @pytest.mark.parametrize("g", [math.pi, -math.pi, 2 * math.pi])
    def test_singular_strength_is_rejected_before_calibrating(self, g):
        # at g = pi the meter rotation is -1, so no correlator signal
        # exists; a relative floor would otherwise keep rounding noise
        with pytest.raises(InvalidCouplingError, match=r"sin\(g\)=0"):
            plan_seq(ElementIndex.create((2,), (0,), (1,)), g)
        with pytest.raises(InvalidCouplingError, match=r"sin\(g\)=0"):
            seq_stack([ElementIndex.create((2,), (0,), (1,))], [0.4, g])


class TestMinNormSolve:
    @staticmethod
    def three_qubit_rows(gs):
        """Correlator rows (G, 2 n_settings, basis) of (2,2,2) 000,111 at each strength."""
        e = element_from_flat((2, 2, 2), 0, 7)
        rows = _correlator_response(canonical_rows(e, seq_couplings(e), gs))
        return rows.reshape(len(gs), -1, rows.shape[-1]), _targets(e)

    def test_one_rank_group_reads_the_factors_in_place(self):
        # five strengths share rank 27: the SVD factors (480 KiB) and the
        # scaled right factor (135 KiB) peak at 739 KiB traced; copying
        # the kept factors out of the group, as an index array does,
        # peaks at 898 KiB
        rows, targets = self.three_qubit_rows((0.3, 0.6, 0.9, 1.2, 1.5))
        a_mat = rows.swapaxes(-1, -2)
        tracemalloc.start()
        try:
            _min_norm_solve(a_mat, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 790 * 1024

    def test_whole_group_solves_as_a_mixed_stack(self):
        # the in-place path keeps the bytes of a group read by index
        rows, targets = self.three_qubit_rows((0.3, 0.6, 0.9, 1.2, 1.5))
        low = rows[:1].copy()
        low[:, 16:] = 0.0  # a sixth matrix of lower rank
        stack = np.concatenate([rows, low]).swapaxes(-1, -2)
        svals = np.linalg.svd(stack, compute_uv=False)
        assert (svals > seq_module.SV_FLOOR * svals[:, :1]).sum(-1).tolist() == [27] * 5 + [12]
        whole = _min_norm_solve(rows.swapaxes(-1, -2), targets)
        mixed = _min_norm_solve(stack, targets)
        assert all(np.array_equal(x, y[:5]) for x, y in zip(whole, mixed, strict=True))

    def test_layout_of_the_rows_leaves_every_byte(self):
        # the solve is handed the rows transposed, a view; a C-contiguous
        # copy of the same values takes another BLAS path unless the
        # residual fixes one layout
        rows, targets = self.three_qubit_rows((0.3, 0.6, 0.9, 1.2, 1.5))
        view = rows.swapaxes(-1, -2)
        copied = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous and copied.flags.c_contiguous
        for x, y in zip(_min_norm_solve(view, targets), _min_norm_solve(copied, targets), strict=True):
            assert x.tobytes() == y.tobytes()


class TestWeakCoupling:
    """The relative singular-value floor keeps the g^(2m) directions of weak correlator responses."""

    @pytest.mark.parametrize("g", [1e-3, 5e-3, 1e-2, 2e-2])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2)])
    def test_every_element_calibrates_and_extracts(self, dims, g):
        rho = random_mixed_state(dims, stream(12, f"weak-every{dims}"))
        est = characterize(rho, g, plan_seq)
        assert np.max(np.abs(est.entries - rho.entries)) <= 1e-8

    @pytest.mark.parametrize("dims,s,sp", [((2, 3), (0, 0), (1, 1)), ((3, 3), (0, 1), (1, 2))])
    def test_once_infeasible_elements_calibrate(self, dims, s, sp):
        # an absolute floor of 1e-13 dropped two real directions of order
        # g^6 here and left a residual of about 1e-5
        e = ElementIndex.create(dims, s, sp)
        plan = plan_seq(e, 0.01)
        assert max(plan.calibration.residual_re, plan.calibration.residual_im) <= 1e-8
        rng = stream(13, "weak-once")
        for _ in range(5):
            rho = random_mixed_state(dims, rng)
            assert abs(extract_element(rho, plan) - rho.entry(e.s_flat, e.s_prime_flat)) <= 1e-8


class TestExtraction:
    @pytest.mark.parametrize("g", [1e-2, 2e-2])
    def test_exact_at_weak_coupling(self, g):
        # every qubit coupled: the correlators are of order g^6 and the
        # coefficients of order g^-6, so reading the estimate off Born
        # probabilities would cancel O(1) terms
        e = ElementIndex.create((2, 2, 2), (0, 0, 0), (1, 1, 1))
        plan = plan_seq(e, g)
        rng = stream(7, "weak-seq")
        for _ in range(5):
            rho = random_mixed_state((2, 2, 2), rng)
            assert abs(extract_element(rho, plan) - rho.entry(0, 7)) <= 1e-8

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
                seq_norms.append(np.linalg.norm(plan_seq(e, g).weights))
                res_norms.append(np.linalg.norm(plan_res(e, g).weights))
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


def signed_zero_base(shape, rng, zero_frac):
    """Complex normals with a fraction of the real and imaginary parts set to +0 or -0."""
    parts = rng.normal(size=(2,) + shape)
    zeros = rng.random(parts.shape) < zero_frac
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    base = np.empty(shape, dtype=complex)
    base.real, base.imag = parts  # arithmetic could turn a -0 part into +0
    return base


def block_rows(base, outcomes):
    """The rows (..., outcomes, 2^m, d) of unrotated columns (..., d 2^m, d) at ``outcomes``."""
    d = base.shape[-1]
    return base.reshape(base.shape[:-2] + (d, -1, d))[..., outcomes, :, :]


def random_flip_rows(m):
    """Signed-zero block rows for m meters, one strength and a stack of three."""
    rng = np.random.default_rng(m)
    d = 3 if m <= 4 else 2
    for shape in [(d * 2 ** m, d), (3, d * 2 ** m, d)]:
        for zero_frac in (1 / 3, 1.0):
            yield block_rows(signed_zero_base(shape, rng, zero_frac), [0, d - 1])


def plan_flip_rows(dims, u, v):
    """Real plans' unrotated block rows of s and s': one strength and a strength stack."""
    element = element_from_flat(dims, u, v)
    for g in (0.05, 0.7, [1e-3, 0.3, 1.2, math.pi / 2]):
        yield block_rows(base_amplitudes(dims, seq_couplings(element), g), sorted((u, v)))


def flip_settings_per_chunk(monkeypatch, rows, per_chunk):
    """Set the flip budget so that ``per_chunk`` settings are flipped at a time."""
    monkeypatch.setattr(seq_module, "FLIP_ENTRIES", per_chunk * rows.size)


def assert_rows_match_einsum_reference(rows):
    got, want = _correlator_response(rows), einsum_correlator_response(rows)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestCorrelatorFlip:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_phase_table_is_the_pauli_product(self, m):
        # Sigma_b = diag(phase[b]) J for every setting, J the exchange matrix
        phase = _flip_phases(m)
        exchange = np.eye(2 ** m)[::-1]
        pauli = {"x": SX, "y": SY}
        settings = enumerate_settings(m)
        assert phase.shape == (len(settings), 2 ** m)
        for b, setting in enumerate(settings):
            sigma = kron(*[pauli[c] for c in setting.meter_bases])
            assert np.array_equal(np.diag(phase[b]) @ exchange, sigma), setting.label
        assert set(phase.ravel().tolist()) <= {1, -1, 1j, -1j}

    @pytest.mark.parametrize("m", range(2, 9))
    def test_rows_match_einsum_reference_bytes(self, m):
        for rows in random_flip_rows(m):
            assert_rows_match_einsum_reference(rows)

    @pytest.mark.parametrize("dims, u, v", [((3,), 0, 2), ((2, 2), 0, 3), ((2, 2, 2), 1, 6), ((3, 2), 5, 0)])
    def test_plan_rows_match_einsum_reference_bytes(self, dims, u, v):
        for rows in plan_flip_rows(dims, u, v):
            assert_rows_match_einsum_reference(rows)

    # settings flipped at a time: one, and three, which leaves a short
    # last chunk for every m >= 2
    @pytest.mark.parametrize("per_chunk", [1, 3])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_settings_chunked_rows_match_einsum_reference_bytes(self, monkeypatch, m, per_chunk):
        for rows in random_flip_rows(m):
            flip_settings_per_chunk(monkeypatch, rows, per_chunk)
            assert_rows_match_einsum_reference(rows)

    @pytest.mark.parametrize("per_chunk", [1, 3])
    @pytest.mark.parametrize("dims, u, v", [((3,), 0, 2), ((2, 2), 0, 3), ((2, 2, 2), 1, 6), ((3, 2), 5, 0)])
    def test_settings_chunked_plan_rows_match_einsum_reference_bytes(self, monkeypatch, dims, u, v, per_chunk):
        for rows in plan_flip_rows(dims, u, v):
            flip_settings_per_chunk(monkeypatch, rows, per_chunk)
            assert_rows_match_einsum_reference(rows)

    def test_flipped_chunk_is_freed_before_the_next(self):
        # (2,2,2) 000,111 at g = 0.7 flips its 64 settings in chunks:
        # holding one chunk's flipped blocks while the next is formed
        # peaks at 915 KiB traced, freeing each after its Gram product at
        # 659 KiB
        rows = block_rows(base_amplitudes((2, 2, 2), seq_couplings(element_from_flat((2, 2, 2), 0, 7)), 0.7), [0, 7])
        _correlator_response(rows)  # first-call caches warm
        tracemalloc.start()
        try:
            _correlator_response(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 750 * 1024
