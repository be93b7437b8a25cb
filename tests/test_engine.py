"""The tensor-form probability engine against independent dense oracles."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import dmres.seq as seq_module
import dmres.precision as precision_module
from dmres import (
    CalibrationError,
    DimensionLimitError,
    ElementIndex,
    InvalidCouplingError,
    characterize,
    element_variance,
    extract_element,
    plan_res,
    plan_seq,
    random_mixed_state,
    stream,
)
from dmres.elements import precision_element_set
from dmres.plans import all_probabilities, estimator_operators, functional_matrix, joint_unitary
from dmres.precision import (
    SystemSpec,
    default_g_grid,
    filter_grid,
    g_sweep,
    per_state_values,
    plans_over_grid,
    sampled_states,
)
from dmres.res import plan_res_grid
from dmres.shots import ALLOCATIONS, ShotPolicy, allocation_factor
from dmres.seq import plan_seq_grid, response_map

from oracles import (
    basis_path_correlator_rows,
    basis_path_targets,
    embed,
    embedded_coupling,
    hermitian_basis_element,
    reference_couplings,
    reference_plan_amplitudes,
    reference_plan_probabilities,
    SY,
)

BUILDERS = {"res": plan_res, "seq": plan_seq}
# plan kinds by the blocks their estimators read: two for res and the
# correlator seq estimator, every block for seq calibrated on all outcomes
PLAN_KINDS = {"res": plan_res, "seq": plan_seq, "seq-full": functools.partial(plan_seq, support="full")}
FAMILY_KINDS = {"res": plan_res_grid, "seq": plan_seq_grid,
                "seq-full": functools.partial(plan_seq_grid, support="full")}


def single_build_values(system, scheme, g, seed, samples):
    """Per-state values from one ``plan_res``/``plan_seq`` build per element at one strength."""
    plans = [BUILDERS[scheme](e, g) for e in precision_element_set(system.n_qudits, system.d)]
    w_mean = precision_module._mean_variance_operator(plans)
    return precision_module._trace(w_mean, sampled_states(system, seed, samples))


@st.composite
def elements(draw, dims_choices=((2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2))):
    dims = draw(st.sampled_from(dims_choices))
    s = tuple(draw(st.integers(0, d - 1)) for d in dims)
    sp = tuple(draw(st.integers(0, d - 1)) for d in dims)
    if s == sp:
        n = draw(st.integers(0, len(dims) - 1))
        sp = sp[:n] + ((sp[n] + 1) % dims[n],) + sp[n + 1:]
    return ElementIndex.create(dims, s, sp)


class TestAgainstDenseOracle:
    @settings(max_examples=30, deadline=None)
    @given(element=elements(), g=st.floats(0.1, 1.4), scheme=st.sampled_from(["res", "seq"]),
           seed=st.integers(0, 2 ** 16))
    def test_amplitudes_and_probabilities(self, element, g, scheme, seed):
        plan = BUILDERS[scheme](element, g)
        args = (element.dims, element.s, element.s_prime, g, scheme)
        assert plan.amplitudes.shape == (plan.n_settings, plan.outcomes_per_setting, element.dim)
        assert not plan.amplitudes.flags.writeable
        assert_allclose(plan.amplitudes, reference_plan_amplitudes(*args), rtol=0, atol=1e-12)
        rho = random_mixed_state(element.dims, stream(seed, "engine-oracle"))
        want = reference_plan_probabilities(rho.entries, *args)
        assert_allclose(all_probabilities(plan, rho), want, rtol=0, atol=1e-12)

    def test_joint_unitary_is_the_expm_product(self):
        element = ElementIndex.create((2, 3), (0, 2), (1, 0))
        plan = plan_seq(element, 0.45)
        want = np.eye(6 * 16, dtype=complex)
        for j, c in enumerate(plan.couplings):
            ham = 0.45 * np.kron(embed(c.op, (2, 3), c.qudit), embed(SY, (2,) * 4, j))
            want = scipy.linalg.expm(-1j * ham) @ want
        assert_allclose(joint_unitary((2, 3), plan.couplings, 0.45), want, atol=1e-12)

    def test_local_exponentials_embed_as_the_joint_one(self):
        dims, m, g = (2, 3), 4, 0.45
        for j, (n, op) in enumerate(reference_couplings(dims, (0, 2), (1, 0), "seq")):
            ham = g * np.kron(embed(op, dims, n), embed(SY, (2,) * m, j))
            assert_allclose(embedded_coupling(dims, m, n, j, op, g), scipy.linalg.expm(-1j * ham),
                            rtol=0, atol=1e-12)

    def test_stacked_amplitudes_iterate_per_setting(self):
        plan = plan_res(ElementIndex.create((3, 3), (0, 1), (2, 0)), 0.5)
        slices = list(plan.amplitudes)
        assert len(slices) == plan.n_settings
        assert all(np.array_equal(a, plan.amplitudes[i]) for i, a in enumerate(slices))


class TestLargerSystems:
    def test_three_qutrit_seq_exact(self):
        element = ElementIndex.create((3, 3, 3), (0, 1, 2), (2, 0, 1))
        plan = plan_seq(element, 0.6)
        target = np.zeros((27, 27), dtype=complex)
        target[element.s_flat, element.s_prime_flat] = 1
        assert np.max(np.abs(functional_matrix(plan) - target)) <= 1e-8
        rho = random_mixed_state((3, 3, 3), stream(0, "engine-3x3"))
        got = extract_element(rho, plan)
        assert abs(got - rho.entry(element.s_flat, element.s_prime_flat)) <= 1e-8

    def test_four_qubit_res_exact(self):
        rho = random_mixed_state((2, 2, 2, 2), stream(1, "engine-2x4"))
        est = characterize(rho, 0.55)
        assert np.max(np.abs(est.entries - rho.entries)) <= 1e-10

    def test_oversized_element_rejected_before_allocating(self):
        # 81 * 2^8 = 20,736 exceeds the joint limit; the dense path would
        # have needed 20,736^2 complex entries
        element = ElementIndex.create((3,) * 4, (0,) * 4, (1,) * 4)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionLimitError):
                plan_seq(element, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestIndexedCalibration:
    ELEMENT = ElementIndex.create((2,) * 6, (0,) * 6, (1,) + (0,) * 5)

    def test_matches_explicit_basis_path(self, monkeypatch):
        # joint dimension 256, but 4,096 Hermitian basis elements of 64 x 64
        plan = plan_seq(self.ELEMENT, 0.7)
        labels = seq_module.hermitian_labels(self.ELEMENT.dim)
        monkeypatch.setattr(seq_module, "_correlator_response",
                            lambda p, outcomes, base: basis_path_correlator_rows(p, outcomes, base, labels))
        monkeypatch.setattr(seq_module, "_targets", lambda e: basis_path_targets(e, labels))
        ref = plan_seq(self.ELEMENT, 0.7)
        assert_allclose(plan.coeff_re, ref.coeff_re, rtol=1e-12, atol=1e-12)
        assert_allclose(plan.coeff_im, ref.coeff_im, rtol=1e-12, atol=1e-12)

    def test_build_stays_small(self):
        # traced allocations, not ru_maxrss: a child process inherits the
        # test runner's high-water mark across fork and exec
        tracemalloc.start()
        try:
            plan_seq(self.ELEMENT, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_response_matrix_matches_dense_basis(self):
        plan = plan_seq(ElementIndex.create((2, 2), (0, 1), (1, 1)), 0.4)
        basis = np.stack([hermitian_basis_element(4, lab) for lab in seq_module.hermitian_labels(4)])
        a = plan.amplitudes
        want = np.einsum("sou,buv,sov->sob", a, basis, a.conj()).real
        assert_allclose(response_map(plan), want.reshape(-1, len(basis)), rtol=0, atol=1e-15)


def test_three_qubit_weak_coupling_ratio_slope():
    # seq/res variance ratio ~ g^(-2N): slope 6 for three qubits.  Below
    # g ~ 1e-2 the seq response (order g^6) drops under the calibration floor.
    grid = np.geomspace(2e-2, 6e-2, 5)
    system = SystemSpec(3, 2)
    ratios = [per_state_values(system, "seq", float(g), 0, 500).mean()
              / per_state_values(system, "res", float(g), 0, 500).mean() for g in grid]
    slope = -float(np.polyfit(np.log(grid), np.log(ratios), 1)[0])
    assert abs(slope - 6.0) <= 0.3, f"three-qubit ratio slope {slope:.3f}"


@st.composite
def strength_grids(draw):
    return sorted(set(draw(st.lists(st.floats(0.1, 1.5), min_size=1, max_size=6))))


class TestStrengthFamilies:
    """Family builds over a grid against single builds at each strength, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(element=elements(((2,), (3,), (2, 2), (2, 3), (2, 2, 2))),
           scheme=st.sampled_from(["res", "seq"]), grid=strength_grids())
    def test_family_slices_equal_single_builds(self, element, scheme, grid):
        family = plans_over_grid(element, scheme, grid)
        assert len(family) == len(grid)
        for k, g in enumerate(grid):
            got, want = family[k], BUILDERS[scheme](element, g)
            assert got.g == want.g
            assert np.array_equal(got.amplitudes, want.amplitudes)
            assert np.array_equal(got.coeff_re, want.coeff_re)
            assert np.array_equal(got.coeff_im, want.coeff_im)
            assert got.calibration == want.calibration
            assert not got.amplitudes.flags.writeable

    @pytest.mark.parametrize("element,grid,failing", [
        (ElementIndex.create((2,), (0,), (1,)), [0.4, math.pi, 2 * math.pi], math.pi),
        (ElementIndex.create((2, 2, 2), (0, 0, 0), (1, 1, 1)), [0.5, 1e-3, 0.7], 1e-3),
    ])
    def test_first_failing_strength_raises_the_single_build_error(self, element, grid, failing):
        with pytest.raises(CalibrationError) as single:
            plan_seq(element, failing)
        with pytest.raises(CalibrationError) as family:
            plans_over_grid(element, "seq", grid)
        assert str(family.value) == str(single.value)

    @pytest.mark.parametrize("options", [{"support": "full"}, {"weights": True},
                                         {"support": "full", "weights": True}])
    def test_full_support_and_weights_share_the_stacked_solve(self, options):
        element = ElementIndex.create((2, 2), (0, 1), (1, 0))
        if options.get("weights"):
            options = dict(options, weights=np.linspace(0.5, 2.0, 16 * 64).reshape(16, 64))
        grid = [0.3, 0.9, 1.3]
        family = plan_seq_grid(element, grid, **options)
        target = np.zeros((4, 4))
        target[element.s_flat, element.s_prime_flat] = 1
        for k, g in enumerate(grid):
            want = plan_seq(element, g, **options)
            assert np.array_equal(family[k].coeff_re, want.coeff_re)
            assert np.array_equal(family[k].coeff_im, want.coeff_im)
            assert family[k].calibration == want.calibration
            assert np.max(np.abs(functional_matrix(want) - target)) <= 1e-8

    @pytest.mark.parametrize("chunk", [1, 2 ** 14, 2 ** 30])
    def test_sweep_values_equal_per_state_values(self, monkeypatch, chunk):
        monkeypatch.setattr(precision_module, "CHUNK_ENTRIES", chunk)
        policy = ShotPolicy(n_t=1.0)
        for system in (SystemSpec(1, 3), SystemSpec(2, 2)):
            report = g_sweep(system, ("res", "seq"), default_g_grid(), 150, policy, seed=4)
            states = sampled_states(system, 4, 150)
            for scheme in ("res", "seq"):
                for g in filter_grid(scheme, default_g_grid()):
                    got = precision_module._trace(report.operators[system, scheme, g][0], states)
                    assert np.array_equal(got, single_build_values(system, scheme, g, 4, 150))
                    assert np.array_equal(got, per_state_values(system, scheme, g, 4, 150))

    def test_sweep_peak_stays_under_per_strength_path(self):
        # three qubits, seq: one strength's amplitudes (1 MiB) already fill a chunk
        system, samples = SystemSpec(3, 2), 1000
        grid = filter_grid("seq", default_g_grid())
        sampled_states(system, 0, samples)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # every strength of the per-strength path peaks alike; two stand for all
        per_strength = peak(lambda: [single_build_values(system, "seq", g, 0, samples)
                                     for g in (grid[0], grid[-1])])
        sweep = peak(lambda: g_sweep(system, ("seq",), grid, samples, ShotPolicy(n_t=1.0)))
        assert sweep <= per_strength
        assert sweep <= 26.5e6


def stored_rows_of(amplitudes, plan):
    """The rows of a full (..., settings, outcomes, D) stack on the plan's stored blocks."""
    lead, dim = amplitudes.shape[:-2], amplitudes.shape[-1]
    blocks = amplitudes.reshape(lead + (plan.element.dim, -1, dim))[..., list(plan.blocks), :, :]
    return blocks.reshape(lead + (-1, dim))


def full_gram(amplitudes, weights):
    """sum over every (setting, outcome) of w conj(a[v]) a[u], from the full stack."""
    a = amplitudes.reshape(-1, amplitudes.shape[-1])
    return a.conj().T @ (weights.reshape(-1, 1) * a)


def assert_rel_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestStoredBlocks:
    """Plans keep the readout rows of the blocks their estimator reads."""

    @settings(max_examples=25, deadline=None)
    @given(element=elements(((2,), (3,), (2, 2), (2, 3), (3, 3))), g=st.floats(0.1, 1.4),
           kind=st.sampled_from(sorted(PLAN_KINDS)))
    def test_stored_rows_are_rows_of_the_full_stack(self, element, g, kind):
        plan = PLAN_KINDS[kind](element, g)
        pair = tuple(sorted((element.s_flat, element.s_prime_flat)))
        assert plan.blocks == (tuple(range(element.dim)) if kind == "seq-full" else pair)
        assert plan.block_amplitudes.shape == (plan.n_settings, len(plan.blocks) * 2 ** plan.n_meters,
                                               element.dim)
        assert np.array_equal(plan.block_amplitudes, stored_rows_of(plan.amplitudes, plan))
        assert not plan.block_amplitudes.flags.writeable
        assert plan.amplitudes.shape == (plan.n_settings, plan.outcomes_per_setting, element.dim)
        assert not plan.amplitudes.flags.writeable
        want = reference_plan_amplitudes(element.dims, element.s, element.s_prime, g, kind[:3])
        assert_allclose(plan.amplitudes, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", sorted(PLAN_KINDS))
    @pytest.mark.parametrize("dims,s,sp", [((3,), (0,), (2,)), ((2, 3), (1, 0), (0, 2)),
                                           ((2, 2, 2), (0, 1, 1), (1, 1, 0))])
    def test_hot_paths_match_a_full_stack_evaluation(self, kind, dims, s, sp):
        element = ElementIndex.create(dims, s, sp)
        plan = PLAN_KINDS[kind](element, 0.7)
        rho = random_mixed_state(dims, stream(3, "stored-blocks"))
        p = all_probabilities(plan, rho)
        c_re, c_im = plan.coeff_re, plan.coeff_im
        assert_rel_close(extract_element(rho, plan), complex(np.sum(c_re * p), np.sum(c_im * p)))
        for allocation in ALLOCATIONS:
            factor = allocation_factor(allocation, plan.n_settings)
            assert_rel_close(element_variance(plan, rho, ShotPolicy(1.0, allocation)),
                             (factor * np.sum(c_re ** 2 * p), factor * np.sum(c_im ** 2 * p)))
        w_re, w_im = estimator_operators(plan)
        assert_rel_close(w_re, full_gram(plan.amplitudes, c_re ** 2))
        assert_rel_close(w_im, full_gram(plan.amplitudes, c_im ** 2))
        assert_rel_close(functional_matrix(plan), full_gram(plan.amplitudes, plan.coefficients()).T)

        family = FAMILY_KINDS[kind](element, [0.4, 0.9])
        stacks = estimator_operators(family)
        for k in range(len(family)):
            for w, c in zip(stacks, (family.coeff_re[k], family.coeff_im[k])):
                assert_rel_close(w[k], full_gram(family.amplitudes[k], c ** 2))

    def test_coefficients_off_the_stored_blocks_are_rejected(self):
        plan = plan_res(ElementIndex.create((3,), (0,), (1,)), 0.5)
        coeff = plan.coeff_re.copy()
        coeff[0, -1] = 1.0  # an outcome of system block 2, which the plan does not store
        with pytest.raises(InvalidCouplingError):
            dataclasses.replace(plan, coeff_re=coeff)

    def test_four_qubit_seq_plan_builds_small(self):
        # the full amplitude stack of this plan alone holds 268 MB
        element = ElementIndex.create((2,) * 4, (0,) * 4, (1,) * 4)
        tracemalloc.start()
        try:
            plan = plan_seq(element, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128e6
        assert plan.block_amplitudes.shape == (256, 2 * 256, 16)
