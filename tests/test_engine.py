"""The tensor-form probability engine against independent dense oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import dmres.plans as plans_module
import dmres.res as res_module
import dmres.seq as seq_module
import dmres.precision as precision_module
from dmres import (
    CalibrationError,
    DimensionLimitError,
    ElementIndex,
    InvalidCouplingError,
    Ket,
    characterize,
    element_variance,
    extract_element,
    plan_res,
    plan_seq,
    random_mixed_state,
    stream,
)
from dmres.elements import all_offdiagonal_elements, precision_element_set
from dmres.plans import (
    all_probabilities,
    canonical_element,
    embedded,
    estimator_operators,
    functional_matrix,
    joint_unitary,
    sign_products,
    supports,
)
from dmres.precision import (
    SystemSpec,
    default_g_grid,
    filter_grid,
    g_sweep,
    per_state_values,
    sampled_states,
)
from dmres.res import res_stack
from dmres.shots import ALLOCATIONS, ShotPolicy, allocation_factor
from dmres.seq import response_map, seq_stack

from oracles import (
    basis_path_correlator_rows,
    basis_path_targets,
    embed,
    embedded_coupling,
    hermitian_basis_element,
    own_block_grams,
    own_block_rows,
    own_calibrated_weights,
    reference_couplings,
    reference_plan_amplitudes,
    reference_plan_probabilities,
    SY,
)

BUILDERS = {"res": plan_res, "seq": plan_seq}
STACKS = {"res": res_stack, "seq": seq_stack}


def single_build_values(system, scheme, g, seed, samples):
    """Per-state values from one ``plan_res``/``plan_seq`` build per element at one strength."""
    plans = [BUILDERS[scheme](e, g) for e in precision_element_set(system.n_qudits, system.d)]
    w_mean = precision_module._mean([precision_module._variance_operator(p) for p in plans])
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
    ELEMENT = ElementIndex.create((2,) * 6, (0,) * 6, (1,) * 3 + (0,) * 3)

    def test_matches_explicit_basis_path(self, monkeypatch):
        # a 64-level system whose coupled block has 8 levels: 64 Hermitian
        # basis elements of 8 x 8
        plan = plan_seq(self.ELEMENT, 0.7)
        labels = seq_module.hermitian_labels(canonical_element(self.ELEMENT).dim)
        monkeypatch.setattr(seq_module, "_correlator_response",
                            lambda rows: basis_path_correlator_rows(plan, rows, labels))
        monkeypatch.setattr(seq_module, "_targets", lambda element: np.stack(basis_path_targets(element, labels)))
        ref = plan_seq(self.ELEMENT, 0.7)
        assert_allclose(plan.weights, ref.weights, rtol=1e-12, atol=1e-12)

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
    """Stack builds over strengths and members against single builds, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(dims=st.sampled_from([(3,), (2, 2), (3, 3), (2, 3), (2, 2, 2)]),
           scheme=st.sampled_from(["res", "seq"]), grid=strength_grids(), data=st.data())
    def test_stack_over_members_and_strengths_equals_single_builds(self, dims, scheme, grid, data):
        members = data.draw(st.sampled_from(res_module.configurations(all_offdiagonal_elements(dims))))
        stack = STACKS[scheme](members, grid)
        assert stack.weights.shape[:1] == stack.rows.shape[:1] == (len(grid),)
        assert stack.supports.shape == (len(members), canonical_element(members[0]).dim)
        for k, g in enumerate(grid):
            for i, element in enumerate(members):
                got, want = stack[k, i], BUILDERS[scheme](element, g)
                assert (got.element, got.g) == (element, g)
                assert [c.label for c in got.couplings] == [c.label for c in want.couplings]
                assert got.rows.tobytes() == want.rows.tobytes()
                assert got.support.tobytes() == want.support.tobytes()
                assert got.weights.tobytes() == want.weights.tobytes()
                assert got.calibration == want.calibration
                assert estimator_operators(stack)[k].tobytes() == estimator_operators(want).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(scheme=st.sampled_from(["res", "seq"]), k=st.integers(0, 4), offset=st.floats(-1e-9, 1e-9))
    def test_grid_keeps_exactly_the_strengths_the_builder_accepts(self, scheme, k, offset):
        # near every singular strength of either scheme, k pi / 2
        g = k * math.pi / 2 + offset
        try:
            BUILDERS[scheme](ElementIndex.create((2,), (0,), (1,)), g)
            accepted = True
        except InvalidCouplingError:
            accepted = False
        except CalibrationError:
            accepted = True  # refused only after its strength passed
        assert (filter_grid(scheme, [g]) == [g]) == accepted

    @settings(max_examples=40, deadline=None)
    @given(element=elements(((2,), (3,), (2, 2), (2, 3), (2, 2, 2))),
           scheme=st.sampled_from(["res", "seq"]), grid=strength_grids())
    def test_family_slices_equal_single_builds(self, element, scheme, grid):
        stack = STACKS[scheme]([element], grid)
        assert stack.gs == tuple(grid) and stack.elements == (element,)
        for k, g in enumerate(grid):
            got, want = stack[k, 0], BUILDERS[scheme](element, g)
            assert got.g == want.g
            assert np.array_equal(got.amplitudes, want.amplitudes)
            assert np.array_equal(got.weights, want.weights)
            assert got.calibration == want.calibration
            assert not got.amplitudes.flags.writeable

    @pytest.mark.parametrize("element,grid", [
        (ElementIndex.create((2,), (0,), (1,)), [0.4, 1.1, 2.0]),
        (ElementIndex.create((2, 2, 2), (0, 0, 0), (1, 1, 1)), [0.5, 1e-3, 0.7]),
    ])
    def test_first_failing_strength_raises_the_single_build_error(self, monkeypatch, element, grid):
        # every default strength calibrates, so a tolerance between the
        # residuals makes the strengths of the larger ones fail; the
        # grid puts a passing strength first
        residual = {g: max(plan_seq(element, g).calibration.residual_re,
                           plan_seq(element, g).calibration.residual_im) for g in grid}
        grid = sorted(grid, key=residual.get)
        grid = grid[:1] + grid[:0:-1]  # smallest residual first, then the largest
        assert residual[grid[0]] < residual[grid[1]]
        monkeypatch.setattr(seq_module, "RESIDUAL_TOL", residual[grid[0]])
        with pytest.raises(CalibrationError) as single:
            plan_seq(element, grid[1])
        with pytest.raises(CalibrationError) as family:
            seq_stack([element], grid)
        assert str(family.value) == str(single.value)

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
    blocks = amplitudes.reshape(lead + (plan.element.dim, -1, dim))[..., list(plan.post_selectors), :, :]
    return blocks.reshape(lead + (-1, dim))


def full_gram(amplitudes, weights):
    """sum over every (setting, outcome) of w conj(a[v]) a[u], from the full stack."""
    a = amplitudes.reshape(-1, amplitudes.shape[-1])
    return a.conj().T @ (weights.reshape(-1, 1) * a)


def assert_rel_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


STRENGTHS = st.floats(0.1, 1.4) | st.floats(1e-2, 5e-2)


RELABELING_STRENGTHS = (1e-2, 0.7, 1.3)


class TestRelabeling:
    """Every element, both triangles, read through its support from its coupled set's canonical element."""

    @pytest.mark.parametrize("scheme, tol", [("res", 1e-10), ("seq", 1e-8)])
    @pytest.mark.parametrize("dims", [(3,), (2, 3), (3, 3), (2, 2, 2)])
    def test_every_ordered_element_against_its_own_couplings(self, dims, scheme, tol):
        elements = all_offdiagonal_elements(dims, ordered=True)
        read = []
        for stack in res_module.configuration_stacks(elements, scheme, RELABELING_STRENGTHS):
            canonical = canonical_element(stack.elements[0])
            for k, g in enumerate(RELABELING_STRENGTHS):
                calibration = BUILDERS[scheme](canonical, g).calibration
                for i, element in enumerate(stack.elements):
                    plan = stack[k, i]
                    assert plan.element == element and plan.g == g
                    want_couplings = reference_couplings(dims, element.s, element.s_prime, scheme)
                    assert [c.qudit for c in plan.couplings] == [n for n, _ in want_couplings]
                    for c, (_, op) in zip(plan.couplings, want_couplings):
                        assert_allclose(c.op, op, rtol=0, atol=1e-15)
                    assert_rel_close(own_block_rows(plan)[..., plan.support], plan.rows)
                    unit = np.zeros((element.dim, element.dim))
                    unit[element.s_flat, element.s_prime_flat] = 1.0
                    assert np.max(np.abs(functional_matrix(plan) - unit)) <= tol
                    assert plan.calibration == calibration
                    assert (calibration is None) == (scheme == "res")
                    read.append(element)
        assert sorted(read, key=elements.index) == sorted(elements * len(RELABELING_STRENGTHS), key=elements.index)

    @settings(max_examples=200, deadline=None)
    @given(element=elements(((2,), (3,), (4,), (2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 3, 4))))
    def test_support_sends_the_canonical_element_to_the_element(self, element):
        (support,) = supports([element])
        canonical = canonical_element(element)
        coupled = element.coupled_set
        assert canonical.dims == tuple(element.dims[n] for n in coupled)
        assert canonical.s == (0,) * len(coupled) and canonical.s_prime == (1,) * len(coupled)
        assert support.shape == (canonical.dim,)
        assert support[0] == element.s_flat
        assert support[canonical.s_prime_flat] == element.s_prime_flat
        # each coupled digit is a bijection of that qudit's levels, s_n and
        # s'_n first and the rest in order; every other digit is s_n
        canonical_digits = np.array(np.unravel_index(np.arange(canonical.dim), canonical.dims))
        digits = np.array(np.unravel_index(support, element.dims))
        for j, n in enumerate(coupled):
            levels = dict.fromkeys([element.s[n], element.s_prime[n], *range(element.dims[n])])
            assert digits[n].tolist() == [list(levels)[c] for c in canonical_digits[j]]
        for n in set(range(element.n_qudits)) - set(coupled):
            assert set(digits[n].tolist()) == {element.s[n]}


ORACLE_STRENGTHS = (0.05, 0.7, 1.3)


class TestCoupledBlockOracle:
    """Plans on the coupled block against each member's own full-space columns."""

    @pytest.mark.parametrize("scheme, tol", [("res", 1e-12), ("seq", 1e-8)])
    @pytest.mark.parametrize("dims", [(3, 3, 3), (2, 2, 2, 2), (2, 3, 2)])
    def test_embedded_operators_are_the_grams_of_the_own_columns(self, dims, scheme, tol):
        # res weights are closed-form; seq's are solved as the element of
        # the full space it is, against the D x D Hermitian basis
        for members in res_module.configurations(all_offdiagonal_elements(dims, ordered=True)):
            stack = STACKS[scheme](members, ORACLE_STRENGTHS)
            for k in range(len(ORACLE_STRENGTHS)):
                for i in {0, len(members) - 1}:
                    plan = stack[k, i]
                    weights = plan.weights if scheme == "res" else own_calibrated_weights(plan)
                    grams, variances = own_block_grams(plan, weights)
                    assert_rel_close(functional_matrix(plan), (grams[0] + 1j * grams[1]).T, tol)
                    assert_rel_close(embedded(estimator_operators(plan), plan.support, plan.element.dim),
                                     variances, tol)

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    def test_sixteen_qubit_ket_element_reads_two_amplitudes(self, scheme, monkeypatch):
        # the full space of the element's plan, 65,536 levels times its
        # meters, is beyond the joint limit; its coupled block is not
        dims = (2,) * 16
        rng = stream(21, "ket16")
        amps = rng.standard_normal(2 ** 16) + 1j * rng.standard_normal(2 ** 16)
        ket = Ket.create(amps / np.linalg.norm(amps), dims)
        s = tuple(int(b) for b in rng.integers(0, 2, 16))
        sp = tuple(1 - b if n in (3, 11) else b for n, b in enumerate(s))
        element = ElementIndex.create(dims, s, sp)

        def densified(self):
            raise AssertionError("the ket was densified")

        monkeypatch.setattr(Ket, "density", densified)
        got = extract_element(ket, BUILDERS[scheme](element, 0.7))
        want = ket.amplitudes[element.s_flat] * np.conj(ket.amplitudes[element.s_prime_flat])
        assert abs(got - want) <= 1e-12


class TestBaseBlockOperators:
    """Variance operators from the unrotated blocks equal the Gram of every rotated row."""

    @settings(max_examples=40, deadline=None)
    @given(element=elements(((2,), (3,), (2, 2), (2, 3), (3, 3))), gs=st.tuples(STRENGTHS, STRENGTHS),
           kind=st.sampled_from(sorted(STACKS)))
    def test_operators_equal_the_full_stack_gram(self, element, gs, kind):
        stack = STACKS[kind]([element], gs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(plans_module, "readout_amplitudes", None)  # any rotation would fail
            stacks = estimator_operators(stack)
            singles = [estimator_operators(stack[k, 0]) for k in range(len(gs))]
        for k in range(len(gs)):
            plan = stack[k, 0]
            assert np.array_equal(singles[k], stacks[k])  # a plan is the stack of one
            for i, c in enumerate((plan.coeff_re, plan.coeff_im)):
                w = embedded(stacks[k, i], plan.support, element.dim)
                assert_rel_close(w, full_gram(plan.amplitudes, c ** 2))
                assert_rel_close(w, w.conj().T)


class TestStoredBlocks:
    """Plans keep the readout rows of the blocks their estimator reads."""

    @settings(max_examples=25, deadline=None)
    @given(element=elements(((2,), (3,), (2, 2), (2, 3), (3, 3))), g=st.floats(0.1, 1.4),
           kind=st.sampled_from(sorted(BUILDERS)))
    def test_stored_rows_are_rows_of_the_full_stack(self, element, g, kind):
        plan = BUILDERS[kind](element, g)
        assert plan.post_selectors == (element.s_flat, element.s_prime_flat)
        assert plan.block_amplitudes.shape == (plan.n_settings, 2 * 2 ** plan.n_meters,
                                               canonical_element(element).dim)
        rows = np.zeros(plan.block_amplitudes.shape[:-1] + (element.dim,), dtype=complex)
        rows[..., plan.support] = plan.block_amplitudes
        assert np.array_equal(rows, stored_rows_of(plan.amplitudes, plan))
        assert not plan.block_amplitudes.flags.writeable
        assert plan.amplitudes.shape == (plan.n_settings, plan.outcomes_per_setting, element.dim)
        assert not plan.amplitudes.flags.writeable
        want = reference_plan_amplitudes(element.dims, element.s, element.s_prime, g, kind[:3])
        assert_allclose(plan.amplitudes, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("dims,s,sp", [((3,), (0,), (2,)), ((2, 3), (1, 0), (0, 2)),
                                           ((2, 2, 2), (0, 1, 1), (1, 1, 0))])
    def test_hot_paths_match_a_full_stack_evaluation(self, kind, dims, s, sp):
        element = ElementIndex.create(dims, s, sp)
        plan = BUILDERS[kind](element, 0.7)
        rho = random_mixed_state(dims, stream(3, "stored-blocks"))
        p = all_probabilities(plan, rho)
        c_re, c_im = plan.coeff_re, plan.coeff_im
        assert_rel_close(extract_element(rho, plan), complex(np.sum(c_re * p), np.sum(c_im * p)))
        for allocation in ALLOCATIONS:
            factor = allocation_factor(allocation, plan.n_settings)
            assert_rel_close(element_variance(plan, rho, ShotPolicy(1.0, allocation)),
                             (factor * np.sum(c_re ** 2 * p), factor * np.sum(c_im ** 2 * p)))
        w_re, w_im = embedded(estimator_operators(plan), plan.support, element.dim)
        assert_rel_close(w_re, full_gram(plan.amplitudes, c_re ** 2))
        assert_rel_close(w_im, full_gram(plan.amplitudes, c_im ** 2))
        assert_rel_close(functional_matrix(plan), full_gram(plan.amplitudes, c_re + 1j * c_im).T)

        stack = STACKS[kind]([element], [0.4, 0.9])
        stacks = embedded(estimator_operators(stack), stack.supports[0], element.dim)
        for k in range(2):
            for w, c in zip(stacks[k], (stack[k, 0].coeff_re, stack[k, 0].coeff_im)):
                assert_rel_close(w, full_gram(stack[k, 0].amplitudes, c ** 2))

    @pytest.mark.parametrize("builder", [plan_res, plan_seq])
    @pytest.mark.parametrize("shape", ["a table", "a setting short", "three parts", "no Im part"])
    def test_weights_of_another_shape_are_rejected(self, builder, shape):
        plan = builder(ElementIndex.create((3,), (0,), (1,)), 0.5)
        weights = {
            "a table": plan.coeff_re,
            "a setting short": plan.weights[:, 1:],
            "three parts": np.concatenate([plan.weights, plan.weights[:1]]),
            "no Im part": plan.weights[0],
        }[shape]
        with pytest.raises(InvalidCouplingError, match="weights have shape"):
            dataclasses.replace(plan, weights=weights)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_coefficient_tables_are_read_only(self, kind):
        plan = BUILDERS[kind](ElementIndex.create((2, 3), (1, 0), (0, 2)), 0.7)
        stack = STACKS[kind]([plan.element], [0.4, 0.7])
        for tables in (plan, stack[1, 0]):
            for name in ("coeff_re", "coeff_im"):
                table = getattr(tables, name)
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[..., 0, 0] = 1.0
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(tables, name, np.zeros_like(table))
        with pytest.raises(dataclasses.FrozenInstanceError):
            stack.weights = np.zeros_like(stack.weights)
        assert np.array_equal(stack[1, 0].coeff_re, plan.coeff_re)
        assert np.array_equal(stack[1, 0].coeff_im, plan.coeff_im)

    @pytest.mark.parametrize("builder", [plan_res, plan_seq])
    def test_any_weight_per_setting_and_block_reads_the_full_stack(self, builder):
        # the built weights share structure across blocks and settings;
        # unrelated weights must still match the Born-sum oracle
        element = ElementIndex.create((2, 3), (1, 0), (0, 2))
        plan = builder(element, 0.7)
        weights = stream(8, "block-weights").normal(size=plan.weights.shape)
        plan = dataclasses.replace(plan, weights=weights)
        signs = sign_products(plan.n_meters)
        tables = np.zeros((2, plan.n_settings, element.dim, 2 ** plan.n_meters))
        tables[:, :, list(plan.post_selectors)] = weights[..., None] * signs
        tables = tables.reshape(2, plan.n_settings, -1)
        rho = random_mixed_state(element.dims, stream(9, "block-weights"))
        p = all_probabilities(plan, rho)
        assert_rel_close(extract_element(rho, plan), complex(np.sum(tables[0] * p), np.sum(tables[1] * p)))
        assert_rel_close(functional_matrix(plan), full_gram(plan.amplitudes, tables[0] + 1j * tables[1]).T)
        w_re, w_im = embedded(estimator_operators(plan), plan.support, element.dim)
        assert_rel_close(w_re, full_gram(plan.amplitudes, tables[0] ** 2))
        assert_rel_close(w_im, full_gram(plan.amplitudes, tables[1] ** 2))

    @settings(max_examples=20, deadline=None)
    @given(element=elements(((2,), (3,), (2, 2), (2, 3), (2, 2, 2))), g=STRENGTHS)
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_functional_is_the_matrix_unit(self, kind, element, g):
        plan = BUILDERS[kind](element, g)
        target = np.zeros((element.dim, element.dim), dtype=complex)
        target[element.s_flat, element.s_prime_flat] = 1
        assert np.max(np.abs(functional_matrix(plan) - target)) <= 1e-8

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

    def test_four_qubit_seq_plan_holds_little(self):
        # block rows (128 KiB) and weights (8 KiB); coefficient tables would add 16.8 MB
        element = ElementIndex.create((2,) * 4, (0,) * 4, (1,) * 4)
        tracemalloc.start()
        try:
            plan = plan_seq(element, 0.7)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 4e6
        assert plan.weights.shape == (2, 256, 2)
