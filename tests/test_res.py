import functools
import itertools
import math
import re
import time
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmres import (
    CalibrationError,
    DensityMatrix,
    DimensionLimitError,
    ElementIndex,
    InvalidCouplingError,
    InvalidElementError,
    Ket,
    MeasurementSetting,
    ShotPolicy,
    characterize,
    diagonal_element,
    element_variance,
    extract_element,
    outcome_distribution,
    plan_document,
    plan_res,
    random_mixed_state,
    simulate_shots,
    stream,
)
from dmres.elements import all_offdiagonal_elements, element_from_flat
from dmres.errors import DmresError, InvalidStateError
from dmres.linalg import MAX_JOINT_DIM
from dmres.plans import (
    PlanBatch,
    ProtocolPlan,
    RES_SCHEME,
    canonical_element,
    canonical_rows,
    enumerate_settings,
    functional_matrix,
)
import dmres.plans as plans_module
import dmres.res as res_module
import dmres.seq as seq_module
from dmres.res import SCHEMES, configuration_batches, configuration_stacks
from dmres.seq import plan_seq

from dmres.cli import _characterize_shots
from dmres.shots import ALLOCATIONS, batch_variances

from oracles import (
    joint_state,
    partial_trace,
    per_pair_characterize,
    per_pair_shots,
    reference_extract,
    reference_setting_probabilities,
)


def refuse_densifying(monkeypatch):
    def densified(self):
        raise AssertionError("the ket was densified")

    monkeypatch.setattr(Ket, "density", densified)


def maximally_mixed(dims):
    total = int(np.prod(dims))
    return DensityMatrix.create(np.eye(total) / total, dims)


def plus_state():
    return DensityMatrix.create(np.full((2, 2), 0.5), (2,))


def bare_res_plan(element, g):
    """A res plan without estimator weights, so g may be singular (sin 2g = 0)."""
    plan = plan_res(element, 0.5)  # the couplings and the support do not depend on g
    canonical = canonical_element(element)
    settings = enumerate_settings(len(plan.couplings))
    (rows,) = canonical_rows(canonical, plan_res(canonical, 0.5).couplings, (g,))
    return ProtocolPlan(
        element=element, scheme=RES_SCHEME, g=g, couplings=plan.couplings, settings=settings,
        weights=np.zeros((2, len(settings), 2)), rows=rows, support=plan.support,
    )


def member_plans(dims, g, builder):
    """Every member's plan ``batch[0, i]``, batch by batch as ``configuration_batches`` yields them."""
    for batch in configuration_batches(dims, g, builder):
        yield from (batch[0, i] for i in range(len(batch.elements)))


def pair(plan):
    return (plan.element.s_flat, plan.element.s_prime_flat)


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
        # every function that reads a state through a plan names the mismatch,
        # also for a (4,) state whose total dimension fits a (2, 2) plan
        plan = plan_res(ElementIndex.create((2, 2), (0, 0), (1, 1)), 0.5)
        policy = ShotPolicy(n_t=1e4)
        readers = [
            joint_state,
            extract_element,
            lambda rho, plan: outcome_distribution(rho, plan, 0),
            lambda rho, plan: simulate_shots(plan, rho, policy, stream(2, "mismatch")),
            lambda rho, plan: element_variance(plan, rho, policy),
        ]
        for dims in ((4,), (3,)):
            rho = random_mixed_state(dims, stream(2, f"mismatch{dims}"))
            for reader in readers:
                with pytest.raises(InvalidElementError, match=rf"state dims \({dims[0]},\) do not match plan dims \(2, 2\)"):
                    reader(rho, plan)


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

    @pytest.mark.parametrize("builder", [plan_res, plan_seq])
    def test_ket_is_read_as_its_amplitudes(self, builder, monkeypatch):
        rng = stream(4, "dist-ket")
        amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        ket = Ket.create(amps / np.linalg.norm(amps), (2, 3))
        plan = builder(ElementIndex.create((2, 3), (0, 1), (1, 2)), 0.8)
        densified = [outcome_distribution(ket.density(), plan, i).probabilities for i in range(plan.n_settings)]
        refuse_densifying(monkeypatch)
        for i, want in enumerate(densified):
            dist = outcome_distribution(ket, plan, i)
            dist.check()
            assert_allclose(dist.probabilities, want, rtol=0, atol=1e-15)

    def test_matches_projector_contraction_oracle(self):
        rho = plus_state()
        e = ElementIndex.create((2,), (0,), (1,))
        plan = plan_res(e, math.pi / 4)
        idx = plan.settings.index(MeasurementSetting(("y",)))
        got = outcome_distribution(rho, plan, idx).probabilities
        want = reference_setting_probabilities(rho.entries, (2,), (0,), (1,), math.pi / 4, ("y",))
        assert_allclose(got, want, atol=1e-12)

    def test_setting_outside_the_plan_is_a_domain_error(self):
        # -1 would read the last setting, and a setting the plan lacks
        # would miss its index
        rho = random_mixed_state((2, 2), stream(3, "dist-setting"))
        plan = plan_res(ElementIndex.create((2, 2), (0, 1), (1, 0)), 0.9)
        assert plan.n_settings == 4
        for setting in (-1, 4, MeasurementSetting(("x",)), MeasurementSetting(("x", "z"))):
            with pytest.raises(InvalidCouplingError, match="is not one of the plan's 4 settings"):
                outcome_distribution(rho, plan, setting)
        want = outcome_distribution(rho, plan, 3).probabilities.tobytes()
        for setting in (MeasurementSetting(("y", "y")), np.int64(3)):
            assert outcome_distribution(rho, plan, setting).probabilities.tobytes() == want


class TestExtraction:
    @pytest.mark.parametrize("g", [1e-2, 2e-2])
    def test_exact_at_weak_coupling(self, g):
        # the coefficients grow as the response shrinks with g; the exact
        # estimate is read from base and keeps the element to rounding
        e = ElementIndex.create((2, 3), (0, 0), (1, 2))
        plan = plan_res(e, g)
        rng = stream(7, "weak-res")
        for _ in range(5):
            rho = random_mixed_state((2, 3), rng)
            assert abs(extract_element(rho, plan) - rho.entry(e.s_flat, e.s_prime_flat)) <= 1e-8

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

    def test_ket_diagonal_is_the_densified_entry(self, monkeypatch):
        dims = (2, 3, 2)
        kets = []
        for k in range(20):
            rng = stream(7, "diag-ket", k)
            amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            kets.append(Ket.create(amps / np.linalg.norm(amps), dims))
        densified = [ket.density().entries.diagonal().real for ket in kets]
        refuse_densifying(monkeypatch)
        for ket, want in zip(kets, densified):
            got = [diagonal_element(ket, np.unravel_index(u, dims)) for u in range(12)]
            assert np.array_equal(got, want)  # the bytes of the densified path

    def test_sixteen_qubit_ket_diagonal(self, monkeypatch):
        # densifying this ket would ask for a 68 GB matrix
        dims = (2,) * 16
        rng = stream(16, "diag-ket16")
        amps = rng.standard_normal(2 ** 16) + 1j * rng.standard_normal(2 ** 16)
        ket = Ket.create(amps / np.linalg.norm(amps), dims)
        refuse_densifying(monkeypatch)
        for s in ((0,) * 16, (1, 0) * 8, tuple(int(b) for b in rng.integers(0, 2, 16))):
            amp = ket.amplitudes[np.ravel_multi_index(s, dims)]
            assert_allclose(diagonal_element(ket, s), abs(amp) ** 2, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("s, match", [
        ((3, 0), r"out of range for qudit 0"), ((0, -1), r"out of range for qudit 1"),
        ((0,), r"index lengths 1/1 do not match 2 qudits"), ((0, 1, 2), r"index lengths 3/3"),
    ])
    def test_diagonal_index_outside_the_state_is_a_domain_error(self, s, match):
        rho = random_mixed_state((3, 3), stream(7, "diag-bad"))
        ket = Ket.create(np.full(9, 1 / 3), (3, 3))
        for state in (rho, ket):
            with pytest.raises(InvalidElementError, match=match):
                diagonal_element(state, s)

    def test_characterize_recovers_state(self):
        for dims in ((3,), (2, 2)):
            rho = random_mixed_state(dims, stream(8, f"char{dims}"))
            est = characterize(rho, math.pi / 4)
            assert np.max(np.abs(est.entries - rho.entries)) < 1e-10
            assert_allclose(est.entries, est.entries.conj().T, atol=1e-14)
            assert abs(np.trace(est.entries) - 1) < 1e-10

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (2, 3)])
    def test_other_builder_is_refused_before_any_build(self, dims, monkeypatch):
        # only the stock builders have a configuration stack
        built = []
        monkeypatch.setattr(plans_module, "base_amplitudes", lambda *a: built.append(a))
        builder = lambda element, g: built.append(element) or plan_res(element, g)  # noqa: E731
        refused = r"plan builder '<lambda>' has no configuration stack: use plan_res or plan_seq"
        with pytest.raises(DmresError, match=refused):
            next(configuration_batches(dims, 0.6, builder))
        with pytest.raises(DmresError, match=refused):
            characterize(random_mixed_state(dims, stream(14, "refused")), 0.6, builder)
        assert built == []


class TestRefusedBeforeAnyBuild:
    @pytest.mark.parametrize("dims, builder, joint", [
        ((2,) * 8, plan_res, 256 * 2 ** 8),  # one meter per coupled qubit
        ((2,) * 5, plan_seq, 32 * 4 ** 5),  # two
    ])
    def test_oversized_configuration_raises_at_once(self, dims, builder, joint, monkeypatch):
        # the configuration coupling every qubit is the largest; its
        # joint dimension is checked before any configuration is built
        built = []
        monkeypatch.setattr(plans_module, "base_amplitudes", lambda *a: built.append(a))
        rho = random_mixed_state(dims, stream(15, "oversized"))
        start = time.perf_counter()
        with pytest.raises(DimensionLimitError, match=f"joint dimension {joint} exceeds"):
            characterize(rho, 0.7, builder)
        assert time.perf_counter() - start < 1.0
        assert built == []

    def test_unknown_scheme_is_a_domain_error(self):
        with pytest.raises(InvalidStateError, match="unknown scheme 'foo'"):
            next(configuration_stacks([element_from_flat((3,), 0, 1)], "foo", (0.5,)))

    @pytest.mark.parametrize("scheme, groups", [
        (scheme, [["12,21", "01,10", "10,01"], ["00,01", "00,02", "02,01", "00,10"]]) for scheme in ("res", "seq")
    ])
    def test_stacks_are_the_table_stack_of_each_configuration(self, scheme, groups):
        # configuration_stacks of any element list: one stack per coupled
        # shape in first-element order, members in list order; 00,10
        # couples qudit 0 where the other single couplings couple qudit 1
        pairs = [(5, 7), (0, 1), (1, 3), (0, 2), (3, 1), (2, 1), (0, 3)]
        elements = [element_from_flat((3, 3), u, v) for u, v in pairs]
        stacks = list(configuration_stacks(elements, scheme, (0.4, 0.9)))
        assert [[e.label() for e in stack.elements] for stack in stacks] == groups
        for stack in stacks:
            want = SCHEMES[scheme].stack(list(stack.elements), (0.4, 0.9))
            assert stack.weights.tobytes() == want.weights.tobytes()
            assert stack.rows.tobytes() == want.rows.tobytes()
            assert stack.supports.tobytes() == want.supports.tobytes()


CONFIGURATION_DIMS = [(3,), (2, 2), (3, 3), (2, 2, 2), (2, 3), (3, 2, 2)]


def configurations(dims, scheme):
    """Upper-triangle pairs grouped by coupled shape, computed from the definition.

    Both schemes build one stack per coupled shape, the local dimensions
    of the qudits whose indices differ, in order; shapes come in the
    order of their first pair, members in row-major order.
    """
    groups = {}
    for u, v in itertools.combinations(range(int(np.prod(dims))), 2):
        s, sp = np.unravel_index(u, dims), np.unravel_index(v, dims)
        key = tuple(d for d, a, b in zip(dims, s, sp) if a != b)
        groups.setdefault(key, []).append((u, v))
    return list(groups.values())


def configuration_order(dims, scheme):
    """The pairs of ``configurations``, configuration by configuration."""
    return [pair for members in configurations(dims, scheme) for pair in members]


class TestConfigurationPlans:
    BUILDERS = {"res": plan_res, "seq": plan_seq}

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("dims", CONFIGURATION_DIMS)
    def test_plans_equal_single_builds(self, scheme, dims):
        builder = self.BUILDERS[scheme]
        for g in (0.3, 0.7, 1.1):
            for plan in member_plans(dims, g, builder):
                single = builder(plan.element, g)
                assert plan.element == single.element and plan.g == single.g
                assert plan.post_selectors == single.post_selectors and plan.settings == single.settings
                assert [(c.qudit, c.kind, c.label) for c in plan.couplings] == \
                    [(c.qudit, c.kind, c.label) for c in single.couplings]
                for c, c_single in zip(plan.couplings, single.couplings):
                    assert np.array_equal(c.op, c_single.op)
                for name in ("weights", "coeff_re", "coeff_im", "base", "block_amplitudes"):
                    got, want = getattr(plan, name), getattr(single, name)
                    assert got.shape == want.shape and np.array_equal(got, want), name
                assert plan.calibration == single.calibration
                assert plan.block_amplitudes.flags.c_contiguous
                assert not plan.block_amplitudes.flags.writeable

    @pytest.mark.parametrize("scheme, dims", [
        (scheme, dims) for scheme in ("res", "seq") for dims in ((3,), (2, 2), (2, 3), (3, 3))
    ] + [("res", (2, 2, 2))])
    def test_member_exports_equal_single_builds_bytes(self, scheme, dims):
        # np.array_equal(-0.0, 0.0) holds, so compare the exported bytes;
        # a zero weight times meter sign -1 is -0, which no export writes
        builder = self.BUILDERS[scheme]
        for plan in member_plans(dims, 0.7, builder):
            doc = plan_document(plan)
            assert doc == plan_document(builder(plan.element, 0.7))
            values = re.findall(r'"(?:re|im)": ([^,}]+)', doc)
            assert len(values) == 2 * plan.n_settings * plan.outcomes_per_setting
            assert "-0" not in values

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
    def test_members_hold_the_stack_arrays_in_post_selector_order(self, scheme, dims):
        # every member, s < s' or s > s', reads its stack's canonical
        # blocks as (s, s') unchanged: no member holds a reordered copy
        elements = all_offdiagonal_elements(dims, ordered=True)
        seen = 0
        for stack in configuration_stacks(elements, scheme, (0.4, 0.9)):
            for k in range(len(stack.gs)):
                want_amplitudes = plans_module.readout_amplitudes(stack.rows[k])
                for i, element in enumerate(stack.elements):
                    plan = stack[k, i]
                    assert plan.weights.tobytes() == stack.weights[k].tobytes()
                    assert plan.rows.tobytes() == stack.rows[k].tobytes()
                    assert plan.post_selectors == (element.s_flat, element.s_prime_flat)
                    assert plan.block_amplitudes.tobytes() == want_amplitudes.tobytes()
                    seen += element.s_flat > element.s_prime_flat
        assert seen == len(elements)  # each lower element once per strength

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (2, 3)])
    def test_pairs_come_by_configuration(self, scheme, dims):
        pairs = [pair(plan) for plan in member_plans(dims, 0.6, self.BUILDERS[scheme])]
        assert pairs == configuration_order(dims, scheme)
        assert sorted(pairs) == list(itertools.combinations(range(int(np.prod(dims))), 2))

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    def test_wrapped_stock_builder_takes_configuration_path(self, scheme):
        calls = []
        stock = self.BUILDERS[scheme]

        @functools.wraps(stock)
        def traced(*args, **kwargs):
            calls.append(args)
            return stock(*args, **kwargs)

        pairs = [pair(plan) for plan in member_plans((3, 3), 0.6, traced)]
        assert pairs == configuration_order((3, 3), scheme)
        assert calls == []

    @pytest.mark.parametrize("budget", ["default", "one member per batch"])
    @pytest.mark.parametrize("scheme, module, step", [
        ("res", res_module, "_res_weights"),
        ("seq", seq_module, "_solve"),
    ])
    def test_dropped_plans_are_freed_before_the_next_build(self, scheme, module, step, budget, monkeypatch):
        # (3,3) has configurations of several members for both schemes.  A
        # plan and its arrays (block rows, coefficient tables) must be dead
        # by the time the next member's plan is sliced from its batch, and
        # a batch by the time the next batch's weights are built, once the
        # caller has dropped them.  Each batch's variances gather its
        # members, one at a time under the one-member budget, in between.
        if budget != "default":
            monkeypatch.setattr(plans_module, "MEMBER_ENTRIES", 1)
        held_plan, held_batch, alive, builds = [], [], [], []
        build, slice_ = getattr(module, step), PlanBatch.__getitem__

        def built(*args):
            builds.append(step)
            alive.extend(ref() is not None for ref in held_batch)
            return build(*args)

        def sliced(batch, key):
            alive.extend(ref() is not None for ref in held_plan)
            return slice_(batch, key)

        monkeypatch.setattr(module, step, built)
        monkeypatch.setattr(PlanBatch, "__getitem__", sliced)
        rho, policy = random_mixed_state((3, 3), stream(12, "freed")), ShotPolicy(n_t=1e4)
        for batch in configuration_batches((3, 3), 0.6, self.BUILDERS[scheme]):
            held_batch = [weakref.ref(batch), weakref.ref(batch.weights)]
            assert np.isfinite(batch_variances(batch, rho, policy)).all()
            for i in range(len(batch.elements)):
                plan = batch[0, i]
                arrays = (plan.block_amplitudes, plan.coeff_re, plan.coeff_im)
                held_plan = [weakref.ref(plan)] + [weakref.ref(a if a.base is None else a.base) for a in arrays]
                del plan, arrays
            del batch
        # the plan is checked at each of 35 later members, the batch at each later build
        assert len(builds) > 1 and len(alive) == 4 * 35 + 2 * (len(builds) - 1) and not any(alive)

    @pytest.mark.parametrize("budget", ["default", "one member per batch"])
    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("dims", CONFIGURATION_DIMS)
    def test_estimates_equal_per_pair_extraction_bytes(self, scheme, dims, budget, monkeypatch):
        # one stacked product per batch reads what one extraction per pair
        # reads, however the members are chunked
        if budget != "default":
            monkeypatch.setattr(plans_module, "MEMBER_ENTRIES", 1)
        builder = self.BUILDERS[scheme]
        for k, g in enumerate((0.3, 0.7, 1.1)):
            rho = random_mixed_state(dims, stream(9, f"batch-bytes{dims}", k))
            got = characterize(rho, g, builder).entries
            assert got.tobytes() == per_pair_characterize(rho, g, builder).tobytes()

    @pytest.mark.parametrize("allocation", ALLOCATIONS)
    @pytest.mark.parametrize("dims", CONFIGURATION_DIMS)
    def test_shot_estimates_equal_per_pair_draws_bytes(self, dims, allocation):
        policy = ShotPolicy(n_t=1e5, allocation=allocation)
        for k, g in enumerate((0.3, 0.7, 1.1)):
            rho = random_mixed_state(dims, stream(10, f"batch-shots{dims}", k))
            est, variances = _characterize_shots(rho, g, policy, seed=k)
            want_est, want_variances = per_pair_shots(rho, g, policy, seed=k)
            assert est.entries.tobytes() == want_est.tobytes()
            assert sorted(variances) == sorted(want_variances)
            assert np.array([variances[uv] for uv in sorted(variances)]).tobytes() == \
                np.array([want_variances[uv] for uv in sorted(variances)]).tobytes()

    def test_infeasible_member_raises_its_single_build_error(self, monkeypatch):
        # (0, 2) shares the coupled set of (0, 1), its canonical element,
        # whose one solve serves both; skewed targets for (0, 1) leave the
        # span of its correlator rows, so every member of the set fails,
        # at the build, before any member is gathered
        infeasible = (0, 1)
        targets = seq_module._targets

        def skewed(element):
            t = targets(element)
            if (element.s_flat, element.s_prime_flat) == infeasible:
                t += 1.0
            return t

        monkeypatch.setattr(seq_module, "_targets", skewed)
        with pytest.raises(CalibrationError) as single:
            plan_seq(element_from_flat((3, 3), 0, 2), 0.7)
        rho = random_mixed_state((3, 3), stream(11, "infeasible"))
        with pytest.raises(CalibrationError) as batch:
            characterize(rho, 0.7, plan_seq)
        assert str(batch.value) == str(single.value)
        with pytest.raises(CalibrationError) as plans:
            list(configuration_batches((3, 3), 0.7, plan_seq))
        assert str(plans.value) == str(single.value)

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
    def test_exact_estimates_rotate_no_readout_row(self, scheme, dims, readout_calls):
        # every estimate is read from the unrotated block rows
        rho = random_mixed_state(dims, stream(4, "rotations"))
        characterize(rho, 0.6, self.BUILDERS[scheme])
        extract_element(rho, self.BUILDERS[scheme](element_from_flat(dims, 0, 3), 0.6))
        assert readout_calls == []

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("g", [0.0, float("nan")])
    def test_bad_strength_raises_as_single_build(self, scheme, g):
        builder = self.BUILDERS[scheme]
        with pytest.raises(InvalidCouplingError) as single:
            builder(element_from_flat((3, 3), 0, 1), g)
        with pytest.raises(InvalidCouplingError, match=re.escape(str(single.value))):
            next(configuration_batches((3, 3), g, builder))


class TestShapeStacks:
    """One stack per coupled shape: its arrays are those of every coupled set of that shape."""

    MODULES = {"res": res_module, "seq": seq_module}

    @pytest.mark.parametrize("scheme, dims, builds", [
        ("res", (2, 2, 2), 3), ("seq", (2, 2, 2), 3), ("res", (2,) * 6, 6),
    ])
    def test_characterize_builds_once_per_coupled_shape(self, scheme, dims, builds, monkeypatch):
        # (2,2,2) has 7 coupled sets and (2,)*6 has 63, but as many shapes as qubits
        calls, module = [], self.MODULES[scheme]
        build = module.canonical_rows
        monkeypatch.setattr(module, "canonical_rows", lambda *args: calls.append(args[0].dims) or build(*args))
        rho = random_mixed_state(dims, stream(33, f"shape-builds{dims}"))
        characterize(rho, 0.7, TestConfigurationPlans.BUILDERS[scheme])
        assert len(calls) == len(set(calls)) == builds

    @pytest.mark.parametrize("budget", ["default", "one member per gather"])
    def test_one_stack_holds_every_member_of_its_shape(self, budget, monkeypatch):
        # (2,)*6 res has shapes of up to 640 members; however small the
        # member budget, each shape is one stack
        if budget != "default":
            monkeypatch.setattr(plans_module, "MEMBER_ENTRIES", 1)
        dims = (2,) * 6
        stacks = list(configuration_stacks(all_offdiagonal_elements(dims), "res", (0.7,)))
        assert [[(e.s_flat, e.s_prime_flat) for e in stack.elements] for stack in stacks] == \
            configurations(dims, "res")
        assert [len(stack.supports) for stack in stacks] == [len(stack.elements) for stack in stacks]

    def test_one_gram_pair_and_one_rotation_per_coupled_shape(self, monkeypatch, readout_calls):
        # (2,)*6 res has 6 shapes; characterize forms each stack's Gram
        # pair once, and characterize --shots rotates its readout rows once
        calls = []
        grams = res_module._estimator_grams
        monkeypatch.setattr(res_module, "_estimator_grams", lambda *args: calls.append(args) or grams(*args))
        rho = random_mixed_state((2,) * 6, stream(34, "shape-grams"))
        characterize(rho, 0.7, plan_res)
        assert len(calls) == 6 and readout_calls == []
        _characterize_shots(rho, 0.7, ShotPolicy(n_t=1e5), seed=0)
        assert len(calls) == 6 and len(readout_calls) == 6

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("dims", [(2,) * 6, (3, 3, 3), (2, 3, 2)])
    def test_member_traces_do_not_depend_on_the_gather_budget(self, scheme, dims, monkeypatch):
        # one gather of every member, or one per member, reads the same bytes
        rho = random_mixed_state(dims, stream(35, f"gathers{dims}"))
        amps = [1, 1j] @ stream(35, f"gathers-ket{dims}").standard_normal((2, rho.dim))
        ket = Ket.create(amps / np.linalg.norm(amps), dims)
        for members in res_module.configurations(all_offdiagonal_elements(dims, ordered=True)):
            meters = SCHEMES[scheme].meters * members[0].n_couplings
            if canonical_element(members[0]).dim * 2 ** meters > MAX_JOINT_DIM:
                continue  # seq refuses five or more coupled qubits
            stack = SCHEMES[scheme].stack(members, (0.4, 0.9))
            for operators in (plans_module._estimator_grams(stack), plans_module.estimator_operators(stack)):
                for state in (rho, ket):
                    with monkeypatch.context() as mp:
                        mp.setattr(plans_module, "MEMBER_ENTRIES", 1)
                        one_by_one = plans_module.member_traces(operators, state, stack.supports)
                    want = plans_module.member_traces(operators, state, stack.supports)
                    assert one_by_one.shape == want.shape == (2, len(members), 2)
                    assert one_by_one.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("dims", CONFIGURATION_DIMS + [(2, 3, 2)])
    def test_shape_stacks_equal_coupled_set_stacks_bytes(self, scheme, dims):
        gs = (0.3, 0.7, 1.1)
        stack_of = SCHEMES[scheme].stack
        for members in res_module.configurations(all_offdiagonal_elements(dims, ordered=True)):
            shape = stack_of(members, gs)
            sets = {}
            for i, element in enumerate(members):
                sets.setdefault(element.coupled_set, []).append(i)
            for indices in sets.values():
                want = stack_of([members[i] for i in indices], gs)
                assert shape.weights.tobytes() == want.weights.tobytes()
                assert shape.rows.tobytes() == want.rows.tobytes()
                assert shape.calibrations == want.calibrations
                assert shape.supports[indices].tobytes() == want.supports.tobytes()
