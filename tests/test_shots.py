import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.stats import ks_2samp

import dmres.plans as plans_module
import dmres.res as res_module
import dmres.shots as shots_module
from dmres import (
    DensityMatrix,
    ElementIndex,
    InvalidStateError,
    ShotPolicy,
    element_variance,
    extract_element,
    plan_res,
    plan_seq,
    random_mixed_state,
    simulate_shots,
    stream,
)
from dmres.elements import all_offdiagonal_elements

from oracles import flat_pairs, ks_critical_value, reference_cell_draws, reference_class_probabilities, shape_members
from test_engine import BUILDERS, elements


def maximally_mixed(d):
    return DensityMatrix.create(np.eye(d) / d, (d,))


def plus_state():
    return DensityMatrix.create(np.full((2, 2), 0.5), (2,))


class TestShotPolicy:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(InvalidStateError):
            ShotPolicy(n_t=0.0)

    def test_rejects_unknown_allocation(self):
        with pytest.raises(InvalidStateError):
            ShotPolicy(n_t=1.0, allocation="whatever")

    def test_exposures(self):
        assert ShotPolicy(n_t=1.0).exposure(4) == 1.0
        assert ShotPolicy(n_t=1.0, allocation="split-total").exposure(4) == 0.25


class TestElementVariance:
    def test_hand_value_maximally_mixed_qutrit(self):
        # coefficients are +-1/2 on two of six outcomes in one setting,
        # so sum c^2 p = (1/4)(2/3) = 1/6 per quadrature
        plan = plan_res(ElementIndex.create((3,), (0,), (1,)), math.pi / 4)
        var_re, var_im = element_variance(plan, maximally_mixed(3), ShotPolicy(n_t=1.0))
        assert_allclose(var_re, 1 / 6, atol=1e-14)
        assert_allclose(var_im, 1 / 6, atol=1e-14)

    @pytest.mark.parametrize("builder", [plan_res, plan_seq])
    def test_repeated_variances_build_the_operators_once(self, monkeypatch, builder):
        plan = builder(ElementIndex.create((2, 2), (0, 0), (1, 1)), 0.7)
        states = [random_mixed_state((2, 2), stream(3, "variance-memo", i)) for i in range(3)]
        policies = [ShotPolicy(n_t=1.0), ShotPolicy(n_t=5.0, allocation="split-total")]
        fresh = [element_variance(builder(plan.element, 0.7), rho, p) for rho in states for p in policies]
        built = []
        operators = plans_module.estimator_operators

        def counted(plan):
            built.append(plan)
            return operators(plan)

        monkeypatch.setattr(plans_module, "estimator_operators", counted)
        repeated = [element_variance(plan, rho, p) for rho in states for p in policies]
        assert built == [plan]
        assert np.array(repeated).tobytes() == np.array(fresh).tobytes()
        assert not any(w.flags.writeable for w in plan.estimator_operators)

    def test_inverse_sin_squared_scaling(self):
        # for single-coupling plans the post-selected weight is strength
        # independent, so the variance scales exactly as 1/sin^2(2g)
        e = ElementIndex.create((3,), (0,), (1,))
        rho = random_mixed_state((3,), stream(0, "var"))
        policy = ShotPolicy(n_t=1.0)
        v1 = element_variance(plan_res(e, 0.1), rho, policy)
        v2 = element_variance(plan_res(e, math.pi / 4), rho, policy)
        ratio = math.sin(2 * math.pi / 4) ** 2 / math.sin(2 * 0.1) ** 2
        assert_allclose(v1[0] / v2[0], ratio, rtol=1e-12)
        assert_allclose(v1[1] / v2[1], ratio, rtol=1e-12)

    def test_nonnegative(self):
        rng = stream(1, "var")
        policy = ShotPolicy(n_t=1.0)
        for dims, s, sp in [((2,), (0,), (1,)), ((2, 2), (0, 0), (1, 1))]:
            e = ElementIndex.create(dims, s, sp)
            for plan in (plan_res(e, 0.8), plan_seq(e, 0.8)):
                rho = random_mixed_state(dims, rng)
                var_re, var_im = element_variance(plan, rho, policy)
                assert var_re >= 0 and var_im >= 0

    def test_rate_invariance(self):
        e = ElementIndex.create((3,), (0,), (2,))
        plan = plan_res(e, 0.9)
        rho = random_mixed_state((3,), stream(2, "var"))
        lo = element_variance(plan, rho, ShotPolicy(n_t=1e3))
        hi = element_variance(plan, rho, ShotPolicy(n_t=1e6))
        assert_allclose(lo, hi, rtol=1e-12)

    def test_split_total_multiplies_by_setting_count(self):
        e = ElementIndex.create((2, 2), (0, 0), (1, 1))
        plan = plan_res(e, 0.7)
        rho = random_mixed_state((2, 2), stream(3, "var"))
        per = element_variance(plan, rho, ShotPolicy(n_t=1.0))
        split = element_variance(plan, rho, ShotPolicy(n_t=1.0, allocation="split-total"))
        assert_allclose(split, tuple(plan.n_settings * v for v in per), rtol=1e-12)


class TestSimulateShots:
    def test_high_rate_concentrates(self):
        plan = plan_res(ElementIndex.create((2,), (0,), (1,)), math.pi / 4)
        policy = ShotPolicy(n_t=1e7)
        var_re, _ = element_variance(plan, plus_state(), policy)
        est = simulate_shots(plan, plus_state(), policy, stream(4, "shots"))
        assert abs(est.real - 0.5) < 5 * math.sqrt(var_re / policy.n_t)

    def test_unbiasedness_over_repetitions(self):
        e = ElementIndex.create((3,), (0,), (1,))
        plan = plan_res(e, 0.6)
        rho = random_mixed_state((3,), stream(5, "shots"))
        policy = ShotPolicy(n_t=5e3)
        reps = 10000
        draws = np.array([
            simulate_shots(plan, rho, policy, stream(5, "shots-draws", i)) for i in range(reps)
        ])
        truth = rho.entry(0, 1)
        var_re, var_im = element_variance(plan, rho, policy)
        tol_re = 5 * math.sqrt(var_re / policy.n_t / reps)
        tol_im = 5 * math.sqrt(var_im / policy.n_t / reps)
        assert abs(draws.real.mean() - truth.real) < tol_re
        assert abs(draws.imag.mean() - truth.imag) < tol_im

    def test_fixed_seed_bit_identical(self):
        plan = plan_res(ElementIndex.create((2,), (0,), (1,)), 1.0)
        policy = ShotPolicy(n_t=100.0)
        a = simulate_shots(plan, plus_state(), policy, stream(6, "det", 0))
        b = simulate_shots(plan, plus_state(), policy, stream(6, "det", 0))
        assert a == b

    @pytest.mark.parametrize("scheme_builder,g", [
        (plan_res, 0.1), (plan_res, math.pi / 4), (plan_seq, 0.1), (plan_seq, math.pi / 4),
    ])
    def test_empirical_variance_matches_analytic(self, scheme_builder, g):
        e = ElementIndex.create((2,), (0,), (1,))
        plan = scheme_builder(e, g)
        rho = random_mixed_state((2,), stream(7, "emp"))
        policy = ShotPolicy(n_t=2e4)
        reps = 4000
        draws = np.array([
            simulate_shots(plan, rho, policy, stream(8, f"emp/{scheme_builder.__name__}/{g}", i))
            for i in range(reps)
        ])
        var_re, var_im = element_variance(plan, rho, policy)
        emp_re = draws.real.var(ddof=1) * policy.n_t
        emp_im = draws.imag.var(ddof=1) * policy.n_t
        assert abs(emp_re - var_re) / var_re < 0.10
        assert abs(emp_im - var_im) / var_im < 0.10


class TestProbabilityMemo:
    def test_memo_hits_give_the_draws_of_fresh_computation(self, monkeypatch):
        plan = plan_seq(ElementIndex.create((2, 2), (0, 1), (1, 0)), 0.6)
        rho = random_mixed_state((2, 2), stream(12, "memo"))
        policy = ShotPolicy(n_t=50.0)
        calls = []
        counted = shots_module._born
        monkeypatch.setattr(shots_module, "_born",
                            lambda *args: calls.append(1) or counted(*args))
        hits = [simulate_shots(plan, rho, policy, stream(12, "memo-draws", i)) for i in range(20)]
        assert len(calls) == 1
        fresh = []
        for i in range(20):
            # an equal state in a new object misses the memo
            copy = DensityMatrix.create(rho.entries, rho.dims)
            fresh.append(simulate_shots(plan, copy, policy, stream(12, "memo-draws", i)))
        assert len(calls) == 21
        assert hits == fresh
        _, _, rate, (means, coefficients) = shots_module._PROBABILITY_MEMO
        assert rate == policy.n_t
        assert not means.flags.writeable and not coefficients.flags.writeable

    def test_alternating_allocations_give_the_draws_of_fresh_computation(self):
        plan = plan_res(ElementIndex.create((2, 3), (0, 1), (1, 2)), 0.7)
        rho = random_mixed_state((2, 3), stream(14, "memo"))
        policies = [ShotPolicy(n_t=1e3, allocation=a) for a in shots_module.ALLOCATIONS]
        # repeats and switches: the memo hits, then misses on the rate alone
        order = [0, 0, 1, 1, 0, 1, 0, 0, 1]
        drawn = [simulate_shots(plan, rho, policies[k], stream(14, "memo-alt", i)) for i, k in enumerate(order)]
        fresh = [simulate_shots(plan, DensityMatrix.create(rho.entries, rho.dims), policies[k],
                                stream(14, "memo-alt", i))
                 for i, k in enumerate(order)]
        assert drawn == fresh

    def test_dropped_plan_is_not_retained(self):
        plan = plan_res(ElementIndex.create((3,), (0,), (2,)), 0.5)
        rho = maximally_mixed(3)
        simulate_shots(plan, rho, ShotPolicy(n_t=10.0), stream(13, "memo"))
        ref = weakref.ref(plan)
        del plan
        gc.collect()
        assert ref() is None


class TestDrawPath:
    """A draw reads the stored outcome blocks, as extraction and variances do."""

    @settings(max_examples=25, deadline=None)
    @given(element=elements(((2,), (3,), (2, 2), (2, 3), (2, 2, 2))), g=st.floats(0.1, 1.4),
           kind=st.sampled_from(sorted(BUILDERS)), seed=st.integers(0, 2 ** 16))
    # weak coupling weighs the probabilities with coefficients up to 3e4:
    # the Born sum's rounding alone came to 1.003e-12 here
    @example(element=ElementIndex.create((2, 2, 2), (0, 0, 1), (1, 1, 0)), g=0.125, kind="seq", seed=1)
    def test_draws_weigh_the_stored_blocks(self, element, g, kind, seed):
        plan = BUILDERS[kind](element, g)
        rho = random_mixed_state(element.dims, stream(seed, "draw-path"))
        # a power-of-two rate keeps the memo's means rate * p exact, so p = means / rate
        simulate_shots(plan, rho, ShotPolicy(n_t=128.0), stream(seed, "draw-path-shots"))
        assert "amplitudes" not in plan.__dict__
        _, _, rate, (means, (c_re, c_im)) = shots_module._PROBABILITY_MEMO
        p = means / rate
        assert_allclose(p, reference_class_probabilities(plan, rho), rtol=0, atol=1e-12)
        got = complex(c_re @ p, c_im @ p)
        # the Born sum rounds at about 0.02 eps sum_o |c_o| p_o, so this
        # bound is some 50 times that, and a real mismatch still fails
        rounding = np.finfo(float).eps * float((np.abs(c_re) + np.abs(c_im)) @ p)
        assert abs(got - extract_element(rho, plan)) <= 1e-12 + rounding


class TestClassDraws:
    """One count per sign class against the per-cell oracle: one distribution, and the same exact moments."""

    PLANS = [
        ("seq", ElementIndex.create((2, 2), (0, 1), (1, 0))),
        ("res", ElementIndex.create((3, 3), (0, 1), (1, 2))),
    ]

    @pytest.mark.parametrize("kind,element", PLANS)
    def test_class_draws_match_per_cell_draws_in_law(self, kind, element):
        plan = BUILDERS[kind](element, 0.7)
        rho = random_mixed_state(element.dims, stream(41, "class-draws"))
        policy, n = ShotPolicy(n_t=1e2), 2 * 10 ** 4
        rng = stream(41, "class-draws", kind)
        classes = np.array([simulate_shots(plan, rho, policy, rng) for _ in range(n)])
        cells = reference_cell_draws(plan, rho, policy.n_t, stream(41, "cell-draws", kind), n)
        # estimates sit on a lattice whose atoms carry percents of the
        # mass; the two sums round one atom apart (0 against -1e-19), so
        # both samples are rounded to 1e-12 before the ECDFs are compared
        for part in (np.real, np.imag):
            stat = ks_2samp(part(classes).round(12), part(cells).round(12)).statistic
            assert stat < ks_critical_value(n, n, alpha=1e-3)

    @pytest.mark.parametrize("kind,element", PLANS)
    @pytest.mark.parametrize("allocation", shots_module.ALLOCATIONS)
    def test_class_moments_are_the_exact_estimate_and_variance(self, kind, element, allocation):
        plan = BUILDERS[kind](element, 0.7)
        rho = random_mixed_state(element.dims, stream(42, "class-moments"))
        policy = ShotPolicy(n_t=128.0, allocation=allocation)
        simulate_shots(plan, rho, policy, stream(42, "class-moments-shots"))
        _, _, rate, (means, coefficients) = shots_module._PROBABILITY_MEMO
        p = means / rate
        got = complex(*(coefficients @ p))
        rounding = np.finfo(float).eps * float(np.abs(coefficients).sum(0) @ p)
        assert abs(got - extract_element(rho, plan)) <= 1e-12 + rounding
        factor = shots_module.allocation_factor(allocation, plan.n_settings)
        assert_allclose(factor * (coefficients ** 2 @ p), element_variance(plan, rho, policy), rtol=1e-12, atol=0)


class TestBatchShots:
    """A shape stack's draws, elements with s < s' and s > s' in one batch, against per-plan draws."""

    DIMS = (2, 2, 2)

    @staticmethod
    def two_qubit_shape(dims):
        """The ordered elements of ``dims`` that couple two qubits: three coupled sets, both triangles."""
        (members,) = [m for m in shape_members(all_offdiagonal_elements(dims, ordered=True))
                      if m[0].n_couplings == 2]
        assert len({e.coupled_set for e in members}) == 3
        assert {e.s_flat > e.s_prime_flat for e in members} == {False, True}
        return members

    @pytest.mark.parametrize("budget", ["default", "one member per product"])
    @pytest.mark.parametrize("scheme", ["res", "seq"])
    def test_batch_draws_equal_per_plan_draws_bytes(self, scheme, budget, monkeypatch):
        if budget != "default":
            monkeypatch.setattr(shots_module, "MEMBER_ENTRIES", 1)
        members = self.two_qubit_shape(self.DIMS)
        batch = plans_module.stack(self.DIMS, flat_pairs(members), res_module.SCHEMES[scheme], (0.7,))
        rho = random_mixed_state(self.DIMS, stream(31, "batch-shots"))
        policy = ShotPolicy(n_t=1e4)
        got = shots_module.simulate_batch_shots(
            batch, rho, policy, (stream(31, "draws", e.label()) for e in members))
        want = [simulate_shots(batch[0, i], rho, policy, stream(31, "draws", e.label()))
                for i, e in enumerate(members)]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("scheme", ["res", "seq"])
    def test_negative_probability_raises_the_first_per_plan_error(self, scheme):
        # only members whose block holds the perturbed pair read a
        # negative probability; the first of them is not the first member
        members = self.two_qubit_shape(self.DIMS)
        entries = np.eye(8, dtype=complex) / 8
        u, v = members[-1].s_flat, members[-1].s_prime_flat
        entries[u, v] = entries[v, u] = 0.4
        rho = DensityMatrix.create(entries, self.DIMS, check_positive=False)
        batch = plans_module.stack(self.DIMS, flat_pairs(members), res_module.SCHEMES[scheme], (0.7,))
        policy = ShotPolicy(n_t=1e3)
        errors = []
        for i in range(len(members)):
            try:
                simulate_shots(batch[0, i], rho, policy, stream(0, "negative", i))
            except InvalidStateError as error:
                errors.append((i, str(error)))
        assert errors and errors[0][0] > 0
        with pytest.raises(InvalidStateError) as raised:
            rngs = (stream(0, "negative", i) for i in range(len(members)))
            shots_module.simulate_batch_shots(batch, rho, policy, rngs)
        assert str(raised.value) == errors[0][1]
