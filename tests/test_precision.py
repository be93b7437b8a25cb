import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmres import (
    ElementIndex,
    InvalidCouplingError,
    InvalidStateError,
    ShotPolicy,
    all_offdiagonal_elements,
    error_histogram,
    g_sweep,
    plan_res,
    plan_seq,
    reference_comparison,
    resource_report,
    stream,
)
import dmres.precision as precision_module
import dmres.res as res_module
import dmres.seq as seq_module
import dmres.elements as elements_module
from dmres.elements import precision_element_set
from dmres.errors import DmresError
import dmres.plans as plans_module
from dmres.plans import estimator_operators
from dmres.precision import (
    SystemSpec,
    default_g_grid,
    filter_grid,
    per_state_values,
    sampled_states,
)
from dmres.sampling import sample_precision_state

from oracles import exact_haar_mean, flat_pairs, mean_stderr, reference_canonical, shape_members

PER = ShotPolicy(n_t=1.0)
SPLIT = ShotPolicy(n_t=1.0, allocation="split-total")


def element_plans(system, scheme, g):
    """One single build per element of the system's precision element set."""
    builder = plan_res if scheme == "res" else plan_seq
    return [builder(e, g) for e in precision_element_set(system.n_qudits, system.d)]


def count_builds(monkeypatch):
    """A list that records (coupled shape, scheme, strengths) for every canonical stack a precision path builds."""
    builds = []
    build = precision_module.canonical_stack

    def counted(shape, scheme, gs):
        stack = build(shape, scheme, gs)
        builds.append((shape, scheme.name, stack.gs))
        return stack

    monkeypatch.setattr(precision_module, "canonical_stack", counted)
    return builds


class TestSystemSpec:
    def test_parse_names(self):
        assert SystemSpec.parse("qutrit") == SystemSpec(1, 3)
        assert SystemSpec.parse("two-qubit") == SystemSpec(2, 2)
        assert SystemSpec.parse("2,3") == SystemSpec(2, 3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidStateError):
            SystemSpec.parse("many qubits")


class TestHaarMeanPrecision:
    def test_qutrit_optimum_value(self):
        # at g=pi/4 the pair-averaged variance is exactly 1/6 per state
        rep = g_sweep(SystemSpec(1, 3), ["res"], [math.pi / 4], 300, PER, seed=0)
        row = rep.rows[0]
        assert_allclose(row.nt_delta2, 1 / 6, atol=1e-12)
        assert row.couplings == 1 and row.settings == 2 and row.outcomes == 6

    def test_two_qubit_optimum_value(self):
        rep = g_sweep(SystemSpec(2, 2), ["res"], [math.pi / 4], 300, PER, seed=0)
        assert_allclose(rep.rows[0].nt_delta2, 1 / 4, atol=1e-12)

    def test_split_total_scales_by_settings(self):
        a = g_sweep(SystemSpec(1, 3), ["res"], [0.5], 200, PER, seed=1)
        b = g_sweep(SystemSpec(1, 3), ["res"], [0.5], 200, SPLIT, seed=1)
        assert_allclose(b.rows[0].nt_delta2, 2 * a.rows[0].nt_delta2, rtol=1e-12)

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(InvalidStateError):
            g_sweep(SystemSpec(1, 3), ["res"], [0.5], 50, PER)

    def test_pairwise_symmetry(self):
        # Haar averaging makes every index pair and both quadratures
        # statistically equivalent
        system = SystemSpec(1, 3)
        pairs = [((0,), (1,)), ((0,), (2,)), ((1,), (2,))]
        n = 2000
        states = np.stack([
            sample_precision_state(1, 3, stream(0, "haar/1x3", i)).entries for i in range(n)
        ])
        means, stderrs = [], []
        for s, sp in pairs:
            plan = plan_res(ElementIndex.create((3,), s, sp), 0.6)
            w_re, w_im = estimator_operators(plan)
            for w in (w_re, w_im):
                vals = np.einsum("uv,nvu->n", w, states).real
                means.append(vals.mean())
                stderrs.append(vals.std(ddof=1) / math.sqrt(n))
        grand = float(np.mean(means))
        for m, se in zip(means, stderrs):
            assert abs(m - grand) < 3 * max(se, 1e-15)


class TestGSweep:
    def test_res_argmin_at_quarter_pi(self):
        grid = default_g_grid(33)
        assert any(abs(g - math.pi / 4) < 1e-12 for g in grid)
        rep = g_sweep(SystemSpec(1, 3), ["res"], grid, 200, (PER, SPLIT), seed=2)
        for policy in (PER, SPLIT):
            assert abs(rep.argmin[("res", policy.allocation)] - math.pi / 4) < 1e-12

    def test_res_curve_decreasing_up_to_quarter_pi(self):
        grid = [g for g in default_g_grid(33) if g <= math.pi / 4 + 1e-12]
        rep = g_sweep(SystemSpec(1, 3), ["res"], grid, 150, PER, seed=3)
        values = [r.nt_delta2 for r in rep.rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_seq_keeps_half_pi_but_res_drops_it(self):
        grid = [math.pi / 4, math.pi / 2]
        rep = g_sweep(SystemSpec(1, 3), ["res", "seq"], grid, 150, PER, seed=4)
        res_gs = {r.g for r in rep.rows if r.scheme == "res"}
        seq_gs = {r.g for r in rep.rows if r.scheme == "seq"}
        assert math.pi / 2 not in res_gs
        assert math.pi / 2 in seq_gs

    def test_matched_streams_are_reproducible(self):
        rep1 = g_sweep(SystemSpec(2, 2), ["res"], [0.4, 0.8], 150, PER, seed=5)
        rep2 = g_sweep(SystemSpec(2, 2), ["res"], [0.4, 0.8], 150, PER, seed=5)
        assert [r.nt_delta2 for r in rep1.rows] == [r.nt_delta2 for r in rep2.rows]

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidStateError):
            g_sweep(SystemSpec(1, 3), ["res"], [], 150, PER)

    def test_one_shot_grid_is_read_once(self):
        # a generator grid gives the rows a list does: 32 res and 33 seq points
        grid = default_g_grid()
        got = g_sweep(SystemSpec(1, 3), ["res", "seq"], (g for g in grid), 150, PER, seed=7)
        want = g_sweep(SystemSpec(1, 3), ["res", "seq"], grid, 150, PER, seed=7)
        assert len(got.rows) == 65
        assert got.to_csv() == want.to_csv()

    def test_csv_shape(self):
        rep = g_sweep(SystemSpec(1, 3), ["res"], [0.4], 150, PER, seed=6)
        text = rep.to_csv()
        header, row = text.strip().split("\n")
        assert header == "scheme,N,d,g,policy,samples,nt_delta2,mc_stderr,couplings,settings,outcomes"
        assert row.startswith("res,1,3,")


class TestWeakCouplingScaling:
    @pytest.mark.parametrize("system,l", [(SystemSpec(1, 3), 1), (SystemSpec(2, 2), 2)])
    def test_variance_slopes_per_scheme(self, system, l):
        # res variance diverges as g^(-2l), seq as g^(-4l)
        grid = np.geomspace(1e-3, 1e-2, 4)
        for scheme, want in (("res", -2 * l), ("seq", -4 * l)):
            means = [per_state_values(system, scheme, float(g), 12, 300).mean() for g in grid]
            slope = np.polyfit(np.log(grid), np.log(means), 1)[0]
            assert abs(slope - want) < 0.05 * abs(want)


def held_entries(members, scheme, gs):
    """Entries per strength of every array a coupled set's stack over ``gs`` holds, read from their shapes.

    The stack's canonical block rows and weights and its members'
    supports, for ``seq`` the Gram stack the calibration rows are read
    from (the largest stack ``seq.basis_traces`` is handed), the
    canonical variance operator pair and each member's mean of it,
    embedded in the full space.
    """
    handed = []
    traces = seq_module.basis_traces

    def recorded(mats):
        handed.append(mats.size)
        return traces(mats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seq_module, "basis_traces", recorded)
        stack = plans_module.stack(members[0].dims, flat_pairs(members), res_module.SCHEMES[scheme], gs)
    arrays = [stack.rows.size, stack.weights.size, stack.supports.size, estimator_operators(stack).size,
              precision_module._variance_operator(stack).size]
    if scheme == "seq":
        arrays.append(max(handed))
    return [size // len(gs) for size in arrays]


class TestChunkSizing:
    @pytest.mark.parametrize("system", [SystemSpec(1, 3), SystemSpec(2, 2), SystemSpec(2, 3)])
    @pytest.mark.parametrize("scheme", ["res", "seq"])
    def test_layout_count_is_the_built_stacks_size(self, system, scheme):
        elements = precision_element_set(system.n_qudits, system.d)
        for members in shape_members(elements):
            count = precision_module._stored_entries(members[0].dims, reference_canonical(members[0]).dims,
                                                     len(members), res_module.SCHEMES[scheme])
            assert count == sum(held_entries(members, scheme, [0.6]))

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("scheme", ["res", "seq"])
    def test_layout_count_covers_every_array_a_build_holds(self, dims, scheme):
        for members in shape_members(all_offdiagonal_elements(dims)):
            count = precision_module._stored_entries(dims, reference_canonical(members[0]).dims, len(members),
                                                     res_module.SCHEMES[scheme])
            assert count >= sum(held_entries(members, scheme, [0.3, 0.6, 1.1])), members[0].label()

    @pytest.mark.parametrize("system, scheme, shapes", [
        (SystemSpec(1, 3), "res", [(3,)]),
        (SystemSpec(1, 3), "seq", [(3,)]),
        (SystemSpec(2, 2), "res", [(2, 2)]),
        (SystemSpec(2, 2), "seq", [(2, 2)]),
    ])
    def test_short_grid_builds_each_configuration_once(self, monkeypatch, system, scheme, shapes):
        builds = count_builds(monkeypatch)
        g_sweep(system, [scheme], [0.5, 0.9], 150, PER, seed=1)
        assert builds == [(shape, scheme, (0.5, 0.9)) for shape in shapes]


def count_calls(monkeypatch, function):
    """A list that records the arguments of every call of ``function`` through any dmres module's binding of it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return function(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("dmres") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


class TestSweepBuilds:
    @pytest.mark.parametrize("system", [SystemSpec(2, 2), SystemSpec(3, 2)])
    def test_warm_sweep_builds_one_canonical_stack_per_shape_and_chunk(self, monkeypatch, system):
        # the element set and its supports are kept for the process, so a
        # warm sweep maps no member to its support: it builds each coupled
        # shape's canonical plan once per chunk and reads the members off it
        grid = default_g_grid()
        g_sweep(system, ("res", "seq"), grid, 100, PER)
        supports_calls = count_calls(monkeypatch, elements_module.supports)
        rows_calls = count_calls(monkeypatch, plans_module.canonical_rows)
        g_sweep(system, ("res", "seq"), grid, 100, PER)
        assert supports_calls == []
        want = []
        for scheme in ("res", "seq"):
            gs, step = filter_grid(scheme, grid), precision_module._chunk_step(system, scheme)
            want += [(system.dims, tuple(gs[lo:lo + step])) for lo in range(0, len(gs), step)]
        assert [(canonical.dims, tuple(gs)) for canonical, _, gs in rows_calls] == want


def float_bytes(x):
    return np.float64(x).tobytes()


class TestStackedStatistics:
    """Every statistic of a sweep equals the per-point mean and standard error, bit for bit."""

    @pytest.mark.parametrize("chunk", [1, precision_module.STAT_ENTRIES, 2 ** 30])
    @pytest.mark.parametrize("samples", [100, 101, 1000])
    @pytest.mark.parametrize("system", [SystemSpec(1, 3), SystemSpec(2, 2)])
    def test_sweep_rows_equal_the_per_point_statistics(self, monkeypatch, system, samples, chunk):
        monkeypatch.setattr(precision_module, "STAT_ENTRIES", chunk)
        report = g_sweep(system, ("res", "seq"), default_g_grid(), samples, (PER, SPLIT), seed=17)
        states = sampled_states(system, 17, samples)
        assert len(report.rows) == 2 * (32 + 33)
        for row in report.rows:
            w_mean, (_, settings, _) = report.operators[system, row.scheme, row.g]
            factor = settings if row.policy == SPLIT.allocation else 1.0
            mean, stderr = mean_stderr(factor * precision_module._trace(w_mean, states))
            assert float_bytes(row.nt_delta2) == float_bytes(mean)
            assert float_bytes(row.mc_stderr) == float_bytes(stderr)

    @pytest.mark.parametrize("system", [SystemSpec(1, 3), SystemSpec(2, 2)])
    def test_reference_and_histogram_equal_the_per_point_statistics(self, system):
        comparison = reference_comparison(system, samples=1000, seed=17)
        states = sampled_states(system, 17, 1000)
        for scheme, entry in comparison["schemes"].items():
            ((_, w_mean, (_, settings, _)),) = precision_module.mean_variance_operators(system, scheme, [entry["g"]])
            vals = precision_module._trace(w_mean, states)
            for policy, factor in ((PER, 1.0), (SPLIT, settings)):
                mean, stderr = mean_stderr(factor * vals)
                got = entry["policies"][policy.allocation]
                assert float_bytes(got["nt_delta2"]) == float_bytes(mean)
                assert float_bytes(got["mc_stderr"]) == float_bytes(stderr)
            hist = error_histogram(system, scheme, entry["g"], 1000, PER, seed=17)
            mean, stderr = mean_stderr(vals)
            assert float_bytes(hist.delta2) == float_bytes(mean)
            assert float_bytes(hist.delta2_stderr) == float_bytes(stderr)


class TestTraceProduct:
    """Tr(W rho) is one real product against the states read in place."""

    @pytest.mark.parametrize("system", [SystemSpec(1, 3), SystemSpec(2, 2), SystemSpec(3, 2)])
    def test_equals_the_complex_contraction(self, system):
        states = sampled_states(system, 31, 500)
        assert np.shares_memory(precision_module._readout(states), states)
        for scheme in ("res", "seq"):
            for g, w_mean, _ in precision_module.mean_variance_operators(system, scheme, [0.3, 1.2]):
                want = np.einsum("uv,nvu->n", w_mean, states).real
                # a sum of 2 D^2 products, each within one rounding of its value
                tol = 4 * w_mean.size * np.finfo(float).eps * np.abs(want).max()
                assert np.max(np.abs(precision_module._trace(w_mean, states) - want)) <= tol


class TestRejectedSweepDrawsNothing:
    @pytest.mark.parametrize("schemes, grid, cause", [
        (["foo"], [0.5], "unknown scheme 'foo'"),
        (["res"], [math.nan, 0.5], "g=nan is not finite"),
        (["res"], [math.inf], "g=inf is not finite"),
        (["res", "seq"], [0.5, -math.inf], "g=-inf is not finite"),
        (["res"], [0.0, math.pi / 2], "sin(2g)=0"),
        (["res", "res"], [0.5], "scheme 'res' is requested twice"),
    ])
    def test_raises_before_any_draw(self, monkeypatch, schemes, grid, cause):
        def no_draw(*args, **kwargs):
            raise AssertionError("states drawn for a rejected request")

        monkeypatch.setattr(precision_module, "precision_states", no_draw)
        # a seed no other test draws, so the state memo cannot serve it
        with pytest.raises(DmresError, match=re.escape(cause)):
            g_sweep(SystemSpec(1, 3), schemes, grid, 150, PER, seed=1011)


class TestFilterGrid:
    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("g", [math.inf, -math.inf, math.nan])
    def test_non_finite_strength_is_refused_not_dropped(self, scheme, g):
        # math.sin(inf) raised a bare ValueError here, and nan was kept
        with pytest.raises(InvalidCouplingError, match=rf"coupling strength g={g!r} is not finite"):
            precision_module.filter_grid(scheme, [0.5, g])

    def test_singular_strengths_are_dropped(self):
        assert precision_module.filter_grid("res", [0.0, 0.5, math.pi / 2]) == [0.5]
        assert precision_module.filter_grid("seq", [0.0, 0.5, math.pi / 2]) == [0.5, math.pi / 2]


class TestExactHaarMean:
    @pytest.mark.parametrize("system", [SystemSpec(1, 3), SystemSpec(2, 2)])
    @pytest.mark.parametrize("scheme", ["res", "seq"])
    @pytest.mark.parametrize("g", [0.3, math.pi / 4, 1.2])
    def test_monte_carlo_mean_within_five_stderr(self, system, scheme, g):
        exact = exact_haar_mean(element_plans(system, scheme, g))
        vals = per_state_values(system, scheme, g, 21, 2000)
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 5 * stderr + 1e-12 * exact

    @pytest.mark.parametrize("system,want", [(SystemSpec(1, 3), 1 / 6), (SystemSpec(2, 2), 1 / 4)])
    def test_closed_form_at_quarter_pi(self, system, want):
        assert_allclose(exact_haar_mean(element_plans(system, "res", math.pi / 4)), want, rtol=1e-12)


class TestSampledStates:
    def test_prefix_and_read_only(self):
        system = SystemSpec(2, 2)
        long = sampled_states(system, 31, 40)
        short = sampled_states(system, 31, 15)
        longer = sampled_states(system, 31, 60)
        assert np.array_equal(short, long[:15])
        assert np.array_equal(longer[:40], long)
        for arr in (long, short, longer):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            longer[0, 0, 0] = 0.0

    @pytest.mark.parametrize("samples", [0, -3])
    def test_empty_sample_count_rejected(self, samples):
        with pytest.raises(InvalidStateError, match=f"samples >= 1, got {samples}"):
            sampled_states(SystemSpec(1, 3), 0, samples)
        assert all(held is not None for held in precision_module._STATE_MEMO.values())


class TestHistogram:
    def test_mass_and_consistency(self):
        system = SystemSpec(1, 3)
        hist = error_histogram(system, "seq", math.pi / 2, 2000, PER, bins=25, seed=8)
        assert hist.counts.sum() == 2000
        assert np.isfinite(hist.max_error) and np.all(np.isfinite(hist.bin_edges))
        assert abs(hist.mean_square - hist.delta2) < 1e-12

    def test_minimum_samples(self):
        with pytest.raises(InvalidStateError):
            error_histogram(SystemSpec(1, 3), "res", 0.5, 500, PER)

    @pytest.mark.parametrize("bins", [0, -1])
    def test_empty_bin_count_rejected(self, bins):
        with pytest.raises(InvalidStateError, match=f"bins >= 1, got {bins}"):
            error_histogram(SystemSpec(1, 3), "res", 0.5, 1000, PER, bins=bins)

    @pytest.mark.parametrize("bins", [40, 41])
    def test_state_independent_errors_fill_one_bin(self, bins):
        # fig4b: two-qubit res at pi/4 has the same error for every state
        hist = error_histogram(SystemSpec(2, 2), "res", math.pi / 4, 10000, PER, bins=bins, seed=0)
        assert hist.counts.max() == 10000
        k = int(np.argmax(hist.counts))
        assert hist.bin_edges[k] < hist.mean_error < hist.bin_edges[k + 1]


def assert_same_histogram(got, want):
    for f in dataclasses.fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


class TestSweepReportReuse:
    """Histograms and reference comparisons read W from the sweep report of their run."""

    @pytest.mark.parametrize("system", [SystemSpec(1, 3), SystemSpec(2, 2)])
    def test_on_grid_results_equal_standalone_builds(self, monkeypatch, system):
        report = g_sweep(system, ("res", "seq"), default_g_grid(), 150, (PER, SPLIT), seed=12)
        builds = count_builds(monkeypatch)
        for scheme in ("res", "seq"):
            g = report.argmin[(scheme, PER.allocation)]
            got = error_histogram(system, scheme, g, 1000, PER, bins=30, seed=12, report=report)
            assert not builds
            want = error_histogram(system, scheme, g, 1000, PER, bins=30, seed=12)
            assert builds
            builds.clear()
            assert_same_histogram(got, want)
        got = reference_comparison(system, samples=400, seed=12, report=report)
        assert not builds
        assert got == reference_comparison(system, samples=400, seed=12)
        assert builds

    def test_off_grid_strength_is_built(self, monkeypatch):
        system = SystemSpec(1, 3)
        report = g_sweep(system, ("res", "seq"), [0.5, 0.9], 150, PER, seed=13)
        builds = count_builds(monkeypatch)
        got = error_histogram(system, "seq", 0.6, 1000, PER, seed=13, report=report)
        assert [b[1:] for b in builds] == [("seq", (0.6,))]
        assert_same_histogram(got, error_histogram(system, "seq", 0.6, 1000, PER, seed=13))

    def test_other_system_is_not_served(self, monkeypatch):
        # (1, 4) and (2, 2) share D = 4 and the strength, not the operator
        report = g_sweep(SystemSpec(1, 4), ("res",), [0.5], 150, PER, seed=14)
        builds = count_builds(monkeypatch)
        got = error_histogram(SystemSpec(2, 2), "res", 0.5, 1000, PER, seed=14, report=report)
        assert builds
        assert_same_histogram(got, error_histogram(SystemSpec(2, 2), "res", 0.5, 1000, PER, seed=14))


class TestResourceReport:
    def test_identical_plans_ratio_one(self):
        e = ElementIndex.create((3,), (0,), (1,))
        plan = plan_res(e, math.pi / 4)
        rr = resource_report(plan, plan, target_sigma=0.1, samples=300, seed=9)
        assert_allclose(rr.ratio_b_over_a, 1.0, rtol=1e-12)

    def test_seq_needs_more_photons_at_optima(self):
        e = ElementIndex.create((3,), (0,), (1,))
        rr = resource_report(plan_res(e, math.pi / 4), plan_seq(e, math.pi / 2),
                             target_sigma=0.1, samples=500, seed=10)
        assert rr.ratio_b_over_a > 1.0
        assert rr.counts_a == (1, 2, 6)
        assert rr.counts_b == (2, 4, 12)

    def test_element_mismatch_rejected(self):
        a = plan_res(ElementIndex.create((3,), (0,), (1,)), 0.5)
        b = plan_res(ElementIndex.create((3,), (0,), (2,)), 0.5)
        with pytest.raises(InvalidStateError):
            resource_report(a, b, target_sigma=0.1)

    @pytest.mark.parametrize("target", [0.0, -0.1, math.nan, math.inf])
    def test_target_must_be_finite_and_positive(self, target):
        # nan gave an all-NaN report and inf a bare ZeroDivisionError
        plan = plan_res(ElementIndex.create((3,), (0,), (1,)), 0.5)
        with pytest.raises(InvalidStateError, match="target_sigma must be finite and positive"):
            resource_report(plan, plan, target_sigma=target, samples=10)

    def test_empty_sample_count_rejected(self):
        plan = plan_res(ElementIndex.create((3,), (0,), (1,)), 0.5)
        with pytest.raises(InvalidStateError, match="samples >= 1, got 0"):
            resource_report(plan, plan, 0.1, samples=0)


class TestReferenceComparison:
    def test_structure_and_convention_note(self):
        out = reference_comparison(SystemSpec(1, 3), samples=400, seed=11)
        assert set(out["schemes"]) == {"res", "seq"}
        for scheme, entry in out["schemes"].items():
            assert set(entry["policies"]) == {"per-setting-unit-time", "split-total"}
            for rec in entry["policies"].values():
                assert rec["nt_delta2"] > 0
                assert "relative_deviation" in rec
            if not entry["matched"]:
                assert "convention_note" in entry

    def test_empty_sample_count_rejected(self):
        with pytest.raises(InvalidStateError, match="samples >= 1, got 0"):
            reference_comparison(SystemSpec(1, 3), samples=0)


class TestNoReadoutRotation:
    """Variance operators come from ``base``: no precision path rotates a readout row."""

    @pytest.mark.parametrize("system", [SystemSpec(1, 3), SystemSpec(2, 2)])
    def test_fig4_paths_rotate_nothing(self, readout_calls, system):
        report = g_sweep(system, ("res", "seq"), default_g_grid(), 1000, (PER, SPLIT), seed=3)
        for scheme in ("res", "seq"):
            error_histogram(system, scheme, report.argmin[scheme, PER.allocation], 1000, PER,
                            seed=3, report=report)
            error_histogram(system, scheme, 0.61, 1000, PER, seed=3)  # off the grid: a fresh build
        reference_comparison(system, samples=1000, seed=3, report=report)
        element = precision_element_set(system.n_qudits, system.d)[0]
        resource_report(plan_res(element, math.pi / 4), plan_seq(element, math.pi / 2),
                        target_sigma=0.1, samples=500, seed=3)
        assert readout_calls == []
