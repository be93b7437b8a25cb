"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from dmres import (
    ElementIndex,
    ShotPolicy,
    all_offdiagonal_elements,
    characterize,
    element_variance,
    error_histogram,
    extract_element,
    plan_res,
    plan_seq,
    random_mixed_state,
    reference_comparison,
    resource_report,
    simulate_shots,
    stream,
)
from dmres.cli import main as cli_main
from dmres.precision import REFERENCE_TARGETS, SystemSpec, default_g_grid, g_sweep, per_state_values
from dmres.res import extract_batch
from dmres.scenarios import default_spec, run_scenario

G_GRID_EXACT = (0.1, math.pi / 8, math.pi / 4, 1.2)
N_STATES = 200
PER = ShotPolicy(n_t=1.0)
SPLIT = ShotPolicy(n_t=1.0, allocation="split-total")


def _report(number, elapsed, budget, detail):
    print(f"ACCEPTANCE {number:>2} PASS ({elapsed:6.1f}s / budget {budget}s): {detail}")


def _exactness_dims():
    for d in (2, 3, 4, 5):
        yield (d,)
    yield (2, 2)
    yield (3, 3)


def _state_batch(dims, n=N_STATES):
    rng = stream(2024, f"acceptance/states/{dims}")
    return np.stack([random_mixed_state(dims, rng).entries for _ in range(n)])


@pytest.fixture(scope="module")
def exactness_results():
    """Extractions for every (dims, ordered element, g) over 200 states."""
    out = {}
    for dims in _exactness_dims():
        states = _state_batch(dims)
        elements = all_offdiagonal_elements(dims, ordered=True)
        for g in G_GRID_EXACT:
            plans = [plan_res(e, g) for e in elements]
            values = extract_batch(plans, states)
            for e, vals in zip(elements, values):
                out[(dims, e.s, e.s_prime, g)] = (e, vals, states)
    return out


@pytest.fixture(scope="module")
def sweep_results():
    """Full 33-point strength sweeps at 10^4 samples, both schemes/policies."""
    grid = default_g_grid(33)
    out = {}
    t0 = time.perf_counter()
    for system in (SystemSpec(1, 3), SystemSpec(2, 2)):
        out[system] = g_sweep(system, ["res", "seq"], grid, 10000, (PER, SPLIT), seed=0)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_01_exactness(exactness_results):
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for (dims, s, sp, g), (e, vals, states) in exactness_results.items():
        truth = states[:, e.s_flat, e.s_prime_flat]
        worst = max(worst, float(np.max(np.abs(vals - truth))))
        cases += vals.size
    # spot-check that the batch path agrees with the probability route
    e = ElementIndex.create((3, 3), (0, 2), (2, 1))
    states = _state_batch((3, 3), n=3)
    plan = plan_res(e, 0.1)
    batch = extract_batch([plan], states)[0]
    for i in range(3):
        from dmres.linalg import DensityMatrix

        direct = extract_element(DensityMatrix.create(states[i], (3, 3)), plan)
        assert abs(direct - batch[i]) < 1e-12
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"extraction error {worst:.3e} exceeds 1e-10"
    assert elapsed < 120
    _report(1, elapsed, 120, f"{cases} extractions, max error {worst:.3e} <= 1e-10")


def test_criterion_02_sequential_unbiasedness():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for dims in _exactness_dims():
        states = _state_batch(dims)
        elements = all_offdiagonal_elements(dims, ordered=True)
        for g in G_GRID_EXACT:
            plans = [plan_seq(e, g) for e in elements]
            values = extract_batch(plans, states)
            for e, vals in zip(elements, values):
                truth = states[:, e.s_flat, e.s_prime_flat]
                worst = max(worst, float(np.max(np.abs(vals - truth))))
                cases += vals.size
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"sequential extraction error {worst:.3e} exceeds 1e-8"
    assert elapsed < 300
    _report(2, elapsed, 300, f"{cases} extractions, max error {worst:.3e} <= 1e-8")


def test_criterion_03_conjugate_and_hermiticity(exactness_results):
    t0 = time.perf_counter()
    worst = 0.0
    for (dims, s, sp, g), (e, vals, states) in exactness_results.items():
        mirror = exactness_results[(dims, sp, s, g)][1]
        worst = max(worst, float(np.max(np.abs(vals - np.conj(mirror)))))
    # characterize output is Hermitian with unit trace
    from dmres.linalg import DensityMatrix

    for dims in ((3,), (2, 2)):
        rho = random_mixed_state(dims, stream(77, f"acc3/{dims}"))
        est = characterize(rho, math.pi / 4)
        herm = float(np.max(np.abs(est.entries - est.entries.conj().T)))
        assert herm <= 1e-10
        assert abs(np.trace(est.entries) - 1) <= 1e-10
        assert np.max(np.abs(est.entries - rho.entries)) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"conjugate-pair mismatch {worst:.3e} exceeds 1e-10"
    _report(3, elapsed, "-", f"conjugate pairs & Hermiticity, max mismatch {worst:.3e} <= 1e-10")


def test_criterion_04_weak_coupling_ratio_scaling():
    t0 = time.perf_counter()
    grid = np.geomspace(1e-3, 1e-2, 5)
    details = []
    for system, want, tol in ((SystemSpec(1, 3), 2.0, 0.10), (SystemSpec(2, 2), 4.0, 0.20)):
        ratios = []
        for g in grid:
            vs = per_state_values(system, "seq", float(g), 0, 2000).mean()
            vr = per_state_values(system, "res", float(g), 0, 2000).mean()
            ratios.append(vs / vr)
        slope = -float(np.polyfit(np.log(grid), np.log(ratios), 1)[0])
        assert abs(slope - want) <= tol, f"{system.label}: ratio slope {slope:.3f} vs {want}+-{tol}"
        details.append(f"{system.label} slope {slope:.3f} (want {want}+-{tol})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report(4, elapsed, 600, "; ".join(details))


def test_criterion_05_reference_precision_values(sweep_results):
    t0 = time.perf_counter()
    details = []
    for system in (SystemSpec(1, 3), SystemSpec(2, 2)):
        report = sweep_results[system]
        for policy in (PER, SPLIT):
            g_opt = report.argmin[("res", policy.allocation)]
            assert abs(g_opt - math.pi / 4) < 1e-12, (
                f"{system.label}/{policy.allocation}: res optimum at {g_opt}, want pi/4"
            )
        comparison = reference_comparison(system, samples=10000, seed=0)
        entry = comparison["schemes"]["res"]
        measured = {p: r["nt_delta2"] for p, r in entry["policies"].items()}
        if entry["matched"]:
            details.append(f"{system.label}: matched {measured}")
        else:
            # neither policy matches: the convention-discrepancy report is
            # mandatory and must carry the values under both policies
            assert "convention_note" in entry
            assert set(measured) == {"per-setting-unit-time", "split-total"}
            details.append(
                f"{system.label}: target {entry['target']}, measured {', '.join(f'{k}={v:.4f}' for k, v in measured.items())} (discrepancy report emitted)"
            )
    elapsed = time.perf_counter() - t0 + sweep_results["elapsed"]
    assert elapsed < 1800
    _report(5, elapsed, 1800, "optimum at pi/4 under both policies; " + "; ".join(details))


def test_criterion_06_sequential_comparison(sweep_results):
    t0 = time.perf_counter()
    details = []
    for system in (SystemSpec(1, 3), SystemSpec(2, 2)):
        report = sweep_results[system]
        for policy in (PER, SPLIT):
            rows = {(r.scheme, r.g): r.nt_delta2 for r in report.rows if r.policy == policy.allocation}
            res_opt = min(v for (s, _), v in rows.items() if s == "res")
            seq_opt = min(v for (s, _), v in rows.items() if s == "seq")
            assert res_opt <= seq_opt * (1 + 1e-9), (
                f"{system.label}/{policy.allocation}: res optimum {res_opt} above seq {seq_opt}"
            )
        g_ref, value_ref = REFERENCE_TARGETS[(system.n_qudits, system.d)]["seq"]
        seq_at_ref = {
            r.policy: r.nt_delta2
            for r in report.rows
            if r.scheme == "seq" and abs(r.g - g_ref) < 1e-12
        }
        factors = {p: max(v / value_ref, value_ref / v) for p, v in seq_at_ref.items()}
        best = min(factors.values())
        assert best <= 2.0, f"{system.label}: seq at pi/2 off reference by {best:.2f}x"
        details.append(
            f"{system.label}: seq(pi/2) target {value_ref}, measured "
            + ", ".join(f"{p}={v:.4f}" for p, v in seq_at_ref.items())
            + f", best factor {best:.2f}"
        )
    elapsed = time.perf_counter() - t0
    _report(6, elapsed, "-", "res optimum <= seq optimum under every policy; " + "; ".join(details))


def test_criterion_07_efficiency_report(sweep_results):
    t0 = time.perf_counter()
    details = []
    for system, element in ((SystemSpec(1, 3), ElementIndex.create((3,), (0,), (1,))),
                            (SystemSpec(2, 2), ElementIndex.create((2, 2), (0, 0), (1, 1)))):
        report = sweep_results[system]
        g_res = report.argmin[("res", PER.allocation)]
        g_seq = report.argmin[("seq", PER.allocation)]
        rr = resource_report(plan_res(element, g_res), plan_seq(element, g_seq),
                             target_sigma=0.1, samples=2000, seed=0)
        assert rr.ratio_b_over_a > 1.0, f"{system.label}: efficiency ratio {rr.ratio_b_over_a} not > 1"
        reference = REFERENCE_TARGETS[(system.n_qudits, system.d)]["efficiency"]
        factor = max(rr.ratio_b_over_a / reference, reference / rr.ratio_b_over_a)
        stretch = "within 2x of" if factor <= 2.0 else f"{factor:.2f}x away from"
        details.append(
            f"{system.label}: counts res{rr.counts_a} seq{rr.counts_b}, "
            f"photon ratio {rr.ratio_b_over_a:.2f} ({stretch} reference {reference})"
        )
    elapsed = time.perf_counter() - t0
    _report(7, elapsed, "-", "; ".join(details))


def test_criterion_08_sweep_reproduction():
    t0 = time.perf_counter()
    worst = 0.0

    result = run_scenario(default_spec("fig3a"))
    cols, rows = result.tables["fig3a.csv"]
    formulas = {
        "0,1": lambda p: np.exp(-1j * p) / 3,
        "1,2": lambda p: np.exp(-1j * (p + math.pi / 3)) / 3,
        "0,2": lambda p: np.exp(-1j * (2 * p + math.pi / 3)) / 3,
    }
    for row in rows:
        rec = dict(zip(cols, row))
        p = float(rec["parameter"])
        got = complex(float(rec["re_extracted"]), float(rec["im_extracted"]))
        worst = max(worst, abs(got - formulas[rec["element"]](p)),
                    abs(abs(got) - 1 / 3))

    result = run_scenario(default_spec("fig3c"))
    cols, rows = result.tables["fig3c.csv"]
    formulas_c = {
        "01,10": lambda p: np.exp(-2j * p) / 4,
        "00,11": lambda p: -np.exp(2j * (p + math.pi / 4)) / 4,
    }
    for row in rows:
        rec = dict(zip(cols, row))
        p = float(rec["parameter"])
        got = complex(float(rec["re_extracted"]), float(rec["im_extracted"]))
        worst = max(worst, abs(got - formulas_c[rec["element"]](p)),
                    abs(abs(got) - 0.25))

    for scenario in ("fig3b", "fig3d"):
        result = run_scenario(default_spec(scenario))
        cols, rows = result.tables[f"{scenario}.csv"]
        per_element = {}
        for row in rows:
            rec = dict(zip(cols, row))
            per_element.setdefault(rec["element"], []).append(
                (float(rec["parameter"]),
                 complex(float(rec["re_extracted"]), float(rec["im_extracted"])))
            )
        for series in per_element.values():
            gammas = np.array([g for g, _ in series])
            vals = np.array([v for _, v in series])
            base = vals[np.argmax(gammas)]  # gamma = 1 endpoint
            residual = np.max(np.abs(vals - gammas * base))
            worst = max(worst, float(residual))

    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"sweep reproduction deviation {worst:.3e} exceeds 1e-12"
    assert elapsed < 60
    _report(8, elapsed, 60, f"all four sweeps match analytic values, max deviation {worst:.3e}")


def test_criterion_09_shot_model_consistency():
    t0 = time.perf_counter()
    reps = 10000
    policy = ShotPolicy(n_t=1e4)
    e = ElementIndex.create((3,), (0,), (1,))
    rng_states = stream(909, "acc9/states")
    worst = 0.0
    for state_idx in range(10):
        rho = random_mixed_state((3,), rng_states)
        for scheme, builder in (("res", plan_res), ("seq", plan_seq)):
            for g in (0.1, math.pi / 4):
                plan = builder(e, g)
                var_re, var_im = element_variance(plan, rho, policy)
                draws = np.array([
                    simulate_shots(plan, rho, policy,
                                   stream(909, f"acc9/{state_idx}/{scheme}/{g}", i))
                    for i in range(reps)
                ])
                emp_re = draws.real.var(ddof=1) * policy.n_t
                emp_im = draws.imag.var(ddof=1) * policy.n_t
                worst = max(worst, abs(emp_re - var_re) / var_re, abs(emp_im - var_im) / var_im)
    elapsed = time.perf_counter() - t0
    assert worst <= 0.05, f"empirical variance off by {worst:.2%} (bound 5%)"
    assert elapsed < 600
    _report(9, elapsed, 600, f"10 states x 2 schemes x 2 strengths, worst mismatch {worst:.2%} <= 5%")


def test_criterion_10_histogram_nondivergence(sweep_results):
    t0 = time.perf_counter()
    details = []
    for system in (SystemSpec(1, 3), SystemSpec(2, 2)):
        report = sweep_results[system]
        for scheme in ("res", "seq"):
            g_opt = report.argmin[(scheme, PER.allocation)]
            hist = error_histogram(system, scheme, g_opt, 10000, PER, bins=40, seed=0)
            assert hist.all_finite
            assert hist.counts.sum() == 10000
            tol = max(3 * hist.delta2_stderr, 1e-12)
            assert abs(hist.mean_square - hist.delta2) <= tol
            details.append(f"{system.label}/{scheme}: max error {hist.max_error:.3f}")
    elapsed = time.perf_counter() - t0
    _report(10, elapsed, "-", "all finite, mean-square consistent; " + "; ".join(details))


def test_criterion_11_determinism(tmp_path):
    """Seeded reruns give byte-identical outputs.

    ``--workers`` is accepted and ignored (everything runs in one
    process), so the two precision runs below differ in that flag only
    and check rerun determinism, not worker counts.
    """
    t0 = time.perf_counter()
    args = ["precision", "--system", "two-qubit", "--scheme", "res,seq",
            "--g-grid", "0.4,pi/4", "--samples", "300", "--seed", "17"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a), "--workers", "1"]) == 0
    assert cli_main(args + ["--out", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()

    for sub in ("s1", "s2"):
        assert cli_main(["scenario", "fig3b", "--out", str(tmp_path / sub), "--seed", "17"]) == 0
    fa = (tmp_path / "s1" / "fig3b" / "fig3b.csv").read_bytes()
    fb = (tmp_path / "s2" / "fig3b" / "fig3b.csv").read_bytes()
    assert fa == fb
    elapsed = time.perf_counter() - t0
    _report(11, elapsed, "-", "byte-identical outputs across seeded reruns")
