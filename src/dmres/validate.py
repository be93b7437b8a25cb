"""Cross-module invariant suite behind the ``validate`` command.

Each group re-checks one family of contracts at reduced sample counts
and returns (passed, detail).  Groups build their plans through this
module's ``plan_res`` and ``plan_seq`` bindings, so a test can swap in
a corrupting builder to confirm the suite catches the fault.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .elements import ElementIndex, all_offdiagonal_elements, precision_element_set
from .plans import functional_matrix
from .precision import (
    SystemSpec,
    _chunk_step,
    _mean,
    _trace,
    _variance_operator,
    default_g_grid,
    filter_grid,
    g_sweep,
    mean_variance_operators,
    per_state_values,
    sampled_states,
)
from .res import extract_element, plan_res
from .sampling import haar_stream, random_mixed_state, sample_precision_state, stream
from .seq import plan_seq
from .shots import ShotPolicy, element_variance, simulate_shots


@dataclass
class GroupResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _configs():
    for d in (2, 3, 4):
        for e in all_offdiagonal_elements((d,)):
            yield e
    for e in all_offdiagonal_elements((2, 2)):
        yield e


def check_exactness() -> tuple[bool, str]:
    rng_seed = 7
    worst = 0.0
    for e in _configs():
        rho = random_mixed_state(e.dims, stream(rng_seed, f"validate/{e.label()}"))
        for g in (0.1, math.pi / 4, 1.2):
            got = extract_element(rho, plan_res(e, g))
            want = rho.entry(e.s_flat, e.s_prime_flat)
            worst = max(worst, abs(got - want))
    return worst <= 1e-10, f"max extraction error {worst:.3e} (bound 1e-10)"


def check_conjugate_pairs() -> tuple[bool, str]:
    # an element and its conjugate read one canonical plan through supports
    # that exchange s and s', so both schemes are checked
    passed, parts = True, []
    for name, builder, bound in (("res", plan_res, 1e-10), ("seq", plan_seq, 1e-8)):
        worst = 0.0
        for e in _configs():
            rho = random_mixed_state(e.dims, stream(3, f"validate-conj/{e.label()}"))
            fwd = extract_element(rho, builder(e, 0.6))
            rev = extract_element(rho, builder(e.conjugate(), 0.6))
            worst = max(worst, abs(fwd - np.conj(rev)))
        passed = passed and worst <= bound
        parts.append(f"{name} {worst:.3e} (bound {bound:g})")
    return passed, "max conjugate-pair mismatch: " + ", ".join(parts)


def check_unbiasedness() -> tuple[bool, str]:
    worst = 0.0
    for e in _configs():
        for builder in (plan_res, plan_seq):
            k = functional_matrix(builder(e, 0.4))
            target = np.zeros_like(k)
            target[e.s_flat, e.s_prime_flat] = 1.0
            worst = max(worst, float(np.max(np.abs(k - target))))
    return worst <= 1e-8, f"max coefficient-functional deviation {worst:.3e} (bound 1e-8)"


def check_counts() -> tuple[bool, str]:
    for e in _configs():
        l = e.n_couplings
        pr = plan_res(e, 0.5)
        if not (pr.n_meters == l and pr.n_settings == 2 ** l
                and pr.outcomes_per_setting == e.dim * 2 ** l):
            return False, f"res counts wrong for {e.label()}"
        ps = plan_seq(e, 0.5)
        if not (ps.n_meters == 2 * l and ps.n_settings == 2 ** (2 * l)
                and ps.outcomes_per_setting == e.dim * 2 ** (2 * l)):
            return False, f"seq counts wrong for {e.label()}"
    return True, "coupling/setting/outcome counts match 2^l and d^N 2^l"


def check_seq_unbiasedness() -> tuple[bool, str]:
    worst = 0.0
    for e in _configs():
        rho = random_mixed_state(e.dims, stream(11, f"validate-seq/{e.label()}"))
        for g in (0.05, math.pi / 4, math.pi / 2):
            got = extract_element(rho, plan_seq(e, g))
            want = rho.entry(e.s_flat, e.s_prime_flat)
            worst = max(worst, abs(got - want))
    return worst <= 1e-8, f"max sequential extraction error {worst:.3e} (bound 1e-8)"


def check_shot_model() -> tuple[bool, str]:
    policy = ShotPolicy(n_t=2e4)
    reps = 3000
    worst = 0.0
    for e in (ElementIndex.create((3,), (0,), (1,)), ElementIndex.create((2, 2), (0, 0), (1, 1))):
        rho = random_mixed_state(e.dims, stream(5, f"validate-shots/{e.label()}"))
        for plan, tag in ((plan_res(e, math.pi / 4), f"validate-shots-draws/{e.label()}"),
                          (plan_seq(e, math.pi / 4), f"validate-shots-draws/seq/{e.label()}")):
            var_re, var_im = element_variance(plan, rho, policy)
            draws = np.array([
                simulate_shots(plan, rho, policy, stream(5, tag, i)) for i in range(reps)
            ])
            emp_re = draws.real.var(ddof=1) * policy.n_t
            emp_im = draws.imag.var(ddof=1) * policy.n_t
            worst = max(worst, abs(emp_re - var_re) / var_re, abs(emp_im - var_im) / var_im)
    return worst <= 0.10, f"max empirical/analytic variance mismatch {worst:.1%} (bound 10%)"


def _ratio_slope(system: SystemSpec, grid: np.ndarray, samples: int) -> float:
    """Log-log slope of the mean seq/res variance ratio against g."""
    ratios = [per_state_values(system, "seq", float(g), 1, samples).mean()
              / per_state_values(system, "res", float(g), 1, samples).mean() for g in grid]
    return float(np.polyfit(np.log(grid), np.log(ratios), 1)[0])


def check_scaling() -> tuple[bool, str]:
    # The ratio goes as g^(-2N).  Three qubits use a coarser grid: below
    # g ~ 1e-2 their seq response (order g^6) sinks under the calibration floor.
    qutrit = _ratio_slope(SystemSpec(1, 3), np.geomspace(1e-3, 1e-2, 4), 200)
    qubits = _ratio_slope(SystemSpec(3, 2), np.geomspace(2e-2, 6e-2, 5), 500)
    passed = abs(qutrit + 2.0) <= 0.2 and abs(qubits + 6.0) <= 0.3
    return passed, (f"variance-ratio slopes: qutrit {qutrit:.3f} (want -2.0 +- 0.2), "
                    f"three qubits {qubits:.3f} (want -6.0 +- 0.3)")


def check_haar_mean() -> tuple[bool, str]:
    """Sweep means against the exact Haar mean Tr(W)/D at every default-grid point.

    Both state families have E[rho] = 1/D, so the mean of Tr(W rho) is
    Tr(W)/D exactly.  The exact values are anchored to the closed forms
    1/6 (qutrit) and 1/4 (two qubits) for res at pi/4.
    """
    policy = ShotPolicy(n_t=1.0)
    worst, points = 0.0, 0
    for system, anchor in ((SystemSpec(1, 3), 1 / 6), (SystemSpec(2, 2), 1 / 4)):
        exact = {}
        for scheme in ("res", "seq"):
            grid = filter_grid(scheme, default_g_grid())
            for g, w, _ in mean_variance_operators(system, scheme, grid):
                exact[scheme, g] = float(np.trace(w).real) / w.shape[0]
        got = exact["res", math.pi / 4]
        if abs(got - anchor) > 1e-12 * anchor:
            return False, f"{system.label} res exact mean at pi/4 is {got!r}, want {anchor!r}"
        report = g_sweep(system, ("res", "seq"), default_g_grid(), 2000, policy, seed=13)
        for row in report.rows:
            want = exact[row.scheme, row.g]
            gap = abs(row.nt_delta2 - want)
            points += 1
            if gap > 5 * row.mc_stderr + 1e-12 * want:
                return False, (f"{system.label} {row.scheme} at g={row.g!r}: Monte Carlo mean "
                               f"{row.nt_delta2!r} is {gap:.3e} from the exact {want!r}")
            if row.mc_stderr > 1e-12 * want:
                worst = max(worst, gap / row.mc_stderr)
    return True, (f"{points} sweep points within 5 SE of Tr(W)/D (worst {worst:.2f} SE); "
                  "res at pi/4 anchored to 1/6 and 1/4")


def check_determinism() -> tuple[bool, str]:
    singles = [sample_precision_state(1, 3, haar_stream(1, 3, 9, i)).entries for i in range(300)]
    if not np.array_equal(sampled_states(SystemSpec(1, 3), 9, 300), np.stack(singles)):
        return False, "batched Haar states differ from single draws"
    # stacked sweep builds against single plan_seq builds at the first
    # and last point of every chunk the sweep builds
    two_qubit, grid = SystemSpec(2, 2), default_g_grid()
    elements = precision_element_set(2, 2)
    step = _chunk_step(two_qubit, "seq")
    edges = sorted({k for lo in range(0, len(grid), step) for k in (lo, min(lo + step, len(grid)) - 1)})
    states = sampled_states(two_qubit, 9, 300)
    report = g_sweep(two_qubit, ("seq",), grid, 300, ShotPolicy(n_t=1.0), seed=9)
    for g in (float(grid[k]) for k in edges):
        single = _trace(_mean([_variance_operator(plan_seq(e, g)) for e in elements]), states)
        if not np.array_equal(_trace(report.operators[two_qubit, "seq", g][0], states), single):
            return False, f"sweep values differ from single plan_seq builds at g={g!r}"
    return True, (f"sweep values bit-identical to single plan_seq builds at the first and last "
                  f"point of each chunk ({len(edges)} points, {step} strengths a chunk); "
                  "batched states match single draws")


GROUPS = {
    "exactness": check_exactness,
    "conjugate": check_conjugate_pairs,
    "unbiasedness": check_unbiasedness,
    "counts": check_counts,
    "seq-unbiasedness": check_seq_unbiasedness,
    "shot-model": check_shot_model,
    "scaling": check_scaling,
    "determinism": check_determinism,
    "haar-mean": check_haar_mean,
}


def run_validation(groups: list[str] | None = None) -> list[GroupResult]:
    names = groups or list(GROUPS)
    results = []
    for name in names:
        if name not in GROUPS:
            raise KeyError(f"unknown validation group {name!r}")
        t0 = time.perf_counter()
        passed, detail = GROUPS[name]()
        results.append(GroupResult(name, passed, detail, time.perf_counter() - t0))
    return results
