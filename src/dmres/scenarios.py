"""Scenario runners: element sweeps and precision-comparison tables.

Each scenario writes one table file per panel plus a manifest echoing
the resolved configuration and seed, and a README documenting the
columns.  Tables are CSV: a field holding a comma, such as the element
label ``0,1``, is quoted.  Rendering is left to external tooling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .elements import ElementIndex
from .errors import InvalidStateError
from .linalg import DensityMatrix, Ket
from .prepare import PrepParams, dephase, prepare_qutrit, prepare_two_qubit
from .precision import (
    REFERENCE_TARGETS,
    PrecisionReport,
    SystemSpec,
    default_g_grid,
    error_histogram,
    g_sweep,
    reference_comparison,
    resource_report,
)
from .res import extract_element, plan_res
from .sampling import sample_precision_state, stream
from .seq import plan_seq
from .shots import PER_SETTING, SPLIT_TOTAL, ShotPolicy, element_variance, simulate_shots
from .stateio import format_float, write_manifest

ARTIFACT_VERSION = "0.1.0"

# Parameter range of each element-sweep panel; its default grid has 21 points.
SWEEP_RANGES = {
    "fig3a": (math.pi / 3, 4 * math.pi / 3),
    "fig3b": (0.0, 1.0),
    "fig3c": (0.0, math.pi),
    "fig3d": (0.0, 1.0),
}

SCENARIO_IDS = tuple(SWEEP_RANGES) + ("fig4a", "fig4b")

# The strength every element-sweep panel extracts at; fig4 sweeps a grid.
SWEEP_G = math.pi / 4

# Haar samples per fig4 strength; the element-sweep panels draw none.
DEFAULT_SAMPLES = 10000

# Schemes the precision panels compare, and their histogram bin count.
FIG4_SCHEMES = ("res", "seq")
HISTOGRAM_BINS = 40

QUTRIT_THETA1 = math.asin(math.sqrt(1.0 / 3.0)) / 2.0
QUTRIT_THETA2 = math.pi / 8.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Resolved configuration for one scenario run."""

    scenario_id: str
    grid: tuple[float, ...]
    g: float = SWEEP_G
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    n_t: float | None = None  # None: noiseless extraction only
    sampled_run: int = 0  # optional extra run of shot-simulated random states

    def __post_init__(self) -> None:
        if self.scenario_id not in SCENARIO_IDS:
            raise InvalidStateError(f"unknown scenario {self.scenario_id!r}")
        sweep = self.scenario_id in SWEEP_RANGES
        if sweep and self.sampled_run:
            raise InvalidStateError(
                f"{self.scenario_id} has no sampled run: only fig4a and fig4b shot-simulate random states"
            )
        if sweep and self.samples != DEFAULT_SAMPLES:
            raise InvalidStateError(
                f"{self.scenario_id} extracts from fixed states and draws no Haar samples "
                f"(got samples={self.samples})"
            )
        if not sweep and self.g != SWEEP_G:
            raise InvalidStateError(
                f"{self.scenario_id} sweeps its strength grid and reads no single g (got {self.g!r})"
            )
        if not sweep and self.n_t is not None and not self.sampled_run:
            raise InvalidStateError(
                f"{self.scenario_id} reads n_t only for its sampled run, and none is requested "
                f"(got n_t={self.n_t:g})"
            )
        if self.sampled_run < 0:
            raise InvalidStateError(f"sampled_run must be >= 0, got {self.sampled_run}")
        lo, hi = SWEEP_RANGES.get(self.scenario_id, (None, None))
        if lo is not None and self.grid:
            eps = 1e-12
            if min(self.grid) < lo - eps or max(self.grid) > hi + eps:
                raise InvalidStateError(
                    f"{self.scenario_id} grid must stay within [{lo:g}, {hi:g}]"
                )


def default_spec(scenario_id: str, **overrides) -> ScenarioSpec:
    """Scenario defaults: 21-point sweeps, 33-point strength grids."""
    if scenario_id in SWEEP_RANGES:
        grid = np.linspace(*SWEEP_RANGES[scenario_id], 21)
    else:
        grid = default_g_grid()
    return ScenarioSpec(scenario_id, **{"grid": tuple(float(x) for x in grid), **overrides})


def _qutrit_sweep_ket(phi2: float) -> Ket:
    """The unitary-sweep qutrit ket at relative phase phi2."""
    return prepare_qutrit(PrepParams(variant="qutrit", theta1=QUTRIT_THETA1, theta2=QUTRIT_THETA2,
                                     phi1=phi2 + math.pi / 3, phi2=phi2))


def qutrit_sweep_state(phi2: float) -> DensityMatrix:
    """The unitary-sweep qutrit state at relative phase phi2."""
    return _qutrit_sweep_ket(phi2).density()


def two_qubit_sweep_state(phi11: float) -> DensityMatrix:
    """The unitary-sweep two-photon state at phase phi11."""
    params = PrepParams(
        variant="two-qubit",
        photon1=(math.pi / 8, phi11, phi11 + math.pi / 4),
        photon2=(0.0, 0.0, 0.0),
    )
    return prepare_two_qubit(params).density()


QUTRIT_ELEMENTS = [
    ElementIndex.create((3,), (0,), (1,)),
    ElementIndex.create((3,), (0,), (2,)),
    ElementIndex.create((3,), (1,), (2,)),
]

TWO_QUBIT_ELEMENTS = [
    ElementIndex.create((2, 2), (0, 0), (1, 1)),
    ElementIndex.create((2, 2), (0, 1), (1, 0)),
]


@dataclass
class ScenarioResult:
    tables: dict = field(default_factory=dict)  # filename -> (columns, rows)
    manifest: dict = field(default_factory=dict)
    readme: str = ""

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, (columns, rows) in self.tables.items():
            with open(out / name, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(rows)
        write_manifest(out, self.manifest)
        (out / "README.md").write_text(self.readme)
        return out


def _manifest(spec: ScenarioSpec, schemes, policy_names) -> dict:
    return {
        "scenario": spec.scenario_id,
        "grid": [format_float(x) for x in spec.grid],
        "g": format_float(spec.g),
        "schemes": list(schemes),
        "samples": spec.samples,
        "seed": spec.seed,
        "n_t": None if spec.n_t is None else format_float(spec.n_t),
        "bins": HISTOGRAM_BINS,
        "policies": list(policy_names),
        "sampled_run": spec.sampled_run,
        "artifact_version": ARTIFACT_VERSION,
    }


def _element_sweep(spec: ScenarioSpec, states, elements, theory, readme_intro: str) -> ScenarioResult:
    """Shared machinery for the four element-sweep panels."""
    columns = ["parameter", "element", "re_theory", "im_theory", "re_extracted", "im_extracted"]
    shots = spec.n_t is not None
    if shots:
        columns += ["re_simulated", "im_simulated"]
    rows = []
    plans = {e.label(): plan_res(e, spec.g) for e in elements}
    for j, x in enumerate(spec.grid):
        rho = states(x)
        for e in elements:
            plan = plans[e.label()]
            want = theory(x, e)
            got = extract_element(rho, plan)
            row = [format_float(x), e.label(),
                   format_float(want.real), format_float(want.imag),
                   format_float(got.real), format_float(got.imag)]
            if shots:
                policy = ShotPolicy(n_t=spec.n_t)
                rng = stream(spec.seed, f"{spec.scenario_id}/shots/{e.label()}", j)
                sim = simulate_shots(plan, rho, policy, rng)
                row += [format_float(sim.real), format_float(sim.imag)]
            rows.append(row)
    result = ScenarioResult()
    result.tables[f"{spec.scenario_id}.csv"] = (columns, rows)
    result.manifest = _manifest(spec, ["res"], [PER_SETTING] if shots else [])
    result.readme = readme_intro + _SWEEP_COLUMN_DOC + (_SIM_COLUMN_DOC if shots else "")
    return result


_SWEEP_COLUMN_DOC = """
Columns:
  parameter     sweep parameter value (radians or dephasing coefficient)
  element       s,s' labels of the density-matrix element
  re_theory     analytic value, real part
  im_theory     analytic value, imaginary part
  re_extracted  noiseless extraction, real part
  im_extracted  noiseless extraction, imaginary part
"""

_SIM_COLUMN_DOC = """  re_simulated  one finite-statistics extraction at the configured n_t
  im_simulated  imaginary part of the same draw
"""


def run_fig3a(spec: ScenarioSpec) -> ScenarioResult:
    """Qutrit unitary sweep: three coherences versus the relative phase."""

    def theory(phi2, e):
        amps = _qutrit_sweep_ket(phi2).amplitudes
        return amps[e.s_flat] * np.conj(amps[e.s_prime_flat])

    return _element_sweep(
        spec, qutrit_sweep_state, QUTRIT_ELEMENTS, theory,
        "Qutrit unitary sweep: off-diagonal elements versus relative phase.\n",
    )


def run_fig3b(spec: ScenarioSpec) -> ScenarioResult:
    """Qutrit dephasing sweep at the fixed reference state, phase 2 pi/3."""
    rho0 = qutrit_sweep_state(2 * math.pi / 3)

    def states(gamma):
        return dephase(rho0, gamma, mode="all-offdiag")

    def theory(gamma, e):
        return gamma * rho0.entry(e.s_flat, e.s_prime_flat)

    return _element_sweep(
        spec, states, QUTRIT_ELEMENTS, theory,
        "Qutrit dephasing sweep: coherences scale linearly with gamma.\n",
    )


def run_fig3c(spec: ScenarioSpec) -> ScenarioResult:
    """Two-photon unitary sweep of the completely off-diagonal elements."""

    def theory(phi11, e):
        rho = two_qubit_sweep_state(phi11)
        return rho.entry(e.s_flat, e.s_prime_flat)

    return _element_sweep(
        spec, two_qubit_sweep_state, TWO_QUBIT_ELEMENTS, theory,
        "Two-photon unitary sweep: completely off-diagonal elements.\n",
    )


def run_fig3d(spec: ScenarioSpec) -> ScenarioResult:
    """Two-photon dephasing sweep at phase pi/3 (completely off-diagonal damping only)."""
    rho0 = two_qubit_sweep_state(math.pi / 3)

    def states(gamma):
        return dephase(rho0, gamma, mode="completely-offdiag")

    def theory(gamma, e):
        return gamma * rho0.entry(e.s_flat, e.s_prime_flat)

    return _element_sweep(
        spec, states, TWO_QUBIT_ELEMENTS, theory,
        "Two-photon dephasing sweep: all-qudit coherences scale with gamma.\n",
    )


def run_fig4(spec: ScenarioSpec) -> ScenarioResult:
    """Precision comparison panel for one system.

    Emits the n_t Delta^2 curves for both schemes under both exposure
    policies, error histograms at each scheme's optimum, the reference
    comparison and the photon-budget ratio at the per-scheme optima.
    """
    system = SystemSpec(1, 3) if spec.scenario_id == "fig4a" else SystemSpec(2, 2)
    policies = (ShotPolicy(n_t=1.0, allocation=PER_SETTING),
                ShotPolicy(n_t=1.0, allocation=SPLIT_TOTAL))
    report = g_sweep(system, FIG4_SCHEMES, spec.grid, spec.samples, policies, seed=spec.seed)

    columns = ["scheme", "g", "policy", "nt_delta2", "mc_stderr", "samples", "argmin"]
    rows = []
    for r in report.rows:
        rows.append([
            r.scheme, format_float(r.g), r.policy, format_float(r.nt_delta2),
            format_float(r.mc_stderr), str(r.samples),
            "1" if report.argmin[r.scheme, r.policy] == r.g else "0",
        ])
    result = ScenarioResult()
    result.tables[f"{spec.scenario_id}_curves.csv"] = (columns, rows)

    hist_columns = ["scheme", "g", "policy", "bin_left", "bin_right", "count"]
    hist_rows = []
    per_setting = policies[0]
    for scheme in FIG4_SCHEMES:
        g_opt = report.argmin[(scheme, per_setting.allocation)]
        hist = error_histogram(system, scheme, g_opt, max(spec.samples, 1000), per_setting,
                               bins=HISTOGRAM_BINS, seed=spec.seed, report=report)
        for i in range(hist.counts.size):
            hist_rows.append([
                scheme, format_float(g_opt), per_setting.allocation,
                format_float(hist.bin_edges[i]), format_float(hist.bin_edges[i + 1]),
                str(int(hist.counts[i])),
            ])
    result.tables[f"{spec.scenario_id}_histograms.csv"] = (hist_columns, hist_rows)

    comparison = reference_comparison(system, samples=spec.samples, seed=spec.seed, report=report)
    efficiency = _efficiency_summary(system, report, spec)

    if spec.sampled_run:
        result.tables[f"{spec.scenario_id}_sampled.csv"] = _sampled_run(spec, system)

    result.manifest = _manifest(spec, FIG4_SCHEMES, [p.allocation for p in policies])
    result.manifest["comparison"] = comparison
    result.manifest["efficiency"] = {
        "ratio_seq_over_res": format_float(efficiency["ratio_seq_over_res"]),
        "reference_ratio": format_float(efficiency["reference_ratio"]),
        "g_res": format_float(efficiency["g_res"]),
        "g_seq": format_float(efficiency["g_seq"]),
    }
    result.readme = (
        f"Precision comparison for the {system.label} system.\n"
        "curves table: n_t*Delta^2 versus coupling strength per scheme and policy;\n"
        "argmin marks each scheme/policy optimum on the grid.\n"
        "histograms table: binned per-state standard errors at each scheme's optimum.\n"
        "manifest.json carries the reference-value comparison (both policies) and\n"
        "the photon-budget ratio of the sequential scheme to the single-coupling\n"
        "scheme at their per-grid optima.\n"
    )
    return result


def _efficiency_summary(system: SystemSpec, report: PrecisionReport, spec: ScenarioSpec) -> dict:
    """Photon-budget ratio seq/res at the per-scheme optima."""
    g_res = report.argmin[("res", PER_SETTING)]
    g_seq = report.argmin[("seq", PER_SETTING)]
    element = QUTRIT_ELEMENTS[0] if system.label == "qutrit" else TWO_QUBIT_ELEMENTS[0]
    rr = resource_report(plan_res(element, g_res), plan_seq(element, g_seq),
                         target_sigma=0.1, samples=min(spec.samples, 2000), seed=spec.seed)
    reference = REFERENCE_TARGETS[(system.n_qudits, system.d)]["efficiency"]
    return {
        "ratio_seq_over_res": rr.ratio_b_over_a,
        "reference_ratio": reference,
        "g_res": g_res,
        "g_seq": g_seq,
    }


def _sampled_run(spec: ScenarioSpec, system: SystemSpec):
    """Shot-simulated characterization errors for a small random batch."""
    n_t = spec.n_t if spec.n_t is not None else 1e5
    policy = ShotPolicy(n_t=n_t)
    columns = ["sample", "scheme", "element", "re_error", "im_error", "pred_stderr_re", "pred_stderr_im"]
    rows = []
    elements = QUTRIT_ELEMENTS if system.label == "qutrit" else TWO_QUBIT_ELEMENTS
    plans = {"res": [plan_res(e, math.pi / 4) for e in elements],
             "seq": [plan_seq(e, math.pi / 2) for e in elements]}
    for i in range(spec.sampled_run):
        rho = sample_precision_state(system.n_qudits, system.d,
                                     stream(spec.seed, f"{spec.scenario_id}/sampled", i))
        for scheme, plan_list in plans.items():
            for plan in plan_list:
                rng = stream(spec.seed, f"{spec.scenario_id}/sampled/{scheme}/{plan.element.label()}", i)
                sim = simulate_shots(plan, rho, policy, rng)
                truth = rho.entry(plan.element.s_flat, plan.element.s_prime_flat)
                var_re, var_im = element_variance(plan, rho, policy)
                rows.append([
                    str(i), scheme, plan.element.label(),
                    format_float(sim.real - truth.real), format_float(sim.imag - truth.imag),
                    format_float(math.sqrt(var_re / n_t)), format_float(math.sqrt(var_im / n_t)),
                ])
    return columns, rows


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    runner = {
        "fig3a": run_fig3a,
        "fig3b": run_fig3b,
        "fig3c": run_fig3c,
        "fig3d": run_fig3d,
        "fig4a": run_fig4,
        "fig4b": run_fig4,
    }[spec.scenario_id]
    return runner(spec)
