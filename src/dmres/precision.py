"""Haar-averaged precision: Monte Carlo sweeps, histograms, resource ratios.

Per-state shot variances are linear functionals of the state, so each
plan contributes one Hermitian operator per quadrature and the Monte
Carlo reduces to traces Tr(W rho) against sampled states, with W the
mean variance operator over the element set.  Every Haar average takes
W from one path, ``mean_variance_operators``, which builds each
element's plans for a chunk of strengths in one stacked pass; a single
strength is the grid of one.  A sweep's report keeps W for every
(scheme, strength) it covered, and histograms and the reference
comparison handed that report read W from it at strengths on its grid,
so one fig4 run computes each operator once.  Samples come from
counter-based streams keyed by sample index, so every strength, scheme
and report sees the same states; each is drawn once per run and kept in
a small memo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .elements import ElementIndex, precision_element_set
from .errors import DmresError, InvalidStateError
from .plans import SINGULAR_TOL, PlanFamily, ProtocolPlan, estimator_operators, post_selected_blocks
from .res import plan_res_grid
from .sampling import precision_states
from .seq import plan_seq_grid
from .shots import ALLOCATIONS, ShotPolicy, allocation_factor
from .stateio import format_float

# Stored amplitude entries per element and sweep chunk (complex, 256 KiB).
CHUNK_ENTRIES = 2 ** 14

# Distinct (n_qudits, d, seed) keys whose states are kept between calls.
STATE_MEMO_KEYS = 2
_STATE_MEMO: dict[tuple[int, int, int], np.ndarray] = {}

REPORT_COLUMNS = (
    "scheme", "N", "d", "g", "policy", "samples",
    "nt_delta2", "mc_stderr", "couplings", "settings", "outcomes",
)

# Reference optima the comparison scenarios check against: (g, n_t * Delta^2).
REFERENCE_TARGETS = {
    (1, 3): {"res": (math.pi / 4, 0.125), "seq": (math.pi / 2, 0.708), "efficiency": 11.3},
    (2, 2): {"res": (math.pi / 4, 0.208), "seq": (math.pi / 2, 0.458), "efficiency": 8.8},
}

# Relative deviation within which a measured value matches its reference.
REFERENCE_REL_TOL = 0.2

# The strength-grid plan builder of each scheme.
GRID_BUILDERS = {"res": plan_res_grid, "seq": plan_seq_grid}


@dataclass(frozen=True)
class SystemSpec:
    """Homogeneous N-qudit system entering a precision average."""

    n_qudits: int
    d: int

    def __post_init__(self) -> None:
        if self.n_qudits < 1 or self.d < 2:
            raise InvalidStateError(f"invalid system ({self.n_qudits} qudits of dimension {self.d})")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.d,) * self.n_qudits

    @property
    def label(self) -> str:
        if (self.n_qudits, self.d) == (1, 3):
            return "qutrit"
        if (self.n_qudits, self.d) == (2, 2):
            return "two-qubit"
        return f"{self.n_qudits}x{self.d}"

    @classmethod
    def parse(cls, text: str) -> "SystemSpec":
        text = text.strip().lower()
        named = {"qubit": (1, 2), "qutrit": (1, 3), "two-qubit": (2, 2), "two-qutrit": (2, 3)}
        if text in named:
            return cls(*named[text])
        try:
            n, d = (int(x) for x in text.replace("x", ",").split(","))
        except ValueError as exc:
            raise InvalidStateError(f"cannot parse system spec {text!r}") from exc
        return cls(n, d)


def plans_over_grid(element: ElementIndex, scheme: str, gs) -> PlanFamily:
    """One element's plans at every strength of ``gs``, built in one stacked pass.

    Slice k is bit for bit the plan ``plan_res``/``plan_seq`` builds at
    ``gs[k]``; those single builds are this builder's one-strength case.
    """
    if scheme not in GRID_BUILDERS:
        raise InvalidStateError(f"unknown scheme {scheme!r}")
    return GRID_BUILDERS[scheme](element, gs)


def _variance_operator(plan: ProtocolPlan | PlanFamily) -> np.ndarray:
    """Mean of a plan's Re and Im variance operators; (G, D, D) for a family."""
    w_re, w_im = estimator_operators(plan)
    return 0.5 * (w_re + w_im)


def _mean(operators: list) -> np.ndarray:
    """Left-to-right sum of the operators over their count."""
    return functools.reduce(np.add, operators) / len(operators)


def _mean_variance_operator(plans) -> np.ndarray:
    """Average of the Re and Im variance operators over the element set.

    Takes plans, or plan families for a (G, D, D) stack with one mean
    per strength, in element order.
    """
    return _mean([_variance_operator(plan) for plan in plans])


def _trace(w_mean: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Tr(W rho) for every state of a (n, D, D) batch."""
    return np.einsum("uv,nvu->n", w_mean, states).real


def sampled_states(system: SystemSpec, seed: int, samples: int) -> np.ndarray:
    """Read-only (samples, D, D) precision states for sample indices 0..samples-1.

    Each key keeps the longest batch drawn so far; a longer request draws
    only the missing indices and a shorter one gets a prefix, so each
    index is drawn once while its key stays in the memo.
    """
    key = (system.n_qudits, system.d, seed)
    held = _STATE_MEMO.pop(key, None)
    have = 0 if held is None else held.shape[0]
    if have < samples:
        fresh = precision_states(system.n_qudits, system.d, seed, samples - have, start=have)
        if held is not None:
            fresh = np.concatenate([held, fresh])
            fresh.setflags(write=False)
        held = fresh
    _STATE_MEMO[key] = held
    while len(_STATE_MEMO) > STATE_MEMO_KEYS:
        del _STATE_MEMO[next(iter(_STATE_MEMO))]
    return held[:samples]


def _unit_values(system: SystemSpec, scheme: str, g: float, seed: int, samples: int,
                 report: PrecisionReport | None = None):
    """``per_state_values`` and the plans' (couplings, settings, outcomes) counts.

    W comes from ``report`` when it holds (system, scheme, g), else from
    a one-strength build.
    """
    held = None if report is None else report.operators.get((system, scheme, g))
    if held is None:
        ((_, *held),) = mean_variance_operators(system, scheme, [g])
    w_mean, counts = held
    return _trace(w_mean, sampled_states(system, seed, samples)), counts


def per_state_values(
    system: SystemSpec,
    scheme: str,
    g: float,
    seed: int,
    samples: int,
) -> np.ndarray:
    """Per-state mean of n_t-normalized variances at unit per-setting exposure.

    The mean runs over the system's element set and both quadratures.
    Multiply by the plan's setting count for the split-total policy.
    This is the one-strength case of ``mean_variance_operators``.
    """
    return _unit_values(system, scheme, g, seed, samples)[0]


def _stored_entries(element: ElementIndex, scheme: str) -> int:
    """Amplitude entries one plan of ``element`` stores per strength, from its layout.

    With D the system dimension and m meters (one per coupled qudit for
    ``res``, two for ``seq``), the unrotated columns hold D 2^m D entries
    and the readout rows of the two post-selected blocks 2^m settings of
    2 2^m D: the sizes of a built plan's ``base`` and ``block_amplitudes``.
    """
    m = len(element.coupled_set) * (1 if scheme == "res" else 2)
    rows = 2 ** m * element.dim
    return rows * element.dim + 2 ** m * len(post_selected_blocks(element)) * rows


def mean_variance_operators(system: SystemSpec, scheme: str, gs):
    """Yield ``(g, W, counts)`` for each strength of ``gs``, in order.

    W is the mean variance operator over the element set and both
    quadratures, the same bit for bit whatever the chunking; counts are
    the plans' (couplings, settings, outcomes per setting), read off the
    built families.  Each element's plans are built for a chunk of
    strengths in one stacked pass; a chunk holds as many strengths as
    fit ``CHUNK_ENTRIES`` at the entries per strength the layout gives,
    which bounds memory whatever the grid length.
    """
    elements = precision_element_set(system.n_qudits, system.d)
    gs = list(gs)
    step = max(1, CHUNK_ENTRIES // max(_stored_entries(e, scheme) for e in elements))
    for lo in range(0, len(gs), step):
        chunk = gs[lo:lo + step]
        operators = []
        for e in elements:
            family = plans_over_grid(e, scheme, chunk)
            operators.append(_variance_operator(family))
        counts = (family.n_meters, family.n_settings, family.outcomes_per_setting)
        del family  # not held while the caller works on this chunk
        yield from ((g, w, counts) for g, w in zip(chunk, _mean(operators)))


@dataclass
class ReportRow:
    scheme: str
    n_qudits: int
    d: int
    g: float
    policy: str
    samples: int
    nt_delta2: float
    mc_stderr: float
    couplings: int
    settings: int
    outcomes: int

    def csv_values(self) -> list[str]:
        return [
            self.scheme, str(self.n_qudits), str(self.d), format_float(self.g),
            self.policy, str(self.samples), format_float(self.nt_delta2),
            format_float(self.mc_stderr), str(self.couplings), str(self.settings),
            str(self.outcomes),
        ]


@dataclass
class PrecisionReport:
    """Sweep rows, per-(scheme, policy) optima and the operators behind them.

    ``operators`` maps (system, scheme, g) to the mean variance operator
    and the plans' counts at that point, as ``mean_variance_operators``
    yielded them.
    """

    rows: list[ReportRow]
    argmin: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        lines += [",".join(row.csv_values()) for row in self.rows]
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_csv())


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return mean, stderr


def filter_grid(scheme: str, grid) -> list[float]:
    """Drop strengths where the scheme's estimator is undefined."""
    out = []
    for g in grid:
        if scheme == "res" and abs(math.sin(2.0 * g)) <= SINGULAR_TOL:
            continue
        if scheme == "seq" and abs(math.sin(g)) <= SINGULAR_TOL:
            continue
        out.append(float(g))
    return out


def default_g_grid(points: int = 33) -> np.ndarray:
    """Evenly spaced strengths over (0, pi/2] containing pi/4 and pi/2."""
    return np.linspace(math.pi / 34, math.pi / 2, points)


def g_sweep(
    system: SystemSpec,
    schemes,
    g_grid,
    samples: int,
    policies,
    seed: int = 0,
) -> PrecisionReport:
    """Precision curves over a strength grid with matched sample streams.

    Every precision request, one strength included, is a sweep, and this
    is where its inputs are checked: every operator is built before a
    state is drawn.  The Haar samples are keyed by sample index alone,
    so every scheme and strength sees the same states.  ``g_grid`` may
    be any iterable; it is read once.  A scheme whose every strength is
    singular builds its plans at the first strength, so that the builder
    names the fault.  The report keeps each point's mean variance
    operator for histograms and reference comparisons of the same run.
    """
    if isinstance(policies, ShotPolicy):
        policies = (policies,)
    if samples < 100:
        raise InvalidStateError(f"precision averages need samples >= 100, got {samples}")
    g_grid = list(g_grid)
    if not g_grid:
        raise InvalidStateError("empty g grid")
    # a list per scheme, so that a repeated strength keeps its repeated row
    operators = {}
    for scheme in schemes:
        if scheme in operators:
            raise InvalidStateError(f"scheme {scheme!r} is requested twice")
        points = filter_grid(scheme, g_grid) or g_grid[:1]
        operators[scheme] = list(mean_variance_operators(system, scheme, points))
    report = PrecisionReport(rows=[])
    states = sampled_states(system, seed, samples)
    for scheme, points in operators.items():
        for g, w_mean, counts in points:
            report.operators[(system, scheme, g)] = (w_mean, counts)
            couplings, settings, outcomes = counts
            vals = _trace(w_mean, states)
            for policy in policies:
                factor = allocation_factor(policy.allocation, settings)
                mean, stderr = _mean_stderr(factor * vals)
                report.rows.append(
                    ReportRow(scheme, system.n_qudits, system.d, g, policy.allocation,
                              samples, mean, stderr, couplings, settings, outcomes)
                )
    for scheme in operators:
        for policy in policies:
            rows = [r for r in report.rows if r.scheme == scheme and r.policy == policy.allocation]
            report.argmin[(scheme, policy.allocation)] = min(rows, key=lambda r: r.nt_delta2).g
    return report


@dataclass
class HistogramReport:
    scheme: str
    g: float
    policy: str
    samples: int
    bin_edges: np.ndarray
    counts: np.ndarray
    max_error: float
    mean_error: float
    mean_square: float
    delta2: float
    delta2_stderr: float


def error_histogram(
    system: SystemSpec,
    scheme: str,
    g: float,
    samples: int,
    policy: ShotPolicy,
    bins: int = 40,
    seed: int = 0,
    report: PrecisionReport | None = None,
) -> HistogramReport:
    """Distribution of per-state standard errors sqrt(n_t delta^2).

    A ``g_sweep`` report whose grid holds ``g`` supplies the variance
    operator; otherwise the plans are built at ``g``.
    """
    if samples < 1000:
        raise InvalidStateError(f"histograms need samples >= 1000, got {samples}")
    vals, (_, settings, _) = _unit_values(system, scheme, g, seed, samples, report)
    vals = allocation_factor(policy.allocation, settings) * vals
    errors = np.sqrt(vals)
    lo, hi = float(errors.min()), float(errors.max())
    # A degenerate spread (single-coupling errors can be state independent)
    # gets bins of a fixed small width, placed so that the common value
    # sits mid-bin and every state lands in that one bin.
    if hi - lo < 1e-9 * max(1.0, hi):
        width = max(2e-6 * max(1.0, hi) / bins, 4.0 * (hi - lo))
        lo = 0.5 * (lo + hi) - (bins // 2 + 0.5) * width
        hi = lo + bins * width
    counts, edges = np.histogram(errors, bins=bins, range=(lo, hi))
    mean, stderr = _mean_stderr(vals)
    return HistogramReport(
        scheme=scheme, g=g, policy=policy.allocation, samples=samples,
        bin_edges=edges, counts=counts,
        max_error=float(errors.max()), mean_error=float(errors.mean()),
        mean_square=float((errors ** 2).mean()), delta2=mean, delta2_stderr=stderr,
    )


@dataclass
class ResourceReport:
    element: str
    g_a: float
    g_b: float
    scheme_a: str
    scheme_b: str
    counts_a: tuple[int, int, int]
    counts_b: tuple[int, int, int]
    photons_a: float
    photons_b: float
    ratio_b_over_a: float
    target_sigma: float
    samples: int


def resource_report(
    plan_a: ProtocolPlan,
    plan_b: ProtocolPlan,
    target_sigma: float,
    samples: int = 2000,
    seed: int = 0,
) -> ResourceReport:
    """Photon budgets to reach a target standard error, Haar-averaged.

    With per-setting exposure T, reaching variance sigma^2 needs
    n_t T = V / sigma^2 per setting and the total photon count is the
    setting count times that; the ratio is policy-independent.
    """
    if plan_a.element != plan_b.element:
        raise InvalidStateError("resource comparison needs both plans to target the same element")
    if target_sigma <= 0:
        raise InvalidStateError("target_sigma must be positive")
    element = plan_a.element
    if len(set(element.dims)) != 1:
        raise InvalidStateError("resource averages support homogeneous local dimensions only")
    rhos = sampled_states(SystemSpec(element.n_qudits, element.dims[0]), seed, samples)

    budgets = []
    for plan in (plan_a, plan_b):
        acc = 0.0
        # left-to-right sum, as a per-state accumulation would give
        for v in _trace(_mean_variance_operator([plan]), rhos).tolist():
            acc += v
        mean_v = acc / samples
        budgets.append(plan.n_settings * mean_v / target_sigma ** 2)

    def counts(plan: ProtocolPlan) -> tuple[int, int, int]:
        return (plan.n_meters, plan.n_settings, plan.outcomes_per_setting)

    return ResourceReport(
        element=element.label(),
        g_a=plan_a.g, g_b=plan_b.g,
        scheme_a=plan_a.scheme, scheme_b=plan_b.scheme,
        counts_a=counts(plan_a), counts_b=counts(plan_b),
        photons_a=budgets[0], photons_b=budgets[1],
        ratio_b_over_a=budgets[1] / budgets[0],
        target_sigma=target_sigma,
        samples=samples,
    )


def reference_comparison(
    system: SystemSpec,
    samples: int = 10000,
    seed: int = 0,
    report: PrecisionReport | None = None,
) -> dict:
    """Compare measured optima against the reference values.

    Measures n_t Delta^2 at the reference strengths under both exposure
    policies and reports relative deviations.  A ``g_sweep`` report whose
    grid holds a reference strength supplies its variance operator;
    otherwise the plans are built there.  When no policy lands
    within ``REFERENCE_REL_TOL`` of a target the entry carries a
    convention note: the reference values presuppose a photon-accounting
    convention the recorded policies do not pin down.
    """
    key = (system.n_qudits, system.d)
    if key not in REFERENCE_TARGETS:
        raise DmresError(f"no reference targets for system {system.label}")
    targets = REFERENCE_TARGETS[key]
    out = {"system": system.label, "samples": samples, "rel_tol": REFERENCE_REL_TOL, "schemes": {}}
    for scheme in ("res", "seq"):
        g_ref, value_ref = targets[scheme]
        vals, (_, settings, _) = _unit_values(system, scheme, g_ref, seed, samples, report)
        per_policy = {}
        matched = False
        for allocation in ALLOCATIONS:
            mean, stderr = _mean_stderr(allocation_factor(allocation, settings) * vals)
            rel = abs(mean - value_ref) / value_ref
            per_policy[allocation] = {
                "nt_delta2": mean,
                "mc_stderr": stderr,
                "relative_deviation": rel,
                "within_tolerance": bool(rel <= REFERENCE_REL_TOL),
            }
            matched = matched or rel <= REFERENCE_REL_TOL
        entry = {
            "g": g_ref,
            "target": value_ref,
            "policies": per_policy,
            "matched": matched,
        }
        if not matched:
            entry["convention_note"] = (
                "no recorded photon-accounting policy reproduces the reference value; "
                "values under both policies are reported for comparison"
            )
        out["schemes"][scheme] = entry
    return out
