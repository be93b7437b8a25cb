"""Haar-averaged precision: Monte Carlo sweeps, histograms, resource ratios.

Per-state shot variances are linear functionals of the state, so each
plan contributes one Hermitian operator per quadrature and the Monte
Carlo reduces to traces Tr(W rho) against sampled states, with W the
mean variance operator over the element set.  Every Haar average takes
W from one path, ``mean_variance_operators``, which builds the element
set through ``res.configuration_stacks`` for a chunk of strengths at a
time, so the elements of each coupled shape share one stacked build; a
single strength is the grid of one.  The operators come from the plans'
unrotated columns, so no precision path rotates a readout row.  A
sweep's report keeps W for every (scheme, strength) it covered, and
histograms and the reference comparison handed that report read W from
it at strengths on its grid, so one fig4 run computes each operator
once.  Samples are addressed by counter in one Philox per state family
(sample j at counter j B, see ``sampling``), so every strength, scheme
and report sees the same states, each drawn once a run and memoised.
A sweep's means and standard errors come from one stacked reduction
over its points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .elements import ElementIndex, precision_element_set
from .errors import DmresError, InvalidStateError
from . import res
from .plans import SEQ_SCHEME, PlanBatch, ProtocolPlan, canonical_element, embedded, estimator_operators
from .sampling import precision_states
from .shots import ALLOCATIONS, ShotPolicy, allocation_factor
from .stateio import format_float

# Array entries one coupled shape's build may keep per sweep chunk, at
# most 16 bytes each (256 KiB), counted per strength by ``_stored_entries``.
# The count bounds the arrays a build keeps, not its transient copies:
# traced peaks of a whole-grid stack build with its variance operators
# run to 2.1x the count for qutrit seq and 3.6x for three-qubit res,
# whose transient canonical columns outweigh what the stack keeps.
# This budget gives a three-qubit seq sweep, whose four elements share
# one coupled set, one strength per chunk: a 1,000-sample sweep then
# peaks at 0.77 MB traced, against 0.93 MB for single plan_seq builds
# per strength.
CHUNK_ENTRIES = 2 ** 14

# Entries of the (points, policies, samples) stack a sweep reduces at
# once (256 KiB): one point of a default 10^4-sample, two-policy run.
STAT_ENTRIES = 2 ** 15

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


def _variance_operator(plan: ProtocolPlan | PlanBatch) -> np.ndarray:
    """Mean of a plan's Re and Im variance operators in the full space, (D, D); (G, M, D, D) for a batch."""
    w = estimator_operators(plan)
    mean = 0.5 * (w[..., 0, :, :] + w[..., 1, :, :])
    if isinstance(plan, PlanBatch):
        return embedded(mean, plan.supports, plan.elements[0].dim)
    return embedded(mean, plan.support, plan.element.dim)


def _mean(operators: list) -> np.ndarray:
    """Left-to-right sum of the operators over their count."""
    return functools.reduce(np.add, operators) / len(operators)


def _trace(w_mean: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Tr(W rho) for every state of a (n, D, D) batch."""
    return np.einsum("uv,nvu->n", w_mean, states).real


def sampled_states(system: SystemSpec, seed: int, samples: int) -> np.ndarray:
    """Read-only (samples, D, D) precision states for sample indices 0..samples-1.

    Each key keeps the longest batch drawn so far; a longer request draws
    only the missing indices and a shorter one gets a prefix, so each
    index is drawn once while its key stays in the memo.
    """
    if samples < 1:
        raise InvalidStateError(f"precision averages need samples >= 1, got {samples}")
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


def _stored_entries(members: list[ElementIndex], scheme: str) -> int:
    """Array entries per strength that a sweep chunk budgets for the stack of one coupled shape.

    With D the system dimension, d_C that of the coupled qudits and
    S = 2^m settings, the stack of ``members`` keeps the canonical block
    rows (2 S d_C) and weights (2 S 2), its variance operator pair
    (2 d_C d_C) and, for ``seq``, the Gram stack A_k^dag Sigma_b A_k its
    calibration reads (2 S d_C d_C); each member its support (d_C) and
    its mean operator embedded in the full space (D D).  Readout rows
    (a sweep rotates none) and the flipped blocks (under
    ``seq.FLIP_ENTRIES``) are not counted: the count bounds the arrays a
    build keeps, not its transient copies.
    """
    first = members[0]
    settings = 2 ** (res.SCHEMES[scheme].meters * first.n_couplings)
    d = canonical_element(first).dim
    entries = 2 * settings * d + 2 * settings * 2 + 2 * d * d + len(members) * (d + first.dim ** 2)
    if scheme == SEQ_SCHEME:
        entries += settings * 2 * d * d
    return entries


def _chunk_step(elements: list[ElementIndex], scheme: str) -> int:
    """Strengths per sweep chunk: as many as fit ``CHUNK_ENTRIES`` for the largest shape's stack, at least one."""
    return max(1, CHUNK_ENTRIES // max(_stored_entries(members, scheme)
                                       for members in res.configurations(elements)))


def mean_variance_operators(system: SystemSpec, scheme: str, gs):
    """Yield ``(g, W, counts)`` for each strength of ``gs``, in order.

    W is the mean variance operator over the element set and both
    quadratures, summed in element-set order, the same bit for bit
    whatever the chunking; counts are the plans' (couplings, settings,
    outcomes per setting).  The element set is built through
    ``res.configuration_stacks`` a chunk of strengths at a time, as many
    as fit ``CHUNK_ENTRIES`` for the largest configuration, and each
    member's W is its stack's one ``estimator_operators`` pair, embedded
    at its support.
    """
    elements = precision_element_set(system.n_qudits, system.d)
    gs = list(gs)
    step = _chunk_step(elements, scheme)
    for lo in range(0, len(gs), step):
        chunk = gs[lo:lo + step]
        operators = {}
        for stack in res.configuration_stacks(elements, scheme, chunk):
            operators.update(zip(stack.elements, _variance_operator(stack).swapaxes(0, 1)))
        counts = (stack.n_meters, stack.n_settings, stack.outcomes_per_setting)
        del stack  # not held while the caller works on this chunk
        yield from ((g, w, counts) for g, w in zip(chunk, _mean([operators[e] for e in elements])))


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


def _mean_stderr(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the mean of each row of a (..., samples) stack.

    Two reductions along the contiguous sample axis: numpy sums each row
    with the pairwise sum it gives a 1-D array, so every value equals
    that of the row on its own, bit for bit.  A 1-D array gives 0-d
    results, and a single sample a standard error of 0.
    """
    n = stack.shape[-1]
    stderr = stack.std(-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(stack.shape[:-1])
    return stack.mean(-1), stderr


def _sweep_statistics(operators: list, factors: np.ndarray, states: np.ndarray):
    """Yield ``_mean_stderr`` of f * Tr(W rho) over the states for each W and its factors f.

    ``factors`` is (points, policies).  The (points, policies, samples)
    stack is formed ``STAT_ENTRIES`` at a time, at least one point,
    and each part is reduced in one pass per statistic.
    """
    step = max(1, STAT_ENTRIES // (factors.shape[1] * len(states)))
    for lo in range(0, len(operators), step):
        part = list(zip(operators[lo:lo + step], factors[lo:lo + step]))
        stack = np.empty((len(part), factors.shape[1], len(states)))
        for row, (w_mean, f) in zip(stack, part):
            np.multiply(f[:, None], _trace(w_mean, states), out=row)
        yield from zip(*_mean_stderr(stack))


def filter_grid(scheme: str, grid) -> list[float]:
    """Drop strengths where the scheme's estimator is undefined, by the scheme's own rule."""
    singular = res.scheme_entry(scheme).singular
    return [float(g) for g in grid if not singular(g)]


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
    points = [(scheme, *point) for scheme, held in operators.items() for point in held]
    factors = np.array([[allocation_factor(policy.allocation, counts[1]) for policy in policies]
                        for *_, counts in points])
    statistics = _sweep_statistics([w_mean for _, _, w_mean, _ in points], factors,
                                   sampled_states(system, seed, samples))
    for (scheme, g, w_mean, counts), (means, stderrs) in zip(points, statistics):
        report.operators[(system, scheme, g)] = (w_mean, counts)
        for policy, mean, stderr in zip(policies, means.tolist(), stderrs.tolist()):
            report.rows.append(
                ReportRow(scheme, system.n_qudits, system.d, g, policy.allocation,
                          samples, mean, stderr, *counts)
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
    if bins < 1:
        raise InvalidStateError(f"histograms need bins >= 1, got {bins}")
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
        mean_square=float((errors ** 2).mean()), delta2=float(mean), delta2_stderr=float(stderr),
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
        for v in _trace(_variance_operator(plan), rhos).tolist():
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
        means, stderrs = _mean_stderr(
            np.multiply.outer([allocation_factor(a, settings) for a in ALLOCATIONS], vals))
        for allocation, mean, stderr in zip(ALLOCATIONS, means.tolist(), stderrs.tolist()):
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
