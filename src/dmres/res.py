"""Single-coupling direct characterization (the res scheme).

One swap-involution coupling per qudit whose indices differ, one qubit
meter each, then post-selection in the computational basis with meter
readout in the sigma_x / sigma_y bases.  The estimator weights below
make the extraction an exact identity at any strength with
sin(2g) != 0.
"""

from __future__ import annotations

import inspect
import itertools
import math

import numpy as np

from .elements import ElementIndex, element_from_flat
from .errors import DmresError, InvalidCouplingError, InvalidElementError
from .linalg import DensityMatrix, Ket, as_density
from .operators import make_involution
from .plans import (
    Coupling,
    MeasurementSetting,
    PlanBatch,
    ProtocolPlan,
    RES_SCHEME,
    SINGULAR_TOL,
    _born,
    _estimator_grams,
    base_amplitudes,
    check_off_diagonal,
    check_state_dims,
    enumerate_settings,
    expectations,
    finite_strengths,
    member_chunks,
)
from .seq import _seq_configuration, plan_seq, seq_stack


def singular_strength(g: float) -> bool:
    """Whether res is undefined at ``g``: its estimator divides by sin^l(2g)."""
    return abs(math.sin(2.0 * g)) <= SINGULAR_TOL


def _check_strength(g: float, l: int) -> float:
    if singular_strength(g):
        raise InvalidCouplingError(
            f"sin(2g)=0 at g={g!r}: the 1/(2 sin^{l}(2g)) estimator normalization diverges"
        )
    return float(np.sin(2.0 * g))


def _res_weights(elements: list[ElementIndex], gs, settings, n_meters: int) -> np.ndarray:
    """Block weights (G, M, 2, n_settings, 2) realizing the exact extraction identity.

    Per setting b the weight on block s' is prod_j (i if b_j = y) and its
    conjugate on block s, times the 1/(2 sin^l 2g) normalization at each
    strength of ``gs``; blocks come in index order.
    """
    w = np.array([1, 1j, -1, -1j])[[s.meter_bases.count("y") % 4 for s in settings]]
    unit = np.zeros((len(elements), len(settings), 2), dtype=complex)
    for i, e in enumerate(elements):
        unit[i, :, int(e.s_prime_flat > e.s_flat)] += w
        unit[i, :, int(e.s_flat > e.s_prime_flat)] += w.conj()
    norm = np.array([1.0 / (2.0 * _check_strength(g, n_meters) ** n_meters) for g in gs])
    coeff = np.zeros((len(gs),) + unit.shape, dtype=complex)
    coeff += norm[:, None, None, None] * unit
    return np.stack([coeff.real, coeff.imag], axis=2)


def _res_configuration(element: ElementIndex) -> tuple:
    """The coupled qudits, each with its unordered index pair {s_n, s'_n}.

    A res plan's couplings depend on nothing else, since the swap
    involution is symmetric in its two indices: every element with the
    same configuration reads the same ``base``.
    """
    return tuple((n, *sorted((element.s[n], element.s_prime[n]))) for n in element.coupled_set)


def _res_couplings(element: ElementIndex, ops) -> tuple[Coupling, ...]:
    return tuple(
        Coupling(qudit=n, kind="involution", op=op, label=f"C[{element.s[n]},{element.s_prime[n]}]@q{n}")
        for n, op in zip(element.coupled_set, ops)
    )


def _res_members(first: ElementIndex, gs):
    """The involutions, settings and ``base`` every element of ``first``'s configuration shares."""
    ops = [make_involution(first.dims[n], first.s[n], first.s_prime[n]).entries
           for n in first.coupled_set]
    base = base_amplitudes(first.dims, _res_couplings(first, ops), gs)
    return ops, enumerate_settings(len(ops)), base


def res_stack(members: list[ElementIndex], gs) -> PlanBatch:
    """The res plans of members of one coupling configuration at every strength of ``gs``.

    The involutions and ``base`` are built once for all members and
    strengths, and the weights in one stacked pass; nothing rotates a
    readout row.  ``stack[k, i]`` is member i's plan at ``gs[k]``.
    """
    check_off_diagonal(members)
    gs = finite_strengths(gs)
    ops, settings, base = _res_members(members[0], gs)
    return PlanBatch(
        elements=tuple(members),
        scheme=RES_SCHEME,
        gs=gs,
        couplings=tuple(_res_couplings(e, ops) for e in members),
        settings=settings,
        weights=_res_weights(members, gs, settings, len(ops)),
        base=base,
    )


def plan_res(element: ElementIndex, g: float) -> ProtocolPlan:
    """Build the single-coupling plan for an off-diagonal element: ``res_stack`` of one."""
    return res_stack([element], (g,))[0, 0]


class OutcomeDistribution:
    """Probabilities over (system outcome, meter signs) for one setting."""

    def __init__(self, setting: MeasurementSetting, probabilities: np.ndarray):
        self.setting = setting
        self.probabilities = probabilities

    def check(self, atol_sum: float = 1e-10, atol_neg: float = -1e-12) -> None:
        if self.probabilities.min() < atol_neg:
            raise InvalidElementError(f"negative outcome probability {self.probabilities.min():g}")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > atol_sum:
            raise InvalidElementError(f"outcome probabilities sum to {total!r}")


def outcome_distribution(
    rho: DensityMatrix | Ket, plan: ProtocolPlan, setting: MeasurementSetting | int
) -> OutcomeDistribution:
    check_state_dims(rho, plan)
    rho = as_density(rho)
    idx = setting if isinstance(setting, int) else plan.settings.index(setting)
    return OutcomeDistribution(plan.settings[idx], _born(plan.amplitudes[idx], rho))


def extract_element(rho: DensityMatrix | Ket, plan: ProtocolPlan) -> complex:
    """Estimate <s| rho |s'> from the plan's outcome probabilities.

    Extraction is scheme independent: the plan carries the estimator,
    so ``res`` and ``seq`` plans are read the same way.  Each part is
    Tr(G rho), with G the sum of the coefficient-weighted outcome
    projectors of that part, read from the weights and ``base`` (see
    ``dmres.plans``) rather than from rotated readout rows.
    """
    check_state_dims(rho, plan)
    rho = as_density(rho)
    return complex(*expectations(_estimator_grams(plan), rho))


def diagonal_element(rho: DensityMatrix | Ket, s) -> float:
    """<s| rho |s>: the probability of system outcome s, no meters needed."""
    rho = as_density(rho)
    idx = np.ravel_multi_index(tuple(int(a) for a in s), rho.dims)
    return float(rho.entries[idx, idx].real)


# The stock builders, each with its configuration key and its stack builder.
_CONFIGURATIONS = {
    plan_res: (_res_configuration, res_stack),
    plan_seq: (_seq_configuration, seq_stack),
}


def configuration_batches(dims, g: float, plan_builder=plan_res):
    """Yield a ``PlanBatch`` of plans for every upper-triangle pair u < v of flat indices.

    This is the one place a full-matrix estimate pairs its entries with
    the plans that read them.  ``plan_builder`` is ``plan_res`` or
    ``plan_seq``, also behind ``functools.wraps`` wrappers; any other
    raises ``DmresError``.  Each configuration's members are built in
    one stack at ``g``: its couplings and ``base`` once for all the
    elements that share them, and their estimators in one stacked pass.
    Configurations come in the order of their first pair and members in
    row-major order; a configuration may come in several batches of one
    strength (see ``plans.MEMBER_ENTRIES``), and ``batch[0, i]`` is
    member i's plan.
    """
    stock = _CONFIGURATIONS.get(inspect.unwrap(plan_builder))
    if stock is None:
        raise DmresError(
            f"plan builder {getattr(plan_builder, '__name__', plan_builder)!r} has no "
            "configuration stack: use plan_res or plan_seq"
        )
    configuration, stack = stock
    groups: dict[tuple, list[ElementIndex]] = {}
    for u, v in itertools.combinations(range(int(np.prod(dims))), 2):
        element = element_from_flat(dims, u, v)
        groups.setdefault(configuration(element), []).append(element)
    for members in groups.values():
        yield from member_chunks(stack(members, (g,)))


def characterize(rho: DensityMatrix | Ket, g: float, plan_builder=plan_res) -> DensityMatrix:
    """Assemble the full matrix estimate.

    Diagonal entries come from post-selection statistics alone; the
    upper triangle is read batch by batch, every member's estimate from
    one stacked product, and the lower triangle is filled by
    conjugation.  No positivity projection is applied.
    """
    rho = as_density(rho)
    est = np.diag(np.diag(rho.entries).real).astype(complex)
    for batch in configuration_batches(rho.dims, g, plan_builder):
        (values,) = expectations(_estimator_grams(batch), rho)
        for element, (re, im) in zip(batch.elements, values):
            u, v, value = element.s_flat, element.s_prime_flat, complex(re, im)
            est[u, v] = value
            est[v, u] = np.conj(value)
        del batch, values  # freed before the next batch is built
    return DensityMatrix.create(est, rho.dims, check_positive=False)
