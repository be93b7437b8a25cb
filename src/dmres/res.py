"""Single-coupling direct characterization (the res scheme).

One swap-involution coupling per qudit whose indices differ, one qubit
meter each, then post-selection in the computational basis with meter
readout in the sigma_x / sigma_y bases.  The estimator coefficients
below make the extraction an exact identity at any strength with
sin(2g) != 0.
"""

from __future__ import annotations

import inspect
import itertools

import numpy as np

from .elements import ElementIndex, element_from_flat
from .errors import InvalidCouplingError, InvalidElementError
from .linalg import DensityMatrix, Ket, as_density
from .operators import make_involution
from .plans import (
    Coupling,
    MeasurementSetting,
    PlanFamily,
    ProtocolPlan,
    RES_SCHEME,
    SINGULAR_TOL,
    _born,
    _estimator_grams,
    base_amplitudes,
    check_state_dims,
    enumerate_settings,
    expectations,
    finite_strengths,
    sign_products,
)
from .seq import _seq_configuration, _seq_families, plan_seq


def _check_strength(g: float, l: int) -> float:
    s = np.sin(2.0 * g)
    if abs(s) <= SINGULAR_TOL:
        raise InvalidCouplingError(
            f"sin(2g)=0 at g={g!r}: the 1/(2 sin^{l}(2g)) estimator normalization diverges"
        )
    return float(s)


def res_coefficients(element: ElementIndex, g, settings, n_meters: int):
    """Complex coefficients realizing the exact extraction identity.

    Per setting b the weight on the s'-outcome is prod_j (i if b_j = y)
    and its conjugate on the s-outcome, times the product of meter signs
    and the 1/(2 sin^l 2g) normalization.  A sequence of strengths gives
    one table per strength, stacked on a leading axis.
    """
    gs = np.asarray(g, dtype=float)
    norm = np.array([1.0 / (2.0 * _check_strength(float(x), n_meters) ** n_meters)
                     for x in gs.reshape(-1)])
    signs = sign_products(n_meters)
    w = np.array([1, 1j, -1, -1j])[[s.meter_bases.count("y") % 4 for s in settings]]
    unit = np.zeros((len(settings), element.dim, 2 ** n_meters), dtype=complex)
    unit[:, element.s_prime_flat] += w[:, None] * signs
    unit[:, element.s_flat] += w.conj()[:, None] * signs
    unit = unit.reshape(len(settings), -1)
    coeff = np.zeros((norm.size,) + unit.shape, dtype=complex)
    coeff += norm[:, None, None] * unit
    return coeff.reshape(gs.shape + unit.shape)


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


def _res_families(members: list[ElementIndex], gs: tuple[float, ...]):
    """Yield the plan family of each element of one res configuration, in order.

    The involutions and ``base`` are built once; each member computes
    its own coefficients and rotates no readout row.
    """
    first = members[0]
    ops = [make_involution(first.dims[n], first.s[n], first.s_prime[n]).entries
           for n in first.coupled_set]
    settings = enumerate_settings(len(ops))
    base = base_amplitudes(first.dims, _res_couplings(first, ops), gs)
    for element in members:
        coeff = res_coefficients(element, gs, settings, len(ops))
        yield PlanFamily(
            element=element,
            scheme=RES_SCHEME,
            gs=gs,
            couplings=_res_couplings(element, ops),
            settings=settings,
            coeff_re=coeff.real.copy(),
            coeff_im=coeff.imag.copy(),
            base=base,
        )


def plan_res_grid(element: ElementIndex, gs) -> PlanFamily:
    """Build the single-coupling plans for an off-diagonal element at every strength of ``gs``."""
    if element.is_diagonal:
        raise InvalidElementError(
            f"element {element.label()} is diagonal; use diagonal_element instead"
        )
    return next(_res_families([element], finite_strengths(gs)))


def plan_res(element: ElementIndex, g: float) -> ProtocolPlan:
    """Build the single-coupling plan for an off-diagonal element: ``plan_res_grid`` at one strength."""
    return plan_res_grid(element, (g,))[0]


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
    projectors of the Re or Im table, read from ``base`` (see
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


# The stock builders, each with its configuration key and the generator
# that builds one configuration's members.
_CONFIGURATIONS = {
    plan_res: (_res_configuration, _res_families),
    plan_seq: (_seq_configuration, _seq_families),
}


def element_plans(dims, g: float, plan_builder=plan_res):
    """Yield ``((u, v), plan)`` for every upper-triangle pair u < v of flat indices.

    This is the one place a full-matrix estimate pairs an entry with the
    plan that reads it.  For the stock builders ``plan_res`` and
    ``plan_seq``, also behind ``functools.wraps`` wrappers, pairs come
    configuration by configuration: each set of couplings is built once
    for all the elements that share it, configurations in the order of
    their first pair and members in row-major order, and every plan
    equals the one the builder returns.  Any other builder is called once
    per pair, in row-major order.
    """
    pairs = itertools.combinations(range(int(np.prod(dims))), 2)
    stock = _CONFIGURATIONS.get(inspect.unwrap(plan_builder))
    if stock is None:
        for u, v in pairs:
            yield (u, v), plan_builder(element_from_flat(dims, u, v), g)
        return
    configuration, families = stock
    groups: dict[tuple, list[ElementIndex]] = {}
    for u, v in pairs:
        element = element_from_flat(dims, u, v)
        groups.setdefault(configuration(element), []).append(element)
    gs = finite_strengths((g,))
    for members in groups.values():
        # not zip(members, ...): zip's reused result tuple would hold the
        # previous family while the next one is built
        for family in families(members, gs):
            yield (family.element.s_flat, family.element.s_prime_flat), family[0]
            del family


def characterize(rho: DensityMatrix | Ket, g: float, plan_builder=plan_res) -> DensityMatrix:
    """Assemble the full matrix estimate.

    Diagonal entries come from post-selection statistics alone; the
    upper triangle is extracted per element and the lower triangle is
    filled by conjugation.  No positivity projection is applied.
    """
    rho = as_density(rho)
    est = np.diag(np.diag(rho.entries).real).astype(complex)
    for (u, v), plan in element_plans(rho.dims, g, plan_builder):
        value = extract_element(rho, plan)
        est[u, v] = value
        est[v, u] = np.conj(value)
        del plan  # freed before the next plan is built
    return DensityMatrix.create(est, rho.dims, check_positive=False)
