"""Single-coupling direct characterization (the res scheme).

One swap-involution coupling per qudit whose indices differ, one qubit
meter each, then post-selection in the computational basis with meter
readout in the sigma_x / sigma_y bases.  The estimator coefficients
below make the extraction an exact identity at any strength with
sin(2g) != 0.
"""

from __future__ import annotations

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
    base_amplitudes,
    check_state_dims,
    enumerate_settings,
    estimator_sums,
    finite_strengths,
    post_selected_blocks,
    readout_amplitudes,
    sign_products,
)

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


def plan_res_grid(element: ElementIndex, gs) -> PlanFamily:
    """Build the single-coupling plans for an off-diagonal element at every strength of ``gs``."""
    if element.is_diagonal:
        raise InvalidElementError(
            f"element {element.label()} is diagonal; use diagonal_element instead"
        )
    gs = finite_strengths(gs)
    couplings = tuple(
        Coupling(
            qudit=n,
            kind="involution",
            op=make_involution(element.dims[n], element.s[n], element.s_prime[n]).entries,
            label=f"C[{element.s[n]},{element.s_prime[n]}]@q{n}",
        )
        for n in element.coupled_set
    )
    settings = enumerate_settings(len(couplings))
    coeff = res_coefficients(element, gs, settings, len(couplings))
    base = base_amplitudes(element.dims, couplings, gs)
    blocks = post_selected_blocks(element)
    return PlanFamily(
        element=element,
        scheme=RES_SCHEME,
        gs=gs,
        couplings=couplings,
        settings=settings,
        coeff_re=coeff.real.copy(),
        coeff_im=coeff.imag.copy(),
        base=base,
        blocks=blocks,
        block_amplitudes=readout_amplitudes(base, element.dim, blocks),
    )


def plan_res(element: ElementIndex, g: float) -> ProtocolPlan:
    """Build the single-coupling plan for an off-diagonal element: ``plan_res_grid`` at one strength."""
    return plan_res_grid(element, (g,))[0]


def joint_state(rho: DensityMatrix | Ket, plan: ProtocolPlan) -> DensityMatrix:
    """System-meter state after coupling: U (rho (x) |0><0|^l) U^dag.

    With B = ``plan.base`` (the columns U |u> (x) |0...0>) this is
    B rho B^dag.
    """
    check_state_dims(rho, plan)
    rho = as_density(rho)
    b = plan.base
    jt = b @ rho.entries @ b.conj().T
    return DensityMatrix.create(
        jt,
        plan.element.dims + (2,) * plan.n_meters,
        check_positive=rho.positive,
    )


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
    so ``res`` and ``seq`` plans are read the same way.
    """
    check_state_dims(rho, plan)
    rho = as_density(rho)
    return complex(*estimator_sums(plan, rho, (plan.coeff_re, plan.coeff_im)))


def diagonal_element(rho: DensityMatrix | Ket, s) -> float:
    """<s| rho |s>: the probability of system outcome s, no meters needed."""
    rho = as_density(rho)
    idx = np.ravel_multi_index(tuple(int(a) for a in s), rho.dims)
    return float(rho.entries[idx, idx].real)


def element_plans(dims, g: float, plan_builder=plan_res):
    """Yield ``((u, v), plan)`` for every upper-triangle pair u < v of flat indices.

    Pairs come in row-major order; this is the one place a full-matrix
    estimate pairs an entry with the plan that reads it.
    """
    for u, v in itertools.combinations(range(int(np.prod(dims))), 2):
        yield (u, v), plan_builder(element_from_flat(dims, u, v), g)


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
    return DensityMatrix.create(est, rho.dims, check_positive=False)
