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
    ProtocolPlan,
    RES_SCHEME,
    SINGULAR_TOL,
    all_probabilities,
    apply_estimator,
    base_amplitudes,
    enumerate_settings,
    functional_matrix,
    readout_amplitudes,
    setting_probabilities,
    sign_products,
)

def _check_strength(g: float, l: int) -> float:
    s = np.sin(2.0 * g)
    if abs(s) <= SINGULAR_TOL:
        raise InvalidCouplingError(
            f"sin(2g)=0 at g={g!r}: the 1/(2 sin^{l}(2g)) estimator normalization diverges"
        )
    return float(s)


def res_coefficients(element: ElementIndex, g: float, settings, n_meters: int):
    """Complex coefficients realizing the exact extraction identity.

    Per setting b the weight on the s'-outcome is prod_j (i if b_j = y)
    and its conjugate on the s-outcome, times the product of meter signs
    and the 1/(2 sin^l 2g) normalization.
    """
    sin2g = _check_strength(g, n_meters)
    norm = 1.0 / (2.0 * sin2g ** n_meters)
    d = element.dim
    n_out = d * 2 ** n_meters
    signs = sign_products(n_meters)
    coeff = np.zeros((len(settings), n_out), dtype=complex)
    for i, setting in enumerate(settings):
        w = np.prod([1j if b == "y" else 1.0 for b in setting.meter_bases])
        block_sp = slice(element.s_prime_flat * 2 ** n_meters, (element.s_prime_flat + 1) * 2 ** n_meters)
        block_s = slice(element.s_flat * 2 ** n_meters, (element.s_flat + 1) * 2 ** n_meters)
        coeff[i, block_sp] += norm * w * signs
        coeff[i, block_s] += norm * np.conj(w) * signs
    return coeff


def plan_res(element: ElementIndex, g: float, with_estimator: bool = True) -> ProtocolPlan:
    """Build the single-coupling plan for an off-diagonal element.

    ``with_estimator=False`` skips the coefficient construction so the
    measurement structure can be evaluated at singular strengths
    (sin(2g) = 0), where the extraction normalization diverges.
    """
    if element.is_diagonal:
        raise InvalidElementError(
            f"element {element.label()} is diagonal; use diagonal_element instead"
        )
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
    n_out = element.dim * 2 ** len(couplings)
    if with_estimator:
        coeff = res_coefficients(element, g, settings, len(couplings))
    else:
        coeff = np.zeros((len(settings), n_out), dtype=complex)
    base = base_amplitudes(element.dims, couplings, g)
    amps = readout_amplitudes(base, settings, element.dim)
    return ProtocolPlan(
        element=element,
        scheme=RES_SCHEME,
        g=float(g),
        couplings=couplings,
        settings=settings,
        post_selectors=(element.s_flat, element.s_prime_flat),
        coeff_re=coeff.real.copy(),
        coeff_im=coeff.imag.copy(),
        amplitudes=amps,
        has_estimator=with_estimator,
    )


def joint_state(rho: DensityMatrix | Ket, plan: ProtocolPlan) -> DensityMatrix:
    """System-meter state after coupling: U (rho (x) |0><0|^l) U^dag.

    With B = ``base_amplitudes`` (the columns U |u> (x) |0...0>) this is
    B rho B^dag.
    """
    rho = as_density(rho)
    if rho.dims != plan.element.dims:
        raise InvalidElementError(f"state dims {rho.dims} do not match plan dims {plan.element.dims}")
    b = base_amplitudes(plan.element.dims, plan.couplings, plan.g)
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
    rho = as_density(rho)
    if rho.dims != plan.element.dims:
        raise InvalidElementError(f"state dims {rho.dims} do not match plan dims {plan.element.dims}")
    idx = setting if isinstance(setting, int) else plan.settings.index(setting)
    return OutcomeDistribution(plan.settings[idx], setting_probabilities(plan, rho, idx))


def extract_element(rho: DensityMatrix | Ket, plan: ProtocolPlan) -> complex:
    """Estimate <s| rho |s'> from the plan's outcome probabilities."""
    rho = as_density(rho)
    if rho.dims != plan.element.dims:
        raise InvalidElementError(f"state dims {rho.dims} do not match plan dims {plan.element.dims}")
    return apply_estimator(plan, all_probabilities(plan, rho))


def extract_batch(plans, rhos: np.ndarray) -> np.ndarray:
    """Vectorized extraction: one plan list, a stacked (n, D, D) batch."""
    out = np.zeros((len(plans), rhos.shape[0]), dtype=complex)
    for i, plan in enumerate(plans):
        k = functional_matrix(plan)
        out[i] = np.einsum("uv,nuv->n", k, rhos)
    return out


def diagonal_element(rho: DensityMatrix | Ket, s) -> float:
    """<s| rho |s>: the probability of system outcome s, no meters needed."""
    rho = as_density(rho)
    idx = np.ravel_multi_index(tuple(int(a) for a in s), rho.dims)
    return float(rho.entries[idx, idx].real)


def characterize(rho: DensityMatrix | Ket, g: float, plan_builder=plan_res) -> DensityMatrix:
    """Assemble the full matrix estimate.

    Diagonal entries come from post-selection statistics alone; the
    upper triangle is extracted per element and the lower triangle is
    filled by conjugation.  No positivity projection is applied.
    """
    rho = as_density(rho)
    dims = rho.dims
    total = rho.dim
    est = np.zeros((total, total), dtype=complex)
    for u in range(total):
        est[u, u] = diagonal_element(rho, np.unravel_index(u, dims))
    for u, v in itertools.combinations(range(total), 2):
        element = element_from_flat(dims, u, v)
        value = extract_element(rho, plan_builder(element, g))
        est[u, v] = value
        est[v, u] = np.conj(value)
    return DensityMatrix.create(est, dims, check_positive=False)
