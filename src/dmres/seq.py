"""Sequential two-coupling baseline with calibrated linear inversion.

Each coupled qudit gets two projector couplings, the target-index
projector first and the uniform-superposition projector second, each
with its own qubit meter.  Joint measurements on the post-selected
meters carry the element information; the estimator is therefore
restricted to full-product meter correlators at the two post-selection
outcomes and made exactly unbiased at the working strength by a
minimum-norm linear solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elements import ElementIndex
from .errors import CalibrationError, InvalidCouplingError, InvalidElementError
from .linalg import DensityMatrix, Ket, SIGMA_X, SIGMA_Y, as_density, projector
from .operators import uniform_superposition_projector
from .plans import (
    CalibrationInfo,
    Coupling,
    ProtocolPlan,
    SEQ_SCHEME,
    SINGULAR_TOL,
    all_probabilities,
    apply_estimator,
    base_amplitudes,
    enumerate_settings,
    per_meter,
    readout_amplitudes,
    sign_products,
)

RESIDUAL_TOL = 1e-8

# Absolute singular-value floor for the calibration solve.  Response
# entries are exact up to ~1e-14 absolute rounding noise; directions
# below the floor are noise, not signal, and must not be inverted.
SV_FLOOR = 1e-13

PAULI_STACK = np.stack([SIGMA_X, SIGMA_Y])


def hermitian_labels(dim: int) -> list[tuple[int, int, str]]:
    """Hermitian basis order: diagonal units, then a symmetric ('re') and an
    antisymmetric ('im') combination for each upper-triangle pair."""
    labels = [(u, u, "d") for u in range(dim)]
    for u, v in itertools.combinations(range(dim), 2):
        labels += [(u, v, "re"), (u, v, "im")]
    return labels


def basis_traces(mats: np.ndarray) -> np.ndarray:
    """Tr(B_b M) for every basis element B_b, read off the entries of M.

    Works on stacks (..., dim, dim) and returns (..., dim^2) complex
    values in ``hermitian_labels`` order: M[u,u], then M[u,v] + M[v,u]
    and i (M[u,v] - M[v,u]) per pair.
    """
    iu, iv = np.triu_indices(mats.shape[-1], 1)
    upper, lower = mats[..., iu, iv], mats[..., iv, iu]
    pairs = np.stack([upper + lower, 1j * (upper - lower)], axis=-1)
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    return np.concatenate([diag, pairs.reshape(pairs.shape[:-2] + (-1,))], axis=-1)


def hermitian_basis(dim: int) -> np.ndarray:
    """The stacked dense basis, dim^4 entries: B_b[u, v] = Tr(B_b |v><u|)."""
    units = np.eye(dim * dim, dtype=complex).reshape((dim,) * 4).swapaxes(2, 3)
    return np.moveaxis(basis_traces(units), -1, 0)


@dataclass(frozen=True)
class ResponseMap:
    """Linear map from Hermitian-input coordinates to outcome probabilities.

    ``matrix`` has one column per Hermitian basis element (diagonal
    units first, then paired re/im combinations) and one row per
    (setting, outcome) in plan order.  It and the dense ``basis`` are
    computed on first use: the default correlator calibration reads
    neither.
    """

    plan: ProtocolPlan

    @cached_property
    def basis(self) -> np.ndarray:
        return hermitian_basis(self.plan.element.dim)

    @cached_property
    def matrix(self) -> np.ndarray:
        a = self.plan.amplitudes.reshape(-1, self.plan.element.dim)
        # <a| B |a> = Tr(B G) with G[v, u] = conj(a[v]) a[u]
        return basis_traces(a.conj()[:, :, None] * a[:, None, :]).real

    def coordinates(self, hermitian: np.ndarray) -> np.ndarray:
        """Expansion coefficients of a Hermitian matrix in the map's basis."""
        m = np.asarray(hermitian, dtype=complex)
        iu, iv = np.triu_indices(m.shape[0], 1)
        pairs = np.stack([m[iu, iv].real, -m[iu, iv].imag], axis=-1).reshape(-1)
        return np.concatenate([np.diagonal(m).real, pairs])

    def apply(self, hermitian: np.ndarray) -> np.ndarray:
        return self.matrix @ self.coordinates(hermitian)


def seq_couplings(element: ElementIndex) -> tuple[Coupling, ...]:
    couplings = []
    for n in element.coupled_set:
        d = element.dims[n]
        couplings.append(
            Coupling(n, "projector", projector(d, element.s[n]), f"pi[{element.s[n]}]@q{n}")
        )
        couplings.append(
            Coupling(n, "projector", uniform_superposition_projector(d), f"pi[b]@q{n}")
        )
    return tuple(couplings)


def response_map(plan: ProtocolPlan) -> ResponseMap:
    """The plan's response map; its dense parts are built on first use."""
    return ResponseMap(plan=plan)


def _targets(element: ElementIndex) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the Re and Im element functionals: B_b[s, s'] per basis element."""
    d = element.dim
    unit = np.zeros((d, d), dtype=complex)
    unit[element.s_prime_flat, element.s_flat] = 1.0
    t = basis_traces(unit)  # Tr(B_b |s'><s|) = B_b[s, s']
    return t.real, t.imag


def _correlator_response(plan: ProtocolPlan, outcomes: list[int], base: np.ndarray) -> np.ndarray:
    """Rows of the response map restricted to normalized full correlators.

    Row (setting b, system outcome k) holds
    Tr[B (A_k^dag Sigma_b A_k)] / sqrt(2^m) per basis element B, with
    A_k the meter-block amplitudes for outcome k and Sigma_b the tensor
    product of the setting's Pauli readouts, applied meter by meter.
    Computing the matrix element directly keeps every term at the full
    correlator order in g, so no precision is lost to cancellation at
    weak coupling.
    """
    d = plan.element.dim
    blocks = base.reshape(d, 2 ** plan.n_meters, d)[outcomes]
    sigma_blocks = per_meter(blocks, PAULI_STACK).reshape((-1,) + blocks.shape)
    gmat = blocks.conj().swapaxes(-1, -2) @ sigma_blocks  # (settings, outcomes, d, d)
    rows = basis_traces(gmat).real / np.sqrt(2 ** plan.n_meters)
    return rows.reshape(-1, rows.shape[-1])


def _correlator_signs(n_meters: int) -> np.ndarray:
    return sign_products(n_meters) / np.sqrt(2 ** n_meters)


def _correlator_coefficients(plan: ProtocolPlan, outcomes: list[int], z: np.ndarray) -> np.ndarray:
    """Scatter one weight per (setting, outcome k) onto that block's meter signs.

    The blocks form an orthonormal basis of the restricted coefficient
    subspace; the result is the full (n_settings, outcomes) table.
    """
    m = plan.n_meters
    coeff = np.zeros((plan.n_settings, plan.element.dim, 2 ** m))
    coeff[:, outcomes] = z.reshape(plan.n_settings, len(outcomes), 1) * _correlator_signs(m)
    return coeff.reshape(plan.n_settings, -1)


def _correlator_weights(plan: ProtocolPlan, outcomes: list[int], w: np.ndarray) -> np.ndarray:
    """Diagonal of S^T diag(w) S for the scatter S: block sums of w sign^2."""
    blocks = w.reshape(plan.n_settings, plan.element.dim, -1)[:, outcomes]
    return (blocks * _correlator_signs(plan.n_meters) ** 2).sum(-1).reshape(-1)


def calibrate_estimator(
    rmap: ResponseMap,
    element: ElementIndex | None = None,
    support: str = "correlator",
    weights: np.ndarray | None = None,
    residual_tol: float = RESIDUAL_TOL,
    sv_floor: float = SV_FLOOR,
    base: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, CalibrationInfo]:
    """Minimum-norm unbiased coefficients for the Re and Im functionals.

    ``support='correlator'`` restricts the estimator to full-product
    meter correlators at the two post-selection outcomes, the joint
    statistics the sequential readout actually uses.  ``support='full'``
    solves over the whole outcome space.  ``weights`` switches to the
    per-state-optimal variant: coefficients minimizing the predicted
    shot variance sum(c^2 w) instead of the plain norm.  ``base`` takes
    the plan's unrotated amplitudes (``base_amplitudes``) when the caller
    already has them.
    """
    plan = rmap.plan
    element = element or plan.element
    if element != plan.element:
        raise InvalidElementError("calibration element does not match the plan's element")
    t_re, t_im = _targets(element)

    restricted = support == "correlator"
    if restricted:
        outcomes = sorted(set(plan.post_selectors))
        if base is None:
            base = base_amplitudes(plan.element.dims, plan.couplings, plan.g)
        a_mat = _correlator_response(plan, outcomes, base).T  # basis x subspace
    elif support == "full":
        a_mat = rmap.matrix.T
    else:
        raise CalibrationError(f"unknown calibration support {support!r}")

    if weights is not None:
        w = np.asarray(weights, dtype=float).reshape(-1)
        # Restricted columns have disjoint outcome support, so the
        # quadratic form S^T diag(w) S is diagonal.
        wz = _correlator_weights(plan, outcomes, w) if restricted else w
        scale = 1.0 / np.sqrt(np.maximum(wz, 1e-12))
        a_mat = a_mat * scale
    else:
        scale = None

    u_svd, svals, vt_svd = np.linalg.svd(a_mat, full_matrices=False)
    keep = svals > sv_floor
    smallest = float(svals[keep][-1]) if keep.any() else 0.0

    def solve(t):
        if not keep.any():
            return np.zeros(a_mat.shape[1])
        return (vt_svd[keep].T / svals[keep]) @ (u_svd[:, keep].T @ t)

    z_re = solve(t_re)
    z_im = solve(t_im)
    res_re = float(np.linalg.norm(a_mat @ z_re - t_re))
    res_im = float(np.linalg.norm(a_mat @ z_im - t_im))
    if max(res_re, res_im) > residual_tol:
        raise CalibrationError(
            f"calibration infeasible at g={plan.g!r}: residual {max(res_re, res_im):.3e} "
            f"exceeds {residual_tol:g} (smallest usable singular value {smallest:.3e}, "
            f"floor {sv_floor:g})"
        )
    if scale is not None:
        z_re = z_re * scale
        z_im = z_im * scale
    if restricted:
        c_re = _correlator_coefficients(plan, outcomes, z_re)
        c_im = _correlator_coefficients(plan, outcomes, z_im)
    else:
        c_re, c_im = z_re, z_im
    info = CalibrationInfo(
        residual_re=res_re,
        residual_im=res_im,
        smallest_singular_value=smallest,
        method=f"min-norm/{support}" + ("" if weights is None else "+weighted"),
    )
    shape = (plan.n_settings, plan.outcomes_per_setting)
    return c_re.reshape(shape), c_im.reshape(shape), info


def plan_seq(
    element: ElementIndex,
    g: float,
    support: str = "correlator",
    weights: np.ndarray | None = None,
    residual_tol: float = RESIDUAL_TOL,
) -> ProtocolPlan:
    """Build and calibrate the sequential baseline plan."""
    if element.is_diagonal:
        raise InvalidElementError(
            f"element {element.label()} is diagonal; use diagonal_element instead"
        )
    if abs(g) <= SINGULAR_TOL:
        raise InvalidCouplingError(
            f"g={g!r} is within {SINGULAR_TOL:g} of 0: no coupling, "
            "the sequential estimator is undefined"
        )
    couplings = seq_couplings(element)
    settings = enumerate_settings(len(couplings))
    base = base_amplitudes(element.dims, couplings, g)
    amps = readout_amplitudes(base, settings, element.dim)
    bare = ProtocolPlan(
        element=element,
        scheme=SEQ_SCHEME,
        g=float(g),
        couplings=couplings,
        settings=settings,
        post_selectors=(element.s_flat, element.s_prime_flat),
        coeff_re=np.zeros((len(settings), element.dim * 2 ** len(couplings))),
        coeff_im=np.zeros((len(settings), element.dim * 2 ** len(couplings))),
        amplitudes=amps,
        has_estimator=False,
    )
    c_re, c_im, info = calibrate_estimator(
        response_map(bare), element, support=support, weights=weights,
        residual_tol=residual_tol, base=base,
    )
    return ProtocolPlan(
        element=element,
        scheme=SEQ_SCHEME,
        g=float(g),
        couplings=couplings,
        settings=settings,
        post_selectors=(element.s_flat, element.s_prime_flat),
        coeff_re=c_re,
        coeff_im=c_im,
        amplitudes=amps,
        calibration=info,
    )


def extract_element_seq(rho: DensityMatrix | Ket, plan: ProtocolPlan) -> complex:
    """Estimate <s| rho |s'> with the calibrated sequential plan."""
    rho = as_density(rho)
    if rho.dims != plan.element.dims:
        raise InvalidElementError(f"state dims {rho.dims} do not match plan dims {plan.element.dims}")
    return apply_estimator(plan, all_probabilities(plan, rho))
