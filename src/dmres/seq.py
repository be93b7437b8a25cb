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
from .linalg import DensityMatrix, Ket, SIGMA_X, SIGMA_Y, kron_all, projector
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
    promote,
    readout_amplitudes,
    sign_products,
)

RESIDUAL_TOL = 1e-8

# Absolute singular-value floor for the calibration solve.  Response
# entries are exact up to ~1e-14 absolute rounding noise; directions
# below the floor are noise, not signal, and must not be inverted.
SV_FLOOR = 1e-13


def hermitian_basis(dim: int) -> tuple[np.ndarray, list[tuple[int, int, str]]]:
    """Stacked Hermitian basis: diagonal units, then symmetric and
    antisymmetric combinations for each upper-triangle pair."""
    mats = []
    labels = []
    for u in range(dim):
        b = np.zeros((dim, dim), dtype=complex)
        b[u, u] = 1.0
        mats.append(b)
        labels.append((u, u, "d"))
    for u, v in itertools.combinations(range(dim), 2):
        b = np.zeros((dim, dim), dtype=complex)
        b[u, v] = b[v, u] = 1.0
        mats.append(b)
        labels.append((u, v, "re"))
        b = np.zeros((dim, dim), dtype=complex)
        b[u, v] = -1.0j
        b[v, u] = 1.0j
        mats.append(b)
        labels.append((u, v, "im"))
    return np.stack(mats), labels


@dataclass(frozen=True)
class ResponseMap:
    """Linear map from Hermitian-input coordinates to outcome probabilities.

    ``matrix`` has one column per Hermitian basis element (diagonal
    units first, then paired re/im combinations) and one row per
    (setting, outcome) in plan order.  It is computed on first use:
    the default correlator calibration reads only the basis.
    """

    plan: ProtocolPlan
    basis: np.ndarray
    basis_labels: list

    @cached_property
    def matrix(self) -> np.ndarray:
        cols = []
        for a in self.plan.amplitudes:
            cols.append(np.einsum("ou,buv,ov->bo", a, self.basis, a.conj()).real)
        return np.concatenate(cols, axis=1).T  # rows: (setting, outcome); cols: basis

    def coordinates(self, hermitian: np.ndarray) -> np.ndarray:
        """Expansion coefficients of a Hermitian matrix in the map's basis."""
        m = np.asarray(hermitian, dtype=complex)
        coords = []
        for b, (u, v, kind) in zip(self.basis, self.basis_labels):
            if kind == "d":
                coords.append(m[u, u].real)
            elif kind == "re":
                coords.append(m[u, v].real)
            else:
                coords.append(-m[u, v].imag)
        return np.array(coords)

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
    """Propagate every Hermitian basis element through the measurement."""
    basis, labels = hermitian_basis(plan.element.dim)
    return ResponseMap(plan=plan, basis=basis, basis_labels=labels)


def _targets(element: ElementIndex, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the Re and Im element functionals in the basis."""
    s, sp = element.s_flat, element.s_prime_flat
    t_re = basis[:, s, sp].real
    t_im = basis[:, s, sp].imag
    return t_re, t_im


def _correlator_response(
    plan: ProtocolPlan, basis: np.ndarray, outcomes: list[int], base: np.ndarray
) -> np.ndarray:
    """Rows of the response map restricted to normalized full correlators.

    Row (setting b, system outcome k) holds
    Tr[B (A_k^dag Sigma_b A_k)] / sqrt(2^m) per basis element B, with
    A_k the meter-block amplitudes for outcome k and Sigma_b the tensor
    product of the setting's Pauli readouts.  Computing the matrix
    element directly keeps every term at the full correlator order in
    g, so no precision is lost to cancellation at weak coupling.
    """
    m = plan.n_meters
    rows = []
    for setting in plan.settings:
        sigma = kron_all([SIGMA_X if b == "x" else SIGMA_Y for b in setting.meter_bases])
        for k in outcomes:
            blk = base[k * 2 ** m:(k + 1) * 2 ** m, :]
            gmat = blk.conj().T @ sigma @ blk
            rows.append(np.einsum("buv,vu->b", basis, gmat).real / np.sqrt(2 ** m))
    return np.array(rows)


def _correlator_vectors(plan: ProtocolPlan, outcomes: list[int]) -> np.ndarray:
    """Orthonormal coefficient-space basis of the restricted subspace."""
    m = plan.n_meters
    n_out = plan.outcomes_per_setting
    signs = sign_products(m) / np.sqrt(2 ** m)
    vecs = []
    for i in range(plan.n_settings):
        for k in outcomes:
            v = np.zeros(plan.n_settings * n_out)
            v[i * n_out + k * 2 ** m:i * n_out + (k + 1) * 2 ** m] = signs
            vecs.append(v)
    return np.array(vecs).T


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
    t_re, t_im = _targets(element, rmap.basis)

    if support == "correlator":
        outcomes = sorted(set(plan.post_selectors))
        if base is None:
            base = base_amplitudes(plan.element.dims, plan.couplings, plan.g)
        a_mat = _correlator_response(plan, rmap.basis, outcomes, base).T  # basis x subspace
        subspace = _correlator_vectors(plan, outcomes)
    elif support == "full":
        a_mat = rmap.matrix.T
        subspace = None
    else:
        raise CalibrationError(f"unknown calibration support {support!r}")

    if weights is not None:
        w = np.asarray(weights, dtype=float).reshape(-1)
        # Restricted columns have disjoint outcome support, so the
        # quadratic form S^T diag(w) S is diagonal.
        wz = (subspace ** 2).T @ w if subspace is not None else w
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
    if subspace is not None:
        c_re = subspace @ z_re
        c_im = subspace @ z_im
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
    rho = promote(rho)
    if rho.dims != plan.element.dims:
        raise InvalidElementError(f"state dims {rho.dims} do not match plan dims {plan.element.dims}")
    return apply_estimator(plan, all_probabilities(plan, rho))
