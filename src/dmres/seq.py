"""Sequential two-coupling baseline with calibrated linear inversion.

Each coupled qudit gets two projector couplings, the target-index
projector first and the uniform-superposition projector second, each
with its own qubit meter.  Joint measurements on the post-selected
meters carry the element information; the estimator is therefore
restricted to full-product meter correlators at the two post-selection
outcomes and made exactly unbiased at the working strength by a
minimum-norm linear solve.  The solve reads the correlator rows from
the plan's unrotated columns, so calibration rotates no readout row;
the dense ``response_map`` matrix over every outcome is built only when
asked for.  Extraction is ``res.extract_element``: the plan carries the
estimator, in the correlator form every plan has.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import numpy as np

from .elements import ElementIndex
from .errors import CalibrationError, InvalidCouplingError, InvalidElementError
from .linalg import projector
from .operators import uniform_superposition_projector
from .plans import (
    CalibrationInfo,
    Coupling,
    PlanFamily,
    ProtocolPlan,
    SEQ_SCHEME,
    SINGULAR_TOL,
    _flip_phases,
    base_amplitudes,
    enumerate_settings,
    finite_strengths,
    sign_products,
)

RESIDUAL_TOL = 1e-8

# Absolute singular-value floor for the calibration solve.  Response
# entries are exact up to ~1e-14 absolute rounding noise; directions
# below the floor are noise, not signal, and must not be inverted.
SV_FLOOR = 1e-13

# Complex entries the Pauli-flipped blocks of one correlator response
# may hold at once (256 KiB): settings are flipped that many at a time,
# at least one, so the flip never scales with the strength count.
FLIP_ENTRIES = 2 ** 14


def hermitian_labels(dim: int) -> list[tuple[int, int, str]]:
    """Hermitian basis order: diagonal units, then a symmetric ('re') and an
    antisymmetric ('im') combination for each upper-triangle pair."""
    labels = [(u, u, "d") for u in range(dim)]
    for u, v in itertools.combinations(range(dim), 2):
        labels += [(u, v, "re"), (u, v, "im")]
    return labels


@functools.cache
def _upper_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the upper triangle u < v, row-major."""
    pairs = np.triu_indices(dim, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def basis_traces(mats: np.ndarray) -> np.ndarray:
    """Tr(B_b M) for every basis element B_b, read off the entries of M.

    Works on stacks (..., dim, dim) and returns (..., dim^2) complex
    values in ``hermitian_labels`` order: M[u,u], then M[u,v] + M[v,u]
    and i (M[u,v] - M[v,u]) per pair.
    """
    iu, iv = _upper_pairs(mats.shape[-1])
    upper, lower = mats[..., iu, iv], mats[..., iv, iu]
    pairs = np.stack([upper + lower, 1j * (upper - lower)], axis=-1)
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    return np.concatenate([diag, pairs.reshape(pairs.shape[:-2] + (-1,))], axis=-1)


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


def _seq_configuration(element: ElementIndex) -> tuple:
    """The coupled qudits, each with its row index s_n: what ``seq_couplings`` depend on."""
    return tuple((n, element.s[n]) for n in element.coupled_set)


def response_map(plan: ProtocolPlan | PlanFamily) -> np.ndarray:
    """Dense linear map from Hermitian-input coordinates to outcome probabilities.

    One column per Hermitian basis element in ``hermitian_labels`` order
    and one row per (setting, outcome) in plan order; a family gains a
    leading strength axis.  It reads the full stack ``plan.amplitudes``.
    """
    amps = plan.amplitudes
    a = amps.reshape(amps.shape[:-3] + (-1, amps.shape[-1]))
    # <a| B |a> = Tr(B G) with G[v, u] = conj(a[v]) a[u]
    return basis_traces(a.conj()[..., :, None] * a[..., None, :]).real


def _targets(element: ElementIndex) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the Re and Im element functionals: B_b[s, s'] per basis element."""
    d = element.dim
    unit = np.zeros((d, d), dtype=complex)
    unit[element.s_prime_flat, element.s_flat] = 1.0
    t = basis_traces(unit)  # Tr(B_b |s'><s|) = B_b[s, s']
    return t.real, t.imag


def _correlator_response(base: np.ndarray, outcomes: list[int]) -> np.ndarray:
    """Rows of the response map restricted to normalized full correlators.

    Row (setting b, system outcome k) holds
    Tr[B (A_k^dag Sigma_b A_k)] / sqrt(2^m) per basis element B, with
    A_k the meter-block amplitudes for outcome k and Sigma_b the tensor
    product of the setting's Pauli readouts.  Sigma_b A_k is A_k with
    its meter patterns reversed and each row scaled by a phase in
    {+-1, +-i}, which is exact in every bit; it is formed for
    ``FLIP_ENTRIES`` worth of settings at a time, and each Gram product
    A_k^dag (Sigma_b A_k) is the same 2-D product whatever the chunk.
    Computing the matrix element directly keeps every term at the full
    correlator order in g, so no precision is lost to cancellation at
    weak coupling.  A strength stack of ``base`` gives one row block per
    strength, (G, rows, basis).  ``base`` is a plan's unrotated columns.
    """
    d = base.shape[-1]
    n_patterns = base.shape[-2] // d
    lead = base.shape[:-2]
    blocks = base.reshape(lead + (d, n_patterns, d))[..., outcomes, :, :]
    adjoint = blocks.conj().swapaxes(-1, -2)
    reversed_blocks = blocks[..., ::-1, :]
    phase = _flip_phases(n_patterns.bit_length() - 1)
    phase = phase.reshape((-1,) + (1,) * (blocks.ndim - 2) + (n_patterns, 1))
    gmat = np.empty(phase.shape[:1] + adjoint.shape[:-1] + (d,), dtype=complex)
    step = max(1, FLIP_ENTRIES // blocks.size)
    for lo in range(0, len(phase), step):
        flipped = phase[lo:lo + step] * reversed_blocks
        # a phase times a signed zero may give -0, where summing a Pauli
        # row's two products always gives +0; the Gram product's bits
        # depend on it
        flipped += 0.0
        np.matmul(adjoint, flipped, out=gmat[lo:lo + step])  # (settings, ..., outcomes, d, d)
    rows = basis_traces(gmat).real / np.sqrt(n_patterns)
    rows = np.moveaxis(rows, 0, len(lead))
    return rows.reshape(lead + (-1, rows.shape[-1]))


def _correlator_signs(n_meters: int) -> np.ndarray:
    return sign_products(n_meters) / np.sqrt(2 ** n_meters)


def _correlator_coefficients(plan: ProtocolPlan | PlanFamily, z: np.ndarray) -> np.ndarray:
    """Scatter one weight per (setting, post-selected block) onto that block's meter signs.

    The blocks form an orthonormal basis of the restricted coefficient
    subspace; the result is the full (..., n_settings, outcomes) table
    for weights z of shape (..., n_settings * 2).
    """
    m = plan.n_meters
    lead = z.shape[:-1]
    coeff = np.zeros(lead + (plan.n_settings, plan.element.dim, 2 ** m))
    z = z.reshape(lead + (plan.n_settings, len(plan.blocks), 1))
    coeff[..., list(plan.blocks), :] = z * _correlator_signs(m)
    return coeff.reshape(lead + (plan.n_settings, -1))


def _min_norm_solve(a_mat: np.ndarray, targets: np.ndarray):
    """Minimum-norm solutions of a_mat[k] z = t for a stack of matrices.

    Directions with singular values at or below ``SV_FLOOR`` are dropped.
    The kept set is a prefix of the sorted singular values, so strengths
    are solved in groups of equal kept rank, each with the same products
    a single solve runs.  Returns the solutions (G, 2, n) for the two
    targets, the residual norms (G, 2) and the smallest kept singular
    values (G,), zero where none is kept.
    """
    u_svd, svals, vt_svd = np.linalg.svd(a_mat, full_matrices=False)
    ranks = (svals > SV_FLOOR).sum(-1)
    z = np.zeros((a_mat.shape[0], len(targets), a_mat.shape[-1]))
    for r in sorted(set(ranks.tolist()) - {0}):
        idx = (ranks == r).nonzero()[0]
        u_t = np.ascontiguousarray(u_svd[idx, :, :r]).swapaxes(-1, -2)
        v_s = np.ascontiguousarray(vt_svd[idx, :r]).swapaxes(-1, -2) / svals[idx, None, :r]
        for j, t in enumerate(targets):
            z[idx, j] = (v_s @ (u_t @ t)[..., None])[..., 0]
    resid = (a_mat[:, None] @ z[..., None])[..., 0] - targets
    norms = np.sqrt((resid[..., None, :] @ resid[..., :, None])[..., 0, 0])
    smallest = np.where(ranks > 0, svals[np.arange(len(ranks)), np.maximum(ranks, 1) - 1], 0.0)
    return z, norms, smallest


def calibrate_estimator(plan: ProtocolPlan | PlanFamily):
    """Minimum-norm unbiased coefficients for the Re and Im functionals.

    The estimator is restricted to full-product meter correlators at the
    two post-selection outcomes, the joint statistics the sequential
    readout actually uses; their rows come from the plan's unrotated
    columns ``base``.

    For a plan this returns (coeff_re, coeff_im, info).  For a
    ``PlanFamily`` every strength is solved in one stacked pass and the
    tables gain a leading strength axis, with one ``CalibrationInfo`` per
    strength; a plan is the stack of one.  The first strength, in grid
    order, whose residual exceeds ``RESIDUAL_TOL`` raises
    ``CalibrationError``.
    """
    c_re, c_im, infos = _solve(plan, _correlator_response(plan.base, list(plan.blocks)))
    if isinstance(plan, PlanFamily):
        return c_re, c_im, infos
    return c_re[0], c_im[0], infos[0]


def _solve(plan: ProtocolPlan | PlanFamily, rows: np.ndarray):
    """``calibrate_estimator`` on correlator rows already computed.

    Returns tables with a leading strength axis, one ``CalibrationInfo``
    per strength.
    """
    gs = plan.gs if isinstance(plan, PlanFamily) else (plan.g,)
    targets = np.stack(_targets(plan.element))
    a_mat = rows.reshape((len(gs),) + rows.shape[-2:]).swapaxes(-1, -2)  # basis x subspace
    z, residuals, smallest = _min_norm_solve(a_mat, targets)
    for g, res, sv in zip(gs, residuals, smallest):
        if max(res) > RESIDUAL_TOL:
            raise CalibrationError(
                f"calibration infeasible at g={g!r}: residual {max(res):.3e} "
                f"exceeds {RESIDUAL_TOL:g} (smallest usable singular value {sv:.3e}, "
                f"floor {SV_FLOOR:g})"
            )
    coeff = _correlator_coefficients(plan, z)
    infos = tuple(
        CalibrationInfo(residual_re=float(res[0]), residual_im=float(res[1]),
                        smallest_singular_value=float(sv), method="min-norm/correlator")
        for res, sv in zip(residuals, smallest)
    )
    shape = (len(gs), plan.n_settings, plan.outcomes_per_setting)
    return coeff[:, 0].reshape(shape), coeff[:, 1].reshape(shape), infos


def _checked_strengths(element: ElementIndex, gs) -> tuple[float, ...]:
    """The strengths as floats, once the element is off-diagonal and no strength is singular."""
    if element.is_diagonal:
        raise InvalidElementError(
            f"element {element.label()} is diagonal; use diagonal_element instead"
        )
    gs = finite_strengths(gs)
    for g in gs:
        if abs(g) <= SINGULAR_TOL:
            raise InvalidCouplingError(
                f"g={g!r} is within {SINGULAR_TOL:g} of 0: no coupling, "
                "the sequential estimator is undefined"
            )
    return gs


def _bare_family(element: ElementIndex, gs: tuple[float, ...], couplings: tuple[Coupling, ...],
                 base: np.ndarray) -> PlanFamily:
    """The family before calibration: no estimator coefficients."""
    settings = enumerate_settings(len(couplings))
    no_coefficients = np.broadcast_to(0.0, (len(gs), len(settings), base.shape[-2]))
    return PlanFamily(
        element=element,
        scheme=SEQ_SCHEME,
        gs=gs,
        couplings=couplings,
        settings=settings,
        coeff_re=no_coefficients,
        coeff_im=no_coefficients,
        base=base,
    )


def plan_seq_grid(element: ElementIndex, gs) -> PlanFamily:
    """Build and calibrate the sequential baseline plans at every strength of ``gs``.

    Amplitudes and calibration run once over the stacked strengths; the
    first strength in grid order that is singular or fails calibration
    raises the error its ``plan_seq`` would.
    """
    gs = _checked_strengths(element, gs)
    couplings = seq_couplings(element)
    bare = _bare_family(element, gs, couplings, base_amplitudes(element.dims, couplings, gs))
    c_re, c_im, infos = calibrate_estimator(bare)
    return replace(bare, coeff_re=c_re, coeff_im=c_im, calibrations=infos)


def _seq_families(members: list[ElementIndex], gs: tuple[float, ...]):
    """Yield the correlator-calibrated family of each element of one seq configuration.

    Members are upper-triangle elements (s < s') in row-major order.  The
    couplings and ``base`` are built once.  Each member computes
    correlator rows only for the blocks no earlier member did: members
    that share the row block s follow one another, the first computes
    it, and a copy of its rows serves the rest and is dropped after the
    last of them.  Each member runs its own solve.
    """
    first = members[0]
    gs = _checked_strengths(first, gs)
    couplings = seq_couplings(first)
    base = base_amplitudes(first.dims, couplings, gs)
    shared = None  # a copy of block s's correlator rows
    for i, element in enumerate(members):
        s, s_prime = element.s_flat, element.s_prime_flat
        fresh = [s, s_prime] if shared is None else [s_prime]
        rows = _correlator_response(base, fresh)
        rows = rows.reshape(rows.shape[:-2] + (-1, len(fresh), rows.shape[-1]))
        if shared is not None:
            rows = np.concatenate([shared, rows], axis=-2)
        if i + 1 < len(members) and members[i + 1].s_flat == s:
            if shared is None:
                shared = rows[..., :1, :].copy()
        else:
            shared = None
        bare = _bare_family(element, gs, couplings, base)
        c_re, c_im, infos = _solve(bare, rows.reshape(rows.shape[:-3] + (-1, rows.shape[-1])))
        yield replace(bare, coeff_re=c_re, coeff_im=c_im, calibrations=infos)
        # the caller may drop this member before the next one is built
        del bare, rows, c_re, c_im


def plan_seq(element: ElementIndex, g: float) -> ProtocolPlan:
    """Build and calibrate the sequential baseline plan: ``plan_seq_grid`` at one strength."""
    return plan_seq_grid(element, (g,))[0]
