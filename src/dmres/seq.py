"""Sequential two-coupling baseline with calibrated linear inversion.

Each coupled qudit gets two projector couplings, the target-index
projector first and the uniform-superposition projector second, each
with its own qubit meter.  Joint measurements on the post-selected
meters carry the element information; the estimator is therefore
restricted to full-product meter correlators at the two post-selection
outcomes and made exactly unbiased at the working strength by a
minimum-norm linear solve.  The solve reads the correlator rows from
the plan's unrotated columns; only a calibration over the whole outcome
space (``support="full"``) builds the dense ``response_map`` matrix.
Extraction is ``res.extract_element``: the plan carries the estimator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import numpy as np

from .elements import ElementIndex
from .errors import CalibrationError, InvalidCouplingError, InvalidElementError
from .linalg import SIGMA_X, SIGMA_Y, projector
from .operators import uniform_superposition_projector
from .plans import (
    CalibrationInfo,
    Coupling,
    PlanFamily,
    ProtocolPlan,
    SEQ_SCHEME,
    SINGULAR_TOL,
    base_amplitudes,
    enumerate_settings,
    finite_strengths,
    post_selected_blocks,
    readout_amplitudes,
    sign_products,
)

RESIDUAL_TOL = 1e-8

# Absolute singular-value floor for the calibration solve.  Response
# entries are exact up to ~1e-14 absolute rounding noise; directions
# below the floor are noise, not signal, and must not be inverted.
SV_FLOOR = 1e-13


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


@functools.cache
def _flip_phases(n_meters: int) -> np.ndarray:
    """phase[b, o] with Sigma_b = diag(phase[b]) J for every setting b.

    sigma_x and sigma_y vanish on their diagonal, so the setting's Pauli
    product Sigma_b sends meter pattern q to its complement: J is the
    exchange matrix and phase[b, o] = prod_i sigma_{b_i}[o_i, 1 - o_i],
    each in {+-1, +-i}.  Rows follow ``enumerate_settings`` and columns
    the readout pattern order, meter 0 most significant in both.
    """
    paulis = np.stack([SIGMA_X, SIGMA_Y])
    if np.any(np.diagonal(paulis, axis1=-2, axis2=-1)):
        raise AssertionError("the meter Paulis must vanish on their diagonal")
    anti = paulis[:, [0, 1], [1, 0]]  # anti[b, o] = sigma_b[o, 1 - o]
    phase = np.ones((1, 1), dtype=complex)
    for _ in range(n_meters):
        phase = (phase[:, None, :, None] * anti[None, :, None, :]).reshape(2 * len(phase), -1)
    phase.setflags(write=False)
    return phase


def _correlator_response(base: np.ndarray, outcomes: list[int]) -> np.ndarray:
    """Rows of the response map restricted to normalized full correlators.

    Row (setting b, system outcome k) holds
    Tr[B (A_k^dag Sigma_b A_k)] / sqrt(2^m) per basis element B, with
    A_k the meter-block amplitudes for outcome k and Sigma_b the tensor
    product of the setting's Pauli readouts.  Sigma_b A_k is A_k with
    its meter patterns reversed and each row scaled by a phase in
    {+-1, +-i}, which is exact in every bit.  Computing the matrix
    element directly keeps every term at the full correlator order in
    g, so no precision is lost to cancellation at weak coupling.  A
    strength stack of ``base`` gives one row block per strength, (G,
    rows, basis).  ``base`` is a plan's unrotated columns.
    """
    d = base.shape[-1]
    n_patterns = base.shape[-2] // d
    lead = base.shape[:-2]
    blocks = base.reshape(lead + (d, n_patterns, d))[..., outcomes, :, :]
    phase = _flip_phases(n_patterns.bit_length() - 1)
    phase = phase.reshape((-1,) + (1,) * (blocks.ndim - 2) + (n_patterns, 1))
    sigma_blocks = phase * blocks[..., ::-1, :]
    # a phase times a signed zero may give -0, where summing a Pauli row's
    # two products always gives +0; the Gram product's bits depend on it
    sigma_blocks += 0.0
    gmat = blocks.conj().swapaxes(-1, -2) @ sigma_blocks  # (settings, ..., outcomes, d, d)
    rows = basis_traces(gmat).real / np.sqrt(n_patterns)
    rows = np.moveaxis(rows, 0, len(lead))
    return rows.reshape(lead + (-1, rows.shape[-1]))


def _correlator_signs(n_meters: int) -> np.ndarray:
    return sign_products(n_meters) / np.sqrt(2 ** n_meters)


def _correlator_coefficients(plan: ProtocolPlan | PlanFamily, outcomes: list[int],
                             z: np.ndarray) -> np.ndarray:
    """Scatter one weight per (setting, outcome k) onto that block's meter signs.

    The blocks form an orthonormal basis of the restricted coefficient
    subspace; the result is the full (..., n_settings, outcomes) table
    for weights z of shape (..., n_settings * len(outcomes)).
    """
    m = plan.n_meters
    lead = z.shape[:-1]
    coeff = np.zeros(lead + (plan.n_settings, plan.element.dim, 2 ** m))
    z = z.reshape(lead + (plan.n_settings, len(outcomes), 1))
    coeff[..., outcomes, :] = z * _correlator_signs(m)
    return coeff.reshape(lead + (plan.n_settings, -1))


def _correlator_weights(plan: ProtocolPlan | PlanFamily, outcomes: list[int], w: np.ndarray) -> np.ndarray:
    """Diagonal of S^T diag(w) S for the scatter S: block sums of w sign^2."""
    lead = w.shape[:-1]
    blocks = w.reshape(lead + (plan.n_settings, plan.element.dim, -1))[..., outcomes, :]
    sums = (blocks * _correlator_signs(plan.n_meters) ** 2).sum(-1)
    return sums.reshape(lead + (-1,))


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


def calibrate_estimator(
    plan: ProtocolPlan | PlanFamily,
    support: str = "correlator",
    weights: np.ndarray | None = None,
):
    """Minimum-norm unbiased coefficients for the Re and Im functionals.

    ``support='correlator'`` restricts the estimator to full-product
    meter correlators at the two post-selection outcomes, the joint
    statistics the sequential readout actually uses; their rows come
    from the plan's unrotated columns ``base``.  ``support='full'``
    solves over the whole outcome space, on the rows of
    ``response_map(plan)``.  ``weights`` switches to the
    per-state-optimal variant: coefficients minimizing the predicted
    shot variance sum(c^2 w) instead of the plain norm.

    For a plan this returns (coeff_re, coeff_im, info).  For a
    ``PlanFamily`` every strength is solved in one stacked pass and the
    tables gain a leading strength axis, with one ``CalibrationInfo`` per
    strength; a plan is the stack of one.  The first strength, in grid
    order, whose residual exceeds ``RESIDUAL_TOL`` raises
    ``CalibrationError``.
    """
    if support == "correlator":
        rows = _correlator_response(plan.base, list(post_selected_blocks(plan.element)))
    elif support == "full":
        rows = response_map(plan)
    else:
        raise CalibrationError(f"unknown calibration support {support!r}")
    c_re, c_im, infos = _solve(plan, rows, support, weights)
    if isinstance(plan, PlanFamily):
        return c_re, c_im, infos
    return c_re[0], c_im[0], infos[0]


def _solve(plan: ProtocolPlan | PlanFamily, rows: np.ndarray, support: str,
           weights: np.ndarray | None):
    """``calibrate_estimator`` on response rows already computed for ``support``.

    Returns tables with a leading strength axis, one ``CalibrationInfo``
    per strength.
    """
    gs = plan.gs if isinstance(plan, PlanFamily) else (plan.g,)
    targets = np.stack(_targets(plan.element))
    restricted = support == "correlator"
    outcomes = list(post_selected_blocks(plan.element))
    a_mat = rows.reshape((len(gs),) + rows.shape[-2:]).swapaxes(-1, -2)  # basis x subspace

    if weights is not None:
        w = np.asarray(weights, dtype=float).reshape(-1, plan.n_settings * plan.outcomes_per_setting)
        # Restricted columns have disjoint outcome support, so the
        # quadratic form S^T diag(w) S is diagonal.
        wz = _correlator_weights(plan, outcomes, w) if restricted else w
        scale = 1.0 / np.sqrt(np.maximum(wz, 1e-12))
        a_mat = a_mat * scale[:, None, :]
    else:
        scale = None

    z, residuals, smallest = _min_norm_solve(a_mat, targets)
    for g, res, sv in zip(gs, residuals, smallest):
        if max(res) > RESIDUAL_TOL:
            raise CalibrationError(
                f"calibration infeasible at g={g!r}: residual {max(res):.3e} "
                f"exceeds {RESIDUAL_TOL:g} (smallest usable singular value {sv:.3e}, "
                f"floor {SV_FLOOR:g})"
            )
    if scale is not None:
        z = z * scale[:, None, :]
    if restricted:
        coeff = _correlator_coefficients(plan, outcomes, z)
    else:
        coeff = z
    method = f"min-norm/{support}" + ("" if weights is None else "+weighted")
    infos = tuple(
        CalibrationInfo(residual_re=float(res[0]), residual_im=float(res[1]),
                        smallest_singular_value=float(sv), method=method)
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
                 base: np.ndarray, blocks: tuple[int, ...], readout: np.ndarray | None = None) -> PlanFamily:
    """The family before calibration: zero coefficients on the stored blocks."""
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
        blocks=blocks,
        readout=readout,
    )


def plan_seq_grid(
    element: ElementIndex,
    gs,
    support: str = "correlator",
    weights: np.ndarray | None = None,
) -> PlanFamily:
    """Build and calibrate the sequential baseline plans at every strength of ``gs``.

    Amplitudes and calibration run once over the stacked strengths; the
    first strength in grid order that is singular or fails calibration
    raises the error its ``plan_seq`` would.  The correlator solve reads
    ``base`` alone, so such a family rotates its readout rows on first
    use; a full-support calibration has rotated every row and keeps them.
    """
    gs = _checked_strengths(element, gs)
    couplings = seq_couplings(element)
    base = base_amplitudes(element.dims, couplings, gs)
    blocks = post_selected_blocks(element) if support == "correlator" else tuple(range(element.dim))
    bare = _bare_family(element, gs, couplings, base, blocks)
    c_re, c_im, infos = calibrate_estimator(bare, support=support, weights=weights)
    readout = bare.block_amplitudes if support == "full" else None
    return replace(bare, coeff_re=c_re, coeff_im=c_im, calibrations=infos, readout=readout)


def _seq_families(members: list[ElementIndex], gs: tuple[float, ...]):
    """Yield the correlator-calibrated family of each element of one seq configuration.

    Members are upper-triangle elements (s < s') in row-major order.  The
    couplings and ``base`` are built once.  Each member rotates, and
    computes correlator rows for, only the blocks no earlier member did:
    members that share the row block s follow one another, the first
    computes it, and a copy of its rows serves the rest and is dropped
    after the last of them.  Each member runs its own solve.
    """
    first = members[0]
    gs = _checked_strengths(first, gs)
    couplings = seq_couplings(first)
    base = base_amplitudes(first.dims, couplings, gs)
    n_patterns = base.shape[-2] // first.dim
    shared = None  # copies of block s's correlator and readout rows
    for i, element in enumerate(members):
        s, s_prime = element.s_flat, element.s_prime_flat
        fresh = [s, s_prime] if shared is None else [s_prime]
        # correlator rows first: their Pauli-rotated temporaries are freed
        # before the readout rows are allocated
        rows = _correlator_response(base, fresh)
        rows = rows.reshape(rows.shape[:-2] + (-1, len(fresh), rows.shape[-1]))
        readout = readout_amplitudes(base, element.dim, fresh)
        if shared is not None:
            rows = np.concatenate([shared[0], rows], axis=-2)
            readout = np.concatenate([shared[1], readout], axis=-2)
            readout.setflags(write=False)
        if i + 1 < len(members) and members[i + 1].s_flat == s:
            if shared is None:
                shared = (rows[..., :1, :].copy(), readout[..., :n_patterns, :].copy())
        else:
            shared = None
        bare = _bare_family(element, gs, couplings, base, (s, s_prime), readout)
        c_re, c_im, infos = _solve(bare, rows.reshape(rows.shape[:-3] + (-1, rows.shape[-1])),
                                   "correlator", None)
        yield replace(bare, coeff_re=c_re, coeff_im=c_im, calibrations=infos)
        # the caller may drop this member before the next one is built
        del bare, readout, rows, c_re, c_im


def plan_seq(
    element: ElementIndex,
    g: float,
    support: str = "correlator",
    weights: np.ndarray | None = None,
) -> ProtocolPlan:
    """Build and calibrate the sequential baseline plan: ``plan_seq_grid`` at one strength."""
    return plan_seq_grid(element, (g,), support, weights)[0]
