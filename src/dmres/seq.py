"""Sequential two-coupling baseline with calibrated linear inversion.

Each coupled qudit gets two projector couplings, the target-index
projector first and the uniform-superposition projector second, each
with its own qubit meter.  Joint measurements on the post-selected
meters carry the element information; the estimator is therefore
restricted to full-product meter correlators at the two post-selection
outcomes and made exactly unbiased at the working strength by a
minimum-norm linear solve.  The solve reads the correlator rows from
the plan's unrotated block rows, so calibration rotates no readout row;
the dense ``response_map`` matrix over every outcome is built only when
asked for.  Relabeling each coupled qudit so that s_n goes to 0 and
s'_n to 1 turns pi[s_n] into pi[0] and leaves the uniform-superposition
projector alone, so elements with one coupled shape dims[C] share one
solve per strength, that of (0...0, 1...1) on dims[C], over the d_C x d_C
Hermitian basis of the coupled block (see ``dmres.plans``).  Extraction
is ``res.extract_element``: the plan carries the estimator, in the
correlator form every plan has.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .elements import ElementIndex, coupled_shape
from .errors import CalibrationError, InvalidCouplingError
from .linalg import projector
from .operators import uniform_superposition_projector
from .plans import (
    CalibrationInfo,
    Coupling,
    PlanBatch,
    ProtocolPlan,
    SEQ_SCHEME,
    SINGULAR_TOL,
    Scheme,
    _canonical_element,
    _flip_phases,
    sign_products,
    stack,
)

RESIDUAL_TOL = 1e-8

# Relative singular-value floor for the calibration solve: directions
# at or below SV_FLOOR times the largest singular value are rounding
# noise, not signal, and are not inverted (numerical rank as in Golub
# and Van Loan, Matrix Computations, 5.4).  Correlator responses scale as
# g^(2m), so an absolute floor would drop real directions at weak
# coupling.
SV_FLOOR = 1e-12

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
    """Read-only flat indices of M[u, v] and M[v, u] in a row-major dim x dim matrix, u < v row-major."""
    iu, iv = np.triu_indices(dim, 1)
    pairs = (iu * dim + iv, iv * dim + iu)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def basis_traces(mats: np.ndarray) -> np.ndarray:
    """Tr(B_b M) for every basis element B_b, read off the entries of M.

    Works on stacks (..., dim, dim) and returns (..., dim^2) complex
    values in ``hermitian_labels`` order: M[u,u], then M[u,v] + M[v,u]
    and i (M[u,v] - M[v,u]) per pair.
    """
    dim = mats.shape[-1]
    flat = mats.reshape(mats.shape[:-2] + (dim * dim,))
    upper, lower = (np.take(flat, index, axis=-1) for index in _upper_pairs(dim))
    pairs = np.stack([upper + lower, 1j * (upper - lower)], axis=-1)
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    return np.concatenate([diag, pairs.reshape(pairs.shape[:-2] + (-1,))], axis=-1)


@functools.cache
def _projectors(d: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only pi[a] and the uniform-superposition projector of a d-level qudit."""
    ops = (projector(d, a), uniform_superposition_projector(d))
    for op in ops:
        op.setflags(write=False)
    return ops


def seq_couplings(element: ElementIndex) -> tuple[Coupling, ...]:
    couplings = []
    for n in element.coupled_set:
        target, uniform = _projectors(element.dims[n], element.s[n])
        couplings.append(Coupling(n, "projector", target, f"pi[{element.s[n]}]@q{n}"))
        couplings.append(Coupling(n, "projector", uniform, f"pi[b]@q{n}"))
    return tuple(couplings)


def response_map(plan: ProtocolPlan) -> np.ndarray:
    """Dense linear map from Hermitian-input coordinates to outcome probabilities.

    One column per Hermitian basis element in ``hermitian_labels`` order
    and one row per (setting, outcome) in plan order.  It reads the full
    stack ``plan.amplitudes``.
    """
    amps = plan.amplitudes
    a = amps.reshape(-1, amps.shape[-1])
    # <a| B |a> = Tr(B G) with G[v, u] = conj(a[v]) a[u]
    return basis_traces(a.conj()[..., :, None] * a[..., None, :]).real


def _targets(element: ElementIndex) -> np.ndarray:
    """Coordinates of the element's Re and Im functionals, (2, basis): B_b[s, s'] per basis element."""
    unit = np.zeros((element.dim, element.dim), dtype=complex)
    unit[element.s_prime_flat, element.s_flat] = 1.0
    t = basis_traces(unit)  # Tr(B_b |s'><s|) = B_b[s, s']
    return np.stack([t.real, t.imag])


def _correlator_response(blocks: np.ndarray) -> np.ndarray:
    """Rows of the response map restricted to normalized full correlators.

    Row (setting b, system outcome k) holds
    Tr[B (A_k^dag Sigma_b A_k)] / sqrt(2^m) per basis element B, with
    A_k the meter-block amplitudes for outcome k and Sigma_b the tensor
    product of the setting's Pauli readouts.  Sigma_b A_k is A_k with
    its meter patterns reversed and each row scaled by a phase in
    {+-1, +-i}, which is exact in every bit; it is formed, multiplied
    and read off for ``FLIP_ENTRIES`` worth of settings at a time, and
    each Gram product A_k^dag (Sigma_b A_k) is the same 2-D product
    whatever the chunk.
    Computing the matrix element directly keeps every term at the full
    correlator order in g, so no precision is lost to cancellation at
    weak coupling.  ``blocks`` are a plan's unrotated ``rows`` of the
    post-selected outcomes, (outcomes, 2^m, d); a strength stack (G,
    outcomes, 2^m, d) gives one row block per strength, (G, rows, basis).
    """
    n_patterns, d = blocks.shape[-2:]
    lead = blocks.shape[:-3]
    adjoint = blocks.conj().swapaxes(-1, -2)
    reversed_blocks = blocks[..., ::-1, :]
    phase = _flip_phases(n_patterns.bit_length() - 1)
    phase = phase.reshape((-1,) + (1,) * (blocks.ndim - 2) + (n_patterns, 1))
    step = max(1, FLIP_ENTRIES // blocks.size)
    # one chunk's rows are all the rows; more chunks fill one array
    rows = np.empty(phase.shape[:1] + adjoint.shape[:-2] + (d * d,)) if step < len(phase) else None
    for lo in range(0, len(phase), step):
        flipped = phase[lo:lo + step] * reversed_blocks
        # a phase times a signed zero may give -0, where summing a Pauli
        # row's two products always gives +0; the Gram product's bits
        # depend on it
        flipped += 0.0
        gmat = adjoint @ flipped  # (settings, ..., outcomes, d, d)
        del flipped  # freed before the next chunk is flipped
        part = basis_traces(gmat).real / np.sqrt(n_patterns)
        if rows is None:
            rows = part
        else:
            rows[lo:lo + step] = part
    rows = np.moveaxis(rows, 0, len(lead))
    return rows.reshape(lead + (-1, rows.shape[-1]))


def _correlator_weights(z: np.ndarray, n_meters: int) -> np.ndarray:
    """Block weights (..., 2, n_settings, 2) of correlator solutions z (..., 2, n_settings * 2).

    The correlators at each (setting, post-selected block) are
    orthonormal: the meter-sign products over sqrt(2^m).  So a solution
    entry z weighs that block with z / sqrt(2^m) times the meter signs.
    """
    return z.reshape(z.shape[:-1] + (-1, 2)) * (sign_products(n_meters)[0] / np.sqrt(2 ** n_meters))


def _min_norm_solve(a_mat: np.ndarray, targets: np.ndarray):
    """Minimum-norm solutions of a_mat[k] z = t for a stack of matrices.

    ``targets`` holds two targets per matrix, (K, 2, basis), or one
    (2, basis) pair that every matrix shares.  Directions with singular
    values at or below ``SV_FLOOR`` times the matrix's largest are
    dropped.  The kept set is a prefix of the sorted singular values, so
    matrices are solved in groups of equal kept rank, each with the same
    products a single solve runs.  Returns the solutions (K, 2, n), the
    residual norms (K, 2) and the smallest kept singular values (K,),
    zero where none is kept.
    """
    u_svd, svals, vt_svd = np.linalg.svd(a_mat, full_matrices=False)
    ranks = (svals > SV_FLOOR * svals[:, :1]).sum(-1)
    targets = np.broadcast_to(targets, a_mat.shape[:1] + targets.shape[-2:])
    z = np.zeros(targets.shape[:2] + a_mat.shape[-1:])
    for r in sorted(set(ranks.tolist()) - {0}):
        idx = slice(None) if (ranks == r).all() else (ranks == r).nonzero()[0]  # views for one group
        u_t = u_svd[idx, :, :r].swapaxes(-1, -2)
        v_s = vt_svd[idx, :r].swapaxes(-1, -2) / svals[idx, None, :r]
        for j in range(targets.shape[1]):
            z[idx, j] = (v_s @ (u_t @ targets[idx, j, :, None]))[..., 0]
    # one layout whatever a_mat's, so the residual's bits follow its values alone
    a_mat = np.ascontiguousarray(a_mat.swapaxes(-1, -2)).swapaxes(-1, -2)
    resid = (a_mat[:, None] @ z[..., None])[..., 0] - targets
    norms = np.sqrt((resid[..., None, :] @ resid[..., :, None])[..., 0, 0])
    smallest = np.where(ranks > 0, svals[np.arange(len(ranks)), np.maximum(ranks, 1) - 1], 0.0)
    return z, norms, smallest


def _solve(rows: np.ndarray, targets: np.ndarray, gs: Sequence[float]):
    """Minimum-norm correlator weights for stacked correlator rows.

    ``rows`` is (K, 2 * n_settings, basis), entry k solved at strength
    ``gs[k]`` for ``targets[k]`` (or one target pair for all).  The
    first entry whose residual exceeds ``RESIDUAL_TOL`` raises
    ``CalibrationError``.  Returns the solutions (K, 2, 2 * n_settings)
    and one ``CalibrationInfo`` per entry.
    """
    z, residuals, smallest = _min_norm_solve(rows.swapaxes(-1, -2), targets)  # basis x subspace
    worst = residuals.max(-1)
    failed = np.flatnonzero(worst > RESIDUAL_TOL)
    if failed.size:
        k = failed[0]
        raise CalibrationError(
            f"calibration infeasible at g={gs[k]!r}: residual {worst[k]:.3e} "
            f"exceeds {RESIDUAL_TOL:g} (smallest usable singular value {smallest[k]:.3e}, "
            f"relative floor {SV_FLOOR:g})"
        )
    infos = tuple(map(CalibrationInfo, *residuals.T.tolist(), smallest.tolist()))
    return z, infos


def calibrated_weights(canonical: ElementIndex, rows: np.ndarray, gs):
    """The seq row's canonical weights: minimum-norm unbiased weights for the Re and Im functionals.

    The estimator is restricted to full-product meter correlators at the
    two post-selection outcomes, the joint statistics the sequential
    readout actually uses; their rows come from the canonical element's
    unrotated block ``rows`` (G, 2, 2^m, d_C), solved once per strength.
    Returns the weights (G, 2, n_settings, 2) and a ``CalibrationInfo``
    per strength.  The first singular strength, in order, raises, then
    the first whose residual exceeds ``RESIDUAL_TOL``.
    """
    for g in gs:
        if singular_strength(g):
            raise InvalidCouplingError(
                f"sin(g)=0 at g={g!r}: no coupling, the projector couplings leave the "
                "meters blank and the sequential estimator is undefined"
            )
    response = _correlator_response(rows)
    z, infos = _solve(response.reshape(len(gs), -1, response.shape[-1]), _targets(canonical), gs)
    n_meters = rows.shape[-2].bit_length() - 1
    return _correlator_weights(z, n_meters).reshape((len(gs), 2, -1, 2)), infos


def calibrate_estimator(plan: ProtocolPlan | PlanBatch):
    """``calibrated_weights`` of a plan's or a stack's block rows; its own weights are not read.

    For a plan this returns (weights, info), with weights (2,
    n_settings, 2) as the plan stores them.  For a ``PlanBatch`` it
    solves once per strength and returns the canonical weights (G, 2,
    n_settings, 2) with one ``CalibrationInfo`` per strength.
    """
    single = isinstance(plan, ProtocolPlan)
    gs = (plan.g,) if single else plan.gs
    dims, pair = (plan.element.dims, plan.post_selectors) if single else (plan.dims, plan.pairs[0])
    weights, infos = calibrated_weights(_canonical_element(coupled_shape(dims, *pair)), plan.rows, gs)
    return (weights[0], infos[0]) if single else (weights, infos)


def singular_strength(g: float) -> bool:
    """Whether seq is undefined at ``g``: its projector couplings leave the meters blank."""
    return abs(math.sin(g)) <= SINGULAR_TOL


SEQ = Scheme(SEQ_SCHEME, seq_couplings, calibrated_weights, singular_strength, meters=2, calibrated=True)


def plan_seq(element: ElementIndex, g: float) -> ProtocolPlan:
    """Build and calibrate the sequential baseline plan: the seq ``stack`` of one."""
    return stack(element.dims, [(element.s_flat, element.s_prime_flat)], SEQ, (g,))[0, 0]
