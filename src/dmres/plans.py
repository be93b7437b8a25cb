"""Measurement protocol plans and the shared probability engine.

A plan fixes the couplings, the meter readout settings and the
estimator coefficients for one density-matrix element.  Everything a
plan needs at evaluation time is captured by per-setting readout
amplitude matrices: with ``A_s`` the (outcomes x system-dim) amplitude
matrix of setting ``s``, the probability of outcome ``o`` for input
``rho`` is ``<a_o| rho |a_o>`` with ``a_o`` the o-th row of ``A_s``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elements import ElementIndex
from .errors import InvalidCouplingError
from .linalg import (
    DensityMatrix,
    Ket,
    SIGMA_Y,
    as_density,
    basis_ket,
    check_joint_dim,
    embed_site,
    kron_all,
)
from .operators import meter_readout_basis
from .stateio import format_float

RES_SCHEME = "res"
SEQ_SCHEME = "seq"

# One tolerance for singular strengths.  res needs |sin(2g)| above it,
# since its estimator divides by sin^l(2g); seq needs |g| above it, since
# its projector couplings otherwise leave the meters blank (at g = pi the
# calibration reports the vanishing singular value instead).  Strength
# grids drop points where |sin(2g)| (res) or |sin(g)| (seq) is below it.
SINGULAR_TOL = 1e-9


@dataclass(frozen=True)
class Coupling:
    """One system-meter coupling: operator ``op`` on ``qudit``, one meter."""

    qudit: int
    kind: str  # "involution" or "projector"
    op: np.ndarray
    label: str


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-meter readout bases, each 'x' or 'y'."""

    meter_bases: tuple[str, ...]

    @property
    def label(self) -> str:
        return "".join(self.meter_bases)


@dataclass(frozen=True)
class CalibrationInfo:
    residual_re: float
    residual_im: float
    smallest_singular_value: float
    method: str


@dataclass(frozen=True)
class ProtocolPlan:
    element: ElementIndex
    scheme: str
    g: float
    couplings: tuple[Coupling, ...]
    settings: tuple[MeasurementSetting, ...]
    post_selectors: tuple[int, int]  # flat indices (s, s')
    coeff_re: np.ndarray  # (n_settings, n_outcomes)
    coeff_im: np.ndarray
    amplitudes: tuple[np.ndarray, ...]  # per-setting readout amplitude matrices
    calibration: CalibrationInfo | None = field(default=None, compare=False)
    has_estimator: bool = True

    @property
    def n_meters(self) -> int:
        return len(self.couplings)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def outcomes_per_setting(self) -> int:
        return self.element.dim * 2 ** self.n_meters

    def coefficients(self) -> np.ndarray:
        return self.coeff_re + 1j * self.coeff_im


def enumerate_settings(n_meters: int) -> tuple[MeasurementSetting, ...]:
    return tuple(
        MeasurementSetting(bases) for bases in itertools.product(("x", "y"), repeat=n_meters)
    )


def sign_products(n_meters: int) -> np.ndarray:
    """Product of meter signs for each outcome pattern, in readout row order."""
    patterns = np.array(list(itertools.product((1, -1), repeat=n_meters)), dtype=float)
    if n_meters == 0:
        return np.ones(1)
    return patterns.prod(axis=1)


def joint_unitary(dims: Sequence[int], couplings: Sequence[Coupling], g: float) -> np.ndarray:
    """Total coupling unitary on system (x) meters; first coupling acts first."""
    dims = tuple(dims)
    d_sys = int(np.prod(dims))
    m = len(couplings)
    joint = d_sys * 2 ** m
    check_joint_dim(joint)
    meter_dims = (2,) * m
    u = np.eye(joint, dtype=complex)
    for i, c in enumerate(couplings):
        big_op = embed_site(c.op, dims, c.qudit)
        if c.kind == "involution":
            sy = embed_site(SIGMA_Y, meter_dims, i)
            factor = np.cos(g) * np.eye(joint) - 1j * np.sin(g) * np.kron(big_op, sy)
        elif c.kind == "projector":
            rot = np.array([[np.cos(g), -np.sin(g)], [np.sin(g), np.cos(g)]], dtype=complex)
            rot_i = embed_site(rot, meter_dims, i)
            factor = np.kron(np.eye(d_sys) - big_op, np.eye(2 ** m)) + np.kron(big_op, rot_i)
        else:
            raise InvalidCouplingError(f"unknown coupling kind {c.kind!r}")
        u = factor @ u
    return u


def base_amplitudes(dims: Sequence[int], couplings: Sequence[Coupling], g: float) -> np.ndarray:
    """Columns are U |u> (x) |0...0> for each system basis ket |u>."""
    d_sys = int(np.prod(dims))
    m = len(couplings)
    u = joint_unitary(dims, couplings, g)
    start = kron_all([np.eye(d_sys, dtype=complex)] + [basis_ket(2, 0).reshape(2, 1)] * m)
    return u @ start  # (d_sys * 2^m) x d_sys


def readout_amplitudes(
    base: np.ndarray,
    settings: Sequence[MeasurementSetting],
    d_sys: int,
) -> tuple[np.ndarray, ...]:
    """Rotate the meter factors of ``base`` into each setting's eigenbasis."""
    out = []
    for s in settings:
        w = kron_all([meter_readout_basis(b) for b in s.meter_bases])
        rot = np.kron(np.eye(d_sys, dtype=complex), w.conj().T)
        out.append(rot @ base)
    return tuple(out)


def setting_probabilities(plan: ProtocolPlan, state: DensityMatrix | Ket, setting_index: int) -> np.ndarray:
    a = plan.amplitudes[setting_index]
    if isinstance(state, Ket):
        return np.abs(a @ state.amplitudes) ** 2
    return np.einsum("ou,uv,ov->o", a, state.entries, a.conj()).real


def all_probabilities(plan: ProtocolPlan, state: DensityMatrix | Ket) -> np.ndarray:
    """(n_settings, outcomes_per_setting) Born probabilities."""
    return np.stack([setting_probabilities(plan, state, i) for i in range(plan.n_settings)])


def functional_matrix(plan: ProtocolPlan) -> np.ndarray:
    """System operator K with estimate(rho) = sum_uv K[u,v] rho[u,v].

    Unbiasedness means K is the single matrix unit at (s, s'), which is
    checkable without any quantum state.
    """
    d = plan.element.dim
    k = np.zeros((d, d), dtype=complex)
    coeff = plan.coefficients()
    for i, a in enumerate(plan.amplitudes):
        k += np.einsum("o,ou,ov->uv", coeff[i], a, a.conj())
    return k


def estimator_operators(plan: ProtocolPlan) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian operators (W_re, W_im) with sum c^2 p = Tr(W rho).

    These give per-state shot variances at unit per-setting exposure as
    linear functionals of the state.
    """
    d = plan.element.dim
    w_re = np.zeros((d, d), dtype=complex)
    w_im = np.zeros((d, d), dtype=complex)
    for i, a in enumerate(plan.amplitudes):
        w_re += np.einsum("o,ou,ov->vu", plan.coeff_re[i] ** 2, a, a.conj())
        w_im += np.einsum("o,ou,ov->vu", plan.coeff_im[i] ** 2, a, a.conj())
    return w_re, w_im


def apply_estimator(plan: ProtocolPlan, probabilities: np.ndarray) -> complex:
    """Contract the coefficient table with (n_settings, n_outcomes) probabilities."""
    if not plan.has_estimator:
        raise InvalidCouplingError(
            "plan carries no estimator coefficients (built at a singular strength)"
        )
    re = float(np.sum(plan.coeff_re * probabilities))
    im = float(np.sum(plan.coeff_im * probabilities))
    return complex(re, im)


def plan_document(plan: ProtocolPlan) -> str:
    """Structured text export of a plan for audit."""
    coeff_table = []
    for i, setting in enumerate(plan.settings):
        for o in range(plan.outcomes_per_setting):
            coeff_table.append(
                {
                    "setting": setting.label,
                    "outcome": o,
                    "re": format_float(plan.coeff_re[i, o]),
                    "im": format_float(plan.coeff_im[i, o]),
                }
            )
    doc = {
        "scheme": plan.scheme,
        "element": {
            "dims": list(plan.element.dims),
            "s": list(plan.element.s),
            "s_prime": list(plan.element.s_prime),
        },
        "g": format_float(plan.g),
        "couplings": [
            {"qudit": c.qudit, "kind": c.kind, "label": c.label} for c in plan.couplings
        ],
        "settings": [s.label for s in plan.settings],
        "post_selectors": list(plan.post_selectors),
        "coefficients": coeff_table,
    }

    def encode(obj):
        if isinstance(obj, dict):
            return "{" + ", ".join(f"{json.dumps(k)}: {encode(v)}" for k, v in obj.items()) + "}"
        if isinstance(obj, list):
            return "[" + ", ".join(encode(v) for v in obj) + "]"
        if isinstance(obj, str):
            try:
                float(obj)
                return obj
            except ValueError:
                return json.dumps(obj)
        return json.dumps(obj)

    return encode(doc) + "\n"


def promote(state: DensityMatrix | Ket) -> DensityMatrix:
    return as_density(state)
