"""State-preparation families and the dephasing channels used in sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import completely_offdiagonal_pairs
from .errors import InvalidStateError
from .linalg import DensityMatrix, Ket


@dataclass(frozen=True)
class PrepParams:
    """Angles (radians) for either preparation family.

    ``qutrit`` uses (theta1, theta2, phi1, phi2).  ``two-qubit`` uses a
    per-photon triple (theta, phi1, phi2) for each local rotation.
    """

    variant: str
    theta1: float = 0.0
    theta2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    photon1: tuple[float, float, float] = (0.0, 0.0, 0.0)
    photon2: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.variant not in ("qutrit", "two-qubit"):
            raise InvalidStateError(f"unknown preparation variant {self.variant!r}")
        angles = (self.theta1, self.theta2, self.phi1, self.phi2, *self.photon1, *self.photon2)
        if not all(np.isfinite(a) for a in angles):
            raise InvalidStateError("preparation angles must be finite")


def prepare_qutrit(p: PrepParams) -> Ket:
    """Path-encoded pure qutrit state.

    Amplitudes: cos(2 t1) cos(2 t2), cos(2 t1) sin(2 t2) e^{i phi2},
    sin(2 t1) e^{i (phi1 + phi2)}.  The parameterization is normalized
    by construction.
    """
    if p.variant != "qutrit":
        raise InvalidStateError("prepare_qutrit needs variant='qutrit'")
    c1, s1 = np.cos(2 * p.theta1), np.sin(2 * p.theta1)
    c2, s2 = np.cos(2 * p.theta2), np.sin(2 * p.theta2)
    amps = np.array(
        [
            c1 * c2,
            c1 * s2 * np.exp(1j * p.phi2),
            s1 * np.exp(1j * (p.phi1 + p.phi2)),
        ],
        dtype=complex,
    )
    return Ket.create(amps, (3,))


def local_qubit_unitary(theta: float, phi1: float, phi2: float) -> np.ndarray:
    """The 2x2 polarization rotation used on each photon."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array(
        [
            [c * np.exp(-1j * phi1), -s * np.exp(1j * phi2)],
            [s * np.exp(-1j * phi2), c * np.exp(1j * phi1)],
        ],
        dtype=complex,
    )


def prepare_two_qubit(p: PrepParams) -> Ket:
    """Two-photon state: local rotations applied to (|01> + |10>)/sqrt(2).

    Basis convention maps horizontal polarization to |0> and vertical
    to |1>.
    """
    if p.variant != "two-qubit":
        raise InvalidStateError("prepare_two_qubit needs variant='two-qubit'")
    u1 = local_qubit_unitary(*p.photon1)
    u2 = local_qubit_unitary(*p.photon2)
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1.0 / np.sqrt(2.0)
    return Ket.create(np.kron(u1, u2) @ bell, (2, 2))


def dephase(rho: DensityMatrix, gamma: float, mode: str = "all-offdiag") -> DensityMatrix:
    """Scale coherences by gamma.

    ``all-offdiag`` damps every off-diagonal entry and is completely
    positive.  ``completely-offdiag`` damps only entries whose per-qudit
    indices all differ; that restricted map is not completely positive,
    so the output may be indefinite and is flagged instead of rejected.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidStateError(f"dephasing coefficient {gamma!r} outside [0, 1]")
    mat = np.array(rho.entries)
    if mode == "all-offdiag":
        mask = ~np.eye(rho.dim, dtype=bool)
    elif mode == "completely-offdiag":
        mask = np.zeros((rho.dim, rho.dim), dtype=bool)
        mask[completely_offdiagonal_pairs(rho.dims, ordered=True)] = True
    else:
        raise InvalidStateError(f"unknown dephasing mode {mode!r}")
    mat[mask] *= gamma
    return DensityMatrix.create(mat, rho.dims, check_positive=(mode == "all-offdiag"))
