"""Keyed random streams and Haar-distributed state sampling.

Streams are counter-based (Philox) and keyed by (seed, tag, index), so
any sample can be regenerated independently with bit-identical results.
``stream`` hands Philox its SHA-256 key as the seed sequence, which
gives the state of ``Philox(key=...)`` without drawing OS entropy.
There is one Haar construction: normals, a stacked Ginibre QR, then the
states, all on plain arrays.  ``precision_states`` runs it on a whole
batch; ``sample_precision_state`` runs it on a batch of one and
validates the result.  A batch re-keys one private bit generator per
index to the state a fresh stream of that key starts in (counter zero,
empty buffer, held as plain ints), which draws the same numbers bit for
bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .linalg import DensityMatrix


def _key_bytes(seed: int, tag: str, index: int | None) -> bytes:
    """The 16 key bytes of (seed, tag, index): the head of a SHA-256 digest."""
    payload = f"{seed}|{tag}|{'' if index is None else index}".encode()
    return hashlib.sha256(payload).digest()[:16]


class _Key(np.random.bit_generator.ISeedSequence):
    """A Philox key as a seed sequence: Philox asks it for two uint64 words."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint64) -> np.ndarray:
        return self.key


def stream(seed: int, tag: str, index: int | None = None) -> np.random.Generator:
    """Independent generator for (seed, tag, index): Philox at its key and counter zero."""
    key = np.frombuffer(_key_bytes(seed, tag, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key)))


def _rekeyed_streams(seed: int, tag: str, indices):
    """Yield, per index, a generator drawing as ``stream(seed, tag, index)`` does.

    Every yield is the same generator, re-keyed: its bit generator is set
    to the state a Philox built with the next key starts in, whatever
    the previous draws left in its buffer.  All keys are hashed into one
    buffer up front.  Draw from it before taking the next one, and do not
    keep it.
    """
    keys = np.frombuffer(b"".join(_key_bytes(seed, tag, i) for i in indices), dtype=np.uint64)
    keys = keys.reshape(-1, 2)
    if not len(keys):
        return
    bit_generator = np.random.Philox(_Key(keys[0]))
    fresh = bit_generator.state  # the layout of a new stream, from numpy itself
    # plain ints, which the state setter reads faster than numpy scalars
    fresh["state"]["counter"], fresh["buffer"] = fresh["state"]["counter"].tolist(), fresh["buffer"].tolist()
    rng = np.random.Generator(bit_generator)
    for key in keys.tolist():
        fresh["state"]["key"] = key
        bit_generator.state = fresh
        yield rng


def _haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from (..., 2, d, d) real and imaginary Ginibre normals.

    Column phases are fixed so the triangular factor has a positive real
    diagonal, which makes the QR construction exactly Haar (Mezzadri
    2007).  Stacked inputs run one batched QR.
    """
    z = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _entangled_amplitudes(unitaries: np.ndarray) -> np.ndarray:
    """(count, D) amplitudes of (U_1 x ... x U_N) applied to the maximally
    entangled state, for stacked local unitaries of shape (count, N, d, d)."""
    count, n_qudits, d, _ = unitaries.shape
    psi = np.zeros((count,) + (d,) * n_qudits, dtype=complex)
    for m in range(d):
        psi[(slice(None),) + (m,) * n_qudits] = 1.0 / np.sqrt(d)
    for n in range(n_qudits):
        moved = np.moveaxis(psi, n + 1, 1)
        out = np.matmul(unitaries[:, n], moved.reshape(count, d, d ** (n_qudits - 1)))
        psi = np.moveaxis(out.reshape(moved.shape), 1, n + 1)
    return psi.reshape(count, d ** n_qudits)


def _precision_densities(unitaries: np.ndarray) -> np.ndarray:
    """(count, D, D) precision states from (count, N, d, d) local unitaries.

    One qudit gives V|0><0|V'; more qudits give the local unitaries
    applied to the maximally entangled state.
    """
    vecs = unitaries[:, 0, :, 0] if unitaries.shape[1] == 1 else _entangled_amplitudes(unitaries)
    return vecs[:, :, None] * vecs.conj()[:, None, :]


def sample_precision_state(n_qudits: int, d: int, rng: np.random.Generator) -> DensityMatrix:
    """One validated state of the precision family: the batch of one drawn from ``rng``."""
    normals = rng.standard_normal((1, n_qudits, 2, d, d))
    return DensityMatrix.create(_precision_densities(_haar_unitaries(normals))[0], (d,) * n_qudits)


def precision_states(n_qudits: int, d: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Read-only (count, D, D) batch of the precision state family.

    Entry ``j`` is built from the normals ``stream(seed, f"haar/{n_qudits}x{d}",
    start + j)`` draws first, through one re-keyed generator; one stacked
    QR then builds every unitary, so entry ``j`` equals
    ``sample_precision_state`` on that stream bit for bit.  The states are
    valid by construction and are not validated one by one.
    """
    indices = range(start, start + count)
    normals = np.empty((count, n_qudits, 2, d, d))
    for j, rng in enumerate(_rekeyed_streams(seed, f"haar/{n_qudits}x{d}", indices)):
        rng.standard_normal(out=normals[j])
    rhos = _precision_densities(_haar_unitaries(normals))
    rhos.setflags(write=False)
    return rhos


def random_mixed_state(dims, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random density matrix (normalized Wishart), for tests."""
    if isinstance(dims, (int, np.integer)):
        dims = (int(dims),)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    z = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    m = z @ z.conj().T
    return DensityMatrix.create(m / np.trace(m), dims)
