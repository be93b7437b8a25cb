"""Keyed random streams and Haar-distributed state sampling.

Streams are counter-based (Philox) and keyed by (seed, tag, index), so
any sample can be regenerated independently with bit-identical results.
``stream`` hands Philox its SHA-256 key as the seed sequence, which
gives the state of ``Philox(key=...)`` without drawing OS entropy.
There is one Haar construction: Box-Muller normals from raw words, only
for the Ginibre columns a state reads, stacked two-pass Gram-Schmidt on
those columns, then the states, all on plain arrays.  A precision
family (n_qudits, d, seed) has the one key of ``stream(seed,
f"haar/{n_qudits}x{d}")``, and its sample j reads the words Philox gives
from counter j B (``haar_stream``), B blocks of four words each.
"""

from __future__ import annotations

import functools
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


def _blocks(n_qudits: int, d: int) -> int:
    """Philox counter blocks (four words each) of one sample: a word per normal, n_qudits 2 d^2 of them."""
    return -(-n_qudits * 2 * d * d // 4)


def haar_stream(n_qudits: int, d: int, seed: int, index: int) -> np.random.Generator:
    """Generator at sample ``index`` of the (n_qudits, d, seed) precision family: its Philox at counter index B."""
    key = np.frombuffer(_key_bytes(seed, f"haar/{n_qudits}x{d}", None), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key), counter=index * _blocks(n_qudits, d)))


@functools.cache
def _normal_layout(n_qudits: int, d: int, columns: int) -> tuple[np.ndarray, ...]:
    """Where the normals of a sample's first ``columns`` Ginibre columns come from.

    Of the normals read, in (qudit, part, row, column) order, the even
    ones are their word pair's r cos theta and the odd ones its
    r sin theta.  Returns the pairs read, each once and in order, the
    index into those pairs of each even and of each odd normal read, and
    the permutation taking the even normals then the odd ones into read
    order; all read-only.
    """
    read = np.arange(n_qudits * 2 * d * d).reshape(n_qudits, 2, d, d)[..., :columns].reshape(-1)
    even = read % 2 == 0
    pairs = np.array(sorted(set(read // 2)))
    layout = (pairs, np.searchsorted(pairs, read[even] // 2), np.searchsorted(pairs, read[~even] // 2),
              np.argsort(np.concatenate([np.flatnonzero(even), np.flatnonzero(~even)])))
    for array in layout:
        array.setflags(write=False)
    return layout


def _ginibre(words: np.ndarray, n_qudits: int, d: int, columns: int | None = None) -> np.ndarray:
    """(count, n_qudits, 2, d, columns) normals from (count, 4 B) raw Philox words.

    Box-Muller on each (even, odd) word pair of a row, with u = (w >> 11)
    2^-53: r = sqrt(-2 ln(1 - u_even)) and theta = 2 pi u_odd give the
    normals r cos theta and r sin theta, in that order.  A row's first
    n_qudits 2 d^2 normals fill (n_qudits, 2, d, d), of which the first
    ``columns`` columns (all by default) are kept.  Only the word pairs
    those columns read are transformed, each normal by its own cos or
    sin alone.
    """
    columns = d if columns is None else columns
    pairs, cos_of, sin_of, order = _normal_layout(n_qudits, d, columns)
    u = (words[:, np.concatenate([2 * pairs, 2 * pairs + 1])] >> np.uint64(11)) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, :len(pairs)]))
    theta = 2.0 * np.pi * u[:, len(pairs):]
    normals = np.concatenate([r[:, cos_of] * np.cos(theta[:, cos_of]), r[:, sin_of] * np.sin(theta[:, sin_of])], 1)
    return normals[:, order].reshape(len(words), n_qudits, 2, d, columns)


def _sum_in_order(terms: np.ndarray, axis: int) -> np.ndarray:
    """Sum over ``axis`` from index 0 up, so each member of a stack sums as it would alone."""
    return functools.reduce(np.add, np.moveaxis(terms, axis, 0))


def _haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """First c columns of Haar unitaries from (..., 2, d, c) real and
    imaginary Ginibre normals, the first c columns of d x d Ginibre
    matrices, shape (..., d, c).

    Two-pass classical Gram-Schmidt on the columns z_k of Z = X + iY:
    twice, v loses its projections on q_0 ... q_{k-1}, all taken from the
    same v; then q_k = v / ||v||.  Sums over rows and over earlier columns
    run in index order.  R's diagonal is ||v|| > 0, the phase fix that
    makes Q exactly Haar (Mezzadri 2007), and the second pass keeps Q
    unitary to rounding (Giraud, Langou and Rozloznik 2005).  Column 0 is
    z_0 / ||z_0||, all a one-qudit state V|0> reads.
    """
    z = np.moveaxis(normals, -3, -1).copy().view(complex)[..., 0]
    q = np.empty_like(z)
    for k in range(z.shape[-1]):
        v = z[..., k]
        for _ in range(2 if k else 0):
            coeffs = _sum_in_order(q[..., :k].conj() * v[..., None], -2)
            v = v - _sum_in_order(q[..., :k] * coeffs[..., None, :], -1)
        q[..., k] = v / np.sqrt(_sum_in_order(v.real * v.real + v.imag * v.imag, -1))[..., None]
    return q


def _entangled_amplitudes(unitaries: np.ndarray) -> np.ndarray:
    """(count, D) amplitudes of (U_1 x ... x U_N) applied to the maximally
    entangled state, for stacked local unitaries of shape (count, N, d, d):
    psi[i_1 ... i_N] = sum_m prod_n U_n[i_n, m] / sqrt(d), m summed in order."""
    count, n_qudits, d, _ = unitaries.shape
    terms = unitaries[:, 0]
    for n in range(1, n_qudits):
        terms = (terms[:, :, None, :] * unitaries[:, n, None, :, :]).reshape(count, d ** (n + 1), d)
    return _sum_in_order(terms, -1) / np.sqrt(d)


def _precision_densities(unitaries: np.ndarray) -> np.ndarray:
    """(count, D, D) precision states from (count, N, d, columns) local unitaries.

    One qudit gives V|0><0|V' and reads column 0 only; more qudits give
    the local unitaries applied to the maximally entangled state.
    """
    vecs = unitaries[:, 0, :, 0] if unitaries.shape[1] == 1 else _entangled_amplitudes(unitaries)
    return vecs[:, :, None] * vecs.conj()[:, None, :]


def _states(words: np.ndarray, n_qudits: int, d: int) -> np.ndarray:
    """(count, D, D) precision states from (count, 4 B) raw Philox words:
    one Haar column per sample for one qudit, all d per qudit otherwise."""
    unitaries = _haar_unitaries(_ginibre(words, n_qudits, d, 1 if n_qudits == 1 else d))
    return _precision_densities(unitaries)


def sample_precision_state(n_qudits: int, d: int, rng: np.random.Generator) -> DensityMatrix:
    """One validated state of the precision family from the next 4 B raw words of ``rng``."""
    words = rng.bit_generator.random_raw((1, 4 * _blocks(n_qudits, d)))
    rho = _states(words, n_qudits, d)[0]
    return DensityMatrix.create(rho, (d,) * n_qudits)


def precision_states(n_qudits: int, d: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Read-only (count, D, D) batch of the precision state family.

    Entry ``j`` is sample ``start + j``, drawn with every other in one
    ``random_raw`` call and one stacked Gram-Schmidt; it equals
    ``sample_precision_state`` on ``haar_stream(n_qudits, d, seed, start
    + j)`` bit for bit.  The states are valid by construction and are
    not validated one by one.
    """
    words = haar_stream(n_qudits, d, seed, start).bit_generator.random_raw((count, 4 * _blocks(n_qudits, d)))
    rhos = _states(words, n_qudits, d)
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
