import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.stats import ks_2samp

from dmres import random_mixed_state, stream
from dmres.sampling import (
    _blocks,
    _entangled_amplitudes,
    _ginibre,
    _haar_unitaries,
    _precision_densities,
    haar_stream,
    precision_states,
    sample_precision_state,
)

from oracles import ks_critical_value, partial_trace, reference_normals, reference_precision_state


class TestStreams:
    def test_keyed_streams_are_reproducible(self):
        a = stream(7, "tag", 3).standard_normal(5)
        b = stream(7, "tag", 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = stream(7, "tag", 3).standard_normal(5)
        assert not np.array_equal(a, stream(7, "tag", 4).standard_normal(5))
        assert not np.array_equal(a, stream(7, "other", 3).standard_normal(5))
        assert not np.array_equal(a, stream(8, "tag", 3).standard_normal(5))

    def test_streams_are_independent_objects(self):
        # drawn alternately, two streams give what each gives drawn alone
        a, b = stream(7, "tag", 3), stream(7, "tag", 4)
        mixed = [(a.standard_normal(3), b.poisson(2.0, 3)) for _ in range(4)]
        a, b = stream(7, "tag", 3), stream(7, "tag", 4)
        alone_a = [a.standard_normal(3) for _ in range(4)]
        alone_b = [b.poisson(2.0, 3) for _ in range(4)]
        assert all(np.array_equal(x, y) for (x, _), y in zip(mixed, alone_a))
        assert all(np.array_equal(x, y) for (_, x), y in zip(mixed, alone_b))


class TestStreamOracle:
    """``stream`` against a Philox built here from the documented key.

    The key is the head of the SHA-256 digest of "seed|tag|index" (an
    empty index for None), read as one little-endian 128-bit integer.
    """

    @staticmethod
    def oracle(seed, tag, index):
        digest = hashlib.sha256(f"{seed}|{tag}|{'' if index is None else index}".encode()).digest()
        return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))

    @staticmethod
    def draws(rng):
        """Normals, Poisson counts below and above the sampler's switch at
        mean 10, a uint32 leaving half a word behind, then raw words."""
        return [rng.standard_normal(7), rng.poisson(3.0, 5), rng.poisson([0.5, 12.0, 4e4, 1e9]),
                rng.integers(0, 2 ** 32, dtype=np.uint32, size=3), rng.bit_generator.random_raw(5),
                rng.standard_normal(2)]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64), tag=st.text(st.characters(codec="utf-8"), max_size=12),
           index=st.one_of(st.none(), st.integers(0, 2 ** 12), st.just(2 ** 40)))
    def test_stream_is_philox_at_its_hashed_key(self, seed, tag, index):
        got, want = self.draws(stream(seed, tag, index)), self.draws(self.oracle(seed, tag, index))
        assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))

    def test_streams_do_not_spawn(self):
        with pytest.raises(TypeError, match="does not implement spawning"):
            stream(1, "spawn").spawn(1)


class TestNormalSource:
    """Box-Muller normals from raw Philox words, two per (even, odd) word pair."""

    def test_first_words_map_to_their_normals(self):
        # the family's key is that of stream(seed, "haar/{n}x{d}"); each
        # word's top 53 bits are its u
        words = haar_stream(1, 3, 17, 0).bit_generator.random_raw(20)
        assert np.array_equal(words, stream(17, "haar/1x3").bit_generator.random_raw(20))
        normals = _ginibre(words[None], 1, 3).reshape(-1)
        u = [(w >> 11) / 2 ** 53 for w in words.tolist()]
        for k in range(0, 18, 2):
            r, theta = math.sqrt(-2 * math.log(1 - u[k])), 2 * math.pi * u[k + 1]
            assert_allclose(normals[k:k + 2], [r * math.cos(theta), r * math.sin(theta)], rtol=1e-14, atol=1e-15)

    def test_extreme_words(self):
        # u = 0 gives r = 0 exactly; the largest word gives the finite tail
        # sqrt(2 * 53 ln 2); theta = 2 pi u_odd, so u_odd = 1/2 flips the sign
        top = np.uint64(2 ** 64 - 1)
        words = np.array([[0, top, top, 0, top, 2 ** 63, 2 ** 63, 0]], dtype=np.uint64)
        normals = _ginibre(words, 1, 2).reshape(-1)
        assert np.array_equal(normals[:2], [0.0, 0.0])
        assert normals[2] == pytest.approx(math.sqrt(106 * math.log(2)), rel=1e-15)
        assert normals[3] == 0.0
        assert normals[4] == pytest.approx(-math.sqrt(106 * math.log(2)), rel=1e-15)
        assert normals[6] == pytest.approx(math.sqrt(2 * math.log(2)), rel=1e-15)

    def test_moments(self):
        # mean 0, variance 1 and fourth moment 3, each within 5 standard
        # errors of the normal law (Var x^2 = 2, Var x^4 = 96)
        x = _ginibre(haar_stream(1, 3, 23, 0).bit_generator.random_raw((40000, 20)), 1, 3).reshape(-1)
        n = x.size
        assert abs(x.mean()) < 5 / math.sqrt(n)
        assert abs((x ** 2).mean() - 1) < 5 * math.sqrt(2 / n)
        assert abs((x ** 4).mean() - 3) < 5 * math.sqrt(96 / n)

    def test_oracle_normals(self):
        words = haar_stream(2, 3, 4, 9).bit_generator.random_raw((1, 36))
        assert np.array_equal(_ginibre(words, 2, 3).reshape(-1), reference_normals(2, 3, 4, 9))

    @pytest.mark.parametrize("system", [(1, 2), (1, 3), (1, 5), (2, 3), (3, 2)])
    def test_leading_columns_are_those_of_all_normals(self, system):
        # a family that reads fewer columns transforms fewer words, to
        # the same bits
        n, d = system
        words = haar_stream(n, d, 8, 0).bit_generator.random_raw((50, 4 * _blocks(n, d)))
        normals = _ginibre(words, n, d)
        for columns in range(1, d + 1):
            assert np.array_equal(_ginibre(words, n, d, columns), normals[..., :columns])

    def test_samples_continue_one_counter(self):
        # sample j + 1's words follow sample j's on one generator
        rng = haar_stream(2, 2, 3, 5)
        first = rng.bit_generator.random_raw(32)
        assert np.array_equal(first[16:], haar_stream(2, 2, 3, 6).bit_generator.random_raw(16))

    @pytest.mark.parametrize("system", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_states_are_pure_and_normalised(self, system):
        rhos = precision_states(*system, seed=31, count=200)
        assert_allclose(np.trace(rhos, axis1=1, axis2=2), 1.0, atol=1e-12)
        assert_allclose(np.einsum("nij,nji->n", rhos, rhos), 1.0, atol=1e-12)


class TestHaarUnitary:
    def test_unitarity(self):
        for d in (2, 3, 5):
            us = _haar_unitaries(stream(0, "haar-test", d).standard_normal((4, 2, d, d)))
            assert_allclose(us @ np.swapaxes(us, -1, -2).conj(), np.broadcast_to(np.eye(d), us.shape),
                            atol=1e-12)

    def test_determinism(self):
        u1 = _haar_unitaries(stream(1, "haar-det", 0).standard_normal((2, 4, 4)))
        u2 = _haar_unitaries(stream(1, "haar-det", 0).standard_normal((2, 4, 4)))
        assert np.array_equal(u1, u2)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_phase_fixed_lapack_qr(self, d):
        # Householder QR, each column times the phase of R's diagonal
        # (Mezzadri 2007), gives the same Q up to rounding
        normals = stream(3, "haar-qr", d).standard_normal((10 ** 4, 2, d, d))
        q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        assert_allclose(_haar_unitaries(normals), q * (diag / np.abs(diag))[:, None, :], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitary_for_nearly_parallel_columns(self, d):
        # every column is column 0 plus a 1e-8 perturbation, so the
        # condition number of X + iY is about 1e8
        normals = stream(5, "haar-ill", d).standard_normal((2, d, d))
        normals[:, :, 1:] = normals[:, :, :1] + 1e-8 * normals[:, :, 1:]
        z = normals[0] + 1j * normals[1]
        assert 1e7 < np.linalg.cond(z) < 1e10
        u = _haar_unitaries(normals)
        assert np.abs(u @ u.conj().T - np.eye(d)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_one_column_is_column_zero(self, d):
        normals = stream(6, "haar-col", d).standard_normal((50, 3, 2, d, d))
        column = _haar_unitaries(normals[..., :1])
        assert column.shape == (50, 3, d, 1)
        assert np.array_equal(column, _haar_unitaries(normals)[..., :1])

    def test_first_moment_matches_haar(self):
        # E |<0|V|0>|^2 = 1/d for the Haar measure
        d, n = 3, 100000
        normals = stream(2, "haar-moment").standard_normal((n, 2, d, d))
        vals = np.abs(_haar_unitaries(normals)[:, 0, 0]) ** 2
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 3 * stderr

    def test_invariance_under_fixed_rotation(self):
        # survival probability distribution is unchanged by a fixed unitary
        d, n = 3, 10000
        w = _haar_unitaries(stream(4, "haar-w").standard_normal((2, d, d)))
        base = precision_states(1, d, 3, n)[:, 0, 0].real
        rotated = (w @ precision_states(1, d, 5, n) @ w.conj().T)[:, 0, 0].real
        stat = ks_2samp(base, rotated).statistic
        assert stat < ks_critical_value(n, n, alpha=0.01)


class TestStateSamplers:
    def test_identity_hook_gives_ground_state(self):
        rho = _precision_densities(np.eye(2, dtype=complex)[None, None])
        assert_allclose(rho[0], np.diag([1.0, 0.0]), atol=1e-15)

    def test_single_qudit_validity(self):
        rng = stream(5, "validity")
        for _ in range(50):
            rho = sample_precision_state(1, 3, rng)
            assert rho.dims == (3,)
            assert abs(np.trace(rho.entries) - 1) < 1e-12
            assert np.linalg.eigvalsh(rho.entries).min() > -1e-10

    def test_diagonal_means(self):
        d, n = 3, 100000
        v = np.diagonal(precision_states(1, d, 6, n), axis1=1, axis2=2).real
        means = v.mean(axis=0)
        stderr = np.sqrt((v * v).mean(axis=0) - means ** 2) / np.sqrt(n)
        assert np.all(np.abs(means - 1 / d) < 4 * stderr)

    def test_entangled_identity_hook_is_bell(self):
        rho = _precision_densities(np.eye(2, dtype=complex)[None, None].repeat(2, axis=1))
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert_allclose(rho[0], np.outer(bell, bell), atol=1e-15)

    @pytest.mark.parametrize("system", [(2, 2), (2, 3), (3, 2), (4, 2)])
    def test_entangled_amplitudes_match_qudit_by_qudit(self, system):
        # each qudit's unitary applied to its own axis of the maximally
        # entangled state, one matmul per qudit
        n, d = system
        us = _haar_unitaries(stream(9, "entangled", n).standard_normal((40, n, 2, d, d)))
        for psi, local in zip(_entangled_amplitudes(us), us):
            want = np.zeros((d,) * n, dtype=complex)
            for m in range(d):
                want[(m,) * n] = 1 / np.sqrt(d)
            for k, u in enumerate(local):
                want = np.moveaxis(np.tensordot(u, want, axes=(1, k)), 0, k)
            assert_allclose(psi, want.reshape(-1), rtol=0, atol=1e-15)

    def test_entangled_norm_and_marginal(self):
        rng = stream(7, "marginal")
        for _ in range(20):
            rho = sample_precision_state(2, 2, rng)
            assert rho.dims == (2, 2)
            assert abs(np.trace(rho.entries @ rho.entries) - 1) < 1e-12  # pure
            reduced = partial_trace(rho.entries, (2, 2), [0])
            assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_random_mixed_state_validity(self):
        rho = random_mixed_state((2, 2), stream(8, "mixed"))
        assert rho.dims == (2, 2)
        assert np.linalg.eigvalsh(rho.entries).min() > -1e-12


class TestBatchedPrecisionStates:
    @settings(max_examples=40, deadline=None)
    @given(
        system=st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (1, 5)]),
        seed=st.integers(min_value=0, max_value=2 ** 32),
        count=st.integers(min_value=0, max_value=24),
        cut=st.integers(min_value=0, max_value=24),
    )
    def test_batch_matches_per_index_draws(self, system, seed, count, cut):
        # batch entries, single draws at each sample's counter and the
        # oracle reading the documented layout agree bit for bit
        n, d = system
        batch = precision_states(n, d, seed, count)
        dim = d ** n
        assert batch.shape == (count, dim, dim)
        assert not batch.flags.writeable
        singles = [sample_precision_state(n, d, haar_stream(n, d, seed, i)).entries for i in range(count)]
        references = [reference_precision_state(n, d, seed, i) for i in range(count)]
        assert np.array_equal(batch, np.array(singles).reshape(count, dim, dim))
        assert np.array_equal(batch, np.array(references).reshape(count, dim, dim))
        cut = min(cut, count)
        assert np.array_equal(precision_states(n, d, seed, cut), batch[:cut])
        assert np.array_equal(precision_states(n, d, seed, count - cut, start=cut), batch[cut:])
