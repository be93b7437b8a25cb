import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.stats import ks_2samp

from dmres import (
    UnitaryMatrix,
    haar_unitary,
    random_mixed_state,
    sample_entangled,
    sample_single_qudit,
    stream,
)
from dmres.linalg import partial_trace
from dmres.sampling import _haar_unitaries, _rekeyed_streams, precision_states, sample_precision_state

from oracles import ks_critical_value


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


def draw_pattern(rng, index):
    """Normals and Poisson counts; some indices end on a uint32 or a single
    uint64, leaving a half-used word or a partly used buffer behind."""
    out = [rng.standard_normal(5 + index % 4), rng.poisson(3.0, 4)]
    if index % 3 == 1:
        out.append(rng.integers(0, 2 ** 32, dtype=np.uint32, size=1))
    elif index % 3 == 2:
        out.append(rng.bit_generator.random_raw(1))
    return out


class TestRekeyedStreams:
    def test_each_index_draws_as_its_own_stream(self):
        indices = list(range(40, 280))
        for index, rng in zip(indices, _rekeyed_streams(11, "rekey", indices), strict=True):
            want = draw_pattern(stream(11, "rekey", index), index)
            got = draw_pattern(rng, index)
            assert all(np.array_equal(x, y) for x, y in zip(got, want)), index

    def test_indices_in_any_order(self):
        indices = [5, None, 0, 5, 2 ** 40]
        for index, rng in zip(indices, _rekeyed_streams(3, "rekey", indices), strict=True):
            assert np.array_equal(rng.standard_normal(7), stream(3, "rekey", index).standard_normal(7))


class TestHaarUnitary:
    def test_unitarity(self):
        for d in (2, 3, 5):
            u = haar_unitary(d, stream(0, "haar-test", d)).entries
            assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)

    def test_determinism(self):
        u1 = haar_unitary(4, stream(1, "haar-det", 0)).entries
        u2 = haar_unitary(4, stream(1, "haar-det", 0)).entries
        assert np.array_equal(u1, u2)

    def test_first_moment_matches_haar(self):
        # E |<0|V|0>|^2 = 1/d for the Haar measure
        # one stacked QR of the normals n single haar_unitary draws read in turn
        d, n = 3, 100000
        normals = stream(2, "haar-moment").standard_normal((n, 2, d, d))
        vals = np.abs(_haar_unitaries(normals)[:, 0, 0]) ** 2
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 3 * stderr

    def test_invariance_under_fixed_rotation(self):
        # survival probability distribution is unchanged by a fixed unitary
        d, n = 3, 10000
        rng = stream(3, "haar-ks")
        w = haar_unitary(d, stream(4, "haar-w")).entries
        base = np.empty(n)
        rotated = np.empty(n)
        for i in range(n):
            rho = sample_single_qudit(d, rng).entries
            base[i] = rho[0, 0].real
            rho2 = sample_single_qudit(d, rng).entries
            rotated[i] = (w @ rho2 @ w.conj().T)[0, 0].real
        stat = ks_2samp(base, rotated).statistic
        assert stat < ks_critical_value(n, n, alpha=0.01)


class TestStateSamplers:
    def test_identity_hook_gives_ground_state(self):
        rho = sample_single_qudit(2, stream(0, "x"), unitary=UnitaryMatrix.create(np.eye(2)))
        assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_single_qudit_validity(self):
        rng = stream(5, "validity")
        for _ in range(50):
            rho = sample_single_qudit(3, rng)
            assert abs(np.trace(rho.entries) - 1) < 1e-12
            assert np.linalg.eigvalsh(rho.entries).min() > -1e-10

    def test_diagonal_means(self):
        # single-qudit precision states are sample_single_qudit draws
        # (TestBatchedPrecisionStates checks the batch against them bit for bit)
        d, n = 3, 100000
        v = np.diagonal(precision_states(1, d, 6, n), axis1=1, axis2=2).real
        means = v.mean(axis=0)
        stderr = np.sqrt((v * v).mean(axis=0) - means ** 2) / np.sqrt(n)
        assert np.all(np.abs(means - 1 / d) < 4 * stderr)

    def test_entangled_identity_hook_is_bell(self):
        eye = UnitaryMatrix.create(np.eye(2))
        ket = sample_entangled(2, 2, stream(0, "y"), unitaries=[eye, eye])
        want = np.zeros(4)
        want[0] = want[3] = 1 / np.sqrt(2)
        assert_allclose(ket.amplitudes, want, atol=1e-15)

    def test_entangled_norm_and_marginal(self):
        rng = stream(7, "marginal")
        for _ in range(20):
            ket = sample_entangled(2, 2, rng)
            assert abs(np.linalg.norm(ket.amplitudes) - 1) < 1e-12
            reduced = partial_trace(np.outer(ket.amplitudes, ket.amplitudes.conj()), (2, 2), [0])
            assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_entangled_needs_two_qudits(self):
        with pytest.raises(ValueError):
            sample_entangled(1, 2, stream(0, "z"))

    def test_random_mixed_state_validity(self):
        rho = random_mixed_state((2, 2), stream(8, "mixed"))
        assert rho.dims == (2, 2)
        assert np.linalg.eigvalsh(rho.entries).min() > -1e-12


class TestBatchedPrecisionStates:
    @settings(max_examples=40, deadline=None)
    @given(
        system=st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3)]),
        seed=st.integers(min_value=0, max_value=2 ** 32),
        count=st.integers(min_value=0, max_value=24),
        cut=st.integers(min_value=0, max_value=24),
    )
    def test_batch_matches_per_index_draws(self, system, seed, count, cut):
        n, d = system
        batch = precision_states(n, d, seed, count)
        dim = d ** n
        assert batch.shape == (count, dim, dim)
        assert not batch.flags.writeable
        singles = [
            sample_precision_state(n, d, stream(seed, f"haar/{n}x{d}", i)).entries
            for i in range(count)
        ]
        assert np.array_equal(batch, np.array(singles).reshape(count, dim, dim))
        cut = min(cut, count)
        assert np.array_equal(precision_states(n, d, seed, cut), batch[:cut])
        assert np.array_equal(precision_states(n, d, seed, count - cut, start=cut), batch[cut:])
