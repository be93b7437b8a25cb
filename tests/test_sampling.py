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
from dmres.sampling import precision_states, sample_precision_state

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
        d, n = 3, 100000
        rng = stream(2, "haar-moment")
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs(haar_unitary(d, rng).entries[0, 0]) ** 2
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
        d, n = 3, 100000
        rng = stream(6, "diag-means")
        acc = np.zeros(d)
        acc2 = np.zeros(d)
        for _ in range(n):
            v = np.diag(sample_single_qudit(d, rng).entries).real
            acc += v
            acc2 += v * v
        means = acc / n
        stderr = np.sqrt(acc2 / n - means ** 2) / np.sqrt(n)
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
