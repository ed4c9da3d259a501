import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multinomial as scipy_multinomial

from maxentkit.errors import InputError, SupportViolationError
from maxentkit.simplex import (
    CountVector,
    Distribution,
    MicrostateSpace,
    entropy,
    kl_divergence,
    log_multinomial_pmf,
    multinomial_sample,
    prob_array,
)

# 50-digit evaluations of -sum p ln p.
H_HALF_QUARTER_QUARTER = 1.0397207708399180
H_532 = 1.0296530140645735


def simplex_points(min_size=2, max_size=8):
    return (
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=min_size,
            max_size=max_size,
        )
        .map(np.array)
        .map(lambda v: v / v.sum())
    )


class TestMicrostateSpace:
    def test_for_spins_orders_bitstrings(self):
        space = MicrostateSpace.for_spins(2)
        assert space.labels == ("00", "01", "10", "11")
        assert space.size == 4
        assert space.index("10") == 2

    def test_generic_labels(self):
        assert MicrostateSpace.generic(3).labels == ("s0", "s1", "s2")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            MicrostateSpace(("a", "a"))

    def test_unknown_label(self):
        with pytest.raises(InputError):
            MicrostateSpace.for_spins(1).index("2")


class TestDistribution:
    def test_valid_point(self):
        d = Distribution([0.5, 0.25, 0.25])
        assert d.size == 3
        assert not d.probs.flags.writeable

    def test_sum_tolerance(self):
        with pytest.raises(InputError):
            Distribution([0.5, 0.25, 0.25 + 1e-9])

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            Distribution([1.1, -0.1])

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            Distribution([np.nan, 1.0])

    def test_zero_states_reported(self):
        d = Distribution([0.5, 0.0, 0.5])
        assert d.excluded.tolist() == [False, True, False]
        assert d.support.tolist() == [True, False, True]

    def test_ingest_renormalizes_small_drift(self):
        d = Distribution.ingest([0.5, 0.5 + 3e-7])
        assert math.isclose(d.probs.sum(), 1.0, abs_tol=1e-15)

    def test_ingest_rejects_large_drift(self):
        with pytest.raises(InputError):
            Distribution.ingest([0.5, 0.6])

    def test_uniform(self):
        assert np.array_equal(Distribution.uniform(4).probs, np.full(4, 0.25))

    def test_prob_array_passthrough(self):
        d = Distribution([0.25, 0.75])
        assert np.array_equal(prob_array(d), d.probs)
        assert np.array_equal(prob_array([0.25, 0.75]), [0.25, 0.75])

    def test_every_distribution_is_checked(self):
        # No constructor skips the simplex check: the unchecked batch
        # constructor ``stack`` is gone.
        assert not hasattr(Distribution, "stack")


class TestCountVector:
    def test_integral_floats_accepted(self):
        c = CountVector([1.0, 2.0, 0.0])
        assert c.counts.dtype == np.int64
        assert c.total == 3

    def test_fractional_rejected(self):
        with pytest.raises(InputError):
            CountVector([1.5, 2.0])

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            CountVector([-1, 2])

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            CountVector([0, 0])

    def test_to_distribution(self):
        d = CountVector([1, 3]).to_distribution()
        assert np.allclose(d.probs, [0.25, 0.75])


class TestEntropy:
    def test_uniform_is_log_n(self):
        for n in (2, 3, 17):
            assert entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log(n), abs=1e-14)

    def test_point_mass_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_known_values(self):
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(H_HALF_QUARTER_QUARTER, abs=1e-15)
        assert entropy([0.5, 0.3, 0.2]) == pytest.approx(H_532, abs=1e-15)

    def test_zero_padding_invariant(self):
        assert entropy([0.5, 0.5, 0.0]) == entropy([0.5, 0.5])

    @given(simplex_points())
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_log_n(self, p):
        assert -1e-12 <= entropy(p) <= math.log(p.size) + 1e-12


class TestKLDivergence:
    def test_self_divergence_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_uniform_reference_identity(self):
        p = np.array([0.5, 0.3, 0.2])
        expected = math.log(3) - entropy(p)
        assert kl_divergence(p, np.full(3, 1 / 3)) == pytest.approx(expected, abs=1e-14)

    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_zero_mass_outside_support_ok(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            kl_divergence([0.5, 0.5], [1.0])

    @given(simplex_points(min_size=3, max_size=6), simplex_points(min_size=3, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, p, q):
        if p.size != q.size:
            return
        assert kl_divergence(p, q) >= -1e-12


class TestLogMultinomialPmf:
    def test_matches_scipy(self, rng):
        q = np.array([0.2, 0.3, 0.5])
        for _ in range(20):
            counts = rng.multinomial(30, q)
            ours = log_multinomial_pmf(counts, q)
            ref = scipy_multinomial.logpmf(counts, 30, q)
            assert ours == pytest.approx(ref, abs=1e-10)

    def test_normalizes_over_all_count_vectors(self):
        q = np.array([0.5, 0.3, 0.2])
        for n in (1, 4, 6):
            total = 0.0
            for a in range(n + 1):
                for b in range(n - a + 1):
                    total += math.exp(log_multinomial_pmf([a, b, n - a - b], q))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            log_multinomial_pmf([1, 1], [1.0, 0.0])

    def test_zero_count_on_zero_state_allowed(self):
        value = log_multinomial_pmf([2, 0], [1.0, 0.0])
        assert value == pytest.approx(0.0, abs=1e-14)


class TestMultinomialSample:
    def test_total_and_determinism(self):
        q = Distribution([0.1, 0.2, 0.7])
        a = multinomial_sample(q, 500, np.random.default_rng(3))
        b = multinomial_sample(q, 500, np.random.default_rng(3))
        assert a.total == 500
        assert np.array_equal(a.counts, b.counts)

    def test_respects_support(self, rng):
        q = Distribution([0.5, 0.0, 0.5])
        counts = multinomial_sample(q, 200, rng)
        assert counts.counts[1] == 0
