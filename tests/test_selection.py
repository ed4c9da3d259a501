import logging
import math
import re

import numpy as np
import pytest
import scipy.stats

from maxentkit.constraints import ArchitectureMatrix, CoefficientMatrix, is_nested, to_architecture
from maxentkit import constraints, selection
from maxentkit.errors import (
    ConvergenceError,
    InputError,
    NoSolvableCandidateError,
    NotNestedError,
    SolverError,
    SupportViolationError,
)
from maxentkit.ising import (
    SpinModel,
    boltzmann,
    enumerate_models,
    random_params,
    to_coefficients,
)
from maxentkit.selection import (
    ErrorEstimate,
    ModelScore,
    ScoreTable,
    SelectionConfig,
    aic,
    alpha_empirical,
    alpha_lrt,
    asymptotic_test_error,
    asymptotic_training_error,
    bic,
    empirical_p_value,
    expected_entropy,
    lrt_p_value,
    mc_test_error,
    mc_training_error,
    score_arrays,
    select,
    select_arrays,
)
from maxentkit.simplex import entropy, kl_divergence, multinomial_sample
from maxentkit.solver import SolveOptions, fit_linear_system

# 95% quantiles of the chi-square, 50-digit evaluations.
CHI2_Q95_K1 = 3.841458820694124
CHI2_Q95_K8 = 15.50731305586545

# Entropy of (0.5, 0.3, 0.2), 50-digit evaluation.
H_532 = 1.0296530140645735
# exp(-1000 * (log 3 - H_532)), the tail probability of the entropy gap
# of that point under normalization-only constraints at n = 1000.
P_532_NORM_1000 = 1.1255571823906476e-30


def norm_only(n_states):
    return CoefficientMatrix(np.ones((1, n_states)), np.array([1.0]))


def marginal_2x2(m1=0.4, m2=0.7):
    rows = np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    return CoefficientMatrix(rows, np.array([1.0, m1, m2]))


def saturated_2x2(f):
    rows = np.vstack([np.ones(4), np.eye(4)[:3]])
    return CoefficientMatrix(rows, rows @ np.asarray(f))


def score_each(candidates, f, n, ids=None):
    """Each candidate's score as :func:`select` keeps it, ``None`` where
    its fit failed, and the entropy of ``f`` its score table holds."""
    result = select(candidates, f, n, SelectionConfig(), ids=ids)
    failed, scores = set(result.failed_ids), iter(result.scores)
    ids = range(len(candidates)) if ids is None else ids
    return [None if cid in failed else next(scores) for cid in ids], result.scores._h_f


def select_on_scores(scores, n, config, implying=None):
    """:func:`select_arrays` on the columns of ``scores``, where ``None``
    marks a candidate that failed to solve."""
    fields = ("rank", "n_states", "maxent_entropy", "p_value", "bic", "aic")
    rank, n_states, *columns = (
        np.array([getattr(s, k) if s is not None else 0 for s in scores]) for k in fields
    )
    valid = np.array([s is not None for s in scores], dtype=bool)
    return select_arrays(rank, *columns, valid, int(n_states.max()), n, config, implying)


class TestChi2Cdf:
    """The chi-square upper tail of the p-values, ``_chi2_tail``."""

    def test_frozen_quantiles(self):
        tails = selection._chi2_tail(np.array([1, 8]), np.array([CHI2_Q95_K1, CHI2_Q95_K8]))
        assert tails == pytest.approx([0.05, 0.05], abs=1e-12)

    def test_two_dof_closed_form(self):
        xs = np.array([0.0, 0.3, 1.0, 2.5, 10.0, 40.0, 200.0])
        tails = selection._chi2_tail(np.full(xs.size, 2), xs)
        # Relative, so the small tails are held to their own digits.
        assert tails == pytest.approx(np.exp(-xs / 2), rel=1e-13, abs=0.0)

    def test_matches_scipy(self):
        # Every dof of a five-spin sweep and its LRT (1 to 31), and larger
        # ones on both sides of the largest dof whose table is kept.
        dof = np.concatenate([np.arange(1, 32), [40, 64, 255, 256, 1000]])
        xs = np.concatenate([[0.0], np.geomspace(1e-3, 2000.0, 600)])
        k, x = np.meshgrid(dof, xs)
        tails = selection._chi2_tail(k, x)
        expected = scipy.stats.chi2.sf(x, k)
        assert tails == pytest.approx(expected, rel=1e-12, abs=1e-300)
        # An entry's tail does not depend on the others in its call.
        for j, d in enumerate(dof):
            assert np.array_equal(selection._chi2_tail(np.full(xs.size, d), xs), tails[:, j])

    def test_zero_dof_is_one(self):
        assert selection._chi2_tail(np.array([0, 0]), np.array([0.0, 5.0])).tolist() == [1.0, 1.0]
        tails = selection._chi2_tail(np.array([0, 3]), np.array([np.nan, np.nan]))
        assert tails[0] == 1.0 and np.isnan(tails[1])

    def test_monotone_in_x(self):
        # Keeping only the smallest LRT statistic per dof is exact only if
        # the tail never rises with x.
        xs = np.arange(200_001) * 0.002
        for k in [*range(1, 32), 64, 300]:
            vals = selection._chi2_tail(np.full(xs.size, k), xs)
            assert vals[0] == 1.0
            assert np.all(np.diff(vals) <= 0.0), k
            assert vals[-1] < 0.001


class TestEmpiricalPValue:
    def test_point_inside_class_scores_one(self):
        # Uniform f satisfies the normalization-only maximizer exactly.
        assert empirical_p_value(norm_only(4), np.full(4, 0.25), 1000) == 1.0

    def test_saturated_candidate_scores_one(self):
        f = np.array([0.5, 0.3, 0.2])
        rows = np.vstack([np.ones(3), np.eye(3)[:2]])
        system = CoefficientMatrix(rows, rows @ f)
        assert empirical_p_value(system, f, 10**6) == 1.0

    def test_frozen_hand_case(self):
        f = np.array([0.5, 0.3, 0.2])
        p = empirical_p_value(norm_only(3), f, 1000)
        assert p == pytest.approx(P_532_NORM_1000, rel=1e-12)

    def test_decreases_with_n(self):
        f = np.array([0.5, 0.3, 0.2])
        ps = [empirical_p_value(norm_only(3), f, n) for n in (10, 100, 1000)]
        assert ps[0] > ps[1] > ps[2]


class TestNestedDeltas:
    def test_delta_shrinks_as_constraints_grow(self, rng):
        f = rng.dirichlet(np.full(4, 3.0))
        candidates = [
            norm_only(4),
            CoefficientMatrix(
                np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]]),
                np.array([1.0, 0.5]),
            ),
            marginal_2x2(),
            saturated_2x2(f),
        ]
        scores, h_f = score_each(candidates, f, 1000)
        deltas = [s.empirical_delta for s in scores]
        assert all(a >= b - 1e-10 for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] == 0.0
        assert h_f == pytest.approx(entropy(f), abs=1e-15)


class TestLrtPValue:
    def test_requires_nesting(self):
        spin1 = to_architecture(
            CoefficientMatrix(
                np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]]),
                np.array([1.0, 0.4]),
            )
        )
        spin2 = to_architecture(
            CoefficientMatrix(
                np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]]),
                np.array([1.0, 0.7]),
            )
        )
        with pytest.raises(NotNestedError):
            lrt_p_value(spin1, spin2, np.full(4, 0.25), 100)

    def test_saturated_complex_recovers_empirical(self, rng):
        f = rng.dirichlet(np.full(4, 3.0))
        simple = to_architecture(CoefficientMatrix(marginal_2x2().rows, marginal_2x2().rows @ f))
        complex_ = to_architecture(saturated_2x2(f))
        lrt = lrt_p_value(simple, complex_, f, 5000)
        emp = empirical_p_value(marginal_2x2(), f, 5000)
        assert lrt == pytest.approx(emp, rel=1e-12)

    def test_equal_ranks_score_one(self, rng):
        f = rng.dirichlet(np.full(4, 3.0))
        arch = to_architecture(CoefficientMatrix(marginal_2x2().rows, marginal_2x2().rows @ f))
        assert lrt_p_value(arch, arch, f, 1000) == 1.0

    def test_nests_by_rows_not_their_own_moments(self, rng):
        """Both candidates are fitted on the moments of ``f``, so two
        architectures built on other distributions nest by their rows."""
        f_a, f_b, f = rng.dirichlet(np.ones(4), size=3)

        def arch(interactions, p):
            model = SpinModel.from_interactions(interactions, 2)
            return to_architecture(to_coefficients(model, p))

        p = lrt_p_value(arch([(1,)], f_a), arch([(1, 2)], f_b), f, 100)
        assert p == lrt_p_value(arch([(1,)], f), arch([(1, 2)], f), f, 100)
        assert 0.0 < p < 1.0

    def test_state_count_must_match(self):
        with pytest.raises(InputError, match="microstate space"):
            lrt_p_value(to_architecture(norm_only(3)), to_architecture(norm_only(4)),
                        np.full(4, 0.25), 100)

    @staticmethod
    def three_spin_pair(f):
        """The independent and the pairwise three-spin models on ``f``."""
        return [
            to_architecture(to_coefficients(SpinModel.from_interactions(interactions, 3), f))
            for interactions in ([(1,), (2,), (3,)], [(1, 2), (1, 3), (2, 3)])
        ]

    @pytest.mark.parametrize("excluded", [False, True])
    def test_matches_the_batch_scores_exactly(self, rng, excluded):
        f = rng.dirichlet(np.full(8, 3.0))
        if excluded:
            # No state with spins 1 and 2 both up: the pairwise model's
            # (1, 2) moment is zero, which excludes two states.
            f[[3, 7]] = 0.0
            f /= f.sum()
        simple, complex_ = self.three_spin_pair(f)
        n = 100
        (s, c), _ = score_each([simple, complex_], f, n)
        stat = 2.0 * n * max(s.maxent_entropy - c.maxent_entropy, 0.0)
        expected = float(selection._chi2_tail(np.asarray(c.rank - s.rank), np.asarray(stat)))
        assert lrt_p_value(simple, complex_, f, n) == expected
        assert 0.0 < expected < 1.0

    def test_simple_error_raises_first(self, rng):
        f = rng.dirichlet(np.full(8, 3.0))
        simple, complex_ = self.three_spin_pair(f)
        # One Newton step per pass: neither candidate converges.
        options = SolveOptions(max_iterations=1)
        errors = []
        for candidate in (simple, complex_):
            with pytest.raises(SolverError) as info:
                empirical_p_value(candidate, f, 100, options)
            errors.append(str(info.value))
        assert errors[0] != errors[1]
        with pytest.raises(SolverError) as info:
            lrt_p_value(simple, complex_, f, 100, options)
        assert str(info.value) == errors[0]


# A five-state sample with three empty states, and non-binary rows whose
# moments under it sit on a face the exclusion cascade cannot see; the
# Newton Jacobian goes singular on the way there.
F5 = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
SINGULAR_ROWS = np.array([
    [2.0, 0.0, -1.0, 2.0, -1.0],
    [1.0, 2.0, 0.0, 0.0, 2.0],
    [-1.0, 1.0, 0.0, 1.0, 2.0],
])


def on_f5(*rows):
    mat = np.vstack([np.ones(5), *rows])
    return CoefficientMatrix(mat, mat @ F5)


class TestScoreCandidatesBatch:
    def candidates(self):
        return [
            on_f5([1, 0, 1, 0, 1]),
            on_f5([1, 0, 1, 0, 1], [0, 1, 1, 0, 0]),
            on_f5([0, 0, 1, 1, 0]),  # moment zero: excludes two states
            on_f5(*np.eye(5)[:4]),  # saturated
            on_f5([0, 1, 2, 3, 4]),  # non-binary
            on_f5(*SINGULAR_ROWS),  # no solution
            to_architecture(on_f5([1, 0, 1, 0, 1])),
        ]

    def test_matches_per_candidate_scores(self, caplog):
        n = 200
        candidates = self.candidates()
        with caplog.at_level("WARNING", logger="maxentkit.selection"):
            scores, h_f = score_each(candidates, F5, n, ids=list("abcdefg"))
        assert scores[5] is None
        assert "candidate f failed to solve" in caplog.text
        with pytest.raises(SolverError):
            empirical_p_value(candidates[5], F5, n)
        assert [s.rank for s in scores if s is not None] == [2, 3, 3, 5, 2, 2]
        assert h_f == entropy(F5)
        for cand, score in zip(candidates, scores):
            if score is None:
                continue
            assert score.p_value == empirical_p_value(cand, F5, n)
            assert score.bic == bic(cand, F5, n)
            assert score.aic == aic(cand, F5, n)
            assert score.expected_entropy == expected_entropy(cand, F5, n)
            if isinstance(cand, CoefficientMatrix):
                fit = fit_linear_system(CoefficientMatrix(cand.rows, cand.rows @ F5))
                assert score.maxent_entropy == entropy(fit.probabilities)


    def test_partition_architecture_on_a_face(self):
        # Binary canonical rows that partition the states: a block of
        # mass zero is excluded, and the reduced rows keep no all-ones row.
        arch = ArchitectureMatrix(np.kron(np.eye(3), np.ones(2)), np.full(3, 1.0 / 3.0))
        f = np.array([0.1, 0.4, 0.3, 0.2, 0.0, 0.0])
        (score,), _ = score_each([arch], f, 100)
        assert score.rank == 6 - 2
        assert score.maxent_entropy == pytest.approx(math.log(4), abs=1e-12)


class TestLrtReusesCanonicalForms:
    LIBRARY = [to_coefficients(m) for m in enumerate_models(4)]
    TRUTH = SpinModel.from_interactions(((1, 2, 3), (1, 2, 4)), 4)

    @pytest.mark.parametrize(
        "n, empty", [(100, ()), (100, (14, 15)), (10_000, ())],
        ids=["n100", "n100-no-123", "n10000"],
    )
    def test_same_choice_as_fresh_canonical_forms(self, n, empty, monkeypatch):
        """``empty`` lists states given no samples; (14, 15) are those with
        spins 1, 2 and 3 up, so every model holding 1.2.3 excludes states."""
        config = SelectionConfig("hyper_maxent_lrt")
        for seed in range(3):
            rng = np.random.default_rng(seed)
            counts = rng.multinomial(n, boltzmann(random_params(self.TRUTH, rng)).probs)
            counts[list(empty)] = 0
            f = counts / counts.sum()
            induced = [CoefficientMatrix(c.rows, c.rows @ f) for c in self.LIBRARY]
            fresh = [to_architecture(s) for s in induced]
            fits = [fit_linear_system(s) for s in induced]
            for fit, arch in zip(fits, fresh):
                if not fit.excluded.any():
                    assert np.array_equal(fit.architecture.rows, arch.rows)
                    assert np.array_equal(fit.architecture.moments, arch.moments)

            calls = []
            monkeypatch.setattr(
                constraints, "is_nested",
                lambda simple, complex_: calls.append(1) or is_nested(simple, complex_),
            )
            reused = select(self.LIBRARY, f, n, config)
            monkeypatch.undo()
            by_id = {score.architecture_id: score for score in reused.scores}
            expected = select_on_scores(
                [by_id.get(i) for i in range(len(fresh))], n, config,
                lambda i, js: np.array([is_nested(fresh[i], fresh[j]) for j in js], dtype=bool),
            )
            assert (reused.chosen_index, reused.fallback) == expected
            # Nesting reads the candidates' canonical rows alone, with no
            # architecture built on the sample's moments.
            assert calls == []
            n_excluding = sum(bool(fit.excluded.any()) for fit in fits)
            assert (n_excluding > 0) == bool(empty)


    def samples(self):
        """Four samples of the truth, at n = 100 and 10 000."""
        for seed, n in [(0, 100), (1, 100), (2, 10_000), (3, 10_000)]:
            rng = np.random.default_rng(seed)
            counts = rng.multinomial(n, boltzmann(random_params(self.TRUTH, rng)).probs)
            yield counts / n, n

    def test_architectures_nest_by_rows_not_their_own_moments(self):
        """Each architecture is built on the moments of its own random
        distribution.  ``select`` fits it on the sample's moments, and
        nests it by its rows alone, so it selects like the same model
        given as a coefficient system."""
        rng = np.random.default_rng(0)
        arches = [
            to_architecture(c.with_moments(c.rows @ rng.dirichlet(np.ones(16))))
            for c in self.LIBRARY
        ]
        config = SelectionConfig("hyper_maxent_lrt")
        for f, n in self.samples():
            chosen, expected = select(arches, f, n, config), select(self.LIBRARY, f, n, config)
            assert (chosen.chosen_index, chosen.fallback) == (
                expected.chosen_index, expected.fallback)

    def test_mixed_list_nests_like_fresh_architectures(self):
        """On a list of coefficient systems and architectures on unrelated
        moments, nesting agrees with :func:`is_nested` on every
        candidate's architecture on the sample's moments."""
        rng = np.random.default_rng(1)
        mixed = [
            to_architecture(c.with_moments(c.rows @ rng.dirichlet(np.ones(16)))) if i % 2 else c
            for i, c in enumerate(self.LIBRARY)
        ]
        f, _ = next(self.samples())
        fresh = [
            ArchitectureMatrix(c.rows.copy(), c.rows @ f) if i % 2
            else to_architecture(CoefficientMatrix(c.rows.copy(), c.rows @ f))
            for i, c in enumerate(mixed)
        ]
        rank = np.array([arch.rank for arch in fresh])
        implying = selection._nesting_implies(mixed)
        nested = []
        for i in range(len(mixed)):
            js = np.flatnonzero(rank > rank[i])
            nested += [(i, j) for j in js[implying(i, js)].tolist()]
        assert len(nested) > len(mixed)
        assert nested == [
            (i, j) for i in range(len(mixed)) for j in range(len(mixed))
            if rank[j] > rank[i] and is_nested(fresh[i], fresh[j])
        ]


class TestCandidatesReusedAcrossSamples:
    LIBRARY = TestLrtReusesCanonicalForms.LIBRARY

    def test_same_objects_select_like_fresh_copies(self):
        """The candidates cache work that depends on their rows alone; no
        sample may leak into the next through that cache.  States 14 and
        15 get no samples in the first and last sample, so every model
        holding 1.2.3 excludes them there."""
        rng = np.random.default_rng(11)
        q = boltzmann(random_params(TestLrtReusesCanonicalForms.TRUTH, rng)).probs
        sparse = rng.multinomial(100, q)
        sparse[[14, 15]] = 0
        samples = [(sparse / sparse.sum(), 100), (rng.multinomial(10_000, q) / 10_000, 10_000)]
        for f, n in samples + samples[:1]:
            for method in selection.METHODS:
                config = SelectionConfig(method)
                fresh = [CoefficientMatrix(c.rows.copy(), c.moments.copy()) for c in self.LIBRARY]
                assert select(self.LIBRARY, f, n, config) == select(fresh, f, n, config)


class TestInformationCriteria:
    def test_definitions(self, rng):
        f = rng.dirichlet(np.full(4, 3.0))
        n = 1000
        scores, _ = score_each([marginal_2x2()], f, n)
        s = scores[0]
        assert bic(marginal_2x2(), f, n) == pytest.approx(
            2 * n * s.maxent_entropy + s.rank * math.log(n), rel=1e-14
        )
        assert aic(marginal_2x2(), f, n) == pytest.approx(
            2 * n * s.maxent_entropy + 2 * s.rank, rel=1e-14
        )
        # Criterion differences depend only on entropies and ranks.
        assert s.bic - s.aic == pytest.approx(
            s.rank * (math.log(n) - 2.0), rel=1e-12
        )

    def test_expected_entropy_frozen_case(self):
        f = np.array([0.5, 0.3, 0.2])
        val = expected_entropy(norm_only(3), f, 100)
        assert val == pytest.approx(math.log(3) - 0.01, rel=1e-14)
        assert val == pytest.approx(1.0886122886681097, rel=1e-14)


class TestScoreArrays:
    def test_failed_fit_stays_invalid(self):
        # A failed fit is a NaN row; its entropy must stay NaN, or it
        # would score as a valid fit of zero entropy.
        fits = np.array([[0.25, 0.25, 0.25, 0.25], [np.nan] * 4, [0.4, 0.3, 0.2, 0.1]])
        f = np.array([0.7, 0.1, 0.1, 0.1])
        h_hat, h_f, p, _, _, valid = selection._score_fits(
            fits, f, np.array([1, 3, 4]), 100, str
        )
        assert valid.tolist() == [True, False, True]
        assert np.isnan(h_hat[1]) and np.isnan(p[1])
        assert h_hat[0] == entropy(fits[0]) and h_hat[2] == entropy(fits[2])
        assert h_f == entropy(f)

    def test_zero_dof_scores_one(self):
        delta, p, *_ = score_arrays(np.array([1.2]), 1.0, np.array([4]), 4, 100)
        assert delta[0] == pytest.approx(0.2)
        assert p[0] == 1.0

    def test_deficit_within_limit_clipped(self):
        delta, p, _, _, _, deficit = score_arrays(
            np.array([1.0 - 1e-9]), 1.0, np.array([2]), 4, 100
        )
        assert delta[0] == 0.0
        assert p[0] == 1.0
        assert not deficit[0]

    def test_deficit_beyond_limit_flagged(self):
        delta, _, _, _, _, deficit = score_arrays(
            np.array([1.0 - 1e-7, 1.0 + 1e-7]), 1.0, np.array([2, 2]), 4, 100
        )
        assert deficit.tolist() == [True, False]
        assert delta[0] == 0.0

    def test_mixed_dof_matches_scalar_functions(self, rng):
        f = rng.dirichlet(np.full(4, 3.0))
        n = 250
        # Degrees of freedom 3, 1 and 0.
        candidates = [norm_only(4), marginal_2x2(), saturated_2x2(f)]
        fits = [
            fit_linear_system(CoefficientMatrix(c.rows, c.rows @ f)) for c in candidates
        ]
        h_hat = np.array([entropy(fit.probabilities) for fit in fits])
        rank = np.array([fit.rank_effective for fit in fits])
        delta, p, bic_v, aic_v, expected, deficit = score_arrays(h_hat, entropy(f), rank, 4, n)
        assert not deficit.any()
        for k, c in enumerate(candidates):
            assert delta[k] == max(h_hat[k] - entropy(f), 0.0)
            assert p[k] == empirical_p_value(c, f, n)
            assert bic_v[k] == bic(c, f, n)
            assert aic_v[k] == aic(c, f, n)
            assert expected[k] == expected_entropy(c, f, n)
        assert p[2] == 1.0 and p[0] < 1.0 and p[1] < 1.0


class TestThresholds:
    def test_alpha_empirical(self):
        assert alpha_empirical(8, 5, 100) == pytest.approx(0.03)
        assert alpha_empirical(8, 5, 100, prefactor=2.0) == pytest.approx(0.06)

    def test_alpha_lrt(self):
        assert alpha_lrt(8, 4, 6, 1000) == pytest.approx(0.006)
        assert alpha_lrt(8, 4, 6, 1000, prefactor=0.5) == pytest.approx(0.003)

    def test_asymptotic_errors(self):
        assert asymptotic_training_error(15) == 7.0
        assert asymptotic_test_error(32, 15) == 22.5


class TestValidation:
    def test_model_score_rejects_negative_delta(self):
        with pytest.raises(InputError):
            ModelScore("m", 3, 8, 1.0, -1e-3, 0.5, 10.0, 10.0, 1.0)

    def test_model_score_rejects_bad_p(self):
        with pytest.raises(InputError):
            ModelScore("m", 3, 8, 1.0, 0.0, 1.5, 10.0, 10.0, 1.0)

    def test_selection_config(self):
        with pytest.raises(InputError):
            SelectionConfig(method="oracle")
        # Every threshold fails on a NaN or infinite prefactor.
        for prefactor in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                SelectionConfig("hyper_maxent", alpha_prefactor=prefactor)
        # Nor is a bool or a string a prefactor.
        for prefactor in (True, "1"):
            with pytest.raises(InputError, match="alpha_prefactor"):
                SelectionConfig("hyper_maxent", alpha_prefactor=prefactor)
        assert SelectionConfig().method == "bic"

    def test_non_finite_distribution(self):
        # The induced moments are derived without with_moments' checks,
        # so the distribution they come from is checked once instead.
        f = np.array(F5)
        f[2] = np.nan
        for candidates in ([on_f5([1, 0, 1, 0, 1])], [to_architecture(on_f5([1, 0, 1, 0, 1]))]):
            with pytest.raises(InputError, match="finite"):
                select(candidates, f, 100, SelectionConfig())
            with pytest.raises(InputError, match="finite"):
                empirical_p_value(candidates[0], f, 100)

    TWO_SPIN = [to_coefficients(m) for m in enumerate_models(2)]

    def test_select_requires_one_id_per_candidate(self):
        assert len(self.TWO_SPIN) == 5
        with pytest.raises(InputError, match="2 ids for 5 candidates"):
            select(self.TWO_SPIN, np.full(4, 0.25), 100, SelectionConfig(), ids=["a", "b"])

    @pytest.mark.parametrize(
        "f", [[-0.1, 0.5, 0.3, 0.3], [0.25, 0.25, 0.5]], ids=["negative", "short"]
    )
    def test_f_must_be_a_distribution_on_the_candidates_states(self, f):
        model = self.TWO_SPIN[-1]
        with pytest.raises(InputError):
            select(self.TWO_SPIN, f, 100, SelectionConfig())
        for score in (empirical_p_value, bic, aic, expected_entropy):
            with pytest.raises(InputError):
                score(model, f, 100)

    def test_candidates_share_one_state_space(self):
        mixed = self.TWO_SPIN + [norm_only(8), norm_only(4)]
        with pytest.raises(InputError, match="candidate 5 is on 8 states"):
            select(mixed, np.full(4, 0.25), 100, SelectionConfig())

    @pytest.mark.parametrize("n", [0, -5, 2.5, True, 100.0])
    def test_n_must_be_a_positive_integer(self, n):
        f = np.array([0.1, 0.2, 0.3, 0.4])
        model, arch = self.TWO_SPIN[-1], to_architecture(self.TWO_SPIN[-1])
        with pytest.raises(InputError, match="positive integer"):
            select(self.TWO_SPIN, f, n, SelectionConfig())
        for score in (empirical_p_value, bic, aic, expected_entropy):
            with pytest.raises(InputError, match="positive integer"):
                score(model, f, n)
        with pytest.raises(InputError, match="positive integer"):
            lrt_p_value(arch, arch, f, n)

    def test_error_estimate(self):
        with pytest.raises(InputError):
            ErrorEstimate(mean=1.0, std_error=0.1, trials=0)
        with pytest.raises(InputError):
            ErrorEstimate(mean=1.0, std_error=-0.1, trials=3)


def synthetic(idx, rank, p, bic_v=0.0, aic_v=0.0, h=1.0, n_states=8):
    return ModelScore(
        architecture_id=idx,
        rank=rank,
        n_states=n_states,
        maxent_entropy=h,
        empirical_delta=0.0,
        p_value=p,
        bic=bic_v,
        aic=aic_v,
        expected_entropy=h,
    )


class TestSelectScored:
    """:func:`select_arrays` by score, threshold and fallback."""

    def test_bic_argmin_skips_failures(self):
        scores = [
            synthetic(0, 3, 0.5, bic_v=12.0),
            None,
            synthetic(2, 4, 0.5, bic_v=10.0),
        ]
        idx, fallback = select_on_scores(scores, 100, SelectionConfig("bic"))
        assert (idx, fallback) == (2, False)

    def test_aic_tie_breaks_to_first(self):
        scores = [
            synthetic(0, 3, 0.5, aic_v=10.0),
            synthetic(1, 4, 0.5, aic_v=10.0),
        ]
        idx, fallback = select_on_scores(scores, 100, SelectionConfig("aic"))
        assert (idx, fallback) == (0, False)

    def test_all_failed_raises(self):
        with pytest.raises(NoSolvableCandidateError):
            select_on_scores([None, None], 100, SelectionConfig("bic"))

    def test_hyper_maxent_prefers_low_rank_then_high_p(self):
        # Thresholds (8 - rank) / 100: all three pass.
        scores = [
            synthetic(0, 4, 0.5),
            synthetic(1, 4, 0.9),
            synthetic(2, 6, 1.0),
        ]
        idx, fallback = select_on_scores(scores, 100, SelectionConfig("hyper_maxent"))
        assert (idx, fallback) == (1, False)

    def test_hyper_maxent_threshold_scales_with_rank(self):
        # p = 0.03 clears (8 - 6) / 100 = 0.02 but not (8 - 4) / 100.
        scores = [synthetic(0, 4, 0.03), synthetic(1, 6, 0.03)]
        idx, fallback = select_on_scores(scores, 100, SelectionConfig("hyper_maxent"))
        assert (idx, fallback) == (1, False)

    def test_hyper_maxent_prefactor_rescales(self):
        scores = [synthetic(0, 4, 0.03), synthetic(1, 6, 0.03)]
        config = SelectionConfig("hyper_maxent", alpha_prefactor=0.5)
        idx, fallback = select_on_scores(scores, 100, config)
        assert (idx, fallback) == (0, False)

    def test_hyper_maxent_fallback_highest_rank(self):
        scores = [synthetic(0, 2, 0.0), synthetic(1, 3, 0.0)]
        idx, fallback = select_on_scores(scores, 100, SelectionConfig("hyper_maxent"))
        assert (idx, fallback) == (1, True)

    def test_lrt_requires_oracle(self):
        with pytest.raises(InputError):
            select_on_scores(
                [synthetic(0, 4, 1.0)], 100, SelectionConfig("hyper_maxent_lrt")
            )


class TestSelectScoredLrt:
    N = 1000

    def run(self, gap, p0=1.0, p1=1.0):
        scores = [
            synthetic(0, 4, p0, h=1.0 + gap),
            synthetic(1, 6, p1, h=1.0),
        ]
        return select_on_scores(
            scores,
            self.N,
            SelectionConfig("hyper_maxent_lrt"),
            implying=lambda i, js: np.isin(js, {0: [1], 1: []}[i]),
        )

    def test_small_gap_keeps_simple_model(self):
        # Statistic 2 n gap = 1.0; chi-square(2) tail 0.61 clears the
        # pairwise threshold (16 - 4 - 6) / 1000.
        assert self.run(gap=0.0005) == (0, False)

    def test_large_gap_rejects_simple_model(self):
        # Statistic 10.0; tail 0.0067 > 0.006 barely passes, push to 16.
        assert self.run(gap=0.008) == (1, False)

    def test_oracle_asked_only_about_valid_candidates_of_higher_rank(self):
        # Every higher-rank candidate implies and rejects every lower one,
        # so each candidate is tested in turn.
        rank = np.array([4, 6, 6, 4, 7, 5])
        valid = np.array([True, True, False, True, True, True])
        asked = []

        def implying(i, js):
            asked.append((i, js.tolist()))
            return np.ones(js.size, dtype=bool)

        ones = np.ones(rank.size)
        chosen = select_arrays(
            rank, 10.0 - rank, ones, ones, ones, valid, 8, self.N,
            SelectionConfig("hyper_maxent_lrt"), implying,
        )
        assert chosen == (4, False)
        assert asked == [(0, [1, 4, 5]), (3, [1, 4, 5]), (5, [1, 4]), (1, [4]), (4, [])]

    def test_rejected_passers_fall_back_to_highest_rank(self):
        # Only the simple model passes the empirical screen, and the
        # complex one rejects it pairwise.
        idx, fallback = self.run(gap=0.008, p1=0.0)
        assert (idx, fallback) == (1, True)


class TestSelectEndToEnd:
    def test_single_candidate(self):
        f = np.array([0.18, 0.42, 0.12, 0.28])
        result = select([marginal_2x2()], f, 100, SelectionConfig("bic"))
        assert result.chosen_index == 0
        assert not result.fallback

    @pytest.mark.parametrize(
        "method", ["bic", "hyper_maxent", "hyper_maxent_lrt"]
    )
    def test_recovers_generating_model(self, method):
        f = np.array([0.18, 0.42, 0.12, 0.28])
        candidates = [norm_only(4), marginal_2x2(), saturated_2x2(f)]
        result = select(
            candidates, f, 1000, SelectionConfig(method), ids=["norm", "marg", "sat"]
        )
        assert result.chosen_id == "marg"
        assert not result.fallback
        assert result.failed_ids == ()

    def test_aic_on_exact_moments_also_recovers(self):
        f = np.array([0.18, 0.42, 0.12, 0.28])
        candidates = [norm_only(4), marginal_2x2(), saturated_2x2(f)]
        result = select(candidates, f, 1000, SelectionConfig("aic"))
        assert result.chosen_index == 1

    def test_fallback_without_saturated_candidate(self):
        f = np.array([0.497, 0.003, 0.003, 0.497])
        result = select(
            [norm_only(4), marginal_2x2()],
            f,
            10**6,
            SelectionConfig("hyper_maxent"),
        )
        assert result.chosen_index == 1
        assert result.fallback

    def test_score_table_rebuilds_each_score(self, rng):
        f = rng.dirichlet(np.full(4, 3.0))
        candidates = [norm_only(4), marginal_2x2(), saturated_2x2(f)]
        scores, _ = score_each(candidates, f, 100)
        table = select(candidates, f, 100, SelectionConfig("bic")).scores
        assert isinstance(table, ScoreTable)
        assert len(table) == 3
        assert list(table) == scores
        assert table[-1] == scores[-1]
        assert table[1:] == tuple(scores[1:])
        assert table == tuple(scores)
        assert hash(table) == hash(tuple(scores))

    def test_scores_align_with_ids(self, rng):
        f = rng.dirichlet(np.full(4, 3.0))
        result = select(
            [norm_only(4), marginal_2x2()], f, 100, SelectionConfig("bic")
        )
        assert [s.architecture_id for s in result.scores] == [0, 1]


class TestMonteCarloErrors:
    def test_training_error_saturated_three_states(self, rng):
        q = np.array([0.2, 0.3, 0.5])
        rows = np.vstack([np.ones(3), np.eye(3)[:2]])
        model = CoefficientMatrix(rows, rows @ q)
        est = mc_training_error(model, q, 10_000, 300, rng)
        target = asymptotic_training_error(3)
        assert est.trials == 300
        assert abs(est.mean - target) < 3 * est.std_error + 0.05

    def test_test_error_saturated_three_states(self, rng):
        q = np.array([0.2, 0.3, 0.5])
        rows = np.vstack([np.ones(3), np.eye(3)[:2]])
        model = CoefficientMatrix(rows, rows @ q)
        est = mc_test_error(model, q, 10_000, 120, 20, rng)
        target = asymptotic_test_error(3, 3)
        assert abs(est.mean - target) < 3 * est.std_error + 0.1

    def test_underconstrained_training_error_grows_with_n(self, rng):
        q = np.array([0.2, 0.3, 0.5])
        model = norm_only(3)
        small = mc_training_error(model, q, 100, 40, rng)
        large = mc_training_error(model, q, 10_000, 40, rng)
        assert large.mean > 50 * small.mean / 100 * 10

    def test_trials_validated(self, rng):
        with pytest.raises(InputError):
            mc_training_error(norm_only(3), np.full(3, 1 / 3), 100, 0, rng)

    @staticmethod
    def estimates(q, n, trials, test_trials, rng):
        """Both errors of the two-spin saturated model."""
        model = to_coefficients(SpinModel.from_interactions([(1, 2)], 2))
        return (
            lambda: mc_training_error(model, q, n, trials, rng),
            lambda: mc_test_error(model, q, n, trials, test_trials, rng),
        )

    @pytest.mark.parametrize("q, message", [
        ([0.2, 0.5, 0.3, 0.3], "sum to"), ([0.6, 0.5, -0.1, 0.0], "negative"),
    ], ids=["sum_1.3", "negative"])
    def test_q_must_be_a_distribution(self, rng, q, message):
        # numpy's multinomial reads the last entry as the remainder of the
        # others, so an unchecked q that sums to 1.3 never draws that state.
        for estimate in self.estimates(q, 100, 2, 2, rng):
            with pytest.raises(InputError, match=message):
                estimate()

    @pytest.mark.parametrize("n", [True, 2.5], ids=["bool", "fraction"])
    def test_n_must_be_a_positive_integer(self, rng, n):
        for estimate in self.estimates(np.full(4, 0.25), n, 2, 2, rng):
            with pytest.raises(InputError, match="sample size n must be a positive integer"):
                estimate()

    @pytest.mark.parametrize("trials", [True, 2.5], ids=["bool", "fraction"])
    def test_trials_must_be_a_positive_integer(self, rng, trials):
        for estimate in self.estimates(np.full(4, 0.25), 100, trials, 2, rng):
            with pytest.raises(InputError, match="trials must be a positive integer"):
                estimate()

    @pytest.mark.parametrize("test_trials", [True, 2.5, 0], ids=["bool", "fraction", "zero"])
    def test_test_trials_must_be_a_positive_integer(self, rng, test_trials):
        _, test_error = self.estimates(np.full(4, 0.25), 100, 2, test_trials, rng)
        with pytest.raises(InputError, match="test_trials must be a positive integer"):
            test_error()


def _fit_trial(model, counts, n, options):
    system = CoefficientMatrix(model.rows, model.rows @ (counts / n))
    return fit_linear_system(system, options).probabilities


def _scaled_kl_or_inf(f, p, n):
    try:
        return n * kl_divergence(f, p)
    except SupportViolationError:
        return math.inf


def _reference_estimate(values):
    values = np.array(values)
    if np.all(np.isfinite(values)):
        return values.mean(), values.std(ddof=1) / math.sqrt(values.size), values.size
    return values.mean(), math.inf, values.size


def reference_training_error(model, q, n, trials, rng, options=None):
    """The Monte-Carlo training error one trial at a time: draw, fit,
    then n KL(q || fit) by kl_divergence."""
    values = []
    for _ in range(trials):
        p_hat = _fit_trial(model, multinomial_sample(q, n, rng).counts, n, options)
        values.append(_scaled_kl_or_inf(q, p_hat, n))
    return _reference_estimate(values)


def reference_test_error(model, q, n, trials, test_trials, rng, options=None):
    """The Monte-Carlo test error one trial at a time, drawing each
    trial's test samples right after its training sample."""
    values = []
    for _ in range(trials):
        p_hat = _fit_trial(model, multinomial_sample(q, n, rng).counts, n, options)
        draws = rng.multinomial(n, q, size=test_trials)
        values.append(np.mean([_scaled_kl_or_inf(d / n, p_hat, n) for d in draws]))
    return _reference_estimate(values)


class TestMonteCarloMatchesPerTrialFits:
    """One batched refit gives the estimates of a fit per trial."""

    @pytest.fixture(scope="class")
    def five_spin(self):
        truth = SpinModel.from_interactions([(1, 2, 3), (1, 2, 4), (3, 5), (4, 5)], 5)
        q = boltzmann(random_params(truth, np.random.default_rng(4))).probs
        missing = SpinModel.from_interactions([(1, 2, 3), (1, 2, 4), (3, 5)], 5)
        return q, to_coefficients(truth), to_coefficients(missing)

    @pytest.mark.parametrize("which", [1, 2], ids=["truth", "missing_pair"])
    @pytest.mark.parametrize("n", [30, 10_000])
    def test_estimates_agree(self, five_spin, which, n):
        q, model = five_spin[0], five_spin[which]
        got = mc_training_error(model, q, n, 12, np.random.default_rng(n))
        want = reference_training_error(model, q, n, 12, np.random.default_rng(n))
        assert (got.mean, got.std_error, got.trials) == pytest.approx(want, rel=1e-9)
        got = mc_test_error(model, q, n, 8, 5, np.random.default_rng(n + 1))
        want = reference_test_error(model, q, n, 8, 5, np.random.default_rng(n + 1))
        assert (got.mean, got.std_error, got.trials) == pytest.approx(want, rel=1e-9)

    def test_excluded_states_give_infinite_estimates(self):
        """A sample that never sees spin 1 up excludes those states from
        the fit, which q still weighs."""
        q = np.array([0.97, 0.01, 0.01, 0.01])
        rows = np.vstack([np.ones(4), [0, 0, 1, 1], [0, 1, 0, 1]])
        model = CoefficientMatrix(rows, rows @ q)
        got = mc_training_error(model, q, 20, 6, np.random.default_rng(3))
        want = reference_training_error(model, q, 20, 6, np.random.default_rng(3))
        assert math.isinf(want[0])
        assert (got.mean, got.std_error, got.trials) == want

    def test_failed_fit_raises_its_error(self, five_spin):
        q, model = five_spin[0], five_spin[1]
        options = SolveOptions(tolerance=1e-14, max_iterations=1)
        with pytest.raises(SolverError) as want:
            reference_training_error(model, q, 1000, 3, np.random.default_rng(0), options)
        for estimate in (
            lambda rng: mc_training_error(model, q, 1000, 3, rng, options),
            lambda rng: mc_test_error(model, q, 1000, 3, 2, rng, options),
        ):
            with pytest.raises(type(want.value)):
                estimate(np.random.default_rng(0))


@pytest.fixture(scope="module")
def p_values():
    model = SpinModel.from_interactions([(1, 2), (3,)], 3)
    params = random_params(model, np.random.default_rng(5))
    q = boltzmann(params)
    system = to_coefficients(model)
    rng = np.random.default_rng(123)
    n = 10**6
    out = np.empty(1000)
    for t in range(out.size):
        f = rng.multinomial(n, q.probs) / n
        out[t] = empirical_p_value(system, f, n)
    return out, model, n


class TestCalibration:
    """Plug-in p-values of data drawn from a model inside the class."""

    def test_super_uniform_lower_tail(self, p_values):
        ps, _, _ = p_values
        for t in (0.01, 0.05, 0.1):
            assert np.mean(ps < t) <= t + 0.02

    def test_pass_rate_at_scaling_threshold(self, p_values):
        ps, model, n = p_values
        alpha = alpha_empirical(model.n_states, model.rank, n)
        assert np.mean(ps >= alpha) >= 0.99


class TestNonNormalizingArchitecture:
    """An architecture whose rows do not normalize is flagged once per
    sample, and its failed fit reports the residual that its
    convergence test failed on."""

    F = np.array([0.3, 0.3, 0.4])

    @pytest.fixture
    def arch(self):
        return ArchitectureMatrix(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.25]]), np.array([0.5, 0.5]))

    @staticmethod
    def _residual(message):
        return float(re.search(r"residual (\S+) ", message).group(1))

    def test_warns_once_per_sample(self, arch, caplog):
        flat = CoefficientMatrix(np.ones((1, 3)), np.array([1.0]))
        with caplog.at_level(logging.WARNING, logger="maxentkit"):
            result = select([arch, flat], self.F, 100, SelectionConfig(method="hyper_maxent"))
        messages = [record.getMessage() for record in caplog.records]
        assert sum("does not normalize" in m for m in messages) == 1
        assert result.failed_ids == (0,)
        (failed,) = [m for m in messages if "candidate 0 failed to solve" in m]
        assert self._residual(failed) > SolveOptions().tolerance

    def test_failure_reports_the_normalized_residual(self, arch):
        # The iterate meets the moments, but not once it is normalized.
        with pytest.raises(ConvergenceError) as info:
            fit_linear_system(arch.with_moments(arch.rows @ self.F))
        assert self._residual(str(info.value)) > SolveOptions().tolerance
