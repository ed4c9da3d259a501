import hashlib
import itertools

import numpy as np
import pytest

from maxentkit.constraints import is_nested, to_architecture
from maxentkit.errors import InputError
from maxentkit.ising import (
    IsingParams,
    SpinModel,
    boltzmann,
    closure,
    energies,
    enumerate_models,
    product_rows,
    random_params,
    to_coefficients,
    tp_fp_rates,
)

G_ISING = ((1, 2, 3), (1, 2, 4), (3, 5), (4, 5))


def brute_force_families(n_spins):
    """All downward-closed families of non-empty subsets, as frozensets."""
    subsets = [
        frozenset(c)
        for r in range(1, n_spins + 1)
        for c in itertools.combinations(range(1, n_spins + 1), r)
    ]
    families = []
    for bits in range(2 ** len(subsets)):
        fam = {s for j, s in enumerate(subsets) if bits >> j & 1}
        if all(
            frozenset(sub) in fam
            for s in fam
            for r in range(1, len(s))
            for sub in itertools.combinations(sorted(s), r)
        ):
            families.append(frozenset(fam))
    return families


class TestClosure:
    def test_includes_all_subsets(self):
        got = closure([(1, 2, 3)], 3)
        assert got == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))

    def test_deduplicates_and_sorts(self):
        assert closure([(2, 1), (1, 2), (3,)], 3) == ((1,), (2,), (3,), (1, 2))

    def test_empty_family(self):
        assert closure([], 4) == ()

    def test_validates_spin_range(self):
        with pytest.raises(InputError):
            closure([(0, 1)], 3)
        with pytest.raises(InputError):
            closure([(4,)], 3)
        with pytest.raises(InputError):
            closure([()], 3)

    def test_duplicate_spins_collapse(self):
        assert closure([(1, 1)], 3) == ((1,),)

    def test_g_ising_closure_size(self):
        assert len(closure(G_ISING, 5)) == 14


class TestSpinModel:
    def test_requires_canonical_closure(self):
        with pytest.raises(InputError):
            SpinModel(n_spins=3, interactions=((1, 2),))
        with pytest.raises(InputError):
            SpinModel(n_spins=3, interactions=((2,), (1,)))

    def test_from_interactions_closes(self):
        model = SpinModel.from_interactions([(1, 2)], 3)
        assert model.interactions == ((1,), (2,), (1, 2))
        assert model.rank == 4
        assert model.n_states == 8

    def test_maximal_interactions(self):
        model = SpinModel.from_interactions(G_ISING, 5)
        assert model.maximal_interactions == ((3, 5), (4, 5), (1, 2, 3), (1, 2, 4))

    def test_label(self):
        assert SpinModel.from_interactions([], 3).label == "none"
        assert SpinModel.from_interactions(G_ISING, 5).label == "3.5+4.5+1.2.3+1.2.4"

    def test_contains_matches_closure_inclusion(self):
        models = enumerate_models(3)
        for a in models:
            for b in models:
                expected = set(b.interactions) <= set(a.interactions)
                assert a.contains(b) == expected

    @pytest.mark.parametrize("n_spins", [2.5, 2.0, True, "2", 0])
    def test_spin_count_must_be_positive_integer(self, n_spins):
        with pytest.raises(InputError):
            SpinModel(n_spins=n_spins, interactions=())
        with pytest.raises(InputError):
            SpinModel.from_interactions([(1,)], n_spins)

    def test_numpy_integer_spin_count(self):
        model = SpinModel.from_interactions([(1, 2)], np.int64(3))
        assert model == SpinModel(n_spins=3, interactions=((1,), (2,), (1, 2)))
        assert model.n_states == 8

    def test_contains_rejects_mixed_spin_counts(self):
        with pytest.raises(InputError):
            SpinModel.from_interactions([], 2).contains(
                SpinModel.from_interactions([], 3)
            )


# sha256 of repr([m.interactions for m in enumerate_models(L)]).
ENUMERATION_SHA256 = {
    1: "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a",
    2: "b49b65da6a83c3b73492c0ff4e33491626cd427067cd512eb9aa321d893fb700",
    3: "be50cda8ae522c5eb6f5a711369af68a42edd2de0ec4e52dde28f630d9eea207",
    4: "040928740a3615d816a9d055126afb8e7889d1e46fc6330a6b6909a54b24ee91",
    5: "f4245a783072b4b257cbcad68b661a9824a97480f63ab390b677d78425b0e97c",
}


class TestEnumerateModels:
    @pytest.mark.parametrize("n_spins,count", [(1, 2), (2, 5), (3, 19), (4, 167)])
    def test_counts(self, n_spins, count):
        assert len(enumerate_models(n_spins)) == count

    @pytest.mark.parametrize("n_spins", [1, 2, 3, 4])
    def test_matches_brute_force(self, n_spins):
        got = {frozenset(map(frozenset, m.interactions)) for m in enumerate_models(n_spins)}
        expected = set(brute_force_families(n_spins))
        assert got == expected

    @pytest.mark.parametrize("n_spins", [3, 4, 5])
    def test_canonical_order(self, n_spins):
        models = enumerate_models(n_spins)
        assert models[0].interactions == ()
        assert len(models[-1].interactions) == 2 ** n_spins - 1
        keys = [
            (len(m.interactions), [(len(s), s) for s in m.interactions])
            for m in models
        ]
        assert keys == sorted(keys)
        assert len({m.interactions for m in models}) == len(models)

    @pytest.mark.parametrize("n_spins", [1, 2, 3, 4, 5])
    def test_models_pass_public_validator(self, n_spins):
        for model in enumerate_models(n_spins):
            assert model == SpinModel(n_spins=n_spins, interactions=model.interactions)

    @pytest.mark.parametrize("n_spins", sorted(ENUMERATION_SHA256))
    def test_pinned_enumeration(self, n_spins):
        text = repr([m.interactions for m in enumerate_models(n_spins)])
        assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_SHA256[n_spins]

    @pytest.mark.parametrize("n_spins", [True, 4.0, "3", 0, 7])
    def test_spin_count_must_be_supported_integer(self, n_spins):
        with pytest.raises(InputError):
            enumerate_models(n_spins)


class TestProductRows:
    def test_matches_explicit_construction(self):
        n_spins = 4
        interactions = closure(G_ISING[:2], 4)
        rows = product_rows(interactions, n_spins)
        assert rows.shape == (len(interactions), 16)
        for j, subset in enumerate(interactions):
            for k in range(16):
                spins = [(k >> (n_spins - i)) & 1 for i in subset]
                assert rows[j, k] == float(all(spins))

    def test_spin_bit_convention(self):
        # Spin 1 is the most significant bit of the state label.
        rows = product_rows([(1,)], 2)
        assert rows.tolist() == [[0.0, 0.0, 1.0, 1.0]]
        rows = product_rows([(2,)], 2)
        assert rows.tolist() == [[0.0, 1.0, 0.0, 1.0]]


class TestToCoefficients:
    def test_rank_matches_model(self):
        for model in enumerate_models(3):
            system = to_coefficients(model)
            assert to_architecture(system).rank == model.rank

    def test_uniform_moments(self):
        model = SpinModel.from_interactions([(1, 2)], 3)
        system = to_coefficients(model)
        assert system.moments[0] == 1.0
        for subset, m in zip(model.interactions, system.moments[1:]):
            assert m == pytest.approx(2.0 ** -len(subset), rel=1e-15)

    def test_custom_distribution_moments(self, rng):
        model = SpinModel.from_interactions([(1,), (2,)], 2)
        p = rng.dirichlet(np.ones(4))
        system = to_coefficients(model, p)
        assert np.allclose(system.moments, system.rows @ p)

    @pytest.mark.parametrize("n_spins", [3, 4])
    def test_nesting_matches_containment(self, n_spins):
        """Class containment of spin models must coincide with the
        linear-algebraic nesting of their constraint systems."""
        models = enumerate_models(n_spins)
        rng = np.random.default_rng(42)
        p = rng.dirichlet(np.ones(2**n_spins) * 2.0)
        arches = [
            to_architecture(to_coefficients(m, p)) for m in models
        ]
        for i, a in enumerate(models):
            for j, b in enumerate(models):
                assert is_nested(arches[i], arches[j]) == b.contains(a), (a.label, b.label)


class TestParams:
    def test_validates_length(self):
        model = SpinModel.from_interactions([(1, 2)], 2)
        with pytest.raises(InputError):
            IsingParams(model=model, values=np.zeros(2))

    def test_validates_finiteness(self):
        model = SpinModel.from_interactions([(1,)], 2)
        with pytest.raises(InputError):
            IsingParams(model=model, values=np.array([np.inf]))

    def test_random_params_deterministic(self):
        model = SpinModel.from_interactions(G_ISING, 5)
        a = random_params(model, np.random.default_rng(3))
        b = random_params(model, np.random.default_rng(3))
        assert np.array_equal(a.values, b.values)
        assert a.values.shape == (14,)

    def test_random_params_rejects_high_order(self):
        model = SpinModel.from_interactions([(1, 2, 3, 4)], 4)
        with pytest.raises(InputError):
            random_params(model, np.random.default_rng(0))

    def test_as_dict(self):
        model = SpinModel.from_interactions([(1, 2)], 2)
        params = IsingParams(model=model, values=np.array([0.1, 0.2, 0.3]))
        assert params.as_dict() == {(1,): 0.1, (2,): 0.2, (1, 2): 0.3}


class TestBoltzmann:
    def test_zero_couplings_give_uniform(self):
        model = SpinModel.from_interactions([(1, 2), (2, 3)], 3)
        params = IsingParams(model=model, values=np.zeros(len(model.interactions)))
        assert np.allclose(boltzmann(params).probs, 1.0 / 8)

    def test_energies_enter_exponentially(self):
        model = SpinModel.from_interactions([(1,)], 1)
        params = IsingParams(model=model, values=np.array([2.0]))
        p = boltzmann(params).probs
        # p(1)/p(0) = exp(J) with state 1 the spin-up state.
        assert p[1] / p[0] == pytest.approx(np.exp(2.0), rel=1e-12)

    def test_extreme_couplings_stay_finite(self):
        model = SpinModel.from_interactions([(1, 2)], 2)
        params = IsingParams(model=model, values=np.array([300.0, -300.0, 500.0]))
        p = boltzmann(params).probs
        assert np.isfinite(p).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_distribution_is_own_class_maximizer(self, rng):
        """A Gibbs distribution maximizes entropy under its own induced
        moments, so refitting it through its model returns it."""
        from maxentkit.solver import fit_linear_system

        for seed in range(3):
            model = SpinModel.from_interactions([(1, 2), (2, 3), (3,)], 3)
            params = random_params(model, np.random.default_rng(seed))
            q = boltzmann(params)
            fit = fit_linear_system(to_coefficients(model, q))
            assert np.max(np.abs(fit.probabilities - q.probs)) < 1e-9

    def test_energy_shape(self):
        model = SpinModel.from_interactions([], 3)
        params = IsingParams(model=model, values=np.zeros(0))
        assert np.array_equal(energies(params), np.zeros(8))


class TestRecoveryRates:
    def test_perfect_recovery(self):
        truth = SpinModel.from_interactions(G_ISING, 5)
        assert tp_fp_rates(truth, truth) == (1.0, 0.0)

    def test_partial_recovery_frozen(self):
        truth = SpinModel.from_interactions(G_ISING, 5)
        selected = SpinModel.from_interactions([(1, 2), (3, 5), (4, 5)], 5)
        tp, fp = tp_fp_rates(selected, truth)
        assert tp == pytest.approx(8 / 14)
        assert fp == 0.0

    def test_overfit_counts_false_positives(self):
        truth = SpinModel.from_interactions(G_ISING, 5)
        selected = SpinModel.from_interactions([tuple(range(1, 6))], 5)
        tp, fp = tp_fp_rates(selected, truth)
        # The saturated model recovers all 14 true interactions and all
        # 17 spurious ones.
        assert (tp, fp) == (1.0, 1.0)

    def test_empty_truth(self):
        empty = SpinModel.from_interactions([], 3)
        other = SpinModel.from_interactions([(1,)], 3)
        assert tp_fp_rates(empty, empty) == (1.0, 0.0)
        assert tp_fp_rates(other, empty) == (1.0, pytest.approx(1 / 7))

    def test_full_truth_has_no_fp_denominator(self):
        full_truth = SpinModel.from_interactions([(1, 2, 3)], 3)
        sel = SpinModel.from_interactions([(1,)], 3)
        assert tp_fp_rates(sel, full_truth) == (pytest.approx(1 / 7), 0.0)
