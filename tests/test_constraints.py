import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentkit import constraints
from maxentkit.constraints import (
    ArchitectureMatrix,
    CoefficientMatrix,
    KernelBasis,
    is_nested,
    kernel_basis,
    _support_reductions,
    to_architecture,
)
from maxentkit.errors import (
    InconsistentSystemError,
    InfeasibleMomentsError,
    InputError,
)
from maxentkit.simplex import Distribution
from maxentkit.solver import fit_linear_system, fit_linear_systems


def support_reduction(rows, moments):
    """The exclusion cascade of one binary system, ``_support_reductions``
    on a stack of one: the excluded states, the indices of the kept
    rows, and the kept rows and moments on the working states.  Raises
    the error that stops the system."""
    rows, moments = np.asarray(rows, dtype=float), np.asarray(moments, dtype=float)
    (excluded,), (kept,), errors = _support_reductions((rows == 1.0)[None], moments[None])
    if errors:
        raise errors[0]
    return excluded, np.flatnonzero(kept), rows[np.ix_(kept, ~excluded)], moments[kept]


def marginal_2x2():
    """Normalization plus the two spin marginals on states 00,01,10,11."""
    rows = np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    return CoefficientMatrix(rows, np.array([1.0, 0.4, 0.7]))


class TestCoefficientMatrix:
    def test_basic(self):
        system = marginal_2x2()
        assert system.n_states == 4
        assert system.is_binary

    def test_missing_normalization(self):
        with pytest.raises(InputError):
            CoefficientMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.4, 0.6]))

    def test_zero_row_rejected(self):
        rows = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            CoefficientMatrix(rows, np.array([1.0, 0.0]))

    def test_moment_count_mismatch(self):
        with pytest.raises(InputError):
            CoefficientMatrix(np.ones((1, 3)), np.array([1.0, 2.0]))

    def test_non_binary_flagged(self):
        rows = np.array([[1.0, 1.0], [0.5, 1.0]])
        assert not CoefficientMatrix(rows, np.array([1.0, 0.7])).is_binary


class TestToArchitecture:
    def test_rref_shape(self):
        arch = to_architecture(marginal_2x2())
        assert arch.rank == 3
        assert arch.n_states == 4
        pivots = arch.pivot_columns
        assert list(pivots) == sorted(pivots)
        for r, c in enumerate(pivots):
            assert arch.rows[r, c] == pytest.approx(1.0)
            others = np.delete(arch.rows[:, c], r)
            assert np.allclose(others, 0.0)

    def test_idempotent(self):
        arch = to_architecture(marginal_2x2())
        again = to_architecture(arch)
        assert np.allclose(arch.rows, again.rows)
        assert np.allclose(arch.moments, again.moments)

    def test_row_space_preserved(self):
        system = marginal_2x2()
        arch = to_architecture(system)
        # Every original row must be an exact combination of the RREF rows.
        sol, *_ = np.linalg.lstsq(arch.rows.T, system.rows.T, rcond=None)
        assert np.max(np.abs(system.rows - sol.T @ arch.rows)) < 1e-12

    def test_canonical_form_identifies_equivalent_systems(self):
        system = marginal_2x2()
        shuffled = CoefficientMatrix(
            np.array(
                [
                    2.0 * system.rows[1],
                    system.rows[0],
                    system.rows[2] + 0.5 * system.rows[0],
                ]
            ),
            np.array([0.8, 1.0, 1.2]),
        )
        a, b = to_architecture(system), to_architecture(shuffled)
        assert a.same_model(b)
        assert np.allclose(a.rows, b.rows)
        assert np.allclose(a.moments, b.moments)

    def test_redundant_consistent_row_dropped(self):
        system = marginal_2x2()
        rows = np.vstack([system.rows, system.rows[1] + system.rows[2]])
        moments = np.append(system.moments, 1.1)
        arch = to_architecture(CoefficientMatrix(rows, moments))
        assert arch.rank == 3

    def test_inconsistent_moments_raise(self):
        system = marginal_2x2()
        rows = np.vstack([system.rows, system.rows[1] + system.rows[2]])
        moments = np.append(system.moments, 1.2)
        with pytest.raises(InconsistentSystemError, match="infeasible"):
            to_architecture(CoefficientMatrix(rows, moments))

    def test_different_row_spaces_not_same_model(self):
        a = to_architecture(marginal_2x2())
        rows = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
        b = to_architecture(CoefficientMatrix(rows, np.array([1.0, 0.3])))
        assert not a.same_model(b)

    def test_roundoff_is_not_a_pivot(self):
        # The last row is the sum of the middle two; eliminating it leaves
        # a block of pure roundoff, which must not become a fourth pivot.
        rows = np.array(
            [[1, 1, 1, 1, 1], [1, 0, 1, -1, 0], [-1, 2, -1, 2, 1], [0, 2, 0, 1, 1]],
            dtype=float,
        )
        p = np.array([0.3, 0.2, 0.4, 0.1, 0.0])
        system = CoefficientMatrix(rows, rows @ p)
        assert np.linalg.matrix_rank(rows) == 3
        assert to_architecture(system).rank == 3
        fit = fit_linear_system(system)
        assert fit.rank_effective == 3
        assert np.max(np.abs(rows @ fit.probabilities - rows @ p)) < 1e-9


def augmented_rref(rows, moments):
    """Reference: Gauss-Jordan elimination of ``[rows | moments]`` in one
    pass, with the pivot rule of ``to_architecture``.  Returns the
    canonical rows, their moments and the moments of the eliminated rows."""
    aug = np.column_stack([rows, moments])
    n_rows, n_cols = rows.shape
    threshold = 1e-9 * float(np.abs(rows).max())
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        column = np.abs(aug[rank:, col])
        local = int(column.argmax())
        if column[local] <= threshold:
            continue
        if local:
            aug[[rank, rank + local]] = aug[[rank + local, rank]]
        aug[rank] /= aug[rank, col]
        factors = aug[:, col].copy()
        factors[rank] = 0.0
        aug -= np.outer(factors, aug[rank])
        aug[:, col] = 0.0
        aug[rank, col] = 1.0
        rank += 1
    return aug[:rank, :n_cols], aug[:rank, n_cols], aug[rank:, n_cols]


class TestCachedElimination:
    # Column 0 pivots on row 2, so rows swap; row 3 is row 0 + row 2, so
    # one row is eliminated to zero.
    ROWS = np.array(
        [
            [0, 1, 0, 1, 2, 0],
            [1, 1, 1, 1, 1, 1],
            [2, 0, 1, 0, 1, 1],
            [2, 1, 1, 1, 3, 1],
            [-1, 0, 1, 0, -1, 2],
        ],
        dtype=float,
    )

    def test_replay_matches_fresh_system_and_reference(self, rng, monkeypatch):
        system = CoefficientMatrix(self.ROWS, self.ROWS @ np.full(6, 1 / 6))
        calls = []
        eliminate = constraints._eliminate
        monkeypatch.setattr(
            constraints, "_eliminate", lambda rows: calls.append(1) or eliminate(rows)
        )
        for _ in range(5):
            moments = self.ROWS @ rng.dirichlet(np.ones(6))
            cached = to_architecture(system.with_moments(moments))
            fresh = to_architecture(CoefficientMatrix(system.rows, moments))
            rows, canonical, _ = augmented_rref(self.ROWS, moments)
            assert cached.rank == 4
            for arch in (cached, fresh):
                assert np.array_equal(arch.rows, rows)
                assert np.array_equal(arch.moments, canonical)
        # One elimination for the shared rows, one per fresh system.
        assert len(calls) == 1 + 5

    def test_inconsistent_moments_still_raise(self, rng):
        system = CoefficientMatrix(self.ROWS, self.ROWS @ np.full(6, 1 / 6))
        moments = self.ROWS @ rng.dirichlet(np.ones(6))
        moments[3] += 0.1
        with pytest.raises(InconsistentSystemError, match="infeasible"):
            to_architecture(system.with_moments(moments))
        moments[3] -= 0.1
        arch = to_architecture(system.with_moments(moments))
        assert np.array_equal(arch.moments, augmented_rref(self.ROWS, moments)[1])

    def test_architecture_with_moments_equals_constructor(self):
        arch = to_architecture(marginal_2x2())
        moments = np.array([0.25, 0.35, 0.4])
        derived = arch.with_moments(moments)
        built = ArchitectureMatrix(arch.rows, moments)
        assert np.array_equal(derived.rows, built.rows)
        assert np.array_equal(derived.moments, built.moments)
        assert np.array_equal(to_architecture(derived).moments, moments)

    @pytest.mark.parametrize(
        "moments",
        [[1.0, 0.4], [1.0, 0.4, 0.7, 0.1], [1.0, np.nan, 0.7], [1.0, 0.4, np.inf]],
        ids=["short", "long", "nan", "inf"],
    )
    def test_with_moments_validates(self, moments):
        system = marginal_2x2()
        with pytest.raises(InputError):
            system.with_moments(np.array(moments))
        with pytest.raises(InputError):
            to_architecture(system).with_moments(np.array(moments))


class TestLockstepReplay:
    ROWS = TestCachedElimination.ROWS
    # Pivots on its own first row, where ROWS swaps rows 0 and 2.
    NO_SWAP_ROWS = ROWS[[2, 1, 0, 3, 4]]

    def test_stack_matches_reference_and_each_system_alone(self, rng):
        systems = [
            CoefficientMatrix(rows, rows @ rng.dirichlet(np.ones(6)))
            for rows in (self.ROWS, self.NO_SWAP_ROWS, self.ROWS, self.ROWS, self.NO_SWAP_ROWS)
        ]
        moments = np.array(systems[2].moments)
        moments[3] += 0.1
        systems[2] = systems[2].with_moments(moments)
        forms = [system._form for system in systems]
        assert len({form.replay_key for form in forms}) == 1
        assert forms[0].elimination.order[0] != forms[1].elimination.order[0]

        stacked = constraints._architectures(forms, np.stack([s.moments for s in systems]))
        assert [isinstance(a, InconsistentSystemError) for a in stacked] == [
            False, False, True, False, False,
        ]
        for system, arch in zip(systems, stacked):
            if isinstance(arch, InconsistentSystemError):
                with pytest.raises(InconsistentSystemError) as alone:
                    to_architecture(system)
                assert str(alone.value) == str(arch)
                continue
            rows, canonical, _ = augmented_rref(system.rows, system.moments)
            for each in (arch, to_architecture(system)):
                assert np.array_equal(each.rows, rows)
                assert np.array_equal(each.moments, canonical)

    def test_fits_of_mixed_row_counts_match_reference(self, rng):
        systems = [
            CoefficientMatrix(self.ROWS, self.ROWS @ rng.dirichlet(np.ones(6))),
            marginal_2x2(),
            CoefficientMatrix(self.NO_SWAP_ROWS, self.NO_SWAP_ROWS @ rng.dirichlet(np.ones(6))),
            # A sample that leaves states 2 and 3 empty excludes them.
            CoefficientMatrix(marginal_2x2().rows, np.array([1.0, 0.0, 0.7])),
            marginal_2x2().with_moments(np.array([1.0, 0.25, 0.5])),
        ]
        fits = fit_linear_systems(systems)
        assert fits[3].excluded.tolist() == [False, False, True, True]
        for system, fit in zip(systems, fits):
            rows, moments = system.rows, system.moments
            if fit.excluded.any():
                _, _, rows, moments = support_reduction(rows, moments)
            reference_rows, canonical, _ = augmented_rref(rows, moments)
            assert np.array_equal(fit.architecture.rows, reference_rows)
            assert np.array_equal(fit.architecture.moments, canonical)


class TestArchitectureMatrix:
    def test_rejects_non_rref(self):
        rows = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(InputError):
            ArchitectureMatrix(rows, np.array([1.0, 0.4]))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 0, 1], [0, 0, 0]], "row 1 is zero"),
            ([[0, 1, 0], [1, 0, 1]], "pivots must be strictly increasing"),
            ([[1, 0, 1], [0, 2, 0]], "row 1 pivot is not one"),
            ([[1, 1, 0], [0, 1, 1]], "pivot column 1 is not eliminated"),
            # The first failing row is reported, whatever fails later.
            ([[1, 0, 1], [0, 1, 0], [0, 0, 0]], "row 2 is zero"),
            ([[1, 1, 0], [0, 1, 0], [0, 0, 0]], "pivot column 1 is not eliminated"),
        ],
    )
    def test_each_rref_check_names_its_row(self, rows, message):
        rows = np.array(rows, dtype=float)
        with pytest.raises(InputError, match=message):
            ArchitectureMatrix(rows, np.full(rows.shape[0], 0.5))

    def test_normalization_drift_warns(self, caplog):
        # Column sums deviate from one: still usable, but flagged.
        rows = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        with caplog.at_level(logging.WARNING):
            ArchitectureMatrix(rows, np.array([0.6, 0.6]))
        assert "normalize" in caplog.text

    def test_rref_with_unit_column_sums_is_quiet(self, caplog):
        arch = to_architecture(marginal_2x2())
        with caplog.at_level(logging.WARNING):
            ArchitectureMatrix(arch.rows.copy(), arch.moments.copy())
        assert caplog.text == ""


class TestKernelBasis:
    def test_dimension_and_orthogonality(self):
        arch = to_architecture(marginal_2x2())
        anchor = Distribution([0.18, 0.42, 0.12, 0.28])
        kernel = kernel_basis(arch, anchor)
        assert kernel.dim == 1
        scaled = arch.rows * np.sqrt(anchor.probs)
        assert np.max(np.abs(scaled @ kernel.vectors.T)) < 1e-12

    def test_anchor_must_be_positive(self):
        arch = to_architecture(marginal_2x2())
        with pytest.raises(InputError):
            kernel_basis(arch, [0.5, 0.5, 0.0, 0.0])

    def test_orthonormality_enforced(self):
        anchor = Distribution([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(InputError):
            KernelBasis(np.array([[1.0, 1.0, 0.0, 0.0]]), anchor)


class TestNestingMap:
    """Nesting of architectures, :func:`is_nested`."""

    def test_marginals_nest_in_pairwise(self):
        simple = to_architecture(marginal_2x2())
        rows = np.vstack([marginal_2x2().rows, [[0.0, 0.0, 0.0, 1.0]]])
        moments = np.array([1.0, 0.4, 0.7, 0.28])
        complex_ = to_architecture(CoefficientMatrix(rows, moments))
        assert is_nested(simple, complex_)
        # The coefficients of the factorization are simple's entries in
        # complex_'s pivot columns.
        matrix = simple.rows[:, complex_.pivot_columns]
        assert np.max(np.abs(simple.rows - matrix @ complex_.rows)) < 1e-9

    def test_moment_mismatch_is_not_nested(self):
        simple = to_architecture(marginal_2x2())
        rows = np.vstack([marginal_2x2().rows, [[0.0, 0.0, 0.0, 1.0]]])
        moments = np.array([1.0, 0.5, 0.7, 0.28])
        complex_ = to_architecture(CoefficientMatrix(rows, moments))
        assert not is_nested(simple, complex_)

    def test_unrelated_rows_not_nested(self):
        simple = to_architecture(
            CoefficientMatrix(
                np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]]),
                np.array([1.0, 0.5]),
            )
        )
        complex_ = to_architecture(marginal_2x2())
        assert not is_nested(simple, complex_)

    def test_is_nested_keeps_rows_test_not_moments(self):
        simple = to_architecture(marginal_2x2())
        rows = np.vstack([marginal_2x2().rows, [[0.0, 0.0, 0.0, 1.0]]])
        complex_ = to_architecture(CoefficientMatrix(rows, [1.0, 0.4, 0.7, 0.28]))
        unrelated = to_architecture(CoefficientMatrix(
            np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]]), np.array([1.0, 0.5]),
        ))
        # The second round reads the rows test kept on the forms.
        for _ in range(2):
            assert [is_nested(a, b) for a, b in [
                (simple, complex_), (complex_, simple), (unrelated, complex_)
            ]] == [True, False, False]
        # The same rows with other moments share the kept rows test, and
        # their moments are still tested.
        moved = simple.with_moments(np.array([0.25, 0.35, 0.4]))
        assert moved._form is simple._form
        assert not is_nested(moved, complex_)
        assert is_nested(moved, complex_.with_moments(np.array([0.25, 0.35, 0.4, 0.0])))

    def test_roundoff_left_of_a_pivot_is_not_the_pivot(self):
        """Elimination leaves -3.5e-17 in column 1 of the second
        canonical row; its pivot is column 2, as the RREF check has it,
        and the architecture is nested in itself."""
        arch = to_architecture(
            CoefficientMatrix([[1, 1, 1, 1], [0.1, 0.7 / 7, 0.5, 0.9]], [1.0, 0.4])
        )
        assert 0.0 < abs(arch.rows[1, 1]) < 1e-12
        assert arch.pivot_columns.tolist() == [0, 2]
        assert is_nested(arch, arch)
        assert np.array_equal(arch.rows[:, arch.pivot_columns], np.eye(2))


class TestReduceBinarySupport:
    """The exclusion cascade, :func:`_support_reductions`."""

    def test_no_boundary_is_identity(self):
        system = marginal_2x2()
        excluded, kept, rows, _ = support_reduction(system.rows, system.moments)
        assert not excluded.any()
        assert kept.tolist() == [0, 1, 2]
        assert np.array_equal(rows, system.rows)

    def test_zero_moment_excludes_support(self):
        rows = marginal_2x2().rows
        moments = np.array([1.0, 0.0, 0.7])
        excluded, kept, _, _ = support_reduction(rows, moments)
        # Spin-1 marginal of zero removes states 10 and 11, and its row.
        assert excluded.tolist() == [False, False, True, True]
        assert kept.tolist() == [0, 2]

    def test_saturated_moment_excludes_complement(self):
        rows = marginal_2x2().rows
        moments = np.array([1.0, 1.0, 0.7])
        excluded, _, _, _ = support_reduction(rows, moments)
        assert excluded.tolist() == [True, True, False, False]

    def test_cascade(self):
        # Zeroing the second state forces the third row to saturate on
        # what remains of its support.
        rows = np.array(
            [
                [1.0, 1.0, 1.0, 1.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
            ]
        )
        moments = np.array([1.0, 0.0, 0.4])
        excluded, _, rows, _ = support_reduction(rows, moments)
        assert excluded.tolist() == [False, True, False, False]
        assert rows.shape[1] == 3

    def test_positive_target_with_empty_support_infeasible(self):
        rows = np.array(
            [
                [1.0, 1.0, 1.0],
                [0.0, 1.0, 1.0],
                [0.0, 1.0, 0.0],
            ]
        )
        # The second row zeroes states 1 and 2, leaving the third row a
        # positive target with no support.
        with pytest.raises(InfeasibleMomentsError, match="infeasible"):
            support_reduction(rows, np.array([1.0, 0.0, 0.5]))

    def test_saturation_short_of_one_infeasible(self):
        rows = np.array(
            [
                [1.0, 1.0, 1.0],
                [0.0, 1.0, 1.0],
                [0.0, 0.0, 1.0],
            ]
        )
        # Excluding state 0 makes the second row cover everything that is
        # left, so its target 0.9 < 1 cannot be met.
        with pytest.raises(InfeasibleMomentsError, match="infeasible"):
            support_reduction(rows, np.array([1.0, 0.9, 1.0]))

    def test_everything_excluded_infeasible(self):
        with pytest.raises(InfeasibleMomentsError, match="infeasible"):
            support_reduction(
                np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
                np.array([1.0, 0.0, 0.0]),
            )

    @given(
        st.integers(min_value=0, max_value=2**10 - 1),
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=10, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_exclusions_match_empirical_zeros(self, mask, weights):
        """With moments induced by an actual distribution, the cascade
        must exclude exactly the states that distribution misses."""
        p = np.array(weights)
        for i in range(10):
            if mask >> i & 1:
                p[i] = 0.0
        if p.sum() == 0.0:
            return
        p = p / p.sum()
        rng = np.random.default_rng(mask)
        rows = np.vstack(
            [np.ones(10), (rng.random((4, 10)) < 0.4).astype(float)]
        )
        keep = rows.any(axis=1)
        rows = rows[keep]
        excluded, _, _, _ = support_reduction(rows, rows @ p)
        assert not excluded[p > 0].any()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_stack_matches_each_system_alone(self, data):
        """The stacked cascade gives each system what it gets alone:
        the same exclusions and kept rows, or the same error."""
        g, r, a = (data.draw(st.integers(min_value=1, max_value=m)) for m in (5, 4, 6))
        supports = np.array(
            data.draw(st.lists(st.booleans(), min_size=g * r * a, max_size=g * r * a))
        ).reshape(g, r, a)
        # Exact and near boundary targets, interior ones, and targets
        # outside [0, 1].
        targets = st.sampled_from([0.0, 1e-13, 0.3, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, -0.2, 1.5])
        moments = np.array(
            data.draw(st.lists(targets, min_size=g * r, max_size=g * r))
        ).reshape(g, r)
        excluded, kept, errors = _support_reductions(supports, moments)
        for k in range(g):
            try:
                alone, kept_alone, _, _ = support_reduction(supports[k], moments[k])
            except (InputError, InfeasibleMomentsError) as exc:
                assert type(errors[k]) is type(exc)
                assert str(errors[k]) == str(exc)
                continue
            assert k not in errors
            assert np.array_equal(excluded[k], alone)
            assert np.array_equal(np.flatnonzero(kept[k]), kept_alone)
