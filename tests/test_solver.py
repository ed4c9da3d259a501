import itertools
import re
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from maxentkit.constraints import (
    CoefficientMatrix,
    kernel_basis,
    to_architecture,
)
from maxentkit.errors import (
    ConvergenceError,
    InfeasibleMomentsError,
    InputError,
    RejectionExhaustedError,
    SingularJacobianError,
    SolverError,
)
from maxentkit.ising import (
    SpinModel,
    boltzmann,
    enumerate_models,
    random_params,
    to_coefficients,
)
from maxentkit.simplex import entropy
from maxentkit.solver import (
    _EXP_OVERFLOW,
    NEWTON_DEFAULT_ITERATIONS,
    PAD_STATES,
    FitResult,
    SolveOptions,
    _DenseRows,
    _fit_stacks,
    _fit_table,
    _padded_width,
    _newton_iterate,
    _newton_passes,
    _working_systems,
    fit_linear_system,
    sample_equivalence_class,
    solve_ipf,
)

# MaxEnt under single-spin marginals factorizes, so the 2x2 system with
# P(s1=1)=0.4, P(s2=1)=0.7 has the product solution below.  Confirmed by
# a 2e6-point grid search over the constrained simplex.
PRODUCT_2X2 = np.array([0.18, 0.42, 0.12, 0.28])


def marginal_2x2(m1=0.4, m2=0.7):
    rows = np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    return CoefficientMatrix(rows, np.array([1.0, m1, m2]))


def random_system(rng, n_states=8, extra_rows=3):
    rows = [np.ones(n_states)]
    while len(rows) < 1 + extra_rows:
        r = (rng.random(n_states) < 0.5).astype(float)
        if r.any() and not r.all():
            rows.append(r)
    p = rng.dirichlet(np.full(n_states, 5.0))
    rows = np.array(rows)
    return CoefficientMatrix(rows, rows @ p)


def damped_newton(arch):
    """The damped pass of the Newton kernel on ``arch`` alone, from
    uniform: its probabilities, or the error that stopped it."""
    n, errors = arch.n_states, {}
    p = _newton_iterate(
        _DenseRows(arch.rows[None]), arch.moments[None], np.full((1, n), 1.0 / n),
        SolveOptions().tolerance, NEWTON_DEFAULT_ITERATIONS, _EXP_OVERFLOW, errors,
    )[0]
    if errors:
        raise errors[0]
    return p[0]


def fit_each(systems, options=None):
    """Each system's fit alone, or the error that stopped it."""
    out = []
    for system in systems:
        try:
            out.append(fit_linear_system(system, options))
        except SolverError as exc:
            out.append(exc)
    return out


def check_batch_equals_alone(systems, options=None):
    """Fit the systems of each state space in one batch of the fit core,
    and assert that each system's row, working entry, steps, residual
    and error there are bitwise what it gets alone.  Returns each
    system's fit alone, or its error."""
    alone = fit_each(systems, options)
    spaces = defaultdict(list)
    for i, system in enumerate(systems):
        spaces[system.n_states].append(i)
    for members in spaces.values():
        table, working, iterations, residuals = _fit_stacks(
            [systems[i] for i in members], options
        )
        for k, i in enumerate(members):
            fit = alone[i]
            if isinstance(fit, SolverError):
                assert type(table.errors[k]) is type(fit)
                assert str(table.errors[k]) == str(fit)
                continue
            assert k not in table.errors
            _, architecture, excluded = working[k]
            assert np.array_equal(architecture.rows, fit.architecture.rows)
            assert np.array_equal(architecture.moments, fit.architecture.moments)
            assert np.array_equal(excluded, fit.excluded)
            assert np.array_equal(table.probabilities[k], fit.probabilities)
            assert table.rank_eff[k] == fit.rank_effective
            assert residuals[k] == fit.solution.residual
            assert iterations[k] == fit.solution.iterations
    return alone


def solve(arch, options=None):
    """The solution of the fit path on an architecture."""
    return fit_linear_system(arch, options).solution


class TestSolveNewton:
    """The solution of the Newton fit path, :func:`fit_linear_system`."""

    def test_product_solution(self):
        arch = to_architecture(marginal_2x2())
        sol = solve(arch)
        assert np.max(np.abs(sol.distribution.probs - PRODUCT_2X2)) < 1e-10
        assert sol.residual <= 1e-10

    def test_distribution_sums_to_one_exactly_enough(self):
        arch = to_architecture(marginal_2x2(0.123456, 0.654321))
        sol = solve(arch)
        assert abs(sol.distribution.probs.sum() - 1.0) <= 1e-13

    def test_multipliers_reproduce_log_probs(self):
        arch = to_architecture(marginal_2x2())
        sol = solve(arch)
        log_p = arch.rows.T @ sol.multipliers
        assert np.max(np.abs(np.log(sol.distribution.probs) - log_p)) < 1e-8

    def test_pythagorean_identity(self, rng):
        """For any q satisfying the constraints, sum((q - p) log p) = 0,
        which is what makes the solution the information projection."""
        system = random_system(rng)
        arch = to_architecture(system)
        sol = solve(arch)
        p = sol.distribution.probs
        kernel = kernel_basis(arch, sol.distribution)
        for _ in range(20):
            x = rng.standard_normal(kernel.dim)
            q = p + 0.3 * np.sqrt(p) * (x @ kernel.vectors)
            if q.min() <= 0:
                continue
            assert abs(np.dot(q - p, np.log(p))) < 1e-9

    def test_entropy_is_maximal_in_class(self, rng):
        system = random_system(rng)
        arch = to_architecture(system)
        sol = solve(arch)
        p = sol.distribution.probs
        kernel = kernel_basis(arch, sol.distribution)
        h = entropy(p)
        for _ in range(20):
            x = rng.standard_normal(kernel.dim)
            q = p + 0.2 * np.sqrt(p) * (x @ kernel.vectors)
            if q.min() <= 0 or np.abs(x).max() < 1e-3:
                continue
            assert entropy(q) < h

    def test_iteration_cap(self):
        arch = to_architecture(marginal_2x2())
        with pytest.raises(ConvergenceError):
            solve(arch, SolveOptions(max_iterations=1))

    def test_options_validation(self):
        # A tolerance of inf would pass the uniform start as the fit, and
        # one of NaN would fail every fit at residual 0.
        for kwargs in [
            {"tolerance": 0.0}, {"tolerance": np.inf}, {"tolerance": np.nan},
            {"max_iterations": 0}, {"max_iterations": 2.5}, {"max_iterations": True},
            {"max_iterations": "3"},
        ]:
            with pytest.raises(InputError):
                SolveOptions(**kwargs)
        assert SolveOptions(max_iterations=np.int64(3)).max_iterations == 3


class TestSolveIpf:
    def test_agrees_with_newton(self, rng):
        for _ in range(5):
            system = random_system(rng)
            newton = fit_linear_system(system, method="newton")
            ipf = fit_linear_system(system, method="ipf")
            assert np.max(np.abs(newton.probabilities - ipf.probabilities)) < 1e-8

    def test_requires_binary_rows(self):
        rows = np.array([[1.0, 1.0, 1.0], [0.5, 1.0, 0.0]])
        system = CoefficientMatrix(rows, np.array([1.0, 0.4]))
        with pytest.raises(InputError):
            solve_ipf(system)


class TestFitLinearSystem:
    def test_full_rank_fit(self):
        result = fit_linear_system(marginal_2x2())
        assert isinstance(result, FitResult)
        assert result.n_states == 4
        assert result.rank_effective == 3
        assert result.degrees_of_freedom == 1
        assert not result.excluded.any()
        assert np.max(np.abs(result.probabilities - PRODUCT_2X2)) < 1e-10

    def test_saturated_system_returns_unique_point(self):
        rows = np.eye(3)
        rows = np.vstack([np.ones(3), rows[:2]])
        f = np.array([0.2, 0.3, 0.5])
        system = CoefficientMatrix(rows, np.array([1.0, 0.2, 0.3]))
        result = fit_linear_system(system)
        assert result.degrees_of_freedom == 0
        assert np.max(np.abs(result.probabilities - f)) < 1e-12

    def test_zero_moment_exclusion_bookkeeping(self):
        system = marginal_2x2(0.0, 0.7)
        result = fit_linear_system(system)
        assert result.excluded.tolist() == [False, False, True, True]
        # Reduced system has rank 2 on two states; two exclusions bring
        # the effective rank back to 4.
        assert result.rank_effective == 4
        assert result.degrees_of_freedom == 0
        assert np.allclose(result.probabilities, [0.3, 0.7, 0.0, 0.0])

    def test_excluded_states_get_exact_zeros(self):
        result = fit_linear_system(marginal_2x2(0.0, 0.7))
        assert result.probabilities[2] == 0.0
        assert result.probabilities[3] == 0.0

    def test_moments_above_row_maximum_infeasible(self):
        # Non-binary rows skip the support cascade, so the impossible
        # target reaches the solver and must be classified, not looped on.
        rows = np.array(
            [
                [1.0, 1.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 2.0],
            ]
        )
        system = CoefficientMatrix(rows, np.array([1.0, 2.5]))
        with pytest.raises(SolverError):
            fit_linear_system(system)

    def test_moments_outside_polytope_infeasible(self):
        # m12 > m1 is impossible for binary spins.
        rows = np.array(
            [
                [1.0, 1.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        system = CoefficientMatrix(rows, np.array([1.0, 0.3, 0.6]))
        with pytest.raises(InfeasibleMomentsError):
            fit_linear_system(system)

    @pytest.mark.parametrize(
        "total, error", [(0.9, InfeasibleMomentsError), (1.2, InputError)]
    )
    def test_exclusion_cascade_checks_the_normalization(self, total, error):
        # The marginals are interior, so only the normalization moment
        # sends the system through the cascade; skipped, Newton would fit
        # a distribution of mass ``total``.
        system = CoefficientMatrix(marginal_2x2().rows, np.array([total, 0.4, 0.7]))
        with pytest.raises(error):
            fit_linear_system(system)

    def test_ipf_handles_zero_targets_directly(self):
        result = fit_linear_system(marginal_2x2(0.0, 0.7), method="ipf")
        assert np.allclose(result.probabilities, [0.3, 0.7, 0.0, 0.0])

    def test_unknown_method(self):
        with pytest.raises(InputError):
            fit_linear_system(marginal_2x2(), method="anneal")


class TestSampleEquivalenceClass:
    def setup_method(self):
        self.arch = to_architecture(marginal_2x2())
        self.sol = solve(self.arch)
        self.kernel = kernel_basis(self.arch, self.sol.distribution)

    def test_moments_preserved_exactly(self, rng):
        for _ in range(50):
            d = sample_equivalence_class(self.sol, self.kernel, 1000, rng)
            assert np.max(np.abs(self.arch.rows @ d.probs - self.arch.moments)) < 1e-12

    def test_probabilities_nonnegative(self, rng):
        for _ in range(50):
            d = sample_equivalence_class(self.sol, self.kernel, 50, rng)
            assert d.probs.min() >= 0.0

    def test_seeded_determinism(self):
        a = sample_equivalence_class(
            self.sol, self.kernel, 1000, np.random.default_rng(7)
        )
        b = sample_equivalence_class(
            self.sol, self.kernel, 1000, np.random.default_rng(7)
        )
        assert np.array_equal(a.probs, b.probs)

    def test_fluctuation_scale_shrinks_with_n(self, rng):
        small = [
            np.abs(
                sample_equivalence_class(self.sol, self.kernel, 100, rng).probs
                - self.sol.distribution.probs
            ).max()
            for _ in range(200)
        ]
        large = [
            np.abs(
                sample_equivalence_class(self.sol, self.kernel, 1_000_000, rng).probs
                - self.sol.distribution.probs
            ).max()
            for _ in range(200)
        ]
        assert np.mean(large) < np.mean(small) / 50

    def test_rejection_exhaustion_at_tiny_n(self, rng):
        with pytest.raises(RejectionExhaustedError):
            sample_equivalence_class(
                self.sol, self.kernel, 1e-6, rng, max_rejections=20
            )

    def test_rejects_nonpositive_n(self, rng):
        with pytest.raises(InputError):
            sample_equivalence_class(self.sol, self.kernel, 0, rng)

    @pytest.mark.parametrize("n", [np.nan, np.inf, True], ids=["nan", "inf", "bool"])
    def test_rejects_n_that_is_not_a_finite_positive_number(self, rng, n):
        # Unchecked, NaN makes every draw leave the simplex, infinity
        # returns the anchor itself, and True counts as one sample.
        with pytest.raises(InputError, match="finite positive number"):
            sample_equivalence_class(self.sol, self.kernel, n, rng)


class TestNewtonBatch:
    def test_matches_scalar_solver(self, rng):
        systems = [random_system(rng, n_states=8, extra_rows=3) for _ in range(6)]
        arches = [to_architecture(s) for s in systems]
        row_stack = _DenseRows(np.stack([a.rows for a in arches]))
        target_stack = np.stack([a.moments for a in arches])
        probs, residuals, converged = _newton_passes(row_stack, target_stack)[:3]
        assert converged.all()
        assert residuals.max() <= 1e-10
        for k, arch in enumerate(arches):
            assert np.max(np.abs(probs[k] - damped_newton(arch))) < 1e-9

    def test_rows_sum_to_one(self, rng):
        systems = [random_system(rng) for _ in range(4)]
        arches = [to_architecture(s) for s in systems]
        probs, _, converged = _newton_passes(
            _DenseRows(np.stack([a.rows for a in arches])),
            np.stack([a.moments for a in arches]),
        )[:3]
        assert converged.all()
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-13

    def test_flags_unsolvable_rows(self):
        rows = np.array(
            [
                [1.0, 1.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 1.0, 0.0, 1.0],
            ]
        )
        # Second system demands a marginal above one, which no
        # distribution delivers; the batch must flag it, not loop.
        row_stack = _DenseRows(np.stack([rows, rows]))
        target_stack = np.stack(
            [np.array([1.0, 0.4, 0.7]), np.array([1.0, 1.4, 0.7])]
        )
        probs, _, converged = _newton_passes(row_stack, target_stack)[:3]
        assert converged[0]
        assert not converged[1]

    def test_converged_residuals_within_tolerance(self, rng):
        # The 2x2 marginal system once converged at an unnormalized
        # residual that exceeded tolerance after renormalizing.
        arches = [to_architecture(marginal_2x2())] + [
            to_architecture(random_system(rng, n_states=k, extra_rows=k // 2))
            for k in (5, 6, 7, 8, 9, 10)
            for _ in range(10)
        ]
        for tolerance in (1e-10, 1e-8):
            for arch in arches:
                probs, residuals, converged = _newton_passes(
                    _DenseRows(arch.rows[None]), arch.moments[None],
                    SolveOptions(tolerance=tolerance),
                )[:3]
                assert converged[0]
                assert residuals[0] <= tolerance
                assert residuals[0] == np.max(np.abs(arch.rows @ probs[0] - arch.moments))

    def test_start_from_sub_model_fit(self, rng):
        systems = [random_system(rng, n_states=8, extra_rows=4) for _ in range(5)]
        arches = [to_architecture(s) for s in systems]
        # The sub-model keeps the first three rows; the log of its fit
        # lies in their span, hence in the full system's row space.
        subs = [
            solve(to_architecture(CoefficientMatrix(s.rows[:3], s.moments[:3])))
            for s in systems
        ]
        row_stack = _DenseRows(np.stack([a.rows for a in arches]))
        target_stack = np.stack([a.moments for a in arches])
        cold, _, cold_ok = _newton_passes(row_stack, target_stack)[:3]
        start = np.stack([sub.distribution.probs for sub in subs])
        warm, residuals, warm_ok = _newton_passes(row_stack, target_stack, start=start)[:3]
        assert cold_ok.all() and warm_ok.all()
        assert residuals.max() <= 1e-10
        assert np.max(np.abs(warm - cold)) < 1e-9

    def test_runaway_start_restarts_from_uniform(self):
        rows = marginal_2x2().rows
        stack, targets = _DenseRows(rows[None]), np.array([[1.0, 0.4, 0.7]])
        # Positive, with its log in the row space, but so far from the
        # solution that undamped Newton runs away from it.
        log_p = rows.T @ np.array([0.0, 10.0, -10.0])
        start = np.exp(log_p - log_p.max())
        start /= start.sum()
        _, _, ok, _ = _newton_iterate(stack, targets, start[None].copy(), 1e-10, 200, 200.0)
        assert not ok[0]
        probs, _, converged = _newton_passes(stack, targets, start=start[None])[:3]
        assert converged[0]
        assert np.max(np.abs(probs[0] - PRODUCT_2X2)) < 1e-9


class TestEntropyGapStatistic:
    def test_mean_matches_degrees_of_freedom(self, rng):
        """2n (H[anchor] - H[draw]) concentrates on a chi-square with
        n_states - rank degrees of freedom; check the mean roughly."""
        system = random_system(rng, n_states=8, extra_rows=3)
        arch = to_architecture(system)
        sol = solve(arch)
        kernel = kernel_basis(arch, sol.distribution)
        dof = 8 - arch.rank
        assert kernel.dim == dof
        n = 1e7
        h_anchor = entropy(sol.distribution.probs)
        stats = [
            2.0 * n * (h_anchor - entropy(
                sample_equivalence_class(sol, kernel, n, rng).probs
            ))
            for _ in range(400)
        ]
        assert np.mean(stats) == pytest.approx(dof, rel=0.2)


# Moments of (0.5, 0.5, 0, 0, 0) under non-binary rows: they sit on a
# face the exclusion cascade cannot see, and Newton's Jacobian goes
# singular on the way there.
SINGULAR_ROWS = np.array([
    [1.0, 1.0, 1.0, 1.0, 1.0],
    [2.0, 0.0, -1.0, 2.0, -1.0],
    [1.0, 2.0, 0.0, 0.0, 2.0],
    [-1.0, 1.0, 0.0, 1.0, 2.0],
])


def mixed_systems(rng):
    """Interior systems of several shapes, a boundary one that excludes
    states, a saturated one, a non-binary one, and one that fails."""
    systems = [random_system(rng, n_states=k, extra_rows=r)
               for k, r in ((8, 3), (8, 3), (8, 4), (6, 2), (8, 3))]
    systems.append(marginal_2x2(0.0, 0.7))
    systems.append(CoefficientMatrix(np.vstack([np.ones(3), np.eye(3)[:2]]),
                                     np.array([1.0, 0.2, 0.5])))
    ramp = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0]])
    systems.append(CoefficientMatrix(ramp, np.array([1.0, 1.2])))
    systems.append(CoefficientMatrix(SINGULAR_ROWS, SINGULAR_ROWS @ [0.5, 0.5, 0, 0, 0]))
    return systems


class TestFitLinearSystems:
    def test_alone_is_bit_identical_to_batch(self, rng):
        systems = mixed_systems(rng)
        alone = check_batch_equals_alone(systems)
        assert len(alone) == len(systems)
        assert any(isinstance(fit, SolverError) for fit in alone)

    def test_errors_stay_in_place(self, rng):
        batch = check_batch_equals_alone(mixed_systems(rng))
        assert isinstance(batch[-1], SingularJacobianError)
        assert all(isinstance(fit, FitResult) for fit in batch[:-1])
        assert batch[5].excluded.tolist() == [False, False, True, True]
        assert batch[6].rank_effective == batch[6].n_states == 3

    def test_matches_damped_newton(self, rng):
        systems = mixed_systems(rng)[:5]
        for system, fit in zip(systems, fit_each(systems)):
            arch = to_architecture(system)
            assert np.max(np.abs(fit.probabilities - damped_newton(arch))) < 1e-9
            assert fit.solution.residual <= 1e-10
            log_p = arch.rows.T @ fit.solution.multipliers
            assert np.max(np.abs(log_p - np.log(fit.probabilities))) < 1e-9

    def test_flagged_systems_fall_back_to_damped_newton(self, rng, monkeypatch):
        import maxentkit.solver as solver

        iterate = solver._newton_iterate

        def flag_all(rows, targets, p, *limits):
            # Only the undamped passes are flagged; the damped one runs.
            if len(limits) > 3:
                return iterate(rows, targets, p, *limits)
            n = rows.shape[0]
            return p, np.full(n, np.inf), np.zeros(n, dtype=bool), np.zeros(n, dtype=int)

        systems = mixed_systems(rng)
        expected = check_batch_equals_alone(systems)
        monkeypatch.setattr(solver, "_newton_iterate", flag_all)
        fallback = check_batch_equals_alone(systems)
        for system, fit, ref in zip(systems, fallback, expected):
            if isinstance(ref, SolverError):
                assert type(fit) is type(ref)
                continue
            if ref.rank_effective < ref.n_states:
                assert np.array_equal(
                    fit.probabilities[~fit.excluded], damped_newton(fit.architecture)
                )
            assert np.max(np.abs(fit.probabilities - ref.probabilities)) < 1e-9

    def test_iteration_cap_reaches_the_damped_solver(self):
        options = SolveOptions(max_iterations=1)
        assert isinstance(_fit_table([marginal_2x2()], options).errors[0], ConvergenceError)
        with pytest.raises(ConvergenceError):
            fit_linear_system(marginal_2x2(), options)


# Systems from a seeded search (``numpy.random.default_rng(0)``; a row of
# ones plus integer rows in [-2, 2]; moments of a Dirichlet point with a
# small concentration) that undamped Newton from uniform flags and the
# damped pass fits.  Each is (constraint rows below the ones row, moments).
DAMPED_ONLY = [
    ([[-2, 0, 2, -2, 1, 0, 1, 1], [0, -2, 0, -2, 2, -2, 0, 2],
      [2, 0, -2, 0, 2, -2, -2, 1], [0, -1, -1, 0, -1, 1, 2, 1]],
     [1.0, 1.007190348983044, 1.9856192874825547, 0.9784289312238321, 0.9856193093095901]),
    ([[1, 0, -1, 0, -2, -1, -2], [0, 2, -2, -1, 1, -2, 1],
      [-1, -2, 1, -2, -2, 0, 1], [1, 2, -2, -1, 1, 1, 0]],
     [0.9999999999999999, -0.1611371293436557, 1.3248401476046667,
      -1.679550155149709, 1.793504479426651]),
    ([[0, -2, -2, 2, 0], [1, -1, 0, -1, -2], [1, 1, -1, 1, 2]],
     [1.0, -1.9999999737913, -2.6208700099061844e-08, -0.9999999606869499]),
    ([[0, -2, -1, 0, 0, -1, -1, -1], [2, 1, 1, 1, 0, 2, -1, -2],
      [2, 2, 0, 0, -2, -1, 1, 2]],
     [1.0, -0.9999935605614098, -1.999974253172529, 1.9999999273507947]),
    ([[1, 1, 2, 2, 0, 1, 1, 0], [0, 2, 0, -1, 2, 1, -1, 0],
      [-2, -1, -2, -1, 0, -2, 2, -1], [2, 1, 2, 2, 0, 2, 0, 0]],
     [1.0, 1.0000017471999803, 0.9999982460266084, -1.9999999999745979, 1.9999999999746236]),
]


def damped_only(k):
    rows, moments = DAMPED_ONLY[k]
    rows = np.vstack([np.ones(len(rows[0])), rows])
    return CoefficientMatrix(rows, np.array(moments))


class TestNewtonPasses:
    @pytest.mark.parametrize("max_iterations, expected", [
        (None, [FitResult, FitResult, SingularJacobianError, SingularJacobianError,
                InfeasibleMomentsError]),
        (1, [ConvergenceError] * 5),
        (20, [FitResult, InfeasibleMomentsError, InfeasibleMomentsError, SingularJacobianError,
              InfeasibleMomentsError]),
    ])
    def test_each_entry_equals_its_batch_of_one(self, max_iterations, expected):
        # One system pass 1 fits, one only the damped pass fits, a
        # singular one, an infeasible marginal and the singular rows with
        # a moment above its row's maximum, whose damped steps stall.
        # The marginal is an architecture, whose non-binary rows skip the
        # exclusion cascade; it shares its Newton group with the first
        # system, and the other three systems share theirs.
        options = SolveOptions(max_iterations=max_iterations)
        beyond = SINGULAR_ROWS @ [0.5, 0.5, 0, 0, 0]
        beyond[1] = 2.5
        stack = [
            marginal_2x2(),
            damped_only(2),
            CoefficientMatrix(SINGULAR_ROWS, SINGULAR_ROWS @ [0.5, 0.5, 0, 0, 0]),
            to_architecture(marginal_2x2(1.4, 0.7)),
            CoefficientMatrix(SINGULAR_ROWS, beyond),
        ]
        alone = check_batch_equals_alone(stack, options)
        assert [type(fit) for fit in alone] == expected

    @pytest.mark.parametrize("k", range(len(DAMPED_ONLY)))
    def test_damped_pass_fits_what_undamped_newton_flags(self, k):
        system = damped_only(k)
        arch = to_architecture(system)
        n = arch.n_states
        converged = _newton_iterate(
            _DenseRows(arch.rows[None]), arch.moments[None], np.full((1, n), 1.0 / n),
            1e-10, 200, 200.0,
        )[2]
        assert not converged[0]
        fit = fit_linear_system(system)
        assert isinstance(fit, FitResult)
        p = fit.probabilities
        assert np.max(np.abs(arch.rows @ p - arch.moments)) <= 1e-10
        log_p = np.log(p)
        coefficients, *_ = np.linalg.lstsq(arch.rows.T, log_p, rcond=None)
        assert np.max(np.abs(arch.rows.T @ coefficients - log_p)) <= 1e-8


# Column 0 pivots on row 2, so the first step swaps; row 3 is row 0 +
# row 2, so one row is eliminated to zero.  The second ordering pivots
# on its own first row: a stack of both swaps on some systems only.
SWAP_ROWS = np.array([
    [0, 1, 0, 1, 2, 0],
    [1, 1, 1, 1, 1, 1],
    [2, 0, 1, 0, 1, 1],
    [2, 1, 1, 1, 3, 1],
    [-1, 0, 1, 0, -1, 2],
], dtype=float)
NO_SWAP_ROWS = SWAP_ROWS[[2, 1, 0, 3, 4]]


def row_form_groups(rng):
    """Systems that share row forms and elimination lengths: two
    orderings of one non-binary matrix with a redundant row, one system
    of them inconsistent; binary systems of several row counts; and a
    sample that excludes states."""
    def on(rows):
        return CoefficientMatrix(rows, rows @ rng.dirichlet(np.ones(rows.shape[1])))

    inconsistent = on(SWAP_ROWS)
    moments = np.array(inconsistent.moments)
    moments[3] += 0.1
    return [
        on(SWAP_ROWS),
        random_system(rng, n_states=8, extra_rows=3),
        on(NO_SWAP_ROWS),
        inconsistent.with_moments(moments),
        random_system(rng, n_states=8, extra_rows=4),
        marginal_2x2(0.0, 0.7),
        on(SWAP_ROWS),
        random_system(rng, n_states=6, extra_rows=2),
        random_system(rng, n_states=8, extra_rows=3),
        on(NO_SWAP_ROWS),
    ]


class TestRowFormGroups:
    def test_each_fit_and_error_equals_its_own_call(self, rng):
        systems = row_form_groups(rng)
        batch = check_batch_equals_alone(systems)
        assert [type(fit).__name__ for fit in batch].count("InconsistentSystemError") == 1
        assert batch[5].excluded.any()

    @pytest.mark.parametrize("bad, message", [(-1e-3, "negative"), (np.nan, "non-finite")])
    def test_invalid_converged_row_raises(self, rng, monkeypatch, bad, message):
        import maxentkit.solver as solver

        iterate = solver._newton_iterate

        def poisoned(rows, targets, p, *limits):
            p, residuals, converged, steps = iterate(rows, targets, p, *limits)
            p[np.flatnonzero(converged)[-1], 0] = bad
            return p, residuals, converged, steps

        monkeypatch.setattr(solver, "_newton_iterate", poisoned)
        systems = [system for system in row_form_groups(rng) if system.n_states == 6]
        with pytest.raises(InputError, match=message):
            _fit_table(systems, None)


def library_systems(n, seed):
    """Every four-spin model on the moments of one sample of size ``n``
    from a random Ising distribution of two triangles on a shared edge,
    then a rank-2 system on the same sixteen states with a moment beyond
    its row's maximum, which the damped pass stalls on."""
    rng = np.random.default_rng(seed)
    truth = SpinModel.from_interactions(((1, 2, 3), (1, 2, 4)), 4)
    f = rng.multinomial(n, boltzmann(random_params(truth, rng)).probs) / n
    systems = []
    for model in enumerate_models(4):
        rows = to_coefficients(model).rows
        systems.append(CoefficientMatrix(rows, rows @ f))
    ramp = np.vstack([np.ones(16), np.arange(16.0)])
    systems.append(CoefficientMatrix(ramp, np.array([1.0, 15.5])))
    return systems


LIBRARY_CASES = [(n, seed) for n in (100, 10_000) for seed in range(3)]


def named_constraint(error):
    match = re.search(r"worst constraint (\d+)", str(error))
    return None if match is None else int(match.group(1))


class TestPaddedStacks:
    @pytest.mark.parametrize("n, seed", LIBRARY_CASES)
    def test_each_fit_equals_its_row_of_the_padded_stack(self, n, seed):
        systems = library_systems(n, seed)
        batch = check_batch_equals_alone(systems)
        assert isinstance(batch[-1], InfeasibleMomentsError)
        for system, fit in zip(systems, batch):
            if isinstance(fit, SolverError):
                constraint = named_constraint(fit)
                if constraint is not None:
                    # A real constraint of the system, not a padded row.
                    (work,) = _working_systems([system])
                    assert constraint < work[1].rank
            elif fit.solution.multipliers is not None:
                assert fit.solution.multipliers.shape == (fit.architecture.rank,)

    def test_padded_rows_take_no_newton_step(self, monkeypatch):
        import maxentkit.solver as solver

        jacobian, solve = solver._DenseRows.jacobian, np.linalg.solve
        pending, steps = [], []

        def spy_jacobian(self, stats):
            pending[:] = [self.pad]
            return jacobian(self, stats)

        def spy_solve(a, b):
            # The kernel solves each Jacobian it builds, in one batch.
            x = solve(a, b)
            if pending and a.ndim == 3:
                steps.append((pending.pop(), x[:, :, 0]))
            return x

        monkeypatch.setattr(solver._DenseRows, "jacobian", spy_jacobian)
        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        systems = library_systems(100, 0)
        _fit_table(systems, None)
        padded = [(pad, delta) for pad, delta in steps if pad.any()]
        assert padded
        for pad, delta in padded:
            assert np.all(delta[pad] == 0.0)
            assert np.any(delta[~pad] != 0.0)

    def test_padding_mask_is_not_read_from_zero_rows(self, rng):
        # A real row that is zero on the states still takes its step.
        rows = np.zeros((1, 3, 4))
        rows[0, 0] = 1.0
        pad = np.array([[False, False, True]])
        dense = _DenseRows(rows, pad)
        jac = dense.jacobian(rng.dirichlet(np.ones(4))[None])
        assert jac[0, 2, 2] == 1.0 and jac[0, 1, 1] == 0.0


def sample_systems(models, seed):
    """Each model's coefficient system on the moments of one random
    distribution over its states."""
    f = np.random.default_rng(seed).dirichlet(np.ones(models[0].n_states))
    return [CoefficientMatrix(rows, rows @ f)
            for rows in (to_coefficients(model).rows for model in models)]


class TestPaddingWidth:
    def test_small_spaces_pad_to_one_width_larger_keep_their_rank(self):
        assert [_padded_width(r, 16) for r in (1, 5, 11, 15)] == [15] * 4
        assert _padded_width(3, 4) == 3
        assert _padded_width(11, PAD_STATES + 1) == 11
        assert _padded_width(79, 4096) == 79

    def test_alone_equals_batch_on_a_larger_space(self):
        # 32 states: every stack holds one rank.
        systems = sample_systems(enumerate_models(5)[::150], 0)
        alone = check_batch_equals_alone(systems)
        assert len({fit.rank_effective for fit in alone}) > 5

    @pytest.mark.parametrize("interactions", [
        [(1,), (2,)], list(itertools.combinations(range(1, 13), 2)),
    ])
    def test_low_rank_model_on_twelve_spins_fits_at_its_rank(self, interactions):
        # On 4 096 states a stack padded to a' - 1 rows, or its
        # Jacobian, takes 134 MB; at rank 3 or 79 it takes 3 MB at most.
        (system,) = sample_systems([SpinModel.from_interactions(interactions, 12)], 1)
        tracemalloc.start()
        try:
            fit = fit_linear_system(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.solution.residual <= 1e-10
        assert fit.solution.multipliers.shape == (system.rows.shape[0],)
        assert peak < 32 * 2**20


class TestFitTable:
    @pytest.mark.parametrize("n, seed", LIBRARY_CASES)
    def test_table_equals_the_object_view(self, n, seed):
        systems = library_systems(n, seed)
        table = _fit_table(systems, None)
        fits = fit_each(systems)
        failed = [i for i, fit in enumerate(fits) if isinstance(fit, SolverError)]
        assert sorted(table.errors) == failed
        assert np.flatnonzero(np.isnan(table.probabilities).all(axis=1)).tolist() == failed
        assert not np.isnan(np.delete(table.probabilities, failed, axis=0)).any()
        for i, fit in enumerate(fits):
            if i in table.errors:
                assert type(table.errors[i]) is type(fit)
                assert str(table.errors[i]) == str(fit)
                continue
            assert np.array_equal(table.probabilities[i], fit.probabilities)
            assert table.rank_eff[i] == fit.rank_effective

    def test_empty_batch(self):
        table = _fit_table([], None)
        assert table.probabilities.shape[0] == 0 and not table.errors


def mcs_order(cliques):
    """Cliques by maximum cardinality search (Tarjan & Yannakakis 1984):
    each next clique shares the most spins with those taken, ties to the
    first.  On an acyclic hypergraph this order has the running
    intersection property; a greedy order need not."""
    order, seen, rest = [], set(), list(cliques)
    while rest:
        best = max(rest, key=lambda c: len(seen.intersection(c)))
        rest.remove(best)
        order.append(best)
        seen.update(best)
    return order


def running_intersection(order):
    """Each clique's separator, its spins in earlier cliques, lies in one
    earlier clique."""
    seen = set()
    for j, clique in enumerate(order):
        sep = seen.intersection(clique)
        if j and not any(sep <= set(prev) for prev in order[:j]):
            return False
        seen.update(clique)
    return True


def gyo_acyclic(cliques):
    """Graham-Yu-Ozsoyoglu reduction: drop the spins in one clique only
    and the cliques inside another until nothing changes; the
    hypergraph is acyclic iff no clique is left."""
    edges = [frozenset(c) for c in cliques]
    while True:
        shrunk = [frozenset(v for v in e if sum(v in o for o in edges) > 1) for e in edges]
        kept = [
            e for i, e in enumerate(shrunk)
            if e and not any(e < o or (e == o and j < i) for j, o in enumerate(shrunk))
        ]
        if kept == edges:
            return not edges
        edges = kept


def decomposable_fit(model, f):
    """Closed-form MaxEnt fit of a decomposable model (Darroch,
    Lauritzen & Speed, Ann. Stat. 1980): prod f_C / prod f_S over its
    cliques C and separators S in maximum-cardinality order, 0/0 = 0,
    and 1/2 for each spin in no clique."""
    n_spins = model.n_spins
    states = np.arange(2 ** n_spins)

    def marginal(spins):
        key = states & sum(1 << (n_spins - i) for i in spins)
        return np.bincount(key, weights=f, minlength=states.size)[key]

    order = mcs_order(model.maximal_interactions)
    covered = set().union(*order)
    p = np.full(states.size, 0.5 ** (n_spins - len(covered)))
    seen = set()
    for clique in order:
        f_sep = marginal(sorted(seen.intersection(clique)))
        p *= np.divide(marginal(clique), f_sep, out=np.zeros_like(f_sep), where=f_sep > 0)
        seen.update(clique)
    return p


def enumerate_models_by_label(n_spins):
    return {m.label: m for m in enumerate_models(n_spins)}


class TestDecomposableClosedForm:
    """Every decomposable model's batched fit equals its closed form."""

    def test_maximum_cardinality_order_needed(self):
        path = enumerate_models_by_label(4)["1.3+2.4+3.4"]
        assert not running_intersection(path.maximal_interactions)
        assert running_intersection(mcs_order(path.maximal_interactions))
        triangle = enumerate_models_by_label(4)["1.2+1.3+2.3"]
        assert not running_intersection(mcs_order(triangle.maximal_interactions))

    def test_mcs_order_agrees_with_gyo_reduction(self):
        for model in enumerate_models(4):
            cliques = model.maximal_interactions
            assert running_intersection(mcs_order(cliques)) == gyo_acyclic(cliques), model.label

    @pytest.mark.parametrize("n_spins, step", [(4, 1), (5, 20)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fits_equal_closed_form(self, n_spins, step, seed):
        """On random counts, zero cells included, over all four-spin
        models and every 20th five-spin one."""
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(15 * 2 ** n_spins, rng.dirichlet(np.ones(2 ** n_spins)))
        f = counts / counts.sum()
        models = [
            m for m in enumerate_models(n_spins)[::step]
            if running_intersection(mcs_order(m.maximal_interactions))
        ]
        assert len(models) > 50
        systems = []
        for model in models:
            rows = to_coefficients(model).rows
            systems.append(CoefficientMatrix(rows, rows @ f))
        table = _fit_table(systems, None)
        for k, model in enumerate(models):
            assert k not in table.errors, model.label
            exact = decomposable_fit(model, f)
            assert np.max(np.abs(table.probabilities[k] - exact)) <= 1e-9, model.label
