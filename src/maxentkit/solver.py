"""Maximum-entropy solvers for linearly constrained simplex models.

:func:`fit_linear_systems` is the fit path.  The binary systems run
the zero-moment exclusion cascade, one call per row shape, so boundary
moments (targets of exactly zero or one) shrink the working space
instead of diverging the multipliers.  Every system, reduced or not,
is then canonicalized, one lockstep replay of the eliminations per row
count and elimination length.  A saturated system is read off
directly; the others are grouped by working shape and each group is
solved over the stack by the one Newton kernel, :func:`_newton_iterate`.
Each step multiplies the iterate by ``exp(-rows^T @ delta)`` where
``delta`` solves the Jacobian system ``J = rows @ diag(p) @ rows^T``;
for a full-row-rank architecture and a strictly positive iterate the
Jacobian is a Gram matrix and stays invertible, and the converged
solution is of exponential form: its log lies in the row space of the
architecture.  :func:`_newton_passes` runs a stack through up to three
passes of the kernel: undamped; undamped again from uniform for the
warm-started systems the first pass flags (singular, runaway or
unconverged); and damped from uniform for the systems still flagged,
each with its own step size and its own typed error.
:func:`solve_newton` is the damped pass on a stack of one, and
:func:`fit_linear_system` the one-system call of the fit path, so a
system gets the same fit alone as inside a batch.

:func:`solve_ipf` reaches the same distribution by multiplicative
proportional-fitting updates over binary marginal rows; the two agree
within a small multiple of the tolerance, which is used as a standing
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import defaultdict
from typing import Optional, Sequence, Union

import numpy as np

from .constraints import (
    ArchitectureMatrix,
    CoefficientMatrix,
    KernelBasis,
    _architectures,
    _derive,
    _RowForm,
    _support_reductions,
)
from .errors import (
    ConvergenceError,
    InfeasibleMomentsError,
    InputError,
    RejectionExhaustedError,
    SingularJacobianError,
    SolverError,
    ZeroMarginalError,
)
from .simplex import Distribution

__all__ = [
    "SolveOptions",
    "MaxEntSolution",
    "FitResult",
    "solve_newton",
    "solve_ipf",
    "fit_linear_system",
    "fit_linear_systems",
    "sample_equivalence_class",
]

#: Newton iteration cap when ``max_iterations`` is left unset.
NEWTON_DEFAULT_ITERATIONS = 500

#: Iteration cap of the undamped passes before a system is flagged.
BATCH_ITERATIONS = 200

#: Largest exponent an undamped step may apply before the system is
#: flagged as runaway.
_BATCH_OVERFLOW = 200.0

#: Single-constraint update cap for proportional fitting when unset.
IPF_DEFAULT_UPDATES = 50_000

#: Exponent magnitude beyond which a damped step is halved.
_EXP_OVERFLOW = 700.0

#: How often the damped pass halves a system's step before the system
#: is declared stalled.
DAMPING_HALVINGS = 30

#: Multiplier magnitude that signals diverging (infeasible) moments.
_THETA_DIVERGED = 1e3


def _snap_normalization(
    p: np.ndarray, rows: np.ndarray, targets: np.ndarray, residual: float
) -> tuple[np.ndarray, float]:
    """Scale ``p`` to unit mass and refresh the residual.

    The solved class contains the normalization constraint, so dividing
    by the total enforces it exactly while moving every other moment by
    at most the mass drift itself.
    """
    total = float(p.sum())
    if total == 1.0:
        return p, residual
    p = p / total
    return p, float(np.max(np.abs(rows @ p - targets)))


@dataclass(frozen=True)
class SolveOptions:
    """Shared solver settings.

    ``max_iterations`` caps the Newton steps of each pass: of the damped
    pass (and so :func:`solve_newton`), :data:`NEWTON_DEFAULT_ITERATIONS`
    when unset; of each undamped pass, never more than
    :data:`BATCH_ITERATIONS`.  For :func:`solve_ipf` it caps the
    single-constraint updates, :data:`IPF_DEFAULT_UPDATES` when unset.
    """

    tolerance: float = 1e-10
    max_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise InputError("tolerance must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise InputError("max_iterations must be at least 1")


@dataclass(frozen=True)
class MaxEntSolution:
    """Converged maximum-entropy distribution on the working space.

    ``multipliers`` holds the exponential-family parameters recovered by
    the Newton route (``log p = rows^T @ multipliers``).  It is ``None``
    for proportional fitting, which does not track them, and for a
    batched fit with a state of probability zero, which no finite
    multipliers reach.
    """

    distribution: Distribution
    multipliers: Optional[np.ndarray]
    iterations: int
    residual: float

    def __post_init__(self) -> None:
        if self.multipliers is not None:
            mult = np.array(self.multipliers, dtype=float)
            mult.setflags(write=False)
            object.__setattr__(self, "multipliers", mult)


def _multipliers(row_stack: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per system, the least-squares multipliers of ``log p`` on its
    rows; ``p`` must be strictly positive."""
    return np.linalg.solve(
        row_stack @ row_stack.transpose(0, 2, 1), row_stack @ np.log(p)[:, :, None]
    )[:, :, 0]


def _classify_failure(
    rows: np.ndarray, targets: np.ndarray, p: np.ndarray, diff: np.ndarray, iterations: int,
    tolerance: float,
) -> SolverError:
    """The typed error of one system the damped pass stopped at the
    iterate ``p``, whose moment residuals are ``diff``.  The residuals
    reported are those the convergence test failed on: the iterate's,
    or its normalization's where the iterate meets the tolerance."""
    if np.max(np.abs(diff)) <= tolerance:
        diff = rows @ p / p.sum() - targets
    worst = int(np.argmax(np.abs(diff)))
    detail = (
        f"residual {abs(diff[worst]):.3e} after {iterations} iterations; worst "
        f"constraint {worst} (target {targets[worst]:.6g})"
    )
    if p.min() < 1e-13 or np.abs(_multipliers(rows[None], p[None])).max() > _THETA_DIVERGED:
        return InfeasibleMomentsError("moments appear infeasible (multipliers diverge): " + detail)
    return ConvergenceError("no convergence: " + detail)


def solve_newton(
    architecture: ArchitectureMatrix,
    options: Optional[SolveOptions] = None,
) -> MaxEntSolution:
    """Maximum-entropy distribution of an architecture by damped Newton.

    This is the damped pass of the Newton kernel (see
    :func:`_newton_passes`) on a stack of one, from uniform.

    Parameters
    ----------
    architecture : ArchitectureMatrix
        Canonical full-row-rank system whose moments lie strictly inside
        the feasible polytope.  States pinned to zero probability must
        have been excluded beforehand (see :func:`fit_linear_system`).
    options : SolveOptions, optional

    Returns
    -------
    MaxEntSolution
        Strictly positive solution with moment residual at or below the
        tolerance and recovered exponential-family multipliers.

    Raises
    ------
    SingularJacobianError
        If the Jacobian loses rank numerically.
    InfeasibleMomentsError
        If the residual stalls above tolerance while the multipliers
        diverge, the signature of boundary or unreachable moments.
    ConvergenceError
        If the iteration budget runs out without either of the above.
    """
    rows = architecture.rows[None]
    *fit, errors = _damped_pass(rows, architecture.moments[None], options or SolveOptions())
    if errors:
        raise errors[0]
    (solution,) = _solutions(rows, *fit)
    return solution


def solve_ipf(
    system: CoefficientMatrix,
    options: Optional[SolveOptions] = None,
) -> MaxEntSolution:
    """Maximum-entropy distribution by iterative proportional fitting.

    Cycles through the binary rows of ``system``; each update rescales
    the probabilities on the support of one row by the ratio of its
    target to its current moment.  A target of exactly zero zeroes the
    support outright.  Convergence is checked on the max-norm moment
    residual after every full cycle.

    Raises
    ------
    ZeroMarginalError
        If a row has positive target but zero current mass, so no
        multiplicative update can reach it.
    ConvergenceError
        If the single-constraint update budget runs out above tolerance.
    """
    opts = options or SolveOptions()
    if not system.is_binary:
        raise InputError("proportional fitting requires binary constraint rows")
    targets = system.moments
    if np.any(targets < 0.0) or np.any(targets > 1.0 + 1e-12):
        raise InputError("binary-row targets must lie in [0, 1]")
    max_updates = opts.max_iterations or IPF_DEFAULT_UPDATES

    supports = [np.flatnonzero(row == 1.0) for row in system.rows]
    n_states = system.n_states
    p = np.full(n_states, 1.0 / n_states)
    updates = 0
    while True:
        for a, supp in enumerate(supports):
            target = targets[a]
            if target <= 0.0:
                p[supp] = 0.0
            else:
                current = float(p[supp].sum())
                if current == 0.0:
                    raise ZeroMarginalError(
                        f"row {a} has target {target:.6g} but zero current mass"
                    )
                p[supp] *= target / current
            updates += 1
        # Re-apply the normalization constraint at the end of the cycle
        # so the residual that passes the tolerance check is the one the
        # final unit-mass snap preserves.
        total = float(p.sum())
        if total > 0.0:
            p /= total
        residual = float(np.max(np.abs(system.rows @ p - targets)))
        if residual <= opts.tolerance:
            break
        if updates >= max_updates:
            raise ConvergenceError(
                f"proportional fitting stopped at residual {residual:.3e} "
                f"after {updates} updates"
            )
    p, residual = _snap_normalization(p, system.rows, targets, residual)
    return MaxEntSolution(
        distribution=Distribution(p),
        multipliers=None,
        iterations=updates,
        residual=residual,
    )


@dataclass(frozen=True)
class FitResult:
    """Maximum-entropy fit of a raw constraint system on the full space.

    The solve itself happens on the working space left after the
    zero-moment exclusion cascade; ``probabilities`` pads the solution
    back to the full space with exact zeros.  ``rank_effective`` counts
    the canonical rank of the reduced system plus one pinning constraint
    per excluded state, so ``n_states - rank_effective`` is the number of
    free fluctuation directions regardless of how many states were
    removed.
    """

    solution: MaxEntSolution
    architecture: ArchitectureMatrix
    excluded: np.ndarray
    n_states: int
    rank_effective: int
    probabilities: np.ndarray = field(repr=False)

    @property
    def distribution(self) -> Distribution:
        return Distribution(self.probabilities)

    @property
    def degrees_of_freedom(self) -> int:
        return self.n_states - self.rank_effective


def _working_systems(
    systems: Sequence[Union[CoefficientMatrix, ArchitectureMatrix]],
) -> list[Union[tuple[CoefficientMatrix, ArchitectureMatrix, np.ndarray], SolverError]]:
    """Per system, the system on its working space, its canonical form
    and the mask of excluded states; or the :class:`SolverError` that
    stopped it.

    The binary systems run the exclusion cascade, one
    :func:`~maxentkit.constraints._support_reductions` call per row
    shape, and each that excludes a state is replaced by its surviving
    rows on its working states.  Every system is then canonicalized,
    one lockstep replay per
    :attr:`~maxentkit.constraints._RowForm.replay_key`.
    """
    out: list = [None] * len(systems)
    working = list(systems)
    excluded = [np.zeros(system.n_states, dtype=bool) for system in systems]
    shapes: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, system in enumerate(systems):
        if system._form.is_binary:
            shapes[system.rows.shape].append(i)
    for members in shapes.values():
        rows = np.array([systems[i].rows for i in members])
        moments = np.array([systems[i].moments for i in members])
        masks, kept, errors = _support_reductions(rows == 1.0, moments)
        for k, exc in errors.items():
            if isinstance(exc, InputError):
                raise exc
            out[members[k]] = exc
        for k in np.flatnonzero(masks.any(axis=1)).tolist():
            if k in errors:
                continue
            reduced_rows = rows[k][np.ix_(kept[k], ~masks[k])]
            reduced_moments = moments[k][kept[k]]
            reduced_rows.setflags(write=False)
            reduced_moments.setflags(write=False)
            # Reduced from an architecture, the rows need not keep an
            # all-ones row, which the CoefficientMatrix constructor asks for.
            i = members[k]
            working[i] = _derive(CoefficientMatrix, _RowForm(reduced_rows), reduced_moments)
            excluded[i] = masks[k]
    stacks: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, system in enumerate(working):
        if out[i] is None:
            stacks[system._form.replay_key].append(i)
    for members in stacks.values():
        forms = [working[i]._form for i in members]
        moments = np.array([working[i].moments for i in members])
        for i, architecture in zip(members, _architectures(forms, moments)):
            if not isinstance(architecture, SolverError):
                architecture = (working[i], architecture, excluded[i])
            out[i] = architecture
    return out


def _saturated_solution(architecture: ArchitectureMatrix) -> MaxEntSolution:
    """The unique feasible point of a system saturated on its working
    space: the RREF is the identity, so the moments are the point."""
    p = np.array(architecture.moments, dtype=float)
    tiny = (p < 0.0) & (p >= -1e-12)
    p[tiny] = 0.0
    if np.any(p < 0.0):
        raise InfeasibleMomentsError(
            "infeasible moments: saturated system implies a negative probability"
        )
    p, residual = _snap_normalization(p, architecture.rows, architecture.moments, 0.0)
    return MaxEntSolution(
        distribution=Distribution(p), multipliers=None, iterations=0, residual=residual
    )


def _fit_result(
    system: Union[CoefficientMatrix, ArchitectureMatrix],
    architecture: ArchitectureMatrix,
    excluded: np.ndarray,
    solution: MaxEntSolution,
) -> FitResult:
    probabilities = solution.distribution.probs
    n_excluded = int(excluded.sum())
    if n_excluded:
        probabilities = np.zeros(system.n_states)
        probabilities[~excluded] = solution.distribution.probs
        probabilities.setflags(write=False)
    return FitResult(
        solution=solution,
        architecture=architecture,
        excluded=excluded,
        n_states=system.n_states,
        rank_effective=architecture.rank + n_excluded,
        probabilities=probabilities,
    )


def fit_linear_systems(
    systems: Sequence[Union[CoefficientMatrix, ArchitectureMatrix]],
    options: Optional[SolveOptions] = None,
) -> list[Union[FitResult, SolverError]]:
    """Canonicalize, reduce, and solve many raw constraint systems.

    The binary systems run the exclusion cascade, a stack per row shape,
    and every system is canonicalized on its working space, systems of
    one row count and elimination length by one lockstep replay (see
    :func:`_working_systems`); a saturated one is read off directly.
    The others are grouped by ``(rank, working states)`` and each group
    runs through the passes of :func:`_newton_passes` from uniform.  An
    architecture is its own canonical form, so it may be passed as
    well.  Every system's fit depends on that system alone, not on its
    group.

    Returns one entry per system, in order: its :class:`FitResult`, or
    the :class:`SolverError` that stopped it.  Input errors raise.
    """
    opts = options or SolveOptions()
    results: list[Union[FitResult, SolverError, None]] = [None] * len(systems)
    groups: dict[tuple[int, int], list] = defaultdict(list)
    for i, (system, work) in enumerate(zip(systems, _working_systems(systems))):
        if isinstance(work, SolverError):
            results[i] = work
            continue
        _, architecture, excluded = work
        if architecture.rank < architecture.n_states:
            groups[architecture.rows.shape].append((i, architecture, excluded))
            continue
        try:
            solution = _saturated_solution(architecture)
        except SolverError as exc:
            results[i] = exc
            continue
        results[i] = _fit_result(system, architecture, excluded, solution)

    for members in groups.values():
        rows = np.array([architecture.rows for _, architecture, _ in members])
        targets = np.array([architecture.moments for _, architecture, _ in members])
        *fit, errors = _newton_passes(rows, targets, opts)
        solutions = _solutions(rows, *fit)
        for k, (i, architecture, excluded) in enumerate(members):
            results[i] = errors[k] if k in errors else _fit_result(
                systems[i], architecture, excluded, solutions[k]
            )
    return results


def fit_linear_system(
    system: Union[CoefficientMatrix, ArchitectureMatrix],
    options: Optional[SolveOptions] = None,
    method: str = "newton",
) -> FitResult:
    """Canonicalize, reduce, and solve one raw constraint system.

    ``method="newton"`` is :func:`fit_linear_systems` on a batch of one
    and raises its error, if any.  ``method="ipf"`` runs the same
    exclusion cascade and saturated read-off, then :func:`solve_ipf` on
    the reduced system.

    Parameters
    ----------
    system : CoefficientMatrix, or ArchitectureMatrix for ``"newton"``
    options : SolveOptions, optional
    method : {"newton", "ipf"}
    """
    if method not in ("newton", "ipf"):
        raise InputError(f"unknown solve method {method!r}")
    if method == "newton":
        (fit,) = fit_linear_systems([system], options)
        if isinstance(fit, SolverError):
            raise fit
        return fit
    (work,) = _working_systems([system])
    if isinstance(work, SolverError):
        raise work
    reduced, architecture, excluded = work
    if architecture.rank == architecture.n_states:
        solution = _saturated_solution(architecture)
    else:
        solution = solve_ipf(reduced, options)
    return _fit_result(system, architecture, excluded, solution)


def sample_equivalence_class(
    solution: MaxEntSolution,
    kernel: KernelBasis,
    n: Union[int, float],
    rng: np.random.Generator,
    *,
    max_rejections: int = 1000,
) -> Distribution:
    """Draw one member of the equivalence class around a MaxEnt anchor.

    The draw is ``p = anchor + sqrt(anchor / n) * (x @ vectors)`` with
    ``x`` standard normal, which satisfies the anchor's constraints by
    construction and models the moment-preserving fluctuations of an
    ``n``-sample empirical distribution.  Draws that leave the simplex
    are rejected and retried.

    Raises
    ------
    RejectionExhaustedError
        After ``max_rejections`` consecutive out-of-simplex draws;
        ``n`` is then too small for Gaussian fluctuations to stay
        inside the simplex.
    """
    if n <= 0:
        raise InputError("sample size must be positive")
    anchor = solution.distribution.probs
    if anchor.size != kernel.anchor.size:
        raise InputError("solution and kernel disagree on state count")
    scale = np.sqrt(anchor / float(n))
    for _ in range(max_rejections):
        x = rng.standard_normal(kernel.dim)
        p = anchor + scale * (x @ kernel.vectors)
        if float(p.min()) >= 0.0:
            return Distribution(p)
    raise RejectionExhaustedError(
        f"{max_rejections} consecutive draws left the simplex; "
        "increase the sample size"
    )


def _solutions(
    row_stack: np.ndarray, p: np.ndarray, residuals: np.ndarray, converged: np.ndarray,
    steps: np.ndarray,
) -> list[Optional[MaxEntSolution]]:
    """Per system of a Newton stack, its solution if it converged, else
    ``None``.  Multipliers are the least squares of ``log p`` on the
    rows; a state whose probability underflowed to zero has no finite
    multipliers, and such a fit reports none."""
    has_theta = converged & (p > 0.0).all(axis=1)
    finite = np.flatnonzero(has_theta)
    theta = np.zeros(row_stack.shape[:2])
    if finite.size:
        theta[finite] = _multipliers(row_stack[finite], p[finite])
    distributions = iter(Distribution.stack(p[converged]))
    return [
        MaxEntSolution(next(distributions), theta[k] if has_theta[k] else None,
                       int(steps[k]), float(residuals[k])) if converged[k] else None
        for k in range(len(p))
    ]


def _newton_passes(
    row_stack: np.ndarray,
    target_stack: np.ndarray,
    options: Optional[SolveOptions] = None,
    start: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[int, SolverError]]:
    """Fit a stack of full-row-rank systems, rows ``(g, d, a)`` and
    targets ``(g, d)``, by up to three passes of :func:`_newton_iterate`:
    undamped from ``start`` (uniform when omitted); undamped from uniform
    for the systems the first pass flags whose start was not uniform;
    and damped from uniform for the systems still flagged.

    Each row of ``start`` must be strictly positive with its log in the
    row space of its system, as the fit of a sub-model's rows is; Newton
    steps keep the log there, so the solution is still the
    maximum-entropy one.  Returns the probabilities (normalized where
    converged), the max-norm residuals, the converged mask, the steps of
    the pass each converged system converged in, and, by index, the
    typed error of every system that did not converge.
    """
    opts = options or SolveOptions()
    n_systems, _, n_states = row_stack.shape
    uniform = 1.0 / n_states
    cap = min(opts.max_iterations or BATCH_ITERATIONS, BATCH_ITERATIONS)
    limits = (opts.tolerance, cap, _BATCH_OVERFLOW)
    p = np.full((n_systems, n_states), uniform) if start is None else np.array(start, dtype=float)
    p, residuals, converged, steps = _newton_iterate(row_stack, target_stack, p, *limits)
    flagged = np.flatnonzero(~converged)
    if start is not None and flagged.size:
        retry = flagged[(start[flagged] != uniform).any(axis=1)]
        if retry.size:
            p[retry], residuals[retry], converged[retry], steps[retry] = _newton_iterate(
                row_stack[retry], target_stack[retry],
                np.full((retry.size, n_states), uniform), *limits,
            )
            flagged = np.flatnonzero(~converged)
    errors: dict[int, SolverError] = {}
    if flagged.size:
        (p[flagged], residuals[flagged], converged[flagged], steps[flagged],
         damped_errors) = _damped_pass(row_stack[flagged], target_stack[flagged], opts)
        errors = {int(flagged[k]): exc for k, exc in damped_errors.items()}
    return p, residuals, converged, steps, errors


def _damped_pass(
    row_stack: np.ndarray, target_stack: np.ndarray, opts: SolveOptions
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[int, SolverError]]:
    """The damped pass of :func:`_newton_passes`, from uniform, with a
    typed error for each system that does not converge."""
    n_systems, _, n_states = row_stack.shape
    cap, errors = opts.max_iterations or NEWTON_DEFAULT_ITERATIONS, {}
    fit = _newton_iterate(
        row_stack, target_stack, np.full((n_systems, n_states), 1.0 / n_states),
        opts.tolerance, cap, _EXP_OVERFLOW, errors,
    )
    return (*fit, errors)


def _newton_iterate(
    row_stack: np.ndarray,
    target_stack: np.ndarray,
    p: np.ndarray,
    tolerance: float,
    max_iterations: int,
    overflow: float,
    errors: Optional[dict[int, SolverError]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Newton kernel: one pass over a stack of same-shape systems
    from the iterates ``p``, which it updates in place; also returns the
    residuals, the converged mask and each converged system's steps.  A
    system converges when both the iterate and its normalization meet
    the tolerance; it reports the normalization.

    Without ``errors`` the pass is undamped: a system whose Jacobian is
    singular, whose step applies an exponent beyond ``overflow``, or
    that reaches ``max_iterations`` is flagged (left unconverged).  With
    ``errors`` the pass is damped (see :func:`_damped_step`), and each
    system that stops unconverged gets its typed error there, by index.
    """
    n_systems = row_stack.shape[0]
    residuals = np.full(n_systems, np.inf)
    converged = np.zeros(n_systems, dtype=bool)
    steps = np.zeros(n_systems, dtype=int)
    active = np.arange(n_systems)

    for it in range(max_iterations + 1):
        if active.size == 0:
            break
        rows = row_stack[active]
        probs = p[active]
        moments = (rows @ probs[:, :, None])[:, :, 0]
        diff = moments - target_stack[active]
        res = np.max(np.abs(diff), axis=1)
        done = res <= tolerance
        if done.any():
            near = np.flatnonzero(done)
            normalized = moments[near] / probs[near].sum(axis=1, keepdims=True)
            res[near] = np.maximum(
                res[near],
                np.max(np.abs(normalized - target_stack[active[near]]), axis=1),
            )
            done[near] = res[near] <= tolerance
        residuals[active] = res
        if done.any():
            converged[active[done]] = True
            steps[active[done]] = it
            keep = ~done
            active = active[keep]
            rows, probs, diff = rows[keep], probs[keep], diff[keep]
        if active.size == 0 or it == max_iterations:
            break

        jacobian = (rows * probs[:, None, :]) @ rows.transpose(0, 2, 1)
        try:
            delta = np.linalg.solve(jacobian, diff[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            delta = np.empty_like(diff)
            singular = np.zeros(active.size, dtype=bool)
            for i in range(active.size):
                try:
                    delta[i] = np.linalg.solve(jacobian[i], diff[i])
                except np.linalg.LinAlgError:
                    singular[i] = True
            if singular.any():
                if errors is not None:
                    for i in active[singular].tolist():
                        errors[i] = SingularJacobianError(f"Jacobian singular at iteration {it}")
                keep = ~singular
                active = active[keep]
                rows, probs, diff, delta = rows[keep], probs[keep], diff[keep], delta[keep]
                if active.size == 0:
                    continue

        shift = (rows.transpose(0, 2, 1) @ delta[:, :, None])[:, :, 0]
        if errors is not None:
            stalled = _damped_step(rows, probs, diff, target_stack[active], shift, overflow)
            p[active] = probs
            for k in stalled.tolist():
                i = int(active[k])
                errors[i] = _classify_failure(
                    rows[k], target_stack[i], probs[k], diff[k], it + 1, tolerance
                )
            active = np.delete(active, stalled)
            continue
        runaway = np.max(np.abs(shift), axis=1) > overflow
        if runaway.any():
            keep = ~runaway
            active = active[keep]
            probs, shift = probs[keep], shift[keep]
            if active.size == 0:
                continue
        p[active] = probs * np.exp(-shift)

    if errors is not None:
        # The systems left at the iteration cap.
        for k, i in enumerate(active.tolist()):
            errors[i] = _classify_failure(rows[k], target_stack[i], p[i], diff[k], it, tolerance)

    if converged.any():
        idx = np.flatnonzero(converged)
        p[idx] /= p[idx].sum(axis=1, keepdims=True)
        moments = (row_stack[idx] @ p[idx][:, :, None])[:, :, 0]
        residuals[idx] = np.max(np.abs(moments - target_stack[idx]), axis=1)

    return p, residuals, converged, steps


def _damped_step(
    rows: np.ndarray, probs: np.ndarray, diff: np.ndarray, targets: np.ndarray,
    shift: np.ndarray, overflow: float,
) -> np.ndarray:
    """Take each system's damped Newton step on ``probs``, in place: from
    the full step ``probs * exp(-shift)``, each system halves its own
    step, up to :data:`DAMPING_HALVINGS` times, while an exponent exceeds
    ``overflow``, the iterate gets a zero or non-finite probability, or
    its max-norm moment residual is not below that of ``diff``.  Returns
    the positions of the systems whose step was never accepted."""
    residual = np.max(np.abs(diff), axis=1)
    pending = np.arange(len(probs))
    scale = np.ones(len(probs))
    for _ in range(DAMPING_HALVINGS + 1):
        # Halving is exact, so this is the shift of the halved delta.
        trial = scale[:, None] * shift[pending]
        pos = np.flatnonzero(np.max(np.abs(trial), axis=1) <= overflow)
        p_new = probs[pending[pos]] * np.exp(-trial[pos])
        ok = np.isfinite(p_new).all(axis=1) & (p_new.min(axis=1) > 0.0)
        pos, p_new = pos[ok], p_new[ok]
        idx = pending[pos]
        moments = (rows[idx] @ p_new[:, :, None])[:, :, 0]
        lower = np.max(np.abs(moments - targets[idx]), axis=1) < residual[idx]
        probs[idx[lower]] = p_new[lower]
        left = np.ones(pending.size, dtype=bool)
        left[pos[lower]] = False
        pending, scale = pending[left], 0.5 * scale[left]
        if pending.size == 0:
            break
    return pending
