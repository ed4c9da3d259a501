"""Maximum-entropy solvers for linearly constrained simplex models.

:func:`_fit_table` is the fit path.  The binary systems run the
zero-moment exclusion cascade, all in one padded call, so boundary
moments (targets of exactly zero or one) shrink the working space
instead of diverging the multipliers.  Every system, reduced or not,
is then canonicalized in one padded pass: the row forms not yet
eliminated are eliminated together, and every elimination is replayed
on its moments in one lockstep replay.  A saturated system is read off
directly; the others are stacked by their count ``a'`` of working
states and their padded width: on at most :data:`PAD_STATES` working
states each system's rows are padded with zero rows of target zero to
the width ``a' - 1``, so that systems of every rank share one stack;
on larger spaces a system keeps its own rank as its width.  Each stack
is solved by the one Newton kernel, :func:`_newton_iterate`.  A padded
row gets a unit Jacobian diagonal, so its Newton step is exactly zero;
the width depends on the system alone, so a system gets the same fit
alone as in any stack.
:func:`_fit_table` returns the fits as one table of probabilities, with
the effective ranks and the errors by index, which is all that scoring
reads.  :func:`fit_linear_system` is the object view of one system: it
builds the system's :class:`FitResult` from its row of the table, and
is the one fit path that computes multipliers.
Each step multiplies the iterate by ``exp(-rows^T @ delta)`` where
``delta`` solves the Jacobian system ``J = rows @ diag(p) @ rows^T``;
for a full-row-rank architecture and a strictly positive iterate the
Jacobian is a Gram matrix and stays invertible, and the converged
solution is of exponential form: its log lies in the row space of the
architecture.

The kernel reads a stack's rows through one of two row forms with the
same methods.  :class:`_DenseRows` is a ``(g, d, a)`` array of any real
coefficients with a mask of padding rows; the stacks of
:func:`_fit_table` use it.
:class:`_ProductRows` is for 0/1 spin-product rows, as the benchmark
sweep fits: it holds one shared basis of product rows and each
system's row indices, and since the product of two such rows is the
row of the union of their subsets, one vector of all basis moments per
system gives both its moments and its whole Jacobian.  The kernel keeps
the rows, iterates and targets of the systems still iterating
compacted, and compacts them only when systems leave.

:func:`_newton_passes` runs a stack through up to three
passes of the kernel: undamped; undamped again from uniform for the
warm-started systems the first pass flags (singular, runaway or
unconverged); and damped from uniform for the systems still flagged,
each with its own step size and its own typed error.

:func:`solve_ipf` reaches the same distribution by multiplicative
proportional-fitting updates over binary marginal rows; the two agree
within a small multiple of the tolerance, which is used as a standing
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from collections import defaultdict
from numbers import Integral
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
    _check_positive_real,
)
from .simplex import Distribution

__all__ = [
    "SolveOptions",
    "MaxEntSolution",
    "FitResult",
    "solve_ipf",
    "fit_linear_system",
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

#: Largest working space whose systems are all padded to ``a' - 1``
#: rows, so that one Newton stack holds every rank.  Up to 16 states a
#: step costs about the same at any width up to 15 rows, and merging
#: the stacks pays (a select of the 167 four-spin models runs 1-2
#: stacks instead of 15-17); on more states the padding's arithmetic
#: outweighs that for a stack of one rank, as the Monte-Carlo refits and
#: single fits are, so there each system keeps its rank as its width.
PAD_STATES = 16


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

    ``tolerance`` must be finite and positive, and ``max_iterations``,
    when set, an integer of at least one.  ``max_iterations`` caps the
    Newton steps of each pass: of the damped pass,
    :data:`NEWTON_DEFAULT_ITERATIONS` when unset; of each undamped pass,
    never more than :data:`BATCH_ITERATIONS`.  For :func:`solve_ipf` it caps the
    single-constraint updates, :data:`IPF_DEFAULT_UPDATES` when unset.
    """

    tolerance: float = 1e-10
    max_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise InputError("tolerance must be finite and positive")
        cap = self.max_iterations
        if cap is not None and (
            isinstance(cap, bool) or not isinstance(cap, Integral) or cap < 1
        ):
            raise InputError("max_iterations must be an integer of at least 1")


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
    stack: "_Rows", k: int, targets: np.ndarray, p: np.ndarray, diff: np.ndarray,
    iterations: int, tolerance: float,
) -> SolverError:
    """The typed error of system ``k`` of the row stack ``stack``, with
    targets ``targets``, which the damped pass stopped at the iterate
    ``p`` with moment residuals ``diff``.  It is read on the system's
    own rows, without padding.  The residuals reported are those the
    convergence test failed on: the iterate's, or its normalization's
    where the iterate meets the tolerance."""
    own = ~stack.pad[k]
    rows, targets, diff = stack.take([k]).dense()[0][own], targets[own], diff[own]
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
    stopped it.  The systems share one state space.

    The binary systems run the exclusion cascade in one
    :func:`~maxentkit.constraints._support_reductions` call, padded to
    one row count with zero rows of target zero, which exclude nothing
    and never survive; each system that excludes a state is replaced by
    its surviving rows on its working states.  Every system is then
    canonicalized in one
    :func:`~maxentkit.constraints._architectures` call.
    """
    out: list = [None] * len(systems)
    working = list(systems)
    excluded = np.zeros((len(systems), systems[0].n_states if systems else 0), dtype=bool)
    binary = [i for i, system in enumerate(systems) if system._form.is_binary]
    if binary:
        counts = np.array([len(systems[i].rows) for i in binary])
        live = np.arange(counts.max()) < counts[:, None]
        supports = np.zeros((*live.shape, excluded.shape[1]), dtype=bool)
        supports[live] = np.concatenate([systems[i].rows for i in binary]) == 1.0
        moments = np.zeros(live.shape)
        moments[live] = np.concatenate([systems[i].moments for i in binary])
        masks, kept, errors = _support_reductions(supports, moments)
        for k, exc in errors.items():
            if isinstance(exc, InputError):
                raise exc
            out[binary[k]] = exc
        for k in np.flatnonzero(masks.any(axis=1)).tolist():
            if k in errors:
                continue
            i = binary[k]
            own = kept[k, : len(systems[i].rows)]
            reduced_rows = systems[i].rows[np.ix_(own, ~masks[k])]
            reduced_moments = systems[i].moments[own]
            reduced_rows.setflags(write=False)
            reduced_moments.setflags(write=False)
            # Reduced from an architecture, the rows need not keep an
            # all-ones row, which the CoefficientMatrix constructor asks for.
            working[i] = _derive(CoefficientMatrix, _RowForm(reduced_rows), reduced_moments)
            excluded[i] = masks[k]
    members = [i for i in range(len(systems)) if out[i] is None]
    architectures = _architectures(
        [working[i]._form for i in members], [working[i].moments for i in members]
    )
    for i, architecture in zip(members, architectures):
        if not isinstance(architecture, SolverError):
            architecture = (working[i], architecture, excluded[i])
        out[i] = architecture
    return out


def _saturated_point(architecture: ArchitectureMatrix) -> tuple[np.ndarray, float]:
    """The unique feasible point, and its residual, of a system
    saturated on its working space: the RREF is the identity, so the
    moments are the point."""
    p = np.array(architecture.moments, dtype=float)
    tiny = (p < 0.0) & (p >= -1e-12)
    p[tiny] = 0.0
    if np.any(p < 0.0):
        raise InfeasibleMomentsError(
            "infeasible moments: saturated system implies a negative probability"
        )
    return _snap_normalization(p, architecture.rows, architecture.moments, 0.0)


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


@dataclass(frozen=True)
class _FitTable:
    """Fits of many systems on one state space, by system index.

    ``probabilities`` holds one row per system on the full state space,
    exact zeros on its excluded states, and NaN throughout where its fit
    failed; ``rank_eff`` the effective rank of each fit (see
    :class:`FitResult`), which :func:`_fit_table` sets to 0 where the fit
    failed; ``errors`` the :class:`SolverError` of each failed system.
    """

    probabilities: np.ndarray
    rank_eff: np.ndarray
    errors: dict[int, SolverError]


def _padded_width(rank: int, n_working: int) -> int:
    """The row count a system of rank ``rank`` below its ``a'`` working
    states is padded to: ``a' - 1`` on at most :data:`PAD_STATES`
    working states, so that all such systems on one working space share
    a stack; its own rank on more.  It depends on the system alone."""
    return n_working - 1 if n_working <= PAD_STATES else rank


def _padded_stack(
    architectures: Sequence[ArchitectureMatrix], width: int
) -> tuple["_DenseRows", np.ndarray]:
    """The rows and targets of architectures with one count of states,
    each padded with zero rows of target zero to ``width`` rows."""
    ranks = np.array([architecture.rank for architecture in architectures])
    pad = np.arange(width) >= ranks[:, None]
    rows = np.zeros((*pad.shape, architectures[0].n_states))
    targets = np.zeros(pad.shape)
    # A mask fills its rows in row-major order: system by system.
    rows[~pad] = np.concatenate([architecture.rows for architecture in architectures])
    targets[~pad] = np.concatenate([architecture.moments for architecture in architectures])
    return _DenseRows(rows, pad), targets


def _fit_table(
    systems: Sequence[Union[CoefficientMatrix, ArchitectureMatrix]],
    options: Optional[SolveOptions],
) -> _FitTable:
    """Canonicalize, reduce, and solve many raw constraint systems on
    one state space, into one table of fits (see :class:`_FitTable`):
    the batch view of the fit core, which selection, the scalar scores,
    the Monte-Carlo refits and the benchmark's dense fallback read; see
    :func:`_fit_stacks`.  An architecture is its own canonical form, so
    it may be passed as well."""
    return _fit_stacks(systems, options)[0]


def _fit_stacks(
    systems: Sequence[Union[CoefficientMatrix, ArchitectureMatrix]],
    options: Optional[SolveOptions],
) -> tuple[_FitTable, list, np.ndarray, np.ndarray]:
    """The fit core: the table of :func:`_fit_table` and, for the object
    view :func:`fit_linear_system`, each system's entry of
    :func:`_working_systems` and each fit's Newton steps (0 when read
    off) and moment residual.

    The binary systems run the exclusion cascade and every system is
    canonicalized on its working space (see :func:`_working_systems`).
    A saturated system is read off directly.  The others are stacked by
    their count ``a'`` of working states and their padded width (see
    :func:`_padded_width`), and each stack runs through the passes of
    :func:`_newton_passes` from uniform.  The width depends on the
    system alone, so a system's fit is the same in any stack.  Input
    errors raise, as does a converged row that is not a distribution.
    """
    opts = options or SolveOptions()
    n_systems = len(systems)
    probs = np.full((n_systems, systems[0].n_states if systems else 0), np.nan)
    excluded = np.zeros(probs.shape, dtype=bool)
    rank_eff = np.zeros(n_systems, dtype=int)
    iterations = np.zeros(n_systems, dtype=int)
    residuals = np.zeros(n_systems)
    errors: dict[int, SolverError] = {}
    working = _working_systems(systems)
    stacks: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, work in enumerate(working):
        if isinstance(work, SolverError):
            errors[i] = work
            continue
        _, architecture, excluded[i] = work
        rank, n_working = architecture.rank, architecture.n_states
        rank_eff[i] = rank
        if rank < n_working:
            stacks[n_working, _padded_width(rank, n_working)].append(i)
            continue
        try:
            p, residuals[i] = _saturated_point(architecture)
        except SolverError as exc:
            errors[i] = exc
            continue
        probs[i] = 0.0
        probs[i, ~excluded[i]] = p

    for (_, width), members in stacks.items():
        rows, targets = _padded_stack([working[i][1] for i in members], width)
        p, stack_residuals, _, steps, stack_errors = _newton_passes(rows, targets, opts)
        errors.update((members[k], exc) for k, exc in stack_errors.items())
        fitted = np.ones(len(members), dtype=bool)
        fitted[list(stack_errors)] = False
        idx = np.array(members)[fitted]
        block = np.zeros((idx.size, probs.shape[1]))
        # Each fit fills the a' kept states of its row, in order.
        block[~excluded[idx]] = p[fitted].ravel()
        probs[idx] = block
        iterations[idx], residuals[idx] = steps[fitted], stack_residuals[fitted]

    rank_eff += excluded.sum(axis=1)
    failed = list(errors)
    rank_eff[failed] = 0
    Distribution._check_rows(np.delete(probs, failed, axis=0))
    return _FitTable(probs, rank_eff, errors), working, iterations, residuals


def fit_linear_system(
    system: Union[CoefficientMatrix, ArchitectureMatrix],
    options: Optional[SolveOptions] = None,
    method: str = "newton",
) -> FitResult:
    """Canonicalize, reduce, and solve one raw constraint system.

    ``method="newton"`` is the fit core (see :func:`_fit_stacks`) on a
    batch of one, and raises its error, if any.  Every fit depends on its
    system alone, so the system gets the same fit here as in any batch
    of :func:`_fit_table`.  The :class:`MaxEntSolution` holds the
    multipliers, the least squares of ``log p`` on the system's rows,
    where the fit came from Newton steps and is strictly positive.
    ``method="ipf"`` runs the same exclusion cascade and saturated
    read-off, then :func:`solve_ipf` on the reduced system.

    Parameters
    ----------
    system : CoefficientMatrix, or ArchitectureMatrix for ``"newton"``
    options : SolveOptions, optional
    method : {"newton", "ipf"}
    """
    if method not in ("newton", "ipf"):
        raise InputError(f"unknown solve method {method!r}")
    if method == "newton":
        table, (work,), iterations, residuals = _fit_stacks([system], options)
        if table.errors:
            raise table.errors[0]
        _, architecture, excluded = work
        p, multipliers = table.probabilities[0, ~excluded], None
        # A saturated fit is read off, not reached by Newton steps; a
        # state whose probability underflowed to zero has no finite
        # multipliers.
        if architecture.rank < architecture.n_states and (p > 0.0).all():
            (multipliers,) = _multipliers(architecture.rows[None], p[None])
        solution = MaxEntSolution(
            Distribution(p), multipliers, int(iterations[0]), float(residuals[0])
        )
        return _fit_result(system, architecture, excluded, solution)
    (work,) = _working_systems([system])
    if isinstance(work, SolverError):
        raise work
    reduced, architecture, excluded = work
    if architecture.rank == architecture.n_states:
        p, residual = _saturated_point(architecture)
        solution = MaxEntSolution(Distribution(p), None, 0, residual)
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
    are rejected and retried.  ``n`` must be a finite positive number.

    Raises
    ------
    RejectionExhaustedError
        After ``max_rejections`` consecutive out-of-simplex draws;
        ``n`` is then too small for Gaussian fluctuations to stay
        inside the simplex.
    """
    _check_positive_real(n, "sample size n")
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


class _DenseRows:
    """A stack of row matrices, ``(g, d, a)``, of any real coefficients:
    the rows of :func:`_fit_table`.

    ``pad`` ``(g, d)``, no padding when omitted, marks padding: zero
    rows, of target zero, that fill a system of fewer rows up to ``d``
    (see :func:`_padded_stack`).  The
    Jacobian gets a unit diagonal at a padded row, so a padded block is
    the identity and its Newton step is exactly zero.  The mask is
    explicit because a real row may be zero on the working states too.

    The Newton kernel reads rows only through the attributes below,
    which :class:`_ProductRows` shares.  ``statistics(p)`` is what the
    moments and the Jacobian at ``p`` are read from; here ``p`` itself.
    """

    def __init__(self, stack: np.ndarray, pad: Optional[np.ndarray] = None) -> None:
        # C order: the batched matmuls round by layout.
        self.stack = np.ascontiguousarray(stack)
        self.shape = self.stack.shape
        self.pad = np.zeros(self.shape[:2], dtype=bool) if pad is None else pad

    def take(self, idx) -> "_DenseRows":
        return _DenseRows(self.stack[idx], self.pad[idx])

    def dense(self) -> np.ndarray:
        return self.stack

    def statistics(self, p: np.ndarray) -> np.ndarray:
        return p

    def moments(self, stats: np.ndarray) -> np.ndarray:
        return (self.stack @ stats[:, :, None])[:, :, 0]

    @cached_property
    def _padding(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.pad)

    def jacobian(self, stats: np.ndarray) -> np.ndarray:
        jacobian = (self.stack * stats[:, None, :]) @ self.stack.transpose(0, 2, 1)
        system, row = self._padding
        jacobian[system, row, row] += 1.0
        return jacobian

    def shift(self, delta: np.ndarray) -> np.ndarray:
        return (self.stack.transpose(0, 2, 1) @ delta[:, :, None])[:, :, 0]


class _ProductRows:
    """A stack of systems of 0/1 product rows drawn from one shared
    ``basis`` ``(b, a)``: system ``k`` has rows ``basis[index[k]]``.

    The basis is closed under products, ``union[r, s]`` being the basis
    row of ``basis[r] * basis[s]`` (the product row of a union of spin
    subsets), so one vector of all ``b`` basis moments per system,
    ``p @ basis.T``, holds both its moments and its whole Jacobian
    ``J_rs = <basis[union[r, s]]>``, and the shift ``rows^T delta`` is
    ``delta`` scattered over the basis, times the basis.  No
    ``(g, d, a)`` row stack is built.
    """

    def __init__(
        self, basis: np.ndarray, index: np.ndarray, union: np.ndarray,
        pairs: Optional[np.ndarray] = None,
    ) -> None:
        self.basis, self.index, self.union = basis, index, union
        # pairs[k, r, s]: the basis row of system k's rows r and s times
        # each other; a taken stack gathers it instead.
        self.pairs = union[index[:, :, None], index[:, None, :]] if pairs is None else pairs
        self.shape = (*index.shape, basis.shape[1])

    def take(self, idx) -> "_ProductRows":
        return _ProductRows(self.basis, self.index[idx], self.union, self.pairs[idx])

    @property
    def pad(self) -> np.ndarray:
        """No row is padding."""
        return np.zeros(self.index.shape, dtype=bool)

    def dense(self) -> np.ndarray:
        return self.basis[self.index]

    def _offsets(self) -> np.ndarray:
        """Where each system's basis moments start in the flattened
        ``(g, b)`` statistics."""
        return self.basis.shape[0] * np.arange(len(self.index), dtype=np.intp)

    # Flat positions into the (g, b) statistics, as intp: np.take over
    # them is several times faster than a 2-D fancy index or int32
    # positions.
    @cached_property
    def _flat_rows(self) -> np.ndarray:
        return self.index + self._offsets()[:, None]

    @cached_property
    def _flat_pairs(self) -> np.ndarray:
        return self.pairs + self._offsets()[:, None, None]

    def statistics(self, p: np.ndarray) -> np.ndarray:
        return p @ self.basis.T

    def moments(self, stats: np.ndarray) -> np.ndarray:
        return np.take(stats, self._flat_rows)

    def jacobian(self, stats: np.ndarray) -> np.ndarray:
        return np.take(stats, self._flat_pairs)

    def shift(self, delta: np.ndarray) -> np.ndarray:
        spread = np.zeros((len(delta), self.basis.shape[0]))
        np.put(spread, self._flat_rows, delta)
        return spread @ self.basis


_Rows = Union[_DenseRows, _ProductRows]


def _moments(rows: _Rows, p: np.ndarray) -> np.ndarray:
    return rows.moments(rows.statistics(p))


def _newton_passes(
    rows: _Rows,
    target_stack: np.ndarray,
    options: Optional[SolveOptions] = None,
    start: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[int, SolverError]]:
    """Fit a stack of systems of full row rank but for padding rows,
    rows ``(g, d, a)`` (one of the row forms :class:`_DenseRows` and
    :class:`_ProductRows`) and targets ``(g, d)``, by up to three passes
    of :func:`_newton_iterate`: undamped from ``start`` (uniform when
    omitted); undamped from uniform for the systems the first pass flags
    whose start was not uniform; and damped from uniform for the systems
    still flagged.

    Each row of ``start`` must be strictly positive with its log in the
    row space of its system, as the fit of a sub-model's rows is; Newton
    steps keep the log there, so the solution is still the
    maximum-entropy one.  Returns the probabilities (normalized where
    converged), the max-norm residuals, the converged mask, the steps of
    the pass each converged system converged in, and, by index, the
    typed error of every system that did not converge.
    """
    opts = options or SolveOptions()
    n_systems, _, n_states = rows.shape
    uniform = 1.0 / n_states
    cap = min(opts.max_iterations or BATCH_ITERATIONS, BATCH_ITERATIONS)
    limits = (opts.tolerance, cap, _BATCH_OVERFLOW)
    p = np.full((n_systems, n_states), uniform) if start is None else np.array(start, dtype=float)
    p, residuals, converged, steps = _newton_iterate(rows, target_stack, p, *limits)
    flagged = np.flatnonzero(~converged)
    if start is not None and flagged.size:
        retry = flagged[(start[flagged] != uniform).any(axis=1)]
        if retry.size:
            p[retry], residuals[retry], converged[retry], steps[retry] = _newton_iterate(
                rows.take(retry), target_stack[retry],
                np.full((retry.size, n_states), uniform), *limits,
            )
            flagged = np.flatnonzero(~converged)
    damped_errors: dict[int, SolverError] = {}
    if flagged.size:
        p[flagged], residuals[flagged], converged[flagged], steps[flagged] = _newton_iterate(
            rows.take(flagged), target_stack[flagged],
            np.full((flagged.size, n_states), uniform), opts.tolerance,
            opts.max_iterations or NEWTON_DEFAULT_ITERATIONS, _EXP_OVERFLOW, damped_errors,
        )
    errors = {int(flagged[k]): exc for k, exc in damped_errors.items()}
    return p, residuals, converged, steps, errors


def _newton_iterate(
    rows: _Rows,
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

    The rows, iterates and targets of the systems still iterating are
    kept compacted; a system's iterate goes back to ``p`` when it leaves.
    """
    all_rows = rows
    n_systems = rows.shape[0]
    residuals = np.full(n_systems, np.inf)
    converged = np.zeros(n_systems, dtype=bool)
    steps = np.zeros(n_systems, dtype=int)
    active = np.arange(n_systems)
    probs, targets = p, target_stack

    def leave(gone: np.ndarray) -> None:
        """Write the iterates of the systems at ``gone`` back to ``p``
        and compact the rest."""
        nonlocal active, rows, probs, targets, stats, diff
        p[active[gone]] = probs[gone]
        keep = np.ones(active.size, dtype=bool)
        keep[gone] = False
        active, rows, probs = active[keep], rows.take(keep), probs[keep]
        targets, stats, diff = targets[keep], stats[keep], diff[keep]

    for it in range(max_iterations + 1):
        if active.size == 0:
            break
        stats = rows.statistics(probs)
        moments = rows.moments(stats)
        diff = moments - targets
        res = np.max(np.abs(diff), axis=1)
        done = res <= tolerance
        if done.any():
            near = np.flatnonzero(done)
            normalized = moments[near] / probs[near].sum(axis=1, keepdims=True)
            res[near] = np.maximum(
                res[near], np.max(np.abs(normalized - targets[near]), axis=1)
            )
            done[near] = res[near] <= tolerance
        residuals[active] = res
        if done.any():
            converged[active[done]] = True
            steps[active[done]] = it
            leave(np.flatnonzero(done))
        if active.size == 0 or it == max_iterations:
            break

        jacobian = rows.jacobian(stats)
        try:
            delta = np.linalg.solve(jacobian, diff[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # slogdet runs the LU factorization (getrf) that solve runs, so
            # it flags exactly the systems whose solve raised.
            singular = np.linalg.slogdet(jacobian)[0] == 0
            if errors is not None:
                for i in active[singular].tolist():
                    errors[i] = SingularJacobianError(f"Jacobian singular at iteration {it}")
            leave(np.flatnonzero(singular))
            if active.size == 0:
                continue
            delta = np.linalg.solve(jacobian[~singular], diff[:, :, None])[:, :, 0]

        shift = rows.shift(delta)
        if errors is not None:
            stalled = _damped_step(rows, probs, diff, targets, shift, overflow)
            for k in stalled.tolist():
                errors[int(active[k])] = _classify_failure(
                    rows, k, targets[k], probs[k], diff[k], it + 1, tolerance
                )
            if stalled.size:
                leave(stalled)
            continue
        runaway = np.max(np.abs(shift), axis=1) > overflow
        if runaway.any():
            shift = shift[~runaway]
            leave(np.flatnonzero(runaway))
            if active.size == 0:
                continue
        probs = probs * np.exp(-shift)

    p[active] = probs
    if errors is not None:
        # The systems left at the iteration cap.
        for k, i in enumerate(active.tolist()):
            errors[i] = _classify_failure(
                rows, k, targets[k], probs[k], diff[k], it, tolerance
            )

    if converged.any():
        idx = np.flatnonzero(converged)
        p[idx] /= p[idx].sum(axis=1, keepdims=True)
        moments = _moments(all_rows.take(idx), p[idx])
        residuals[idx] = np.max(np.abs(moments - target_stack[idx]), axis=1)

    return p, residuals, converged, steps


def _damped_step(
    rows: _Rows, probs: np.ndarray, diff: np.ndarray,
    targets: np.ndarray, shift: np.ndarray, overflow: float,
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
        moments = _moments(rows.take(idx), p_new)
        lower = np.max(np.abs(moments - targets[idx]), axis=1) < residual[idx]
        probs[idx[lower]] = p_new[lower]
        left = np.ones(pending.size, dtype=bool)
        left[pos[lower]] = False
        pending, scale = pending[left], 0.5 * scale[left]
        if pending.size == 0:
            break
    return pending
