"""Linear moment constraints and their canonical form.

A model is a linear system ``C @ p = m`` on the simplex.  Different
coefficient matrices describe the same model whenever they have the same
row space, so all downstream code works on the reduced row echelon form
of the system, here called the architecture matrix.  The RREF is unique
for a given solution set, which makes architectures directly comparable:
two models are the same model exactly when their architecture matrices
are equal.

Conventions enforced here:

* every coefficient system carries the normalization row (all ones with
  moment one), so the solution set lives on the simplex;
* because the all-ones row lies in the row space, the columns of a
  canonical architecture each sum to one and the canonical moments sum
  to one.  This is validated, not assumed, and a warning is logged when
  a hand-built architecture violates it;
* states whose probability is forced to zero by the moments themselves
  (a binary constraint row with target zero, or with target one, which
  zeroes the complement) are removed from the working space before any
  solve.  :func:`_support_reductions` runs that exclusion cascade on a
  stack of binary systems at once, reporting each mask back to the full
  space.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    InconsistentSystemError,
    InfeasibleMomentsError,
    InputError,
    RankDeficiencyError,
)
from .simplex import Distribution, prob_array

__all__ = [
    "CoefficientMatrix",
    "ArchitectureMatrix",
    "KernelBasis",
    "to_architecture",
    "is_nested",
    "kernel_basis",
]

log = logging.getLogger(__name__)

#: Relative pivot threshold for Gauss-Jordan elimination.
PIVOT_RTOL = 1e-9

#: Residual below which a row-space factorization counts as an exact
#: nesting.
NESTING_TOL = 1e-9

#: Tolerance for recognizing exactly-zero or exactly-saturated binary
#: moments during support reduction.
MOMENT_ZERO_TOL = 1e-12


def _as_matrix(rows: Union[np.ndarray, Sequence[Sequence[float]]]) -> np.ndarray:
    mat = np.array(rows, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise InputError("constraint rows must form a non-empty 2-d matrix")
    if not np.all(np.isfinite(mat)):
        raise InputError("constraint rows must be finite")
    return mat


def _moment_vector(moments, n_rows: int, kind: str) -> np.ndarray:
    m = np.array(moments, dtype=float)
    if m.ndim != 1 or m.shape[0] != n_rows:
        raise InputError(f"need exactly one moment per {kind} row")
    if not np.all(np.isfinite(m)):
        raise InputError("moments must be finite")
    m.setflags(write=False)
    return m


class _RowForm:
    """Sample-independent facts about one validated, read-only row matrix.

    Each is computed on first use and kept, and every system that
    ``with_moments`` derives shares its form, so work that depends on
    the rows alone is done once per row matrix, not once per sample.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix
        self._rref_checked = False
        self._within: dict["_RowForm", bool] = {}

    @cached_property
    def is_binary(self) -> bool:
        r = self.matrix
        return bool(np.all((r == 0.0) | (r == 1.0)))

    @cached_property
    def elimination(self) -> "_Elimination":
        return _eliminate(self.matrix)

    @property
    def canonical(self) -> "_RowForm":
        """The form of the RREF of these rows."""
        return self.elimination.canonical

    @cached_property
    def replay_key(self) -> tuple[int, int]:
        """Row count and number of elimination steps: the forms whose
        eliminations :func:`_architectures` replays in lockstep."""
        return self.matrix.shape[0], self.elimination.pivots.size

    @cached_property
    def pivot_columns(self) -> np.ndarray:
        """Each row's first column holding more than 1e-12 in magnitude,
        0 for a zero row: the pivots :meth:`check_rref` validates."""
        pivots = (np.abs(self.matrix) > 1e-12).argmax(axis=1)
        pivots.setflags(write=False)
        return pivots

    @cached_property
    def column_sum_deviation(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=0) - 1.0)))

    def check_rref(self) -> None:
        """Raise :class:`InputError` unless the matrix is in RREF."""
        if not self._rref_checked:
            _validate_rref(self.matrix, self.pivot_columns)
            self._rref_checked = True

    def within(self, other: "_RowForm") -> bool:
        """Whether the RREF rows of this form lie in the row space of the
        RREF rows ``other`` within :data:`NESTING_TOL`.

        The pivot columns of ``other`` hold the identity, so the only
        candidate coefficients are this matrix's entries in those
        columns.  Fewer rows cannot span these independent ones; any
        other answer is kept per ``other`` tested, which it keeps alive.
        """
        if self.matrix.shape[0] > other.matrix.shape[0]:
            return False
        found = self._within.get(other)
        if found is None:
            coeffs = self.matrix[:, other.pivot_columns]
            found = _max_abs(self.matrix - coeffs @ other.matrix) <= NESTING_TOL
            self._within[other] = found
        return found


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _attach(system, form: _RowForm, moments: np.ndarray) -> None:
    object.__setattr__(system, "rows", form.matrix)
    object.__setattr__(system, "moments", moments)
    object.__setattr__(system, "_form", form)


def _derive(cls, form: _RowForm, moments: np.ndarray):
    system = object.__new__(cls)
    _attach(system, form, moments)
    return system


@dataclass(frozen=True)
class CoefficientMatrix:
    """Raw linear constraints ``rows @ p = moments``.

    Rows may be redundant or inconsistent; canonicalization happens in
    :func:`to_architecture`.  Every system must contain the all-ones
    normalization row so that it pins total probability.
    """

    rows: np.ndarray
    moments: np.ndarray

    def __post_init__(self) -> None:
        rows = _as_matrix(self.rows)
        moments = _moment_vector(self.moments, rows.shape[0], "constraint")
        if np.any(np.all(rows == 0.0, axis=1)):
            raise InputError("constraint rows must not be identically zero")
        if not np.any(np.all(np.abs(rows - 1.0) <= 1e-12, axis=1)):
            raise InputError(
                "coefficient system must include the all-ones normalization row"
            )
        rows.setflags(write=False)
        _attach(self, _RowForm(rows), moments)

    def with_moments(self, moments) -> "CoefficientMatrix":
        """The same rows with new moments.

        The rows are not validated again, and the new system shares the
        rows' elimination and binary test with this one.
        """
        return _derive(
            CoefficientMatrix, self._form, _moment_vector(moments, self.n_rows, "constraint")
        )

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_states(self) -> int:
        return self.rows.shape[1]

    @property
    def is_binary(self) -> bool:
        """True when every coefficient is exactly 0 or 1."""
        return self._form.is_binary


@dataclass(frozen=True)
class ArchitectureMatrix:
    """Canonical (RREF) form of a constraint system.

    ``rows`` has full row rank equal to :attr:`rank`, each pivot is one
    and is the only nonzero entry of its column.  Equality of
    architecture matrices is equality of models.
    """

    rows: np.ndarray
    moments: np.ndarray

    def __post_init__(self) -> None:
        rows = _as_matrix(self.rows)
        moments = _moment_vector(self.moments, rows.shape[0], "architecture")
        rows.setflags(write=False)
        form = _RowForm(rows)
        form.check_rref()
        _check_normalization(form, float(moments.sum()))
        _attach(self, form, moments)

    def with_moments(self, moments) -> "ArchitectureMatrix":
        """The same canonical rows with new moments; the rows are not
        validated again, and their cached facts are shared."""
        moments = _moment_vector(moments, self.rank, "architecture")
        return _architecture(self._form, moments, float(moments.sum()))

    @property
    def rank(self) -> int:
        return self.rows.shape[0]

    @property
    def n_states(self) -> int:
        return self.rows.shape[1]

    @property
    def pivot_columns(self) -> np.ndarray:
        return self._form.pivot_columns

    def same_model(self, other: "ArchitectureMatrix") -> bool:
        """Whether two canonical systems describe the same model: equal
        rows and moments within 1e-9."""
        return (
            self.rows.shape == other.rows.shape
            and bool(np.all(np.abs(self.rows - other.rows) <= 1e-9))
            and bool(np.all(np.abs(self.moments - other.moments) <= 1e-9))
        )


def _check_normalization(form: _RowForm, total: float) -> None:
    # The normalization identity (unit column sums, moments summing to
    # one) holds automatically when the input system contained the
    # all-ones row; flag hand-built systems that lack it.
    deviation = form.column_sum_deviation
    if not (deviation <= 1e-8 + 1e-5 and abs(total - 1.0) <= 1e-8):
        log.warning(
            "architecture does not normalize: column sums deviate from 1 "
            "(max dev %.3g) or moments sum to %.12g",
            deviation,
            total,
        )


def _architecture(
    form: _RowForm, moments: np.ndarray, total: Optional[float]
) -> ArchitectureMatrix:
    """An architecture on validated rows: the RREF check runs once per
    form, the normalization check on every moment vector, whose sum is
    ``total``, unless ``total`` is ``None``."""
    form.check_rref()
    if total is not None:
        _check_normalization(form, total)
    return _derive(ArchitectureMatrix, form, moments)


def _validate_rref(rows: np.ndarray, pivots: np.ndarray) -> None:
    """Raise at the first row, in order, that is zero, does not advance
    the pivot, has a pivot other than one, or shares its pivot column;
    ``pivots`` are the rows' :attr:`_RowForm.pivot_columns`."""
    block = rows[:, pivots]
    advances = np.ones(pivots.size, dtype=bool)
    advances[1:] = pivots[1:] > pivots[:-1]
    # (zero row, pivot not advancing, pivot not one, column shared) per
    # row; a shared column only counts once the pivot itself is one.
    failures = np.array([
        np.abs(block.diagonal()) <= 1e-12,
        ~advances,
        np.abs(block.diagonal() - 1.0) > 1e-9,
        np.count_nonzero(np.abs(block) > 1e-9, axis=0) > 1,
    ])
    bad = failures.any(axis=0)
    if not bad.any():
        return
    i = int(bad.argmax())
    messages = (
        f"architecture row {i} is zero",
        "architecture pivots must be strictly increasing",
        f"architecture row {i} pivot is not one",
        f"pivot column {int(pivots[i])} is not eliminated",
    )
    raise InputError(messages[int(failures[:, i].argmax())])


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis of admissible fluctuation directions.

    Rows of :attr:`vectors` span the null space of the architecture after
    rescaling each column by the square root of the anchor probability.
    The anchor is the distribution around which fluctuations are taken,
    normally the MaxEnt solution of the architecture.
    """

    vectors: np.ndarray
    anchor: Distribution

    def __post_init__(self) -> None:
        vectors = np.array(self.vectors, dtype=float)
        if vectors.ndim != 2:
            raise InputError("kernel basis must be 2-d (n_vectors x n_states)")
        if vectors.shape[1] != self.anchor.size:
            raise InputError("kernel vectors and anchor disagree on state count")
        if vectors.shape[0]:
            gram = vectors @ vectors.T
            if not np.allclose(gram, np.eye(vectors.shape[0]), atol=1e-10):
                raise InputError("kernel basis is not orthonormal")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


class _Elimination(NamedTuple):
    """Gauss-Jordan elimination of a row matrix, kept to be replayed on
    moment vectors (see :func:`_eliminate`)."""

    canonical: _RowForm
    #: Where each row of the eliminated matrix was in the input.
    order: np.ndarray
    #: Per step, the value the pivot row is divided by.
    pivots: np.ndarray
    #: Per step, the multiple of the pivot row subtracted from each row,
    #: rows in ``order``.
    factors: np.ndarray


def _eliminate(rows: np.ndarray) -> _Elimination:
    """Gauss-Jordan elimination of ``rows``, kept so that it can be
    replayed on any moment vector.

    Partial pivoting picks the largest remaining entry of each column;
    entries at or below :data:`PIVOT_RTOL` times the largest entry of
    the input rows are treated as zero, so a block left holding only
    roundoff yields no pivot.  A row, once swapped into pivot place ``k``,
    is never swapped again, so the swaps compose to one reordering of
    the input rows: taken up front, it leaves step ``k`` to divide row
    ``k`` by its pivot and subtract its multiples from every row, the
    same operations on the same values as with the swaps in between.
    """
    work = np.array(rows, dtype=float)
    n_rows, n_cols = work.shape
    threshold = PIVOT_RTOL * float(np.abs(rows).max())
    order = np.arange(n_rows)
    pivots, factors = [], []
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        column = np.abs(work[rank:, col])
        local = int(column.argmax())
        if column[local] <= threshold:
            continue
        pivot_row = rank + local
        if pivot_row != rank:
            work[[rank, pivot_row]] = work[[pivot_row, rank]]
            order[[rank, pivot_row]] = order[[pivot_row, rank]]
        pivot = work[rank, col]
        work[rank] /= pivot
        # A zero factor leaves the pivot row as it is.
        factor = work[:, col].copy()
        factor[rank] = 0.0
        work -= np.outer(factor, work[rank])
        work[:, col] = 0.0
        work[rank, col] = 1.0
        pivots.append(pivot)
        # Indexed by input row until the final order is known.
        by_input = np.empty(n_rows)
        by_input[order] = factor
        factors.append(by_input)
        rank += 1
    canonical = work[:rank].copy()
    canonical.setflags(write=False)
    arrays = (
        order,
        np.array(pivots, dtype=float),
        np.array(factors, dtype=float).reshape(rank, n_rows)[:, order],
    )
    for a in arrays:
        a.setflags(write=False)
    return _Elimination(_RowForm(canonical), *arrays)


def _architectures(
    forms: Sequence[_RowForm], moments: np.ndarray
) -> list[Union[ArchitectureMatrix, InconsistentSystemError]]:
    """Canonical forms of many systems, by one lockstep replay.

    The systems have the row forms ``forms``, which share one
    :attr:`_RowForm.replay_key`, and the stacked moments ``moments``,
    one row each.  Step ``k`` of every form's elimination is replayed on
    its own row at once, so each system sees the same elementwise
    operations in the same order as alone, and its result does not
    depend on the stack.  A system whose eliminated rows keep a
    right-hand side gets its :class:`InconsistentSystemError` in its
    place.
    """
    steps = [form.elimination for form in forms]
    n_steps = forms[0].replay_key[1]
    if n_steps == 0:
        raise InputError("constraint system reduced to nothing")
    order, pivots, factors = (
        np.array([getattr(e, name) for e in steps]) for name in ("order", "pivots", "factors")
    )
    work = np.take_along_axis(np.asarray(moments, dtype=float), order, axis=1)
    for k in range(n_steps):
        work[:, k] /= pivots[:, k]
        work -= factors[:, k] * work[:, k, None]

    # A zero row with a surviving right-hand side, beyond roundoff of
    # the moments' own scale, makes the system inconsistent.
    scale = np.maximum(1.0, np.max(np.abs(moments), axis=1))
    tails = work[:, n_steps:]
    bad = np.abs(tails) > PIVOT_RTOL * scale[:, None]
    canonical = work[:, :n_steps]
    canonical.setflags(write=False)
    # A row's sum along the contiguous axis has the bits of its own sum.
    totals = canonical.sum(axis=1).tolist()
    out: list[Union[ArchitectureMatrix, InconsistentSystemError]] = []
    for k, inconsistent in enumerate(bad.any(axis=1).tolist()):
        if inconsistent:
            a = int(bad[k].argmax())
            out.append(InconsistentSystemError(
                f"moments are infeasible: eliminated row {n_steps + a} "
                f"keeps right-hand side {float(tails[k, a]):.6g}"
            ))
        else:
            # An architecture's own rows (checked as RREF) replay to
            # themselves, and its moments were checked for normalization
            # when it was built.
            total = None if forms[k]._rref_checked else totals[k]
            out.append(_architecture(steps[k].canonical, canonical[k], total))
    return out


def to_architecture(
    system: Union[CoefficientMatrix, ArchitectureMatrix],
) -> ArchitectureMatrix:
    """Canonicalize a constraint system by Gauss-Jordan elimination.

    The elimination of the rows is computed once per row matrix (see
    :func:`_eliminate`) and its steps are replayed on the moments, the
    same operations in the same order as eliminating the augmented
    system; this is :func:`_architectures` on a stack of one.  Rows
    eliminated to zero are dropped; a zero row with a surviving
    right-hand side makes the system inconsistent.

    The output is idempotent: canonicalizing an architecture returns the
    same matrix.
    """
    (architecture,) = _architectures([system._form], system.moments[None])
    if isinstance(architecture, InconsistentSystemError):
        raise architecture
    return architecture


def kernel_basis(
    architecture: ArchitectureMatrix,
    anchor: Union[Distribution, np.ndarray],
) -> KernelBasis:
    """Orthonormal fluctuation directions around ``anchor``.

    The basis spans the null space of the architecture with each column
    rescaled by ``sqrt(anchor)``; its dimension is the number of states
    minus the rank.  Probability fluctuations of the form
    ``p = anchor + sqrt(anchor / n) * (x @ vectors)`` then stay inside
    the model's equivalence class for any coefficient vector ``x``.
    """
    probs = prob_array(anchor)
    if probs.shape[0] != architecture.n_states:
        raise InputError("anchor and architecture disagree on state count")
    if np.any(probs <= 0.0):
        raise InputError("anchor must be strictly positive on the working space")
    import scipy.linalg  # only user; keeps it out of the package import

    scaled = architecture.rows * np.sqrt(probs)
    null = scipy.linalg.null_space(scaled)
    expected = architecture.n_states - architecture.rank
    if null.shape[1] != expected:
        raise RankDeficiencyError(
            f"kernel dimension {null.shape[1]} does not match "
            f"n_states - rank = {expected}"
        )
    return KernelBasis(null.T, Distribution(probs))


def is_nested(simple: ArchitectureMatrix, complex_: ArchitectureMatrix) -> bool:
    """Whether every constraint of ``simple``, moments included, is
    implied by ``complex_`` within :data:`NESTING_TOL`.

    The rows part is :meth:`_RowForm.within`, kept per pair of row
    forms; the moments must then factor through the same coefficients,
    ``simple``'s entries in the pivot columns of ``complex_``.
    """
    if simple.n_states != complex_.n_states:
        raise InputError("architectures must share one microstate space")
    if not simple._form.within(complex_._form):
        return False
    matrix = simple.rows[:, complex_.pivot_columns]
    return _max_abs(simple.moments - matrix @ complex_.moments) <= NESTING_TOL


def _support_reductions(
    supports: np.ndarray, moments: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[int, Union[InputError, InfeasibleMomentsError]]]:
    """The exclusion cascade of a stack of binary systems.

    ``supports`` ``(g, r, a)`` holds each system's rows as masks and
    ``moments`` ``(g, r)`` its targets.  A row with target zero excludes
    its support, one with target one the complement; neither rule
    depends on the other exclusions, so the cascade's fixed point is the
    union of both.  Returns the excluded states ``(g, a)``, the rows
    that survive ``(g, r)`` and, by index, the error of every system
    whose moments leave ``[0, 1]`` (:class:`InputError`) or that the
    exclusions prove infeasible (:class:`InfeasibleMomentsError`).
    """
    is_zero = moments <= MOMENT_ZERO_TOL
    is_one = moments >= 1.0 - MOMENT_ZERO_TOL
    excluded = (supports & is_zero[:, :, None]).any(axis=1) | (
        ~supports & is_one[:, :, None]
    ).any(axis=1)
    working = ~excluded
    surviving = (supports & working[:, None, :]).sum(axis=2)
    fractional = ~(is_zero | is_one)
    empty = fractional & (surviving == 0)
    covering = fractional & (surviving == working.sum(axis=1)[:, None])
    out_of_range = ((moments < -MOMENT_ZERO_TOL) | (moments > 1.0 + MOMENT_ZERO_TOL)).any(axis=1)
    contradicts = empty | covering
    errors: dict[int, Union[InputError, InfeasibleMomentsError]] = {}
    for k in np.flatnonzero(out_of_range | contradicts.any(axis=1) | excluded.all(axis=1)).tolist():
        a = int(np.argmax(contradicts[k]))
        if out_of_range[k]:
            errors[k] = InputError("binary moments must lie in [0, 1]")
        elif contradicts[k, a]:
            errors[k] = InfeasibleMomentsError(
                (f"infeasible moments: row {a} has positive target {moments[k, a]:.6g} "
                 "but empty surviving support") if empty[k, a] else
                (f"infeasible moments: row {a} covers the working space but its "
                 f"target {moments[k, a]:.6g} is below one")
            )
        else:
            errors[k] = InfeasibleMomentsError("infeasible moments: every state was excluded")
    return excluded, ~is_zero & (surviving > 0), errors
