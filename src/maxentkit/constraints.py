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
  solve.  :func:`reduce_binary_support` performs that exclusion cascade
  and reports the mask back to the full space.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
    "NestingMap",
    "SupportReduction",
    "to_architecture",
    "induced_moments",
    "kernel_basis",
    "nesting_map",
    "reduce_binary_support",
]

log = logging.getLogger(__name__)

#: Relative pivot threshold for Gauss-Jordan elimination.
PIVOT_RTOL = 1e-9

#: Residual below which a least-squares row-space factorization counts as
#: an exact nesting.
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
        moments = np.array(self.moments, dtype=float)
        if moments.ndim != 1 or moments.shape[0] != rows.shape[0]:
            raise InputError("need exactly one moment per constraint row")
        if not np.all(np.isfinite(moments)):
            raise InputError("moments must be finite")
        if np.any(np.all(rows == 0.0, axis=1)):
            raise InputError("constraint rows must not be identically zero")
        if not np.any(np.all(np.abs(rows - 1.0) <= 1e-12, axis=1)):
            raise InputError(
                "coefficient system must include the all-ones normalization row"
            )
        rows.setflags(write=False)
        moments.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "moments", moments)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_states(self) -> int:
        return self.rows.shape[1]

    @property
    def is_binary(self) -> bool:
        """True when every coefficient is exactly 0 or 1."""
        r = self.rows
        return bool(np.all((r == 0.0) | (r == 1.0)))


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
        moments = np.array(self.moments, dtype=float)
        if moments.ndim != 1 or moments.shape[0] != rows.shape[0]:
            raise InputError("need exactly one moment per architecture row")
        _validate_rref(rows)
        col_sums = rows.sum(axis=0)
        # np.allclose(col_sums, 1.0, atol=1e-8), without its overhead.
        if not (
            np.all(np.abs(col_sums - 1.0) <= 1e-8 + 1e-5)
            and abs(moments.sum() - 1.0) <= 1e-8
        ):
            # The normalization identity (unit column sums, moments summing
            # to one) holds automatically when the input system contained
            # the all-ones row; flag hand-built systems that lack it.
            log.warning(
                "architecture does not normalize: column sums deviate from 1 "
                "(max dev %.3g) or moments sum to %.12g",
                float(np.max(np.abs(col_sums - 1.0))),
                float(moments.sum()),
            )
        rows.setflags(write=False)
        moments.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "moments", moments)

    @property
    def rank(self) -> int:
        return self.rows.shape[0]

    @property
    def n_states(self) -> int:
        return self.rows.shape[1]

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(int(np.argmax(row != 0.0)) for row in self.rows)

    def same_model(self, other: "ArchitectureMatrix", tol: float = 1e-9) -> bool:
        """Whether two canonical systems describe the same model."""
        return (
            self.rows.shape == other.rows.shape
            and bool(np.all(np.abs(self.rows - other.rows) <= tol))
            and bool(np.all(np.abs(self.moments - other.moments) <= tol))
        )


def _validate_rref(rows: np.ndarray) -> None:
    """Raise at the first row, in order, that is zero, does not advance
    the pivot, has a pivot other than one, or shares its pivot column."""
    nonzero = np.abs(rows) > 1e-12
    pivots = nonzero.argmax(axis=1)
    block = rows[:, pivots]
    advances = np.ones(pivots.size, dtype=bool)
    advances[1:] = pivots[1:] > pivots[:-1]
    # (zero row, pivot not advancing, pivot not one, column shared) per
    # row; a shared column only counts once the pivot itself is one.
    failures = np.array([
        ~nonzero.any(axis=1),
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


@dataclass(frozen=True)
class NestingMap:
    """Certificate that one architecture is implied by a finer one.

    ``simple.rows == matrix @ complex.rows`` within :data:`NESTING_TOL`.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise InputError("nesting map must be a 2-d matrix")
        if np.linalg.matrix_rank(matrix) != matrix.shape[0]:
            raise RankDeficiencyError("nesting map must have full row rank")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def to_architecture(
    system: Union[CoefficientMatrix, ArchitectureMatrix],
    *,
    pivot_rtol: float = PIVOT_RTOL,
) -> ArchitectureMatrix:
    """Canonicalize a constraint system by Gauss-Jordan elimination.

    Partial pivoting picks the largest remaining entry of each column;
    entries at or below ``pivot_rtol`` times the largest entry of the
    input rows are treated as zero, so a block left holding only
    roundoff yields no pivot.  Rows eliminated to zero are
    dropped; a zero row with a surviving right-hand side makes the system
    inconsistent.

    The output is idempotent: canonicalizing an architecture returns the
    same matrix.
    """
    aug = np.column_stack([system.rows, system.moments])
    n_rows, n_cols = system.rows.shape

    threshold = pivot_rtol * float(np.abs(system.rows).max())
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        column = np.abs(aug[rank:, col])
        local = int(column.argmax())
        if column[local] <= threshold:
            continue
        pivot_row = rank + local
        if pivot_row != rank:
            aug[[rank, pivot_row]] = aug[[pivot_row, rank]]
        aug[rank] /= aug[rank, col]
        # A zero factor leaves the pivot row as it is.
        factors = aug[:, col].copy()
        factors[rank] = 0.0
        aug -= np.outer(factors, aug[rank])
        aug[:, col] = 0.0
        aug[rank, col] = 1.0
        rank += 1

    if rank < n_rows:
        tail_moments = aug[rank:, n_cols]
        moment_scale = max(1.0, float(np.max(np.abs(system.moments))))
        bad = np.abs(tail_moments) > pivot_rtol * moment_scale
        if np.any(bad):
            raise InconsistentSystemError(
                "moments are infeasible: eliminated row "
                f"{rank + int(np.argmax(bad))} keeps right-hand side "
                f"{float(tail_moments[np.argmax(bad)]):.6g}"
            )
    if rank == 0:
        raise InputError("constraint system reduced to nothing")
    return ArchitectureMatrix(aug[:rank, :n_cols], aug[:rank, n_cols])


def induced_moments(
    system: Union[CoefficientMatrix, ArchitectureMatrix],
    p: Union[Distribution, np.ndarray],
) -> np.ndarray:
    """Moments of ``p`` under the system's rows, ``rows @ p``."""
    probs = prob_array(p)
    if probs.shape[0] != system.rows.shape[1]:
        raise InputError("distribution and system disagree on state count")
    return system.rows @ probs


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


def nesting_map(
    simple: ArchitectureMatrix,
    complex_: ArchitectureMatrix,
    *,
    tol: float = NESTING_TOL,
) -> Optional[NestingMap]:
    """Factor ``simple`` through ``complex_`` if the models are nested.

    Returns a :class:`NestingMap` with
    ``simple.rows == map.matrix @ complex_.rows`` when every constraint
    of ``simple`` is implied by ``complex_`` (including the moments), and
    ``None`` otherwise.
    """
    if simple.n_states != complex_.n_states:
        raise InputError("architectures must share one microstate space")
    if simple.rank > complex_.rank:
        return None
    solution, *_ = np.linalg.lstsq(complex_.rows.T, simple.rows.T, rcond=None)
    matrix = solution.T
    residual = float(np.max(np.abs(simple.rows - matrix @ complex_.rows)))
    if residual > tol:
        return None
    moment_residual = float(
        np.max(np.abs(simple.moments - matrix @ complex_.moments))
    )
    if moment_residual > tol:
        return None
    return NestingMap(matrix)


@dataclass(frozen=True)
class SupportReduction:
    """Result of the zero-moment exclusion cascade.

    ``excluded`` masks states of the full space whose probability is
    forced to zero, ``kept_rows`` indexes the surviving constraint rows,
    and ``rows`` / ``moments`` form the reduced system on the working
    space (columns where ``excluded`` is false).  The reduced system
    keeps the normalization row and may still contain redundant rows.
    """

    excluded: np.ndarray
    kept_rows: np.ndarray
    rows: np.ndarray
    moments: np.ndarray

    @property
    def n_excluded(self) -> int:
        return int(self.excluded.sum())


def reduce_binary_support(
    rows: np.ndarray,
    moments: np.ndarray,
    *,
    ztol: float = MOMENT_ZERO_TOL,
) -> SupportReduction:
    """Remove states pinned to zero probability by binary moments.

    A binary row with target moment zero forces every state of its
    support to probability zero; a row with target moment one forces the
    complement to zero.  Exclusions cascade: once states are removed, a
    row whose remaining support empties while its target stays positive,
    or whose remaining support covers the whole working space while its
    target stays below one, proves the moments infeasible.

    Parameters
    ----------
    rows : ndarray
        Binary coefficient matrix including the normalization row.
    moments : ndarray
        Target moments, entrywise in ``[0, 1]``.
    """
    mat = np.asarray(rows, dtype=float)
    m = np.asarray(moments, dtype=float)
    if not np.all((mat == 0.0) | (mat == 1.0)):
        raise InputError("support reduction requires binary rows")
    if np.any(m < -ztol) or np.any(m > 1.0 + ztol):
        raise InputError("binary moments must lie in [0, 1]")

    supports = mat == 1.0
    is_zero = m <= ztol
    is_one = m >= 1.0 - ztol
    # Neither rule depends on the other exclusions, so the cascade's
    # fixed point is the union of both.
    excluded = supports[is_zero].any(axis=0) | ~supports[is_one].all(axis=0)
    working = ~excluded
    surviving = (supports & working).sum(axis=1)
    fractional = ~(is_zero | is_one)
    empty = fractional & (surviving == 0)
    covering = fractional & (surviving == working.sum())
    if np.any(empty | covering):
        a = int(np.argmax(empty | covering))
        if empty[a]:
            raise InfeasibleMomentsError(
                f"infeasible moments: row {a} has positive target "
                f"{m[a]:.6g} but empty surviving support"
            )
        raise InfeasibleMomentsError(
            f"infeasible moments: row {a} covers the working space but "
            f"its target {m[a]:.6g} is below one"
        )
    if excluded.all():
        raise InfeasibleMomentsError("infeasible moments: every state was excluded")

    kept_rows = np.flatnonzero(~is_zero & (surviving > 0))
    reduced_rows = mat[np.ix_(kept_rows, np.flatnonzero(working))]
    return SupportReduction(
        excluded=excluded,
        kept_rows=kept_rows,
        rows=reduced_rows,
        moments=m[kept_rows],
    )
