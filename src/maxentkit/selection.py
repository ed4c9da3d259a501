"""Entropy-based hypothesis testing and model selection.

For an empirical distribution ``f`` of ``n`` samples and a candidate
architecture of rank ``d`` on ``a`` states, the entropy gap
``delta = H[maxent] - H[f]`` concentrates so that ``2 n delta`` follows
a chi-squared law with ``a - d`` degrees of freedom when the candidate
holds.  Everything here is built on that statistic:

* :func:`empirical_p_value` tests one candidate against its class;
* :func:`lrt_p_value` compares two nested candidates with
  ``d_complex - d_simple`` degrees of freedom;
* :func:`bic` and :func:`aic` score candidates as
  ``2 n H[maxent] + penalty``.  Both scores drop additive terms that are
  identical for every candidate at fixed data (a multiple of ``log n``
  and of ``H[f]``), so only score differences are meaningful, and those
  differences are exact;
* :func:`select` applies one of four procedures: ``bic`` and ``aic``
  minimize their scores, ``hyper_maxent`` returns the lowest-rank
  candidate whose p-value clears the sample-size-dependent threshold
  ``(a - d) / n``, and ``hyper_maxent_lrt`` additionally requires the
  candidate to survive a likelihood-ratio test against every candidate
  that implies it at threshold ``(2 a - d - d') / n``.

The scalar scores fit their candidates through the fit table of
:func:`~maxentkit.solver._fit_table` and read each entropy off its row,
as :func:`select` does, so a candidate gets the same score alone as in
a selection.

Degrees of freedom use the effective rank: states excluded from the
working space count as one pinning constraint each, so ``a - d`` is
always the number of free fluctuation directions on the full space.
Zero degrees of freedom (a saturated candidate) is treated as a point
mass at zero, hence p-value one.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .constraints import (
    ArchitectureMatrix,
    CoefficientMatrix,
    _derive,
    _RowForm,
)
from .errors import (
    ConvergenceError,
    InputError,
    NoSolvableCandidateError,
    NotNestedError,
    _check_positive_real,
    _check_sample_size,
)
from .simplex import (
    Distribution,
    _log_probs,
    _scaled_kl,
    _xlogx,
    entropy,
    multinomial_sample,
    prob_array,
)
from .solver import SolveOptions, _fit_table

__all__ = [
    "ModelScore",
    "ScoreTable",
    "SelectionConfig",
    "SelectionResult",
    "ErrorEstimate",
    "empirical_p_value",
    "lrt_p_value",
    "bic",
    "aic",
    "expected_entropy",
    "alpha_empirical",
    "alpha_lrt",
    "select",
    "select_arrays",
    "mc_training_error",
    "mc_test_error",
    "asymptotic_training_error",
    "asymptotic_test_error",
]

log = logging.getLogger(__name__)

METHODS = ("bic", "aic", "hyper_maxent", "hyper_maxent_lrt")

#: Entropy deficits larger than this are treated as solver failures
#: rather than rounding noise.
_DELTA_NEGATIVE_LIMIT = 1e-8


class _TailTable(NamedTuple):
    """What :func:`_chi2_tail` reads for the sorted dof ``ks``.

    Per dof: the split below which ``Q`` is taken as ``1 - P``, ``h = k /
    2 + 1``, and how many rows of ``weights`` it reads: the terms of its
    sums, padded to a power of two, nondecreasing in ``k``.
    Per form, row ``i`` for the finite sum of ``ks[i]`` and row ``i +
    len(ks)`` for its series: the weights of the terms (one column of
    ``weights`` per form, zero past the form's own terms), the
    coefficients ``(c, d)`` of the logarithm ``c log y - y + d`` of the
    first term, and whether ``erfc(sqrt y)`` is added.  Zero dof gets the
    rows of two dof; :func:`_chi2_tail` replaces its result.
    """

    split: np.ndarray
    h: np.ndarray
    n_rows: np.ndarray
    weights: np.ndarray
    c: np.ndarray
    d: np.ndarray
    odd: np.ndarray

    @classmethod
    def build(cls, ks: np.ndarray) -> "_TailTable":
        a = np.where(ks > 0, ks, 2) / 2.0
        h = a + 1.0
        # The finite sum has k // 2 terms; past 15 sqrt(h) + 10 of them
        # its rest is below 1e-17 of its largest term.  The series gets
        # as many, and at least 12.
        n_sum = np.minimum(np.floor(a), np.ceil(15.0 * np.sqrt(h)) + 10)
        n_terms = np.maximum(n_sum, 12)
        # Rows of weights a dof reads: its terms, padded to a power of two
        # for the pairwise sums of _term_sums.
        n_rows = 2 ** np.ceil(np.log2(n_terms)).astype(int)
        # The split is the largest y at which the rest of the series after
        # n terms, at most term n over one minus the next ratio (below 1/2
        # there), is below 1e-17: term n is y^n Gamma(a + 1) / Gamma(a + n
        # + 1).  It stays at or below max(h / 8, h - 4 sqrt h), where Q is
        # still far from small and the finite sum's terms from b = a - 1
        # down rise by a bounded factor.
        log_ratio = np.array(
            [math.lgamma(v + n + 1) - math.lgamma(v + 1) for v, n in zip(a, n_terms)]
        )
        split = np.minimum.reduce([
            np.exp((math.log(0.5e-17) + log_ratio) / n_terms),
            (a + n_terms + 1.0) / 2.0,
            np.maximum(h / 8.0, h - 4.0 * np.sqrt(h)),
        ])
        i = np.arange(1, int(n_rows.max()))[:, None]
        weights = np.zeros((i.size + 1, 2 * a.size))
        weights[0] = np.concatenate([n_sum > 0, np.ones(a.size)])
        weights[1:, : a.size] = np.cumprod(np.where(i < n_sum, (a - i) / split, 0.0), axis=0)
        weights[1:, a.size :] = np.cumprod(np.where(i < n_terms, h / (a + i), 0.0), axis=0)
        log_gamma = np.array([math.lgamma(v) for v in a])
        c = np.concatenate([a - 1.0, a])
        d = -np.concatenate([log_gamma, log_gamma + np.log(a)])
        odd = np.concatenate([ks % 2 == 1, np.zeros(a.size, dtype=bool)])
        table = cls(split, h, n_rows, weights, c, d, odd)
        for column in table:
            column.setflags(write=False)
        return table


#: Largest dof whose :class:`_TailTable` is kept: one table per power of
#: two, for every dof below it (at most half a megabyte).  A call with a
#: larger dof builds a table for its own dof values.
_CACHED_TAIL_DOF = 255


@functools.lru_cache(maxsize=None)
def _tail_table(size: int) -> _TailTable:
    return _TailTable.build(np.arange(size))


def _chi2_tail(dof: np.ndarray, stat: np.ndarray) -> np.ndarray:
    """Upper tail ``Q = 1 - F_k(x)`` of the chi-square law, elementwise
    over the broadcast arrays of integer degrees of freedom ``k = dof``
    and statistics ``x = stat >= 0`` (NaN gives NaN).  Zero dof is a
    point mass at zero: tail one.

    With ``y = x / 2`` and ``a = k / 2``, both tails are sums of the
    terms ``p_b = y^b e^-y / Gamma(b + 1)`` over ``b = a + j`` for
    integer ``j``:

    * ``Q = sum_{0 <= b < a} p_b``, plus ``erfc(sqrt y)`` for odd ``k``:
      a finite sum of ``k // 2`` terms, taken from ``b = a - 1`` down;
    * ``P = 1 - Q = sum_{b >= a} p_b``: a series, taken from ``b = a`` up.

    Near ``y = 0`` the finite sum would round ``Q``, close to one, up and
    down by an ulp as ``x`` grows, so below a split ``Q`` is taken as ``1
    - P``.  The split depends on ``k`` alone (:class:`_TailTable`): it is
    the largest ``y`` at which as many terms of the series as the finite
    sum has, and at least 12, leave less than 1e-17, but at most ``max(h
    / 8, h - 4 sqrt h)`` with ``h = a + 1``.  There ``P`` is at least
    1e-12 for ``k <= 128``, far above the rounding of the finite sum.
    Term ``i`` of either sum is its first term times ``w_i z^i``: ``z =
    s / y`` and ``w_i = prod_{l <= i} (a - l) / s`` for the finite sum,
    with ``s`` the split, and ``z = y / h`` and ``w_i = prod_{l <= i} h /
    (a + l)`` for the series.  So ``z <= 1``, the weights depend on ``k``
    alone, and each entry reads one column of weights against one column
    of powers of ``z`` (:func:`_term_sums`); an entry's result does not
    depend on the others.  The result matches scipy's ``chi2.sf`` to
    1e-12 relative (tested to ``k = 1000`` and ``x = 2000``); most of its
    error, about ``y`` ulps, comes from ``e^-y`` in the first term.
    """
    k = np.asarray(dof, dtype=np.int64)
    x = np.asarray(stat, dtype=float)
    if k.shape != x.shape:
        k, x = np.broadcast_arrays(k, x)
    shape = k.shape
    k, y = k.ravel(), x.ravel() / 2.0
    k_max = int(k.max(initial=0))
    if k_max <= _CACHED_TAIL_DOF:
        table, row = _tail_table(1 << k_max.bit_length()), k
        n_rows = table.n_rows[k_max]
    else:
        ks = np.unique(k)
        table, row = _TailTable.build(ks), np.searchsorted(ks, k)
        n_rows = table.n_rows[-1]
    split = table.split[row]
    low = y < split
    form = row + table.split.size * low
    with np.errstate(divide="ignore"):
        total = np.exp(table.c[form] * np.log(y) - y + table.d[form])
        z = np.where(low, y / table.h[row], split / y)
    # Where the first term underflows, so does the sum: only the other
    # entries (NaN among them) are summed.
    live = slice(None) if total.all() else np.flatnonzero(total)
    total[live] *= _term_sums(table.weights[:n_rows], form[live], z[live])
    # erfc(sqrt y) < e^-y is zero in double precision past y = 746.
    odd = table.odd[form] & (y < 746.0)
    s = np.sqrt(y[odd])
    node = np.rint(s * _ERFC_NODES).astype(np.intp)
    total[odd] += _term_sums(_erfc_taylor(), node, s - node / _ERFC_NODES)
    np.subtract(1.0, total, out=total, where=low)
    return np.where(k > 0, total, 1.0).reshape(shape)


#: Nodes per unit of ``s`` of the Taylor series of :func:`_erfc_taylor`.
_ERFC_NODES = 128.0


@functools.lru_cache(maxsize=None)
def _erfc_taylor() -> np.ndarray:
    """Column ``j``: the coefficients of ``t^0 .. t^12`` of the Taylor
    series of ``erfc(s0 + t)`` about ``s0 = j / 128``, for ``s0 < 27.35``
    (``y = s^2 < 746``), over three zero rows for :func:`_term_sums`.

    Coefficient ``n >= 1`` is ``(-1)^n (2 / sqrt(pi)) e^(-s0^2)
    H_(n-1)(s0) / n!``, with ``H`` the Hermite polynomials; ``s0^2`` is
    exact.  At ``|t| <= 1/256`` the first term left out is below 1e-18 of
    ``erfc(s)``, since term ``n`` is about ``(2 s0 t)^n / n!`` of it.
    It stays within about ``3 max(1, y)`` ulps of ``math.erfc(sqrt(y))``
    for ``y < 700``, as the rounding of ``s = sqrt(y)`` alone allows.
    """
    s0 = np.arange(3500) / _ERFC_NODES
    coef = np.zeros((16, s0.size))
    coef[0] = [math.erfc(v) for v in s0]
    scale = 2.0 / math.sqrt(math.pi) * np.exp(-s0 * s0)
    hermite, previous = np.ones(s0.size), np.zeros(s0.size)
    for n in range(1, 13):
        scale = scale / -n
        coef[n] = scale * hermite
        hermite, previous = 2.0 * s0 * hermite - 2.0 * (n - 1) * previous, hermite
    coef.setflags(write=False)
    return coef


#: Entries per block of :func:`_term_sums`, times its number of terms.
#: Blocks keep each table at 256 KB: tables of a megabyte, allocated and
#: freed on every call, spent more time in page faults than arithmetic.
_TERM_BLOCK = 32768


def _term_sums(weights: np.ndarray, form: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``sum_i weights[i, form] z^i`` for each entry, block by block, for
    a power-of-two number of rows of ``weights``.

    Each pass of repeated squaring doubles the powers of ``z`` done, and
    each pass of the sum adds the upper half of the terms to the lower.
    So both take ``log2`` of the rows in passes, and as the terms past an
    entry's own are zero weights in the upper halves, its sum is the same
    in any table and any block.
    """
    n_rows = weights.shape[0]
    step = max(1, _TERM_BLOCK // n_rows)
    out = np.empty(z.size)
    for lo in range(0, z.size, step):
        power = z[lo : lo + step]
        terms = np.empty((n_rows, power.size))
        terms[0] = 1.0
        done = 1
        while done < n_rows:
            np.multiply(terms[:done], power, out=terms[done : 2 * done])
            done *= 2
            if done < n_rows:
                power = power * power
        terms *= weights.take(form[lo : lo + step], axis=1)
        while done > 1:
            done //= 2
            terms[:done] += terms[done : 2 * done]
        out[lo : lo + step] = terms[0]
    return out


def score_arrays(
    h_hat: np.ndarray, h_f: float, rank: np.ndarray, n_states, n: int
) -> tuple[np.ndarray, ...]:
    """Score columns of candidates with MaxEnt entropies ``h_hat`` and
    effective ranks ``d = rank`` on ``a = n_states`` states.

    Returns ``(delta, p_value, bic, aic, expected_entropy, deficit)``:
    the gap ``h_hat - h_f`` clipped at zero, its chi-squared tail with
    ``a - d`` degrees of freedom, ``2 n h_hat + d log n``, ``2 n h_hat +
    2 d``, ``h_hat - (a - d) / (2 n)``, and the mask of gaps below
    ``-_DELTA_NEGATIVE_LIMIT`` (solver failures, not rounding noise).
    """
    h_hat = np.asarray(h_hat, dtype=float)
    rank = np.asarray(rank)
    gap = h_hat - h_f
    delta = np.maximum(gap, 0.0)
    dof = n_states - rank
    return (
        delta,
        _chi2_tail(dof, 2.0 * n * delta),
        2.0 * n * h_hat + rank * math.log(n),
        2.0 * n * h_hat + 2.0 * rank,
        h_hat - dof / (2.0 * n),
        gap < -_DELTA_NEGATIVE_LIMIT,
    )


def _deficit_error(gap: float) -> ConvergenceError:
    return ConvergenceError(
        f"entropy deficit {gap:.3e}: fitted distribution is not the class maximizer"
    )


def _p_value(h_hat: float, h_ref: float, rank: int, n_states: int, n: int) -> float:
    """Tail of the gap ``h_hat - h_ref`` from :func:`score_arrays`; a
    deficit beyond the limit raises :class:`ConvergenceError`."""
    _, p_value, _, _, _, deficit = score_arrays(h_hat, h_ref, rank, n_states, n)
    if deficit:
        raise _deficit_error(h_hat - h_ref)
    return float(p_value)


def _induced(
    candidates: Sequence[Union[ArchitectureMatrix, CoefficientMatrix]], probs: np.ndarray
) -> list[Union[ArchitectureMatrix, CoefficientMatrix]]:
    """The candidates on the moments the distribution ``probs`` induces.

    ``probs`` is checked once, by :class:`Distribution`, and must lie on
    the state space of every candidate; the first candidate on another
    one is named.  A coefficient system's moments then come from finite
    rows and finite probabilities, so they go onto its form as computed,
    without the copy and the checks of ``with_moments``.  An
    architecture keeps ``with_moments`` and its normalization warning.
    """
    Distribution(probs)
    out = []
    for i, candidate in enumerate(candidates):
        if candidate.n_states != probs.size:
            raise InputError(
                f"candidate {i} is on {candidate.n_states} states, the distribution "
                f"on {probs.size}"
            )
        moments = candidate.rows @ probs
        if isinstance(candidate, CoefficientMatrix):
            moments.setflags(write=False)
            out.append(_derive(CoefficientMatrix, candidate._form, moments))
        else:
            out.append(candidate.with_moments(moments))
    return out


def _fit_entropies(
    candidates: Sequence[Union[ArchitectureMatrix, CoefficientMatrix]],
    f: Union[Distribution, np.ndarray],
    n: int,
    options: Optional[SolveOptions],
) -> tuple[np.ndarray, float, np.ndarray, int]:
    """The candidates' ``h_hat, h_f, rank, n_states`` for
    :func:`score_arrays` on ``n`` samples, once ``n`` is checked.  Every
    candidate is fitted on the moments ``f`` induces, all in one
    :func:`~maxentkit.solver._fit_table` call, and its entropy is read
    off its row of the table as :func:`_score_fits` reads it.  The first
    failed fit raises its error."""
    _check_sample_size(n)
    probs = prob_array(f)
    table = _fit_table(_induced(candidates, probs), options)
    if table.errors:
        raise table.errors[min(table.errors)]
    fits = table.probabilities
    return -_xlogx(fits).sum(axis=1), entropy(probs), table.rank_eff, probs.size


def empirical_p_value(
    architecture: Union[ArchitectureMatrix, CoefficientMatrix],
    f: Union[Distribution, np.ndarray],
    n: int,
    options: Optional[SolveOptions] = None,
) -> float:
    """Tail probability of the entropy gap of ``f`` inside its class.

    Fits the candidate on the moments induced by ``f``, through the fit
    table as :func:`select` does, and returns
    ``1 - F_{a-d}(2 n (H[maxent] - H[f]))``.  A saturated candidate has
    zero degrees of freedom and p-value one.
    """
    (h_hat,), h_f, (rank,), n_states = _fit_entropies([architecture], f, n, options)
    return _p_value(h_hat, h_f, rank, n_states, n)


def lrt_p_value(
    simple: ArchitectureMatrix,
    complex_: ArchitectureMatrix,
    f: Union[Distribution, np.ndarray],
    n: int,
    options: Optional[SolveOptions] = None,
) -> float:
    """Likelihood-ratio tail probability of a nested pair.

    Both candidates are fitted on the moments ``f`` induces, so their
    own moments play no part, and ``simple`` must be nested in
    ``complex_`` by canonical rows alone, as ``hyper_maxent_lrt`` nests
    them in :func:`select`: its rows must lie in the row space of
    ``complex_``'s.  The statistic
    ``2 n (H[maxent_simple] - H[maxent_complex])`` is referred to a
    chi-squared with ``rank(complex_) - rank(simple)`` degrees of
    freedom.  Both candidates are fitted in one fit table; where both
    fits fail, the simple candidate's error raises.  Equal ranks give
    dof zero, hence p-value one, and a saturated ``complex_`` reduces to
    :func:`empirical_p_value`.
    """
    if simple.n_states != complex_.n_states:
        raise InputError("architectures must share one microstate space")
    if not _canonical_form(simple).within(_canonical_form(complex_)):
        raise NotNestedError("simple architecture is not implied by the complex one")
    (h_simple, h_complex), _, (rank_simple, rank_complex), _ = _fit_entropies(
        [simple, complex_], f, n, options
    )
    # The complex fit stands in for f, and its rank for the state count.
    return _p_value(h_simple, h_complex, rank_simple, rank_complex, n)


def bic(
    architecture: Union[ArchitectureMatrix, CoefficientMatrix],
    f: Union[Distribution, np.ndarray],
    n: int,
    options: Optional[SolveOptions] = None,
) -> float:
    """Bayesian information criterion ``2 n H[maxent] + d log n``.

    The candidate is fitted through the fit table as by
    :func:`empirical_p_value`.  Standardized up to candidate-independent
    additive constants; see the module docstring.
    """
    return float(score_arrays(*_fit_entropies([architecture], f, n, options), n)[2][0])


def aic(
    architecture: Union[ArchitectureMatrix, CoefficientMatrix],
    f: Union[Distribution, np.ndarray],
    n: int,
    options: Optional[SolveOptions] = None,
) -> float:
    """Akaike information criterion ``2 n H[maxent] + 2 d``, standardized
    like :func:`bic`."""
    return float(score_arrays(*_fit_entropies([architecture], f, n, options), n)[3][0])


def expected_entropy(
    architecture: Union[ArchitectureMatrix, CoefficientMatrix],
    f: Union[Distribution, np.ndarray],
    n: int,
    options: Optional[SolveOptions] = None,
) -> float:
    """Mean entropy of an ``n``-sample class member,
    ``H[maxent] - (a - d) / (2 n)``."""
    return float(score_arrays(*_fit_entropies([architecture], f, n, options), n)[4][0])


def alpha_empirical(
    n_states: int, rank: int, n: int, prefactor: float = 1.0
) -> float:
    """Sample-size-dependent acceptance threshold ``(a - d) / n``."""
    return prefactor * (n_states - rank) / n


def alpha_lrt(
    n_states: int, rank_simple: int, rank_complex: int, n: int, prefactor: float = 1.0
) -> float:
    """Pairwise-test threshold ``(2 a - d - d') / n``."""
    return prefactor * (2 * n_states - rank_simple - rank_complex) / n


@dataclass(frozen=True, slots=True)
class ModelScore:
    """Scores of one solvable candidate on one dataset."""

    architecture_id: Union[int, str]
    rank: int
    n_states: int
    maxent_entropy: float
    empirical_delta: float
    p_value: float
    bic: float
    aic: float
    expected_entropy: float

    def __post_init__(self) -> None:
        if self.empirical_delta < -1e-10:
            raise InputError("empirical delta must be nonnegative")
        if not 0.0 <= self.p_value <= 1.0:
            raise InputError("p-value must lie in [0, 1]")


@dataclass(frozen=True)
class SelectionConfig:
    """Method choice plus the optional threshold prefactor.

    The thresholds ``(a - d) / n`` and ``(2 a - d - d') / n`` are scaling
    proposals; ``alpha_prefactor``, finite and positive, rescales both
    and defaults to one.
    """

    method: str = "bic"
    alpha_prefactor: float = 1.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InputError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        _check_positive_real(self.alpha_prefactor, "alpha_prefactor")


class ScoreTable(Sequence[ModelScore]):
    """Read-only sequence of :class:`ModelScore`, held compactly.

    A selection keeps one score per solvable candidate.  The table holds
    each one's id, MaxEnt entropy and rank, plus the empirical entropy
    ``h_f``, the state count and the sample size shared by all; the
    other fields are recomputed on access by :func:`score_arrays`, which
    is elementwise, so each rebuilt score equals the scored one field
    for field.
    """

    __slots__ = ("_ids", "_entropy", "_rank", "_h_f", "_n_states", "_n")

    def __init__(
        self,
        ids: Sequence,
        maxent_entropy: np.ndarray,
        rank: np.ndarray,
        h_f: float,
        n_states: int,
        n: int,
    ) -> None:
        self._ids = tuple(ids)
        self._entropy = np.asarray(maxent_entropy, dtype=float)
        self._rank = np.asarray(rank).astype(np.min_scalar_type(n_states))
        self._h_f = h_f
        self._n_states = int(n_states)
        self._n = n

    def _scores(self, idx: np.ndarray) -> list[ModelScore]:
        h_hat, rank = self._entropy[idx], self._rank[idx]
        columns = score_arrays(h_hat, self._h_f, rank, self._n_states, self._n)[:5]
        return [
            ModelScore(self._ids[i], r, self._n_states, *fields)
            for i, r, *fields in zip(
                idx.tolist(), rank.tolist(), h_hat.tolist(), *(c.tolist() for c in columns)
            )
        ]

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        scores = self._scores(np.atleast_1d(np.arange(len(self))[i]))
        return tuple(scores) if isinstance(i, slice) else scores[0]

    def __iter__(self):
        return iter(self._scores(np.arange(len(self))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ScoreTable, tuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ScoreTable({list(self)!r})"


@dataclass(frozen=True)
class SelectionResult:
    """Chosen candidate plus the full score table.

    ``fallback`` marks the documented escape hatch of the threshold
    methods: no candidate passed, so the highest-rank (saturated)
    candidate was reported instead.
    """

    chosen_id: Union[int, str]
    chosen_index: int
    method: str
    fallback: bool
    scores: ScoreTable
    failed_ids: tuple[Union[int, str], ...] = ()


def _score_fits(
    fits: np.ndarray,
    f: np.ndarray,
    rank: np.ndarray,
    n: int,
    name: Callable[[int], object],
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score a table of fits to the empirical distribution ``f`` of
    ``n`` samples: one row of probabilities per candidate, NaN where
    its fit failed, and its effective rank.

    Returns ``(h_hat, h_f, p_value, bic, aic, valid)``: the rows'
    entropies (each row's sum has the bits of :func:`entropy` on that
    row alone), the entropy of ``f``, the :func:`score_arrays` columns,
    and the mask of candidates with a fit and no entropy deficit.  Each
    deficit is logged as a failure of candidate ``name(i)``.
    """
    h_f = entropy(f)
    h_hat = -_xlogx(fits).sum(axis=1)
    _, p_value, bic_score, aic_score, _, deficit = score_arrays(h_hat, h_f, rank, f.size, n)
    for i in np.flatnonzero(deficit):
        log.warning("candidate %s failed to solve: %s", name(i), _deficit_error(h_hat[i] - h_f))
    return h_hat, h_f, p_value, bic_score, aic_score, ~np.isnan(h_hat) & ~deficit


def select_arrays(
    rank: np.ndarray,
    entropy_hat: np.ndarray,
    p_value: np.ndarray,
    bic_score: np.ndarray,
    aic_score: np.ndarray,
    valid: np.ndarray,
    n_states: int,
    n: int,
    config: SelectionConfig,
    implying: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
) -> tuple[int, bool]:
    """Selection core over parallel per-candidate arrays.

    Only ``hyper_maxent_lrt`` consults the oracle ``implying``.  For each
    candidate ``i`` it tests, in canonical order, this function takes
    the candidates the LRT can compare it with, the valid ones of higher
    rank, ``js = np.flatnonzero(valid & (rank > rank[i]))``, and asks
    ``implying(i, js)`` for the boolean mask over ``js`` of those whose
    constraint set contains ``i``'s.  :func:`select` answers from the
    candidates' canonical rows (:func:`_nesting_implies`), the benchmark
    sweep from its library's closures.  Ties break toward the smallest
    index, so callers should order candidates canonically.  Returns
    ``(index, fallback)``.
    """
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise NoSolvableCandidateError("every candidate failed to solve")
    rank = np.asarray(rank)
    p_value = np.asarray(p_value, dtype=float)

    method = config.method
    if method in ("bic", "aic"):
        score = np.where(valid, bic_score if method == "bic" else aic_score, np.inf)
        return int(np.argmin(score)), False

    pref = config.alpha_prefactor
    passing = valid & (p_value >= alpha_empirical(n_states, rank, n, pref))
    idx = np.flatnonzero(passing)
    order = idx[np.lexsort((idx, -p_value[idx], rank[idx]))]

    if method == "hyper_maxent":
        if order.size:
            return int(order[0]), False
        return _highest_rank(rank, valid), True

    if implying is None:
        raise InputError("hyper_maxent_lrt requires an implication oracle")
    entropy_hat = np.asarray(entropy_hat, dtype=float)
    for i in order:
        js = np.flatnonzero(valid & (rank > rank[i]))
        js = js[np.asarray(implying(int(i), js), dtype=bool)]
        if js.size:
            stats = 2.0 * n * np.maximum(entropy_hat[i] - entropy_hat[js], 0.0)
            tails = _chi2_tail(rank[js] - rank[i], stats)
            if np.any(tails < alpha_lrt(n_states, rank[i], rank[js], n, pref)):
                continue
        return int(i), False
    return _highest_rank(rank, valid), True


def _highest_rank(rank: np.ndarray, valid: np.ndarray) -> int:
    idx = np.flatnonzero(valid)
    return int(idx[np.lexsort((idx, -rank[idx]))[0]])


def _canonical_form(candidate: Union[ArchitectureMatrix, CoefficientMatrix]) -> _RowForm:
    """The form of a candidate's canonical rows: a coefficient system's
    RREF, an architecture's own rows."""
    if isinstance(candidate, CoefficientMatrix):
        return candidate._form.canonical
    return candidate._form


def _nesting_implies(
    candidates: Sequence[Union[ArchitectureMatrix, CoefficientMatrix]],
) -> Callable[[int, np.ndarray], np.ndarray]:
    """The ``implying(i, js)`` oracle of :func:`select_arrays`: for each
    asked ``j`` in ``js``, one
    :meth:`~maxentkit.constraints._RowForm.within` test of whether the
    canonical rows of candidate ``j`` (:func:`_canonical_form`) contain
    those of candidate ``i``.  :func:`select_arrays` asks only about the
    solvable candidates of higher rank, and ``within`` keeps each answer
    on the forms, across samples.

    :func:`select` fits every candidate on the moments induced by one
    ``f``, an architecture's own moments ignored, so the canonical
    moments are ``S f`` and ``C f`` for canonical rows ``S`` and ``C``
    (up to roundoff).  With ``M`` the coefficients of the rows test,
    ``|S f - M C f| <= max|S - M C| * ||f||_1 = max|S - M C|``: the
    moments part of :func:`~maxentkit.constraints.is_nested` holds
    whenever the rows part does.
    """

    def implying(i: int, js: np.ndarray) -> np.ndarray:
        form = _canonical_form(candidates[i])
        return np.array(
            [form.within(_canonical_form(candidates[j])) for j in js.tolist()], dtype=bool
        )

    return implying


def select(
    candidates: Sequence[Union[ArchitectureMatrix, CoefficientMatrix]],
    f: Union[Distribution, np.ndarray],
    n: int,
    config: SelectionConfig,
    *,
    ids: Optional[Sequence[Union[int, str]]] = None,
    options: Optional[SolveOptions] = None,
) -> SelectionResult:
    """Fit, score and choose among the candidates by the configured
    procedure.

    The inputs are checked first: at least one candidate, one id per
    candidate (their indices by default), ``n`` a positive integer, and
    ``f`` a point of the probability simplex on the state space of every
    candidate (see :func:`_induced`); each failure raises
    :class:`InputError`.  Every candidate is then fitted on the moments
    ``f`` induces, an architecture's own moments ignored, in one fit
    table.  Unsolvable candidates, entropy deficits included, are
    dropped with a warning; if none survive,
    :class:`NoSolvableCandidateError` is raised.  For
    ``hyper_maxent_lrt``, nesting is decided from the candidates'
    canonical rows (see :func:`_nesting_implies`), so the moments are
    ignored there too.
    """
    if not candidates:
        raise InputError("need at least one candidate")
    ids = list(range(len(candidates))) if ids is None else ids
    if len(ids) != len(candidates):
        raise InputError(f"{len(ids)} ids for {len(candidates)} candidates")
    _check_sample_size(n)
    probs = prob_array(f)
    table = _fit_table(_induced(candidates, probs), options)
    for i in sorted(table.errors):
        log.warning("candidate %s failed to solve: %s", ids[i], table.errors[i])
    rank = table.rank_eff
    h_hat, h_f, p_value, bic_score, aic_score, valid = _score_fits(
        table.probabilities, probs, rank, n, ids.__getitem__
    )
    scores = ScoreTable(
        [cid for cid, ok in zip(ids, valid) if ok], h_hat[valid], rank[valid], h_f, probs.size, n
    )
    index, fallback = select_arrays(
        rank, h_hat, p_value, bic_score, aic_score, valid, probs.size, n, config,
        _nesting_implies(candidates),
    )
    return SelectionResult(
        chosen_id=ids[index],
        chosen_index=index,
        method=config.method,
        fallback=fallback,
        scores=scores,
        failed_ids=tuple(cid for cid, ok in zip(ids, valid) if not ok),
    )


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float
    std_error: float
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        if not math.isnan(self.std_error) and self.std_error < 0.0:
            raise InputError("std_error must be nonnegative")


def _estimate(values: np.ndarray) -> ErrorEstimate:
    trials = values.size
    mean = float(values.mean())
    if trials > 1 and np.all(np.isfinite(values)):
        std_error = float(values.std(ddof=1) / math.sqrt(trials))
    elif math.isinf(mean):
        std_error = math.inf
    else:
        std_error = 0.0
    return ErrorEstimate(mean=mean, std_error=std_error, trials=trials)


def asymptotic_training_error(rank: int) -> float:
    """Large-sample training error ``(d - 1) / 2`` of a sufficient model."""
    return (rank - 1) / 2.0


def asymptotic_test_error(n_states: int, rank: int) -> float:
    """Large-sample test error ``(a + d - 2) / 2`` of a sufficient model."""
    return (n_states + rank - 2) / 2.0


def mc_training_error(
    model: Union[ArchitectureMatrix, CoefficientMatrix],
    q: Union[Distribution, np.ndarray],
    n: int,
    trials: int,
    rng: np.random.Generator,
    options: Optional[SolveOptions] = None,
) -> ErrorEstimate:
    """Monte-Carlo training error ``n KL(q || maxent(sample))``.

    Draws ``trials`` multinomial samples of size ``n`` from ``q``, refits
    the model on all of them in one batch (see :func:`_refit`), and
    averages the scaled divergence from the truth to each fit.  For a
    model implying the generating architecture the mean approaches
    ``(d - 1) / 2``; otherwise it grows linearly in ``n``.  A fit that
    excludes states observed under ``q`` contributes an infinite
    divergence, reported as such.  ``q`` must be a distribution, and
    ``n`` and ``trials`` positive integers.
    """
    q = _check_mc_inputs(q, n, trials)
    samples = [multinomial_sample(q, n, rng).counts for _ in range(trials)]
    return _estimate(_scaled_kl(q.probs, _refit(model, samples, n, options), n))


def mc_test_error(
    model: Union[ArchitectureMatrix, CoefficientMatrix],
    q: Union[Distribution, np.ndarray],
    n: int,
    trials: int,
    test_trials: int,
    rng: np.random.Generator,
    options: Optional[SolveOptions] = None,
) -> ErrorEstimate:
    """Monte-Carlo test error ``n KL(test sample || maxent(train sample))``.

    Each trial draws a training sample and then ``test_trials``
    independent test samples, all of size ``n``; the model is refitted
    on every training sample in one batch (see :func:`_refit`), and a
    trial's value is the mean scaled divergence of its test samples
    from its fit.  For a model implying the generating architecture the
    mean approaches ``(a + d - 2) / 2``.  ``q`` must be a distribution,
    and ``n``, ``trials`` and ``test_trials`` positive integers.
    """
    q = _check_mc_inputs(q, n, trials)
    _check_sample_size(test_trials, "test_trials")
    samples, tests = [], []
    for _ in range(trials):
        samples.append(multinomial_sample(q, n, rng).counts)
        tests.append(rng.multinomial(n, q.probs, size=test_trials))
    log_p = _refit(model, samples, n, options)
    return _estimate(_scaled_kl(np.array(tests) / n, log_p[:, None], n).mean(axis=1))


def _check_mc_inputs(
    q: Union[Distribution, np.ndarray], n: object, trials: object
) -> Distribution:
    """``q`` as a checked :class:`Distribution`, once ``n`` and ``trials``
    are checked as positive integers."""
    _check_sample_size(n)
    _check_sample_size(trials, "trials")
    return q if isinstance(q, Distribution) else Distribution(q)


def _refit(
    model: Union[ArchitectureMatrix, CoefficientMatrix],
    samples: Sequence[np.ndarray],
    n: int,
    options: Optional[SolveOptions],
) -> np.ndarray:
    """Log-probabilities (see :func:`_log_probs`) of the model fitted on
    the moments of each count vector of total ``n`` in ``samples``, one
    row each, all through one :func:`~maxentkit.solver._fit_table` call.
    The first failed fit raises its error."""
    table = _fit_table(
        [system for counts in samples for system in _induced([model], counts / n)], options
    )
    if table.errors:
        raise table.errors[min(table.errors)]
    return _log_probs(table.probabilities)
