"""Probability distributions on a finite microstate space.

All distributions live on the simplex over a fixed, ordered set of
microstates.  Entropies and divergences are measured in nats, and the
``0 * log 0 = 0`` convention is applied throughout: states of exactly
zero probability contribute nothing to entropy sums and are treated as
excluded from the working space.

Counts enter through :class:`CountVector`, which converts to empirical
frequencies, and sampling goes through numpy ``Generator`` instances so
that every random quantity in the package is reproducible from explicit
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import InputError, SupportViolationError

__all__ = [
    "MicrostateSpace",
    "Distribution",
    "CountVector",
    "prob_array",
    "entropy",
    "kl_divergence",
    "log_multinomial_pmf",
    "multinomial_sample",
]

#: Absolute tolerance on the total probability of a validated distribution.
PROB_SUM_TOL = 1e-12

#: Looser ingest tolerance for file input; vectors off by at most this much
#: are renormalized instead of rejected.
PROB_SUM_INGEST_TOL = 1e-6


@dataclass(frozen=True)
class MicrostateSpace:
    """Ordered, labelled microstates.

    The label order fixes the column order of every constraint matrix and
    probability vector built on the space.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise InputError("microstate space must contain at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("microstate labels must be unique")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown microstate label {label!r}") from None

    @classmethod
    def for_spins(cls, n_spins: int) -> "MicrostateSpace":
        """Lexicographic bit-string labels for ``n_spins`` binary units.

        Character ``i`` of a label is the value of spin ``i + 1``, so the
        labels read ``000, 001, 010, ...`` and the label of state ``k`` is
        ``k`` written in binary.
        """
        if not 1 <= n_spins <= 20:
            raise InputError("spin count must be between 1 and 20")
        labels = tuple(format(k, f"0{n_spins}b") for k in range(2**n_spins))
        return cls(labels)

    @classmethod
    def generic(cls, n_states: int) -> "MicrostateSpace":
        """Anonymous labels ``s0 .. s{n-1}`` for an unlabelled space."""
        return cls(tuple(f"s{k}" for k in range(n_states)))


def prob_array(p: Union["Distribution", Sequence[float], np.ndarray]) -> np.ndarray:
    """Coerce a distribution-like argument to a float array.

    Accepts :class:`Distribution` instances or plain array-likes; no
    simplex validation is performed here.
    """
    if isinstance(p, Distribution):
        return p.probs
    return np.asarray(p, dtype=float)


@dataclass(frozen=True)
class Distribution:
    """A validated point of the probability simplex.

    Entries must be nonnegative and sum to one within ``PROB_SUM_TOL``.
    States of exactly zero probability are permitted and reported through
    :attr:`excluded`; they carry no entropy and no fluctuations.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float, copy=True)
        if probs.ndim != 1 or probs.size == 0:
            raise InputError("probability vector must be 1-d and non-empty")
        if not np.all(np.isfinite(probs)):
            raise InputError("probability vector has non-finite entries")
        if np.any(probs < 0.0):
            raise InputError("probability vector has negative entries")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InputError(
                f"probabilities sum to {total!r}, outside tolerance {PROB_SUM_TOL}"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return self.probs.size

    @property
    def excluded(self) -> np.ndarray:
        """Boolean mask of states with exactly zero probability."""
        return self.probs == 0.0

    @property
    def support(self) -> np.ndarray:
        return self.probs > 0.0

    @classmethod
    def ingest(cls, values: Sequence[float]) -> "Distribution":
        """Build a distribution from file input, renormalizing small drift.

        Vectors whose total is within ``PROB_SUM_INGEST_TOL`` of one are
        rescaled; anything further off is rejected.
        """
        vec = np.asarray(values, dtype=float)
        if vec.ndim != 1 or vec.size == 0:
            raise InputError("probability vector must be 1-d and non-empty")
        if not np.all(np.isfinite(vec)) or np.any(vec < 0.0):
            raise InputError("probability vector entries must be finite and >= 0")
        total = float(vec.sum())
        if abs(total - 1.0) > PROB_SUM_INGEST_TOL:
            raise InputError(
                f"probabilities sum to {total!r}, outside ingest tolerance "
                f"{PROB_SUM_INGEST_TOL}"
            )
        return cls(vec / total)

    @classmethod
    def uniform(cls, n_states: int) -> "Distribution":
        return cls(np.full(n_states, 1.0 / n_states))

    @classmethod
    def _check_rows(cls, probs: np.ndarray) -> None:
        """Raise what the constructor of the first row of the 2-d array
        ``probs`` that is not a distribution would raise."""
        ok = (
            np.isfinite(probs).all(axis=1)
            & (probs >= 0.0).all(axis=1)
            & (np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL)
        )
        if not ok.all():
            cls(probs[int(ok.argmin())])

    @classmethod
    def stack(cls, probs: np.ndarray) -> list["Distribution"]:
        """Each row of the 2-d array ``probs`` as a distribution.

        The rows are not checked again: they must have passed
        :meth:`_check_rows`, which raises what the constructor of the
        first row that is not a distribution would.  The rows are
        read-only views of ``probs``, which the caller hands over and
        must not write to.
        """
        probs.setflags(write=False)
        out = []
        for row in probs:
            dist = object.__new__(cls)
            object.__setattr__(dist, "probs", row)
            out.append(dist)
        return out


@dataclass(frozen=True)
class CountVector:
    """Integer occurrence counts over a microstate space."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.array(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise InputError("count vector must be 1-d and non-empty")
        if not np.issubdtype(counts.dtype, np.integer):
            as_int = np.asarray(np.rint(counts), dtype=np.int64)
            if not np.array_equal(as_int, counts):
                raise InputError("counts must be integers")
            counts = as_int
        counts = counts.astype(np.int64, copy=True)
        if np.any(counts < 0):
            raise InputError("counts must be nonnegative")
        if counts.sum() <= 0:
            raise InputError("total count must be positive")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_distribution(self) -> Distribution:
        """Empirical frequencies ``counts / total``."""
        return Distribution(self.counts / self.total)


def entropy(p: Union[Distribution, Sequence[float], np.ndarray]) -> float:
    """Shannon entropy ``-sum(p * log p)`` in nats.

    Zero entries contribute nothing; the result lies in
    ``[0, log(n_states)]`` for any simplex point.
    """
    probs = prob_array(p)
    return float(-xlogy(probs, probs).sum())


def kl_divergence(
    f: Union[Distribution, Sequence[float], np.ndarray],
    q: Union[Distribution, Sequence[float], np.ndarray],
) -> float:
    """Kullback-Leibler divergence ``sum(f * log(f / q))`` in nats.

    Parameters
    ----------
    f, q : array-like
        Distributions over the same space.  Every state carrying mass
        under ``f`` must carry mass under ``q``.

    Raises
    ------
    SupportViolationError
        If ``f`` puts mass where ``q`` is zero.
    """
    fv = prob_array(f)
    qv = prob_array(q)
    if fv.shape != qv.shape:
        raise InputError("distributions must share one microstate space")
    bad = (fv > 0.0) & (qv == 0.0)
    if np.any(bad):
        raise SupportViolationError(
            f"mass outside reference support at state index {int(np.argmax(bad))}"
        )
    mask = fv > 0.0
    return float(np.sum(fv[mask] * (np.log(fv[mask]) - np.log(qv[mask]))))


def _log_probs(p: np.ndarray) -> np.ndarray:
    """Elementwise ``log p``, ``-inf`` where ``p`` is zero."""
    out = np.full(p.shape, -np.inf)
    np.log(p, out=out, where=p > 0)
    return out


def _scaled_kl(weights: np.ndarray, log_p: np.ndarray, n: int) -> np.ndarray:
    """``n * KL(w || p)`` along the last axis, for stacks ``weights`` of
    distributions ``w`` and ``log_p`` of :func:`_log_probs` that
    broadcast against each other, with an infinity where ``p`` excludes
    a state ``w`` weighs (where :func:`kl_divergence` raises)."""
    # Masking log_p (not the product) keeps 0 * -inf out of the
    # arithmetic while letting weight > 0 against an excluded state
    # still produce the infinite divergence it deserves.
    cross = (weights * np.where(weights > 0, log_p, 0.0)).sum(axis=-1)
    return n * (xlogy(weights, weights).sum(axis=-1) - cross)


def log_multinomial_pmf(
    counts: Union[CountVector, Sequence[int], np.ndarray],
    q: Union[Distribution, Sequence[float], np.ndarray],
) -> float:
    """Log-probability of a multinomial count vector under ``q``.

    Computed as ``log N! - sum(log c_a!) + sum(c_a log q_a)`` via
    ``gammaln``; states with zero count contribute nothing even when
    ``q_a = 0``.

    Raises
    ------
    SupportViolationError
        If a positive count sits on a state of zero probability.
    """
    if isinstance(counts, CountVector):
        cv = counts.counts
    else:
        cv = CountVector(np.asarray(counts)).counts
    qv = prob_array(q)
    if cv.shape != qv.shape:
        raise InputError("counts and probabilities must share one space")
    bad = (cv > 0) & (qv == 0.0)
    if np.any(bad):
        raise SupportViolationError(
            f"positive count outside support at state index {int(np.argmax(bad))}"
        )
    n = cv.sum()
    log_coeff = gammaln(n + 1.0) - gammaln(cv + 1.0).sum()
    mask = cv > 0
    return float(log_coeff + np.sum(cv[mask] * np.log(qv[mask])))


def multinomial_sample(
    q: Union[Distribution, Sequence[float], np.ndarray],
    n: int,
    rng: np.random.Generator,
) -> CountVector:
    """Draw one multinomial count vector of total ``n`` from ``q``."""
    if n <= 0:
        raise InputError("sample size must be positive")
    qv = prob_array(q)
    counts = rng.multinomial(n, qv)
    return CountVector(counts)
