"""Lattice-gas interaction models on binary spins.

A model is a family of interactions, each a non-empty set of spin
indices.  Families are kept downward-closed: constraining a product
moment ``<s_i s_j s_k>`` only pins a distribution class together with
all sub-products, so the closure is the faithful parameterization and
two families with the same closure are the same model.  A family is
closed iff it holds the immediate subsets of each member, which is how
:func:`enumerate_models` builds them, as bitsets, one subset at a time.

Spins take values in ``{0, 1}``.  Microstate ``k`` on ``L`` spins is the
integer whose ``L``-bit big-endian expansion gives the spin values, so
spin 1 is the leftmost bit of the state label and the product moment of
a subset is the probability that all its spins are one.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .constraints import CoefficientMatrix
from .errors import InputError
from .simplex import Distribution, prob_array

__all__ = [
    "SpinModel",
    "IsingParams",
    "closure",
    "to_coefficients",
    "enumerate_models",
    "random_params",
    "boltzmann",
    "tp_fp_rates",
]

#: Largest spin count for explicit state enumeration (2^20 states).
MAX_BOLTZMANN_SPINS = 20

#: Largest spin count for model enumeration; the count grows like the
#: Dedekind numbers (7 580 models at five spins, ~7.8 million at six).
MAX_ENUMERATION_SPINS = 6

#: Random couplings are only defined for interactions up to this order.
MAX_COUPLING_ORDER = 3

Interaction = tuple[int, ...]


def _canonical_interaction(subset: Iterable[int], n_spins: int) -> Interaction:
    spins = tuple(sorted(set(int(i) for i in subset)))
    if not spins:
        raise InputError("interactions must be non-empty spin sets")
    if spins[0] < 1 or spins[-1] > n_spins:
        raise InputError(
            f"interaction {spins} out of range for {n_spins} spins"
        )
    return spins

def _to_mask(subset: Interaction) -> int:
    mask = 0
    for i in subset:
        mask |= 1 << (i - 1)
    return mask

def _from_mask(mask: int) -> Interaction:
    spins = []
    i = 1
    while mask:
        if mask & 1:
            spins.append(i)
        mask >>= 1
        i += 1
    return tuple(spins)

def _sort_key(subset: Interaction) -> tuple[int, Interaction]:
    return (len(subset), subset)


def _is_integer(value: object) -> bool:
    """Whether a value is an integer: a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_spins(n_spins: object) -> None:
    if not _is_integer(n_spins) or n_spins < 1:
        raise InputError(f"n_spins must be an integer of at least one, got {n_spins!r}")


def closure(
    interactions: Iterable[Iterable[int]], n_spins: int
) -> tuple[Interaction, ...]:
    """Downward closure of an interaction family.

    Returns every non-empty subset of every given interaction, without
    duplicates, sorted by size and then lexicographically.
    """
    masks = _close_masks([_to_mask(_canonical_interaction(s, n_spins)) for s in interactions])
    return tuple(sorted((_from_mask(m) for m in masks), key=_sort_key))


@dataclass(frozen=True)
class SpinModel:
    """A downward-closed interaction family on ``n_spins`` binary spins.

    ``interactions`` holds the full closure in canonical order.  The
    associated distribution class fixes one product moment per element
    plus normalization, so :attr:`rank` is ``len(interactions) + 1``.
    """

    n_spins: int
    interactions: tuple[Interaction, ...]

    def __post_init__(self) -> None:
        _check_spins(self.n_spins)
        canonical = closure(self.interactions, self.n_spins)
        if canonical != tuple(tuple(s) for s in self.interactions):
            raise InputError(
                "interactions must be a downward-closed family in "
                "canonical order; build models with from_interactions"
            )

    @classmethod
    def from_interactions(
        cls, interactions: Iterable[Iterable[int]], n_spins: int
    ) -> "SpinModel":
        """Close an arbitrary family and wrap it."""
        _check_spins(n_spins)
        return _closed_model(n_spins, closure(interactions, n_spins))

    @cached_property
    def maximal_interactions(self) -> tuple[Interaction, ...]:
        """The antichain of maximal elements; generates the closure."""
        masks = [_to_mask(s) for s in self.interactions]
        maximal = [
            s
            for s, m in zip(self.interactions, masks)
            if not any(o != m and (o & m) == m for o in masks)
        ]
        return tuple(maximal)

    @property
    def rank(self) -> int:
        return len(self.interactions) + 1

    @property
    def n_states(self) -> int:
        return 2 ** self.n_spins

    @property
    def label(self) -> str:
        """Compact stable identifier, e.g. ``1.2.3+1.2.4+3.5+4.5``."""
        if not self.interactions:
            return "none"
        return "+".join(
            ".".join(str(i) for i in s) for s in self.maximal_interactions
        )

    def contains(self, other: "SpinModel") -> bool:
        """Whether this model's class is a superset (``other`` is implied).

        Closure inclusion is checked on maximal elements only.
        """
        if self.n_spins != other.n_spins:
            raise InputError("models live on different spin counts")
        mine = set(self.interactions)
        return all(s in mine for s in other.maximal_interactions)


def _closed_model(n_spins: int, interactions: tuple[Interaction, ...]) -> SpinModel:
    """A model on a family known to be closed and canonical, unchecked."""
    model = object.__new__(SpinModel)
    model.__dict__.update(n_spins=n_spins, interactions=interactions)
    return model


def _state_masks(interactions: Sequence[Interaction], n_spins: int) -> np.ndarray:
    # Spin i occupies bit (n_spins - i) of the state index.
    out = np.zeros(len(interactions), dtype=np.int64)
    for j, subset in enumerate(interactions):
        m = 0
        for i in subset:
            m |= 1 << (n_spins - i)
        out[j] = m
    return out


def product_rows(interactions: Sequence[Interaction], n_spins: int) -> np.ndarray:
    """Indicator rows ``row[k] = 1`` iff all spins of the subset are one
    in state ``k``."""
    states = np.arange(2 ** n_spins, dtype=np.int64)
    masks = _state_masks(interactions, n_spins)
    return ((states[None, :] & masks[:, None]) == masks[:, None]).astype(float)


def to_coefficients(
    model: SpinModel,
    p: Optional[Union[Distribution, np.ndarray, Sequence[float]]] = None,
) -> CoefficientMatrix:
    """Constraint system of a model: normalization plus one product row
    per closure element.

    Moments are induced from ``p`` (uniform when omitted); replace them
    with data moments before fitting.  The rows are independent, so the
    system rank equals the model rank.
    """
    if model.n_spins > MAX_BOLTZMANN_SPINS:
        raise InputError(
            f"explicit state space limited to {MAX_BOLTZMANN_SPINS} spins"
        )
    n_states = model.n_states
    rows = np.vstack(
        [np.ones((1, n_states)), product_rows(model.interactions, model.n_spins)]
    )
    probs = np.full(n_states, 1.0 / n_states) if p is None else prob_array(p)
    return CoefficientMatrix(rows, rows @ probs)


def enumerate_models(n_spins: int) -> list[SpinModel]:
    """All downward-closed interaction families on ``n_spins`` spins.

    Built as bitsets by :func:`_closed_families`.  The result is sorted
    by rank, then by closure, so positions are stable across runs and
    rank-minimizing tie-breaks favor earlier entries.  Counts: 2, 5, 19,
    167, 7 580 for one to five spins.
    """
    if not _is_integer(n_spins) or not 1 <= n_spins <= MAX_ENUMERATION_SPINS:
        raise InputError(f"enumeration supported for 1..{MAX_ENUMERATION_SPINS} spins")
    masks, families = _closed_families(n_spins)
    subsets = [_from_mask(int(m)) for m in masks]
    members = (families[:, None] >> np.arange(len(masks))) & 1
    flat = iter([subsets[j] for j in np.nonzero(members)[1]])
    sizes = members.sum(axis=1).tolist()
    return [_closed_model(n_spins, tuple(itertools.islice(flat, k))) for k in sizes]


def _closed_families(n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """The spin masks of the subsets in canonical order, and every closed
    family as a bitset over them (bit j for subset j) in model order.

    A family is closed iff it holds the immediate subsets ``need[j]`` of
    each member j, and these precede j.  So adding each j in turn to every
    family so far that holds ``need[j]`` reaches each closed family once.
    The sort is by size, then lexicographic on subset indices: on bitsets,
    the bit-reversed value descending.
    """
    masks = sorted(range(1, 1 << n_spins), key=lambda m: _sort_key(_from_mask(m)))
    bit = {0: 0, **{m: 1 << j for j, m in enumerate(masks)}}
    need = np.array([sum(bit[m & ~(1 << b)] for b in range(n_spins) if (m >> b) & 1)
                     for m in masks], dtype=np.int64)
    families = np.zeros(1, dtype=np.int64)
    for j, nj in enumerate(need):
        families = np.concatenate([families, families[families & nj == nj] | np.int64(1) << j])
    members = (families[:, None] >> np.arange(len(masks))) & 1
    if not np.all((members == 0) | ((families[:, None] & need) == need)):
        raise RuntimeError("enumerated a family that is not downward-closed")
    reversed_bits = members @ (np.int64(1) << np.arange(len(masks) - 1, -1, -1))
    order = np.lexsort((-reversed_bits, members.sum(axis=1)))
    return np.array(masks, dtype=np.int64), families[order]


def _close_masks(generators: Sequence[int]) -> set[int]:
    out: set[int] = set()
    for gen in generators:
        sub = gen
        while sub:
            out.add(sub)
            sub = (sub - 1) & gen
    return out


@dataclass(frozen=True)
class IsingParams:
    """Coupling constants of a model, one per closure element."""

    model: SpinModel
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float, copy=True)
        if values.shape != (len(self.model.interactions),):
            raise InputError(
                "need exactly one coupling per interaction in the closure"
            )
        if not np.all(np.isfinite(values)):
            raise InputError("couplings must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def as_dict(self) -> dict[Interaction, float]:
        return dict(zip(self.model.interactions, self.values))


def random_params(model: SpinModel, rng: np.random.Generator) -> IsingParams:
    """Independent standard-normal couplings, drawn in canonical order.

    Restricted to interactions of order at most three; higher orders
    have no calibrated coupling scale here and are rejected.
    """
    for s in model.interactions:
        if len(s) > MAX_COUPLING_ORDER:
            raise InputError(
                f"interaction {s} exceeds order {MAX_COUPLING_ORDER}"
            )
    return IsingParams(model=model, values=rng.standard_normal(len(model.interactions)))


def energies(params: IsingParams) -> np.ndarray:
    """State energies ``E(k) = sum_S J_S prod_{i in S} s_i(k)``."""
    model = params.model
    if model.n_spins > MAX_BOLTZMANN_SPINS:
        raise InputError(
            f"explicit state space limited to {MAX_BOLTZMANN_SPINS} spins"
        )
    rows = product_rows(model.interactions, model.n_spins)
    return params.values @ rows if len(params.values) else np.zeros(model.n_states)


def boltzmann(params: IsingParams) -> Distribution:
    """Gibbs distribution ``p(k) proportional to exp(E(k))``.

    The maximum energy is subtracted before exponentiating, so any
    finite couplings are safe.  By construction the result is the
    entropy maximizer of its own induced moments under the model.
    """
    e = energies(params)
    w = np.exp(e - e.max())
    return Distribution(w / w.sum())


def tp_fp_rates(selected: SpinModel, truth: SpinModel) -> tuple[float, float]:
    """Interaction recovery rates of a selected model against the truth.

    True-positive rate: recovered fraction of the truth's closure.
    False-positive rate: spurious fraction of the non-empty subsets
    outside it.  A perfect recovery scores ``(1.0, 0.0)``.
    """
    if selected.n_spins != truth.n_spins:
        raise InputError("models live on different spin counts")
    universe = 2 ** truth.n_spins - 1
    sel = set(selected.interactions)
    true = set(truth.interactions)
    tp = len(sel & true) / len(true) if true else 1.0
    denom = universe - len(true)
    fp = len(sel - true) / denom if denom else 0.0
    return tp, fp
