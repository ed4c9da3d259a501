"""Architecture-recovery benchmark on synthetic spin data.

The experiment: draw couplings for a ground-truth interaction model,
sample counts from its Gibbs distribution at several sample sizes, fit
every downward-closed candidate model to each sample, and let each
selection method pick one.  Recovery quality is scored against the
truth's closure, and held-out samples give a test divergence for the
picked model.

The candidate sweep dominates the cost, so fits run through a batched
Newton iteration grouped by rank, on product rows
(:class:`~maxentkit.solver._ProductRows`): each batch is the row
indices of its models into one basis, the product rows of every spin
subset on the working states, and ``_Context.union`` maps two rows to
the row of their product, so no per-model row stack is built, and the
batches of a sample without boundary moments are built once per
context.  The models are first split by their
boundary pattern: the subsets whose product count in the sample is
exactly zero or exactly the sample size.  Within a pattern every model
shares the excluded states that the pattern's rows give by the
exclusion cascade of :mod:`maxentkit.constraints`, so the reduced
systems batch just as well; a sample without boundary moments is one
pattern, the empty one, which excludes nothing.

Each model's Newton solve starts from the fit of its parent, the
sub-model that drops its highest-order maximal interaction.  A parent's
pattern is contained in its child's, so patterns are fitted in
increasing order of boundary-bit count and, within one, batches in
increasing rank; the parent's fit, restricted to the child's working
states and renormalised, is a valid start (its log lies in the child's
row space).  A model whose parent is not fitted yet starts from
uniform.  Warm-started systems the batch flags (singular, runaway, or
unconverged) are restarted once from uniform, and those still flagged
get the damped pass (see :func:`~maxentkit.solver._newton_passes`);
systems that pass cannot fit are refitted together on dense rows by
the fit core, :func:`~maxentkit.solver._fit_table`, and a model that
still fails is dropped from that sample's candidate set with a warning.
A model whose rows pin its working space is fitted by the sample
itself.

Every task (realization, sample size, sample index) reseeds its own
generator from the configured seed, so reports are reproducible
bit-for-bit regardless of worker count or resumption.
:func:`compare_reports` sorts the differences between two written
reports into changed selections, floats moved beyond a relative
tolerance, and floats moved within it.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .constraints import CoefficientMatrix, _support_reductions
from .errors import InputError, _check_positive_real
from .ising import (
    MAX_ENUMERATION_SPINS,
    SpinModel,
    _closed_families,
    _from_mask,
    _is_integer,
    boltzmann,
    enumerate_models,
    product_rows,
    random_params,
    tp_fp_rates,
)
from .selection import METHODS, SelectionConfig, _score_fits, alpha_empirical, select_arrays
from .simplex import _log_probs, _scaled_kl
from .solver import _fit_table, _FitTable, _newton_passes, _ProductRows

__all__ = [
    "BenchmarkConfig",
    "BenchmarkRow",
    "TruthRow",
    "SummaryRow",
    "BenchmarkReport",
    "run_benchmark",
    "report_csv",
    "truth_csv",
    "summary_csv",
    "ReportDifference",
    "ReportComparison",
    "compare_reports",
]

log = logging.getLogger(__name__)

_G_ISING = ((1, 2, 3), (1, 2, 4), (3, 5), (4, 5))


@dataclass(frozen=True)
class BenchmarkConfig:
    """Shape of one benchmark sweep.

    Defaults reproduce the desk-scale experiment: fifty coupling
    realizations of the two-triangle five-spin truth, ten datasets per
    realization at each decade from a hundred to ten million samples.
    """

    n_spins: int = 5
    truth: tuple[tuple[int, ...], ...] = _G_ISING
    sample_sizes: tuple[int, ...] = (
        100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000,
    )
    n_realizations: int = 50
    n_samples: int = 10
    test_samples: int = 100
    methods: tuple[str, ...] = METHODS
    seed: int = 0
    alpha_prefactor: float = 1.0
    threads: int = 1

    def __post_init__(self) -> None:
        for name in ("truth", "sample_sizes", "methods"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise InputError(f"{name} must be a list")
        for name in ("n_spins", "n_realizations", "n_samples", "test_samples", "seed", "threads"):
            if not _is_integer(getattr(self, name)):
                raise InputError(f"{name} must be an integer")
        if not all(_is_integer(n) for n in self.sample_sizes):
            raise InputError("sample sizes must be integers")
        if not all(
            isinstance(s, (tuple, list)) and all(_is_integer(i) for i in s) for s in self.truth
        ):
            raise InputError("truth must be a list of interactions, each a list of integer spins")
        if not 1 <= self.n_spins <= MAX_ENUMERATION_SPINS:
            raise InputError(f"n_spins must lie in 1..{MAX_ENUMERATION_SPINS}")
        # Raises for an interaction outside the spins.
        SpinModel.from_interactions(self.truth, self.n_spins)
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if self.n_realizations < 1 or self.n_samples < 1:
            raise InputError("need at least one realization and one sample")
        if self.test_samples < 1:
            raise InputError("need at least one test sample")
        if not self.sample_sizes or any(n < 10 for n in self.sample_sizes):
            raise InputError("sample sizes must be at least 10")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise InputError(f"methods must be a subset of {METHODS}")
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise InputError("sample sizes must not repeat")
        if len(set(self.methods)) < len(self.methods):
            raise InputError("methods must not repeat")
        _check_positive_real(self.alpha_prefactor, "alpha_prefactor")
        if self.threads < 1:
            raise InputError("threads must be at least 1")
        # Lists, as a JSON config gives them, become tuples.
        object.__setattr__(self, "truth", tuple(tuple(s) for s in self.truth))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "methods", tuple(self.methods))

    @property
    def n_tasks(self) -> int:
        return len(self.sample_sizes) * self.n_realizations * self.n_samples


@dataclass(frozen=True)
class BenchmarkRow:
    """One method's verdict on one dataset."""

    method: str
    n: int
    realization: int
    sample: int
    selected: str
    selected_rank: int
    exact: bool
    fallback: bool
    tp_rate: float
    fp_rate: float
    train_kl: float
    test_kl: float


@dataclass(frozen=True)
class TruthRow:
    """How the generating model itself fared on one dataset."""

    n: int
    realization: int
    sample: int
    rank: int
    p_value: float
    alpha: float
    passed: bool
    valid: bool


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate over all datasets of one (method, sample size) cell."""

    method: str
    n: int
    tasks: int
    accuracy: float
    fallback_rate: float
    mean_tp: float
    mean_fp: float
    frac_fp_positive: float
    mean_train_kl: float
    mean_test_kl: float


@dataclass(frozen=True)
class BenchmarkReport:
    config: BenchmarkConfig
    rows: tuple[BenchmarkRow, ...]
    truth_rows: tuple[TruthRow, ...]

    def summary(self) -> tuple[SummaryRow, ...]:
        cells: dict[tuple[str, int], list[BenchmarkRow]] = defaultdict(list)
        for row in self.rows:
            cells[(row.method, row.n)].append(row)
        out = []
        for method in self.config.methods:
            for n in self.config.sample_sizes:
                rows = cells.get((method, n), [])
                if not rows:
                    continue
                k = len(rows)
                out.append(
                    SummaryRow(
                        method=method,
                        n=n,
                        tasks=k,
                        accuracy=sum(r.exact for r in rows) / k,
                        fallback_rate=sum(r.fallback for r in rows) / k,
                        mean_tp=sum(r.tp_rate for r in rows) / k,
                        mean_fp=sum(r.fp_rate for r in rows) / k,
                        frac_fp_positive=sum(r.fp_rate > 0 for r in rows) / k,
                        mean_train_kl=sum(r.train_kl for r in rows) / k,
                        mean_test_kl=sum(r.test_kl for r in rows) / k,
                    )
                )
        return tuple(out)

    def truth_pass_rates(self) -> dict[int, float]:
        """Fraction of datasets per sample size where the generating
        model cleared its own acceptance threshold."""
        by_n: dict[int, list[bool]] = defaultdict(list)
        for row in self.truth_rows:
            by_n[row.n].append(row.passed)
        return {n: sum(v) / len(v) for n, v in sorted(by_n.items())}


class _Context:
    """Per-process candidate tables shared by every task."""

    def __init__(self, config: BenchmarkConfig):
        self.config = config
        length = config.n_spins
        self.n_states = 2 ** length
        self.models = enumerate_models(length)
        self.truth_model = SpinModel.from_interactions(config.truth, length)
        self.truth_index = self.models.index(self.truth_model)

        # Subsets run by (bit count, mask), not in the canonical order of
        # ising: this order sets the row order, and so the bits, of every fit.
        spin_masks = sorted(range(1, self.n_states), key=lambda m: (m.bit_count(), m))
        self.n_subsets = len(spin_masks)
        subsets = [_from_mask(m) for m in spin_masks]
        # Subset j: its spin mask, and back from spin mask to j (-1 for
        # the empty mask).
        self.subset_spin_mask = np.array(spin_masks, dtype=np.int64)
        self.subset_pos = np.full(self.n_states, -1, dtype=np.int64)
        self.subset_pos[spin_masks] = np.arange(self.n_subsets)
        # Row 0 is normalization; row 1 + j the product row of subset j.
        self.zeta = np.vstack(
            [np.ones((1, self.n_states)), product_rows(subsets, length)]
        )
        self.zeta_int = self.zeta.astype(np.int64)
        self.zeta_bool = self.zeta.astype(bool)
        # The product of rows r and s of zeta is row union[r, s], the
        # row of the union of their subsets.
        row_mask = np.concatenate([[0], self.subset_spin_mask])
        self.union = (1 + self.subset_pos[row_mask[:, None] | row_mask[None, :]]).astype(np.uint8)
        # By row count, the batch rows of a sample without boundary
        # moments, as _ProductRows arguments.
        self.interior_rows: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

        # Bit j of a model's closure bits is set iff subset j is in it:
        # ising's bitsets over the canonical order, permuted into this one.
        canonical_masks, families = _closed_families(length)
        self.closure_bits = np.bitwise_or.reduce(
            self._members(families) << self.subset_pos[canonical_masks], axis=1
        )

        # A model's parent drops its highest subset, which is always a
        # maximal interaction (subsets run by size), leaving a sub-model
        # of rank one less.  The empty model has none (-1).
        top = np.full(len(self.models), -1)
        for j in range(self.n_subsets):
            top[(self.closure_bits >> j) & 1 == 1] = j
        has_parent = top >= 0
        parent_bits = self.closure_bits ^ np.left_shift(1, np.maximum(top, 0))
        by_bits = np.argsort(self.closure_bits)
        slot = np.searchsorted(self.closure_bits[by_bits], parent_bits[has_parent])
        self.parent = np.full(len(self.models), -1)
        self.parent[has_parent] = by_bits[slot]

    def _members(self, bits: np.ndarray) -> np.ndarray:
        """Per line of closure bits, the 0/1 indicator of each subset."""
        return (bits[:, None] >> np.arange(self.n_subsets)) & 1

    def _collapse(self, bits: np.ndarray, spins: int) -> np.ndarray:
        """Closure bits with each subset cut down to its spins outside
        the spin mask ``spins``: a subset inside it drops, and subsets
        that coincide once cut merge."""
        target = self.subset_pos[self.subset_spin_mask & ~spins]
        target_bits = np.where(target >= 0, np.left_shift(1, np.maximum(target, 0)), 0)
        return np.bitwise_or.reduce(self._members(bits) * target_bits, axis=1)

    def _row_matrix(self, bits: np.ndarray) -> np.ndarray:
        """Row indices into ``zeta`` of closure bits with one bit count,
        one line each: normalization, then row 1 + j per set bit j."""
        cols = np.nonzero(self._members(bits))[1].reshape(len(bits), -1)
        return np.hstack([np.zeros((len(bits), 1), dtype=int), 1 + cols])

    def implying(self, i: int, js: np.ndarray) -> np.ndarray:
        """The ``implying(i, js)`` oracle of ``select_arrays``: the mask
        over the models ``js`` of those whose closure contains model
        ``i``'s."""
        ci = self.closure_bits[i]
        return (self.closure_bits[js] & ci) == ci


def _fit_all_models(ctx: _Context, counts: np.ndarray, n: int) -> _FitTable:
    """Maximum-entropy fit of every candidate against one count vector."""
    a = ctx.n_states
    n_models = len(ctx.models)
    m_counts = ctx.zeta_int @ counts
    m_frac = m_counts / n
    f = counts / n

    # A model has a fit iff its row of probs is not NaN.  The boundary
    # patterns partition the models, and each sets its members' ranks.
    probs = np.full((n_models, a), np.nan)
    rank_eff = np.zeros(n_models, dtype=int)
    robust: list[int] = []

    subset_bits = np.left_shift(1, np.arange(ctx.n_subsets, dtype=np.int64))
    boundary_bits = int(subset_bits[(m_counts[1:] == 0) | (m_counts[1:] == n)].sum())
    patterns, inverse = np.unique(ctx.closure_bits & boundary_bits, return_inverse=True)
    inverse = inverse.ravel()
    # A sub-model's pattern is contained in its child's, so taking
    # patterns by boundary-bit count reaches the sub-model's first.
    for k in sorted(range(len(patterns)), key=lambda k: int(patterns[k]).bit_count()):
        _fit_pattern(
            ctx, int(patterns[k]), np.flatnonzero(inverse == k),
            m_frac, f, probs, rank_eff, robust,
        )

    # Normalization, then row 1 + j per closure bit j: ``_from_mask``
    # lists set bits 1-based.
    rmats = [[0, *_from_mask(int(ctx.closure_bits[i]))] for i in robust]
    fits = _fit_table([CoefficientMatrix(ctx.zeta[r], m_frac[r]) for r in rmats], None)
    errors = {}
    for k, i in enumerate(robust):
        if k in fits.errors:
            errors[i] = fits.errors[k]
            log.warning("candidate %s dropped for this sample: %s", ctx.models[i].label, errors[i])
            continue
        probs[i] = fits.probabilities[k]
        rank_eff[i] = fits.rank_eff[k]
    # A dropped model keeps the rank its pattern gave it; truth.csv reports it.
    return _FitTable(probs, rank_eff, errors)


def _fit_pattern(
    ctx: _Context,
    hit: int,
    members: np.ndarray,
    m_frac: np.ndarray,
    f: np.ndarray,
    probs: np.ndarray,
    rank_eff: np.ndarray,
    robust: list[int],
) -> None:
    """Batch-fit the models sharing one boundary-moment pattern, the
    closure bits ``hit`` whose product count is zero or saturated.

    The pattern's rows run the exclusion cascade
    (:func:`~maxentkit.constraints._support_reductions`): a zero product
    count excludes every state with that subset fully on; a saturated
    one excludes every state without it.  On the surviving states the
    saturated spins are constant, so each kept interaction collapses to
    its non-saturated part and duplicates merge; the empty pattern
    collapses nothing.  The reduced rows stay independent, which keeps
    the batch solver applicable.  A model that pins its working space
    is the sample itself: ``f`` is zero on every excluded state and
    meets every moment.  Batches run in increasing rank, so a parent in
    the same pattern is fitted before its children and can seed them.
    """
    a = ctx.n_states
    # Row 1 + j of zeta is subset j, and ``_from_mask`` lists set bits
    # 1-based.
    boundary = np.array(_from_mask(hit), dtype=int)
    (excluded,), _, _ = _support_reductions(ctx.zeta_bool[None, boundary], m_frac[None, boundary])
    n_excluded = int(excluded.sum())
    working = ~excluded
    basis = ctx.zeta[:, working]

    saturated = boundary[m_frac[boundary] == 1.0] - 1
    sat_spins = np.bitwise_or.reduce(ctx.subset_spin_mask[saturated])
    collapsed = ctx._collapse(ctx.closure_bits[members] & ~hit, sat_spins)
    n_rows = 1 + ctx._members(collapsed).sum(axis=1)
    rank_eff[members] = n_rows + n_excluded
    pinned = n_rows >= a - n_excluded
    probs[members[pinned]] = f

    # Without a boundary moment every sample has the same batches.
    interior = members.size == len(ctx.models)
    for d in np.unique(n_rows[~pinned]):
        batch = n_rows == d
        midx = members[batch]
        if interior and d in ctx.interior_rows:
            rows = _ProductRows(basis, *ctx.interior_rows[d])
        else:
            rows = _ProductRows(basis, ctx._row_matrix(collapsed[batch]), ctx.union)
            if interior:
                # The arrays, not the rows object, which caches flat
                # positions of 8 bytes per Jacobian entry once it runs.
                ctx.interior_rows[d] = (rows.index, rows.union, rows.pairs)
        batch_p, _, done, _, _ = _newton_passes(
            rows, m_frac[rows.index], start=_seeds(ctx, midx, working, probs)
        )
        done_idx = midx[done]
        block = np.zeros((done_idx.size, a))
        block[:, working] = batch_p[done]
        probs[done_idx] = block
        robust.extend(midx[~done].tolist())


def _seeds(
    ctx: _Context, midx: np.ndarray, working, probs: np.ndarray
) -> Optional[np.ndarray]:
    """Newton starts for one batch: each model's parent fit, restricted
    to the working states and renormalised; uniform where the parent is
    not fitted yet.  ``None`` when no model has a fitted parent.

    The parent's pattern is contained in the child's, so its fit is
    positive on the child's working states.  There each parent row
    becomes 0, 1 or one of the child's reduced rows, so the log of the
    restricted fit stays in the child's row space.
    """
    parent = ctx.parent[midx]
    seeded = parent >= 0
    seeded[seeded] = ~np.isnan(probs[parent[seeded], 0])
    if not seeded.any():
        return None
    seed = probs[parent[seeded]][:, working]
    seed /= seed.sum(axis=1, keepdims=True)
    n_working = seed.shape[1]
    start = np.full((midx.size, n_working), 1.0 / n_working)
    start[seeded] = seed
    return start


def _run_task(ctx: _Context, realization: int, n: int, sample: int) -> dict:
    config = ctx.config
    params_rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, realization))
    )
    params = random_params(ctx.truth_model, params_rng)
    q = boltzmann(params).probs

    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, realization, n, sample))
    )
    counts = rng.multinomial(n, q)
    test_counts = rng.multinomial(n, q, size=config.test_samples)

    table = _fit_all_models(ctx, counts, n)
    # Names are built only for the candidates a warning names.
    h_hat, _, p_value, bic_score, aic_score, valid = _score_fits(
        table.probabilities, counts / n, table.rank_eff, n, lambda i: ctx.models[i].label
    )

    a = ctx.n_states
    t_idx = ctx.truth_index
    t_alpha = alpha_empirical(a, int(table.rank_eff[t_idx]), n, config.alpha_prefactor)
    truth = {
        "rank": int(table.rank_eff[t_idx]),
        "p_value": float(p_value[t_idx]) if valid[t_idx] else 0.0,
        "alpha": t_alpha,
        "passed": bool(valid[t_idx] and p_value[t_idx] >= t_alpha),
        "valid": bool(valid[t_idx]),
    }

    test_weights = test_counts / n
    per_method = {}
    for method in config.methods:
        sel_cfg = SelectionConfig(method=method, alpha_prefactor=config.alpha_prefactor)
        sel, fallback = select_arrays(
            table.rank_eff, h_hat, p_value, bic_score, aic_score,
            valid, a, n, sel_cfg, ctx.implying,
        )
        tp, fp = tp_fp_rates(ctx.models[sel], ctx.truth_model)
        log_p = _log_probs(table.probabilities[sel])
        per_method[method] = {
            "selected": ctx.models[sel].label,
            "selected_rank": int(table.rank_eff[sel]),
            "exact": bool(sel == t_idx),
            "fallback": bool(fallback),
            "tp_rate": tp,
            "fp_rate": fp,
            "train_kl": float(_scaled_kl(q, log_p, n)),
            "test_kl": float(_scaled_kl(test_weights, log_p, n).mean()),
        }

    return {
        "realization": realization,
        "n": n,
        "sample": sample,
        "truth": truth,
        "methods": per_method,
        "failed_models": int(valid.size - valid.sum()),
    }


_WORKER_CTX: Optional[_Context] = None


def _init_worker(config: BenchmarkConfig) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _Context(config)


def _worker_entry(task: tuple[int, int, int]) -> tuple[tuple[int, int, int], dict]:
    realization, n, sample = task
    return task, _run_task(_WORKER_CTX, realization, n, sample)


def _assemble(
    config: BenchmarkConfig, results: dict[tuple[int, int, int], dict]
) -> BenchmarkReport:
    rows = []
    truth_rows = []
    for n in config.sample_sizes:
        for realization in range(config.n_realizations):
            for sample in range(config.n_samples):
                res = results[(realization, n, sample)]
                # The task's key columns: the report key past ``method``.
                key = {k: res[k] for k in _REPORT_KEY[1:]}
                truth_rows.append(TruthRow(**key, **res["truth"]))
                for method in config.methods:
                    rows.append(BenchmarkRow(method=method, **key, **res["methods"][method]))
    return BenchmarkReport(config=config, rows=tuple(rows), truth_rows=tuple(truth_rows))


def _shard_path(resume_dir: str) -> str:
    return os.path.join(resume_dir, "tasks.jsonl")


def _load_shards(resume_dir: str) -> dict[tuple[int, int, int], dict]:
    done: dict[tuple[int, int, int], dict] = {}
    path = _shard_path(resume_dir)
    if not os.path.exists(path):
        return done
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            done[(rec["realization"], rec["n"], rec["sample"])] = rec
    return done


def run_benchmark(
    config: BenchmarkConfig,
    *,
    resume_dir: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> BenchmarkReport:
    """Run (or resume) the full sweep and assemble the report.

    With ``resume_dir`` set, every finished task is appended to
    ``tasks.jsonl`` there and already-recorded tasks are skipped on the
    next call.  Task results depend only on the configured seed, so the
    assembled report is identical however the work was split or
    interrupted.
    """
    tasks = [
        (realization, n, sample)
        for n in config.sample_sizes
        for realization in range(config.n_realizations)
        for sample in range(config.n_samples)
    ]
    results: dict[tuple[int, int, int], dict] = {}
    if resume_dir:
        os.makedirs(resume_dir, exist_ok=True)
        results.update(_load_shards(resume_dir))
    pending = [t for t in tasks if t not in results]
    total = len(tasks)
    completed = total - len(pending)
    if progress:
        progress(completed, total)

    # Each worker builds its own context, so start no more than there
    # are tasks.
    workers = min(config.threads, len(pending))
    shard_fh = open(_shard_path(resume_dir), "a") if resume_dir else None
    try:
        if workers > 1:
            from multiprocessing import Pool

            with Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(config,),
            ) as pool:
                for task, res in pool.imap_unordered(_worker_entry, pending):
                    results[task] = res
                    completed += 1
                    _record(shard_fh, res, progress, completed, total)
        elif pending:
            ctx = _Context(config)
            for task in pending:
                res = _run_task(ctx, *task)
                results[task] = res
                completed += 1
                _record(shard_fh, res, progress, completed, total)
    finally:
        if shard_fh:
            shard_fh.close()
    return _assemble(config, results)


def _record(shard_fh, res: dict, progress, completed: int, total: int) -> None:
    if shard_fh:
        shard_fh.write(json.dumps(res, sort_keys=True) + "\n")
        shard_fh.flush()
    if progress:
        progress(completed, total)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(row_type: type, rows: Sequence) -> str:
    """One CSV table of ``rows``: a column per field of ``row_type``, in
    field order."""
    names = [field.name for field in fields(row_type)]
    lines = [",".join(names)]
    lines.extend(",".join(_fmt(getattr(row, k)) for k in names) for row in rows)
    return "\n".join(lines) + "\n"


def report_csv(report: BenchmarkReport) -> str:
    return _csv(BenchmarkRow, report.rows)


def truth_csv(report: BenchmarkReport) -> str:
    return _csv(TruthRow, report.truth_rows)


def summary_csv(report: BenchmarkReport) -> str:
    return _csv(SummaryRow, report.summary())


#: Files of a written report, with the columns of each whose change is a
#: change of selection (or of the truth's verdict).  The other columns
#: past the key are floats.
_REPORT_DISCRETE = {
    "report.csv": ("selected", "selected_rank", "exact", "fallback", "tp_rate", "fp_rate"),
    "truth.csv": ("rank", "passed", "valid"),
    "summary.csv": (
        "tasks", "accuracy", "fallback_rate", "mean_tp", "mean_fp", "frac_fp_positive",
    ),
}
_REPORT_KEY = ("method", "n", "realization", "sample")


@dataclass(frozen=True)
class ReportDifference:
    """One cell that differs between two written reports."""

    file: str
    key: str
    column: str
    a: str
    b: str

    def __str__(self) -> str:
        return f"{self.file} {self.key} {self.column}: {self.a} -> {self.b}"


@dataclass(frozen=True)
class ReportComparison:
    """The differences between two written reports, in three classes: a
    changed selection (or a row only one report has), a float that moved
    beyond ``rtol`` or became infinite, and a float that moved within
    ``rtol``."""

    rtol: float
    selections: tuple[ReportDifference, ...]
    beyond: tuple[ReportDifference, ...]
    within: tuple[ReportDifference, ...]

    @property
    def same(self) -> bool:
        """No difference beyond float moves within ``rtol``."""
        return not (self.selections or self.beyond)

    def lines(self) -> list[str]:
        out = [f"selection changed: {d}" for d in self.selections]
        out += [f"float beyond rtol {self.rtol:g}: {d}" for d in self.beyond]
        out.append(
            f"{len(self.selections)} selection changes, {len(self.beyond)} floats beyond "
            f"rtol {self.rtol:g}, {len(self.within)} floats within it"
        )
        if self.within:
            worst = max(self.within, key=lambda d: _relative_move(float(d.a), float(d.b)))
            rel = _relative_move(float(worst.a), float(worst.b))
            out.append(f"largest move within rtol: {rel:.2e} ({worst})")
        return out


def _relative_move(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def _read_report(path: str) -> dict[str, dict[str, str]]:
    """Rows of one report CSV keyed by their key columns."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        " ".join(f"{k}={row[k]}" for k in _REPORT_KEY if k in row): row for row in rows
    }


def compare_reports(a: str, b: str, rtol: float = 1e-6) -> ReportComparison:
    """Compare the report, truth and summary CSVs written to the
    directories ``a`` and ``b`` (as ``maxentkit bench`` writes them).

    Rows are matched by their (method, n, realization, sample) columns,
    the ones each file has.  A float that differs counts as moved
    within ``rtol`` when its relative change is at most ``rtol``; one
    that becomes infinite or NaN counts as beyond it.
    """
    if not rtol >= 0.0:
        raise InputError("rtol must be nonnegative")
    found: dict[str, list[ReportDifference]] = defaultdict(list)
    for name, discrete in _REPORT_DISCRETE.items():
        rows_a = _read_report(os.path.join(a, name))
        rows_b = _read_report(os.path.join(b, name))
        for key in sorted(rows_a.keys() ^ rows_b.keys()):
            found["selections"].append(ReportDifference(
                name, key, "row", "present" if key in rows_a else "absent",
                "present" if key in rows_b else "absent",
            ))
        for key, row_a in rows_a.items():
            row_b = rows_b.get(key)
            if row_b is None:
                continue
            for column, x in row_a.items():
                y = row_b.get(column)
                if column in _REPORT_KEY or x == y:
                    continue
                diff = ReportDifference(name, key, column, x, str(y))
                if column in discrete or y is None:
                    found["selections"].append(diff)
                    continue
                u, v = float(x), float(y)
                if u == v or (math.isnan(u) and math.isnan(v)):
                    continue
                moved = math.isfinite(u) and math.isfinite(v) and _relative_move(u, v) <= rtol
                found["within" if moved else "beyond"].append(diff)
    return ReportComparison(
        rtol, *(tuple(found[c]) for c in ("selections", "beyond", "within"))
    )
