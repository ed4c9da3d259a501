"""The three workloads of the maxentkit benchmark.

Each workload is a closed loop: one caller in one process makes one call
at a time into the package's own entry points (``bench.run_benchmark``
for the sweeps, ``selection.select`` for the library), with
``threads=1`` and BLAS pinned to one thread by ``run.py``.

* ``sweep_dense`` runs the inverse-Ising sweep of all 7 580 five-spin
  models at n = 1e5, 1e6, 1e7.  No sample has a boundary moment, so each
  task is a few large rank-group calls to the batched Newton solver.
* ``sweep_sparse`` runs the same sweep at n = 100, where about half the
  samples hit boundary moments: many small pattern batches, scalar
  fallbacks, and a selection step whose implication scans matter.  It is
  not in ``BENCHMARK.json``: a task takes about 1.8 s with a spread of
  about 40 % between coupling realizations, so a run of under a minute
  holds too few tasks for its figures to repeat within a bound.  It
  stays runnable for traced per-layer runs and by hand.
* ``select_library`` scores all 167 four-spin models as coefficient
  systems with ``hyper_maxent`` and ``hyper_maxent_lrt`` at n = 100 and
  1e4: canonicalization (RREF), damped scalar Newton and nesting maps,
  none of which the sweeps touch.

A sweep run gives each sample size an equal share of ``--seconds`` and
one ``run_benchmark`` call (a segment) on its own config seed, derived
from the run seed, with ``resume_dir`` set as the CLI sets it.  A
segment is stopped from its progress callback when its share is spent.
Inside one call every size reuses the same coupling realizations, so
one call per size keeps the realizations of a run independent, which is
what steadies its figures.  The first progress gap of a call holds the
context build as well as a task, so task latency is taken from the
later gaps; set-up is measured on its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import time

import numpy as np

from maxentkit import bench, ising, selection
from maxentkit.constraints import CoefficientMatrix
from maxentkit.errors import ConvergenceError, MaxentError
from maxentkit.simplex import entropy
from maxentkit.solver import fit_linear_system

SWEEPS = {
    "sweep_dense": {
        "sizes": (10**5, 10**6, 10**7),
        # Seconds per task on a shared two-core x86-64 VM; sizes the fixed
        # work of a traced run only.
        "task_ref_s": 0.6,
        # No boundary moments at these sizes, so every fit is interior
        # and every train KL must be finite.
        "interior": True,
    },
    "sweep_sparse": {
        "sizes": (100,),
        "task_ref_s": 1.8,
        "interior": False,
    },
}

#: Realizations per segment when no deadline cuts it short first.
SEGMENT_REALIZATIONS = 1000
#: Tasks per chunk of a traced sweep run.
TRACE_CHUNK_TASKS = 4

LIBRARY_TRUTH = ((1, 2, 3), (1, 2, 4))
LIBRARY_SIZES = (100, 10_000)
LIBRARY_METHODS = ("hyper_maxent", "hyper_maxent_lrt")
LIBRARY_OP_REF_S = 0.22
#: Selections run a second time, from scratch, to check they repeat.
REPEAT_OPS = 8
#: Chosen fits cross-checked against IPF per run; IPF near the boundary
#: can spend its whole update budget, so later ops get the certificate
#: alone.
IPF_CHECKS = 24

#: Largest difference allowed between the Newton and IPF fits of a
#: chosen candidate; IPF stops at a moment residual of 1e-10.
IPF_AGREEMENT = 1e-6


class _Deadline(Exception):
    """Raised from a progress callback to end a segment at its deadline."""


@dataclasses.dataclass
class Outcome:
    """What one workload pass hands back to ``run.py``."""

    attempted: int
    failed: int
    latencies: list
    fits_attempted: int
    fits_failed: int
    problems: list
    info: list
    peak_rss_mb: float = 0.0
    wall_s: float = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------- set-up --

def setup(workload: str):
    """Build what a workload needs before its first operation."""
    if workload in SWEEPS:
        return bench._Context(_segment_config(workload, 0, 0, 1))
    return _Library()


class _Library:
    def __init__(self):
        self.models = ising.enumerate_models(4)
        self.candidates = [ising.to_coefficients(m) for m in self.models]
        self.ids = [m.label for m in self.models]
        self.truth = ising.SpinModel.from_interactions(LIBRARY_TRUTH, 4)


# --------------------------------------------------------------- sweeps --

def _segment_config(workload, seed, i, n_realizations):
    """Config of segment ``i``: the sizes in turn, each on its own seed."""
    sizes = SWEEPS[workload]["sizes"]
    segment_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
    return bench.BenchmarkConfig(
        sample_sizes=(sizes[i % len(sizes)],), n_realizations=n_realizations,
        n_samples=1, seed=segment_seed, threads=1,
    )


def _sweep_segment(config, rdir, deadline):
    """One run_benchmark call, stopped at ``deadline`` once two tasks are
    done (so that one gap is free of the context build); returns its
    progress timestamps."""
    stamps = []

    def progress(done, total):
        stamps.append(time.perf_counter())
        if 2 <= done < total and stamps[-1] >= deadline:
            raise _Deadline

    try:
        bench.run_benchmark(config, resume_dir=rdir, progress=progress)
    except _Deadline:
        pass
    return stamps


def _shard_records(rdir):
    path = os.path.join(rdir, "tasks.jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _report_hashes(report):
    return {
        "report_csv": _digest(bench.report_csv(report)),
        "truth_csv": _digest(bench.truth_csv(report)),
        "summary_csv": _digest(bench.summary_csv(report)),
    }


def _check_report(report, interior, ranks, problems):
    """Sanity of one assembled sweep report."""
    cfg = report.config
    if len(report.rows) != cfg.n_tasks * len(cfg.methods):
        problems.append(f"report has {len(report.rows)} rows, expected "
                        f"{cfg.n_tasks * len(cfg.methods)}")
    for row in report.rows:
        if math.isnan(row.train_kl) or math.isnan(row.test_kl) or row.train_kl < 0:
            problems.append(f"bad KL in row {row}")
        elif math.isinf(row.train_kl):
            # An infinite train KL is the honest value only when the
            # selected fit gives zero mass to a state the truth uses: the
            # saturated model's fit is the sample itself, and a boundary
            # fit excludes states, which raises its effective rank above
            # the model's own rank.
            rank = ranks[row.selected]
            saturated = rank == 2 ** cfg.n_spins
            if not saturated and (interior or row.selected_rank <= rank):
                problems.append(f"infinite train_kl without exclusions: {row}")


def measure_sweep(workload, seed, seconds, smoke, workdir, store):
    sizes = SWEEPS[workload]["sizes"]
    if smoke:
        sizes = sizes[:1]
    start = time.perf_counter()
    segments = []
    for i, n in enumerate(sizes):
        cfg = _segment_config(workload, seed, i, 1 if smoke else SEGMENT_REALIZATIONS)
        rdir = os.path.join(workdir, f"segment{i}")
        deadline = start + seconds * (i + 1) / len(sizes)
        stamps = _sweep_segment(cfg, rdir, deadline)
        segments.append((cfg, rdir, stamps, _shard_records(rdir)))
    wall = time.perf_counter() - start
    rss = peak_rss_mb()

    latencies = []
    for _, _, stamps, _ in segments:
        gaps = np.diff(stamps).tolist()
        # Gap one also holds the context build; a one-task segment has
        # no other gap, so smoke runs keep it.
        latencies.extend(gaps[1:] if len(gaps) > 1 else gaps)
    records = [rec for *_, recs in segments for rec in recs]
    models = ising.enumerate_models(segments[0][0].n_spins)
    ranks = {m.label: m.rank for m in models}

    problems, info = [], []
    for i, (cfg, rdir, _, recs) in enumerate(segments):
        if not recs:
            problems.append(f"segment {i} (n={cfg.sample_sizes[0]}) finished no task")
            continue
        # The completed realizations form a config of their own, which
        # assembles from the shard log alone: nothing is left to run.
        done = dataclasses.replace(cfg, n_realizations=len(recs))
        report = bench.run_benchmark(done, resume_dir=rdir)
        _check_report(report, SWEEPS[workload]["interior"], ranks, problems)
        hashes = _report_hashes(report)
        info.append(f"hashes seed={seed} n={cfg.sample_sizes[0]} tasks={done.n_tasks} " +
                    " ".join(f"{k}={v}" for k, v in hashes.items()))
        store.check(problems, (workload, seed, i, done.n_tasks), hashes)

    # Repeat the first task of segment 0 from scratch; its report must
    # hash the same as the one assembled from the timed run's shards.
    sub = dataclasses.replace(segments[0][0], n_realizations=1)
    first = _report_hashes(bench.run_benchmark(sub, resume_dir=segments[0][1]))
    again = _report_hashes(
        bench.run_benchmark(sub, resume_dir=os.path.join(workdir, "repeat"))
    )
    if first != again:
        problems.append(f"repeat of seed {seed} hashes differently: {first} vs {again}")
    info.append(f"repeat seed={seed} first task identical={first == again}")

    return Outcome(
        attempted=len(records),
        failed=0,
        latencies=latencies,
        fits_attempted=len(records) * len(models),
        fits_failed=sum(rec["failed_models"] for rec in records),
        problems=problems,
        info=info,
        peak_rss_mb=rss,
        wall_s=wall,
    )


def _paired(tracer, mods, call, traced_first):
    """``call(traced)`` once untraced and once traced, each timed.  Callers
    alternate in small pieces and swap the order each time, so neither a
    drifting host nor whatever the first call warms up lands on one
    side.  Returns (untraced result, traced result, untraced s, traced s)."""
    out, took = {}, {}
    for traced in (traced_first, not traced_first):
        if traced:
            tracer.install(mods)
        t0 = time.perf_counter()
        try:
            out[traced] = call(traced)
        finally:
            took[traced] = time.perf_counter() - t0
            tracer.remove()
    return out[False], out[True], took[False], took[True]


def trace_sweep(workload, seed, seconds, smoke, workdir, tracer, mods):
    """A fixed sweep, chunk by chunk untraced then traced; returns the
    traced outcome and the untraced wall time."""
    spec = SWEEPS[workload]
    # About a third of --seconds per pass on that VM, the
    # rest goes to the context build of every chunk.
    n_chunks = 1 if smoke else max(
        1, round(seconds * 0.35 / spec["task_ref_s"] / TRACE_CHUNK_TASKS)
    )
    chunk_tasks = 1 if smoke else TRACE_CHUNK_TASKS
    models = ising.enumerate_models(_segment_config(workload, seed, 0, 1).n_spins)
    ranks = {m.label: m.rank for m in models}
    problems, info, records = [], [], []
    plain_s = traced_s = 0.0
    for i in range(n_chunks):
        cfg = _segment_config(workload, seed, i, chunk_tasks)
        plain, traced, dt_plain, dt_traced = _paired(
            tracer, mods,
            lambda t: bench.run_benchmark(cfg, resume_dir=os.path.join(
                workdir, f"{'traced' if t else 'plain'}{i}")),
            traced_first=bool(i % 2),
        )
        plain_s += dt_plain
        traced_s += dt_traced
        _check_report(traced, spec["interior"], ranks, problems)
        h_plain, h_traced = _report_hashes(plain), _report_hashes(traced)
        if h_plain != h_traced:
            problems.append(f"chunk {i}: traced report differs from untraced")
        info.append(f"hashes seed={seed} chunk={i} n={cfg.sample_sizes[0]} "
                    f"tasks={chunk_tasks} traced_equal={h_plain == h_traced} " +
                    " ".join(f"{k}={v}" for k, v in h_traced.items()))
        records.extend(_shard_records(os.path.join(workdir, f"traced{i}")))
    return Outcome(
        attempted=len(records),
        failed=0,
        latencies=[],
        fits_attempted=len(records) * len(models),
        fits_failed=sum(rec["failed_models"] for rec in records),
        problems=problems,
        info=info,
        wall_s=traced_s,
    ), plain_s


# -------------------------------------------------------- select_library --

def _library_inputs(lib, seed, k):
    """Inputs of operation ``k``: four per coupling realization."""
    realization, slot = divmod(k, 4)
    n = LIBRARY_SIZES[slot // 2]
    method = LIBRARY_METHODS[slot % 2]
    params_rng = np.random.default_rng(np.random.SeedSequence((seed, realization)))
    q = ising.boltzmann(ising.random_params(lib.truth, params_rng)).probs
    rng = np.random.default_rng(np.random.SeedSequence((seed, realization, n)))
    counts = rng.multinomial(n, q)
    return q, counts, n, method


def _select(lib, seed, k):
    q, counts, n, method = _library_inputs(lib, seed, k)
    t0 = time.perf_counter()
    result = selection.select(
        lib.candidates, counts / n, n,
        selection.SelectionConfig(method=method), ids=lib.ids,
    )
    return time.perf_counter() - t0, result


def _result_key(result):
    return [
        result.chosen_id, result.fallback, list(result.failed_ids),
        [[s.architecture_id, s.rank, repr(s.maxent_entropy), repr(s.p_value)]
         for s in result.scores],
    ]


def _check_select(lib, seed, k, result, problems, with_ipf):
    """Chosen candidate: its Newton fit is the MaxEnt point (moments met,
    log-probabilities in the row space), agrees with IPF, and has a
    finite train KL unless it gives states zero mass.  Returns False when IPF
    itself did not converge, so only the certificate was checked."""
    q, counts, n, _ = _library_inputs(lib, seed, k)
    f = counts / n
    cand = lib.candidates[result.chosen_index]
    system = CoefficientMatrix(cand.rows, cand.rows @ f)
    newton = fit_linear_system(system)
    p = newton.probabilities
    keep = ~newton.excluded
    rows = cand.rows[:, keep]
    residual = float(np.max(np.abs(cand.rows @ p - system.moments)))
    theta = np.linalg.lstsq(rows.T, np.log(p[keep]), rcond=None)[0]
    off_family = float(np.max(np.abs(rows.T @ theta - np.log(p[keep]))))
    if residual > 1e-9 or off_family > 1e-6:
        problems.append(f"op {k}: fit of {result.chosen_id} is not the MaxEnt point "
                        f"(moment residual {residual:.2e}, off-family {off_family:.2e})")
    score = next(s for s in result.scores if s.architecture_id == result.chosen_id)
    if abs(score.maxent_entropy - entropy(p)) > 1e-9:
        problems.append(f"op {k}: scored entropy of {result.chosen_id} does not match its fit")
    with np.errstate(divide="ignore"):
        train_kl = n * float(np.sum(np.where(q > 0, q * (np.log(q) - np.log(p)), 0.0)))
    # Only a fit that gives states zero mass may have an infinite train
    # KL: one that excludes states, or a saturated one, which is the
    # sample itself.
    zero_mass_fit = newton.excluded.any() or newton.rank_effective == newton.n_states
    if math.isnan(train_kl) or (math.isinf(train_kl) and not zero_mass_fit):
        problems.append(f"op {k}: train KL {train_kl} of {result.chosen_id}")
    if not with_ipf:
        return False
    try:
        ipf = fit_linear_system(system, method="ipf")
    except ConvergenceError:
        return False
    gap = float(np.max(np.abs(p - ipf.probabilities)))
    if gap > IPF_AGREEMENT:
        problems.append(f"op {k}: Newton and IPF fits of {result.chosen_id} differ by {gap:.3e}")
    return True


def measure_library(lib, seed, seconds, smoke, store):
    start = time.perf_counter()
    deadline = start + seconds
    latencies, results = [], {}
    failed = n_ops = 0
    while n_ops == 0 or not (smoke or time.perf_counter() >= deadline):
        try:
            dt, results[n_ops] = _select(lib, seed, n_ops)
            latencies.append(dt)
        except MaxentError as exc:
            print(f"op {n_ops} failed: {exc!r}")
            failed += 1
        n_ops += 1
    wall = time.perf_counter() - start
    rss = peak_rss_mb()

    problems, info = [], []
    ipf_checked = sum(_check_select(lib, seed, k, r, problems, k < IPF_CHECKS)
                      for k, r in results.items())
    info.append(f"ipf cross-check: {ipf_checked} of {len(results)} chosen fits; "
                f"the rest (past the first {IPF_CHECKS}, or IPF did not converge) "
                "checked by moment residual and log-linear form only")

    def keys(select_k):
        out = []
        for k in range(min(REPEAT_OPS, n_ops)):
            try:
                out.append(_result_key(select_k(k)))
            except MaxentError:
                out.append(None)
        return _digest(json.dumps(out))

    first = keys(lambda k: results[k] if k in results else _select(lib, seed, k)[1])
    again = keys(lambda k: _select(lib, seed, k)[1])
    if first != again:
        problems.append(f"repeat of seed {seed} selects differently")
    info.append(f"selections seed={seed} first_ops={min(REPEAT_OPS, n_ops)} "
                f"sha256={first} repeat_identical={first == again}")
    store.check(problems, ("select_library", seed, min(REPEAT_OPS, n_ops)),
                {"selections": first})
    return Outcome(
        attempted=n_ops,
        failed=failed,
        latencies=latencies,
        fits_attempted=len(results) * len(lib.candidates),
        fits_failed=sum(len(r.failed_ids) for r in results.values()),
        problems=problems,
        info=info,
        peak_rss_mb=rss,
        wall_s=wall,
    )


def trace_library(lib, seed, seconds, smoke, tracer, mods):
    """Fixed selections, each untraced then traced; returns the traced
    outcome and the untraced wall time."""
    n_ops = 1 if smoke else max(REPEAT_OPS, round(seconds / (2 * LIBRARY_OP_REF_S)))
    problems, traced = [], []
    same = True
    plain_s = traced_s = 0.0
    for k in range(n_ops):
        a, b, dt_plain, dt_traced = _paired(
            tracer, mods, lambda _: _select(lib, seed, k)[1], traced_first=bool(k % 2),
        )
        plain_s += dt_plain
        traced_s += dt_traced
        same = same and _result_key(a) == _result_key(b)
        _check_select(lib, seed, k, b, problems, k < IPF_CHECKS)
        traced.append(b)
    if not same:
        problems.append("traced selections differ from untraced ones")
    return Outcome(
        attempted=n_ops,
        failed=0,
        latencies=[],
        fits_attempted=n_ops * len(lib.candidates),
        fits_failed=sum(len(r.failed_ids) for r in traced),
        problems=problems,
        info=[f"selections seed={seed} ops={n_ops} traced_equal={same}"],
        wall_s=traced_s,
    ), plain_s


# ---------------------------------------------------------- hash store --

class HashStore:
    """Output hashes of earlier runs in this checkout, keyed by workload,
    seed, segment and a digest of the package sources, so repeats of one
    seed on one program must hash the same."""

    def __init__(self, path, src_dir):
        self.path = path
        h = hashlib.sha256()
        for name in sorted(os.listdir(src_dir)):
            if name.endswith(".py"):
                with open(os.path.join(src_dir, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
        self.src = h.hexdigest()[:16]
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def check(self, problems, key, hashes):
        k = json.dumps([self.src, *key])
        seen = self.data.get(k)
        if seen is not None and seen != hashes:
            problems.append(f"hashes for {key} differ from an earlier run: {seen} vs {hashes}")
        self.data[k] = hashes

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)
