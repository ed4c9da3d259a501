"""Command-line surface.

Five subcommands cover the workflow end to end: ``fit`` solves one
constraint system against data, ``select`` scores a candidate set and
picks a model, ``enumerate`` lists every downward-closed spin model,
``sample`` draws synthetic counts from a random realization of a model,
and ``bench`` runs the recovery benchmark and writes its plot-ready
tables, or compares two written reports (``--compare``).

File formats
------------
Constraints are JSON, in one of two payloads: an explicit matrix
(``{"rows": [[...], ...], "moments": [...]}``, moments optional,
optional ``"labels"``) or a spin hypergraph
(``{"n_spins": 5, "hyperedges": [[1, 2], [3]]}``) that is lowered to
product rows over bit-string microstates.  Counts are CSV with header
``microstate_label,count``; labels missing from a file are taken as
zero with a warning.

Exit codes are stable for scripting: 0 success, 1 reports that differ
under ``bench --compare``, 2 unreadable or malformed input, 3 solver
failure (the message names the offending constraint), 4 no solvable
candidate during selection.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .bench import (
    BenchmarkConfig,
    compare_reports,
    report_csv,
    run_benchmark,
    summary_csv,
    truth_csv,
)
from .constraints import CoefficientMatrix
from .errors import InputError, MaxentError, SelectionError, SolverError
from .ising import SpinModel, boltzmann, enumerate_models, random_params, to_coefficients
from .selection import SelectionConfig, select
from .simplex import MicrostateSpace, entropy
from .solver import SolveOptions, fit_linear_system

__all__ = ["main"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DIFFERS = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_SELECTION = 4

THREADS_ENV = "MAXENTKIT_THREADS"


@dataclass
class _Constraints:
    rows: np.ndarray
    moments: Optional[np.ndarray]
    labels: tuple[str, ...]
    model: Optional[SpinModel]


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path}: expected a JSON object")
    return payload


def _parse_constraints(path: str) -> _Constraints:
    payload = _load_json(path)
    explicit = "rows" in payload
    hypergraph = "n_spins" in payload or "hyperedges" in payload
    if explicit == hypergraph:
        raise InputError(
            f"{path}: need exactly one payload, either explicit rows or a spin hypergraph"
        )
    if explicit:
        rows = np.asarray(payload["rows"], dtype=float)
        if rows.ndim != 2:
            raise InputError(f"{path}: rows must form a matrix")
        moments = payload.get("moments")
        if moments is not None:
            moments = np.asarray(moments, dtype=float)
            if moments.shape != (rows.shape[0],):
                raise InputError(f"{path}: need one moment per row")
        labels = payload.get("labels")
        if labels is None:
            labels = MicrostateSpace.generic(rows.shape[1]).labels
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != rows.shape[1]:
                raise InputError(f"{path}: need one label per state")
        return _Constraints(rows=rows, moments=moments, labels=labels, model=None)

    try:
        n_spins = payload["n_spins"]
        hyperedges = payload["hyperedges"]
    except KeyError as exc:
        raise InputError(f"{path}: hypergraph payload needs {exc.args[0]}") from None
    model = SpinModel.from_interactions(hyperedges, n_spins)
    rows = to_coefficients(model).rows
    labels = MicrostateSpace.for_spins(n_spins).labels
    return _Constraints(rows=rows, moments=None, labels=labels, model=model)


def _parse_counts(path: str, labels: Sequence[str]) -> np.ndarray:
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros(len(labels), dtype=np.int64)
    seen = set()
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "microstate_label,count":
            raise InputError(f"{path}: first line must be 'microstate_label,count'")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'label,count'")
            label, raw = parts[0].strip(), parts[1].strip()
            if label not in index:
                raise InputError(f"{path}:{lineno}: unknown microstate {label!r}")
            if label in seen:
                raise InputError(f"{path}:{lineno}: duplicate microstate {label!r}")
            seen.add(label)
            try:
                value = int(raw)
            except ValueError:
                raise InputError(f"{path}:{lineno}: count {raw!r} is not an integer") from None
            if value < 0:
                raise InputError(f"{path}:{lineno}: counts must be nonnegative")
            counts[index[label]] = value
    if len(seen) < len(labels):
        log.warning(
            "%s: %d microstates absent, counted as zero", path, len(labels) - len(seen)
        )
    if counts.sum() == 0:
        raise InputError(f"{path}: all counts are zero")
    return counts


def _counts_csv(labels: Sequence[str], counts: np.ndarray) -> str:
    lines = ["microstate_label,count"]
    lines.extend(f"{label},{int(c)}" for label, c in zip(labels, counts))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_fit(args: argparse.Namespace) -> int:
    constraints = _parse_constraints(args.constraints)
    if constraints.moments is not None:
        if args.counts:
            raise InputError(
                f"{args.constraints} already fixes the moments; omit the counts file"
            )
        moments = constraints.moments
    else:
        if not args.counts:
            raise InputError("this constraints file needs a counts file for its moments")
        counts = _parse_counts(args.counts, constraints.labels)
        moments = constraints.rows @ (counts / counts.sum())

    options = SolveOptions(tolerance=args.tol, max_iterations=args.max_iter)
    fit = fit_linear_system(
        CoefficientMatrix(constraints.rows, moments), options, method=args.solver
    )
    probs = fit.probabilities
    multipliers = fit.solution.multipliers
    result = {
        "labels": list(constraints.labels),
        "probabilities": [float(p) for p in probs],
        "multipliers": None if multipliers is None else [float(t) for t in multipliers],
        "entropy": entropy(probs),
        "residual": fit.solution.residual,
        "iterations": fit.solution.iterations,
        "rank": fit.rank_effective,
        "excluded_states": [
            label for label, out in zip(constraints.labels, fit.excluded) if out
        ],
    }
    _emit(json.dumps(result, indent=2) + "\n", args.out)
    return EXIT_OK


def _candidate_paths(path: str) -> list[tuple[str, str]]:
    if os.path.isdir(path):
        names = sorted(
            name for name in os.listdir(path) if name.endswith(".json")
        )
        if not names:
            raise InputError(f"{path}: no candidate .json files")
        return [(os.path.splitext(name)[0], os.path.join(path, name)) for name in names]
    payload = _load_json(path)
    entries = payload.get("candidates")
    if not entries:
        raise InputError(f"{path}: expected a 'candidates' list or a directory")
    base = os.path.dirname(path)
    out = []
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or "path" not in entry:
            raise InputError(f"{path}: each candidate needs 'id' and 'path'")
        out.append((str(entry["id"]), os.path.join(base, entry["path"])))
    return out


def _cmd_select(args: argparse.Namespace) -> int:
    named = _candidate_paths(args.candidates)
    ids = [cid for cid, _ in named]
    if len(set(ids)) != len(ids):
        raise InputError("candidate ids must be unique")
    parsed = [_parse_constraints(p) for _, p in named]
    labels = parsed[0].labels
    for (cid, _), c in zip(named, parsed):
        if c.moments is not None:
            raise InputError(
                f"candidate {cid}: moments come from the counts file, not the candidate"
            )
        if c.labels != labels:
            # Rows are read in their own file's label order, which the
            # counts are not.
            raise InputError(
                f"candidate {cid}: state labels differ from the first candidate's"
            )

    counts = _parse_counts(args.counts, labels)
    n = int(counts.sum())
    f = counts / n
    candidates = [CoefficientMatrix(c.rows, c.rows @ f) for c in parsed]
    config = SelectionConfig(method=args.method, alpha_prefactor=args.alpha_prefactor)
    result = select(candidates, f, n, config, ids=ids)

    table = sorted(result.scores, key=lambda s: (s.rank, str(s.architecture_id)))
    out = {
        "method": result.method,
        "n": n,
        "chosen": result.chosen_id,
        "fallback": result.fallback,
        "scores": [
            {
                "id": s.architecture_id,
                "rank": s.rank,
                "entropy": s.maxent_entropy,
                "delta": s.empirical_delta,
                "p_value": s.p_value,
                "bic": s.bic,
                "aic": s.aic,
                "expected_entropy": s.expected_entropy,
            }
            for s in table
        ],
        "failed": list(result.failed_ids),
    }
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    models = enumerate_models(args.spins)
    lines = ["index,model,rank"]
    lines.extend(f"{i},{m.label},{m.rank}" for i, m in enumerate(models))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    constraints = _parse_constraints(args.model)
    if constraints.model is None:
        raise InputError("sampling needs a hypergraph model, not an explicit matrix")
    params = random_params(
        constraints.model, np.random.default_rng(args.params_seed)
    )
    q = boltzmann(params)
    counts = np.random.default_rng(args.seed).multinomial(args.n, q.probs)
    _emit(_counts_csv(constraints.labels, counts), args.out)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.compare:
        comparison = compare_reports(*args.compare)
        print("\n".join(comparison.lines()))
        return EXIT_OK if comparison.same else EXIT_DIFFERS
    if not args.out_dir:
        raise InputError("bench needs --out-dir, or --compare to compare two reports")
    fields = _load_json(args.config) if args.config else {}
    unknown = set(fields) - set(BenchmarkConfig.__dataclass_fields__)
    if unknown:
        raise InputError(f"unknown benchmark config fields: {sorted(unknown)}")
    if args.threads is not None:
        fields["threads"] = args.threads
    elif "threads" not in fields:
        raw = os.environ.get(THREADS_ENV) or "1"
        try:
            fields["threads"] = int(raw)
        except ValueError:
            raise InputError(f"{THREADS_ENV} must be an integer, not {raw!r}") from None
    config = BenchmarkConfig(**fields)

    os.makedirs(args.out_dir, exist_ok=True)

    def progress(done: int, total: int) -> None:
        if done == total or done % 25 == 0:
            print(f"\r{done}/{total} tasks", end="", file=sys.stderr, flush=True)

    report = run_benchmark(config, resume_dir=args.out_dir, progress=progress)
    print(file=sys.stderr)

    paths = {
        "report.csv": report_csv(report),
        "truth.csv": truth_csv(report),
        "summary.csv": summary_csv(report),
        "config.json": json.dumps(asdict(config), indent=2, sort_keys=True) + "\n",
    }
    for name, text in paths.items():
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(text)
    print("\n".join(os.path.join(args.out_dir, name) for name in paths))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxentkit",
        description="maximum-entropy fitting, model selection, and spin benchmarks",
    )
    parser.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        default="WARNING",
        help="least severe package log message to print (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="solve one constraint system")
    fit.add_argument("constraints", help="constraints JSON file")
    fit.add_argument("counts", nargs="?", help="counts CSV (required unless moments are explicit)")
    fit.add_argument("--solver", choices=("newton", "ipf"), default="newton")
    fit.add_argument("--tol", type=float, default=1e-10)
    fit.add_argument("--max-iter", type=int, default=None)
    fit.add_argument("--out", help="output path (default stdout)")
    fit.set_defaults(func=_cmd_fit)

    sel = sub.add_parser("select", help="score candidates and choose a model")
    sel.add_argument("candidates", help="directory of candidate .json files, or a manifest")
    sel.add_argument("counts", help="counts CSV")
    sel.add_argument(
        "--method",
        choices=("bic", "aic", "hyper_maxent", "hyper_maxent_lrt"),
        default="bic",
    )
    sel.add_argument("--alpha-prefactor", type=float, default=1.0)
    sel.add_argument("--out", help="output path (default stdout)")
    sel.set_defaults(func=_cmd_select)

    enum = sub.add_parser("enumerate", help="list downward-closed spin models")
    enum.add_argument("--spins", type=int, required=True)
    enum.add_argument("--out", help="output path (default stdout)")
    enum.set_defaults(func=_cmd_enumerate)

    samp = sub.add_parser("sample", help="draw counts from a random model realization")
    samp.add_argument("--model", required=True, help="hypergraph constraints JSON")
    samp.add_argument("--params-seed", type=int, required=True)
    samp.add_argument("--n", type=int, required=True)
    samp.add_argument("--seed", type=int, required=True)
    samp.add_argument("--out", help="output path (default stdout)")
    samp.set_defaults(func=_cmd_sample)

    bench = sub.add_parser("bench", help="run the architecture-recovery benchmark")
    bench.add_argument("--config", help="benchmark config JSON (defaults if omitted)")
    bench.add_argument("--out-dir", help="where the report CSVs and the task log go")
    bench.add_argument("--threads", type=int, default=None)
    bench.add_argument(
        "--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
        help="compare two written reports instead of running; exit 1 if a selection "
        "changed or a float moved by more than 1e-6 relative",
    )
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    logging.getLogger("maxentkit").setLevel(args.log_level)
    try:
        return args.func(args)
    except SelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SELECTION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MaxentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
