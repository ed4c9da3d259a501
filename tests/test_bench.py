import json

import numpy as np
import pytest

from maxentkit.bench import (
    BenchmarkConfig,
    _Context,
    _fit_all_models,
    _run_task,
    report_csv,
    run_benchmark,
    summary_csv,
    truth_csv,
)
from maxentkit.errors import InputError
from maxentkit.ising import boltzmann, random_params, to_coefficients
from maxentkit.selection import alpha_empirical, empirical_p_value
from maxentkit.solver import fit_linear_system

TINY = dict(
    n_spins=3,
    truth=((1, 2), (3,)),
    sample_sizes=(100, 1000),
    n_realizations=1,
    n_samples=2,
    test_samples=5,
    seed=7,
)


@pytest.fixture(scope="module")
def five_spin_ctx():
    return _Context(BenchmarkConfig())


@pytest.fixture(scope="module")
def tiny_report():
    return run_benchmark(BenchmarkConfig(**TINY))


class TestConfig:
    def test_defaults_mirror_desk_experiment(self):
        config = BenchmarkConfig()
        assert config.n_spins == 5
        assert config.n_realizations == 50
        assert config.n_samples == 10
        assert len(config.sample_sizes) == 6
        assert config.n_tasks == 3000

    def test_validation(self):
        with pytest.raises(InputError):
            BenchmarkConfig(n_realizations=0)
        with pytest.raises(InputError):
            BenchmarkConfig(sample_sizes=(5,))
        with pytest.raises(InputError):
            BenchmarkConfig(methods=("ridge",))
        with pytest.raises(InputError):
            BenchmarkConfig(alpha_prefactor=-1.0)
        with pytest.raises(InputError):
            BenchmarkConfig(threads=0)

    def test_sequences_coerced_to_tuples(self):
        config = BenchmarkConfig(
            truth=[[1, 2], [3]], sample_sizes=[100], n_spins=3
        )
        assert config.truth == ((1, 2), (3,))
        assert config.sample_sizes == (100,)


class TestRun:
    def test_row_counts(self, tiny_report):
        config = tiny_report.config
        assert len(tiny_report.rows) == config.n_tasks * len(config.methods)
        assert len(tiny_report.truth_rows) == config.n_tasks

    def test_rows_in_canonical_order(self, tiny_report):
        key = [
            (r.n, r.realization, r.sample, r.method)
            for r in tiny_report.rows
        ]
        methods = tiny_report.config.methods
        expected = [
            (n, real, samp, m)
            for n in tiny_report.config.sample_sizes
            for real in range(tiny_report.config.n_realizations)
            for samp in range(tiny_report.config.n_samples)
            for m in methods
        ]
        assert key == expected

    def test_rates_are_rates(self, tiny_report):
        for row in tiny_report.rows:
            assert 0.0 <= row.tp_rate <= 1.0
            assert 0.0 <= row.fp_rate <= 1.0
            assert row.train_kl >= 0.0
            if row.exact:
                assert row.tp_rate == 1.0
                assert row.fp_rate == 0.0

    def test_truth_rows_carry_thresholds(self, tiny_report):
        for row in tiny_report.truth_rows:
            assert 0.0 <= row.p_value <= 1.0
            assert row.alpha == pytest.approx(
                (8 - row.rank) / row.n
            )
            assert row.passed == (row.valid and row.p_value >= row.alpha)

    def test_summary_aggregates(self, tiny_report):
        summary = tiny_report.summary()
        config = tiny_report.config
        assert len(summary) == len(config.methods) * len(config.sample_sizes)
        per_n = config.n_realizations * config.n_samples
        for s in summary:
            assert s.tasks == per_n
            assert 0.0 <= s.accuracy <= 1.0
            assert 0.0 <= s.fallback_rate <= 1.0

    def test_truth_pass_rates_keys(self, tiny_report):
        rates = tiny_report.truth_pass_rates()
        assert sorted(rates) == sorted(tiny_report.config.sample_sizes)
        for v in rates.values():
            assert 0.0 <= v <= 1.0


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self, tiny_report):
        again = run_benchmark(BenchmarkConfig(**TINY))
        assert report_csv(again) == report_csv(tiny_report)
        assert truth_csv(again) == truth_csv(tiny_report)
        assert summary_csv(again) == summary_csv(tiny_report)

    def test_thread_count_does_not_change_output(self, tiny_report):
        threaded = run_benchmark(BenchmarkConfig(**TINY, threads=2))
        assert report_csv(threaded) == report_csv(tiny_report)
        assert truth_csv(threaded) == truth_csv(tiny_report)


class TestResume:
    def test_shards_written_and_reused(self, tiny_report, tmp_path):
        first = run_benchmark(BenchmarkConfig(**TINY), resume_dir=str(tmp_path))
        shard = tmp_path / "tasks.jsonl"
        lines = shard.read_text().strip().split("\n")
        assert len(lines) == first.config.n_tasks
        for line in lines:
            json.loads(line)

        # Drop the last shard line: only that task should rerun, and the
        # assembled report must not change.
        shard.write_text("\n".join(lines[:-1]) + "\n")
        calls = []
        second = run_benchmark(
            BenchmarkConfig(**TINY),
            resume_dir=str(tmp_path),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert report_csv(second) == report_csv(tiny_report)
        total = first.config.n_tasks
        assert calls == [(total - 1, total), (total, total)]

        # A third call has nothing left to do.
        calls.clear()
        third = run_benchmark(
            BenchmarkConfig(**TINY),
            resume_dir=str(tmp_path),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(total, total)]
        assert report_csv(third) == report_csv(tiny_report)


class TestCsvLayout:
    def test_report_header(self, tiny_report):
        text = report_csv(tiny_report)
        assert text.startswith(
            "method,n,realization,sample,selected,selected_rank,exact,"
            "fallback,tp_rate,fp_rate,train_kl,test_kl\n"
        )
        assert text.endswith("\n")
        n_lines = text.count("\n")
        assert n_lines == len(tiny_report.rows) + 1

    def test_truth_header(self, tiny_report):
        assert truth_csv(tiny_report).startswith(
            "n,realization,sample,rank,p_value,alpha,passed,valid\n"
        )

    def test_summary_header(self, tiny_report):
        assert summary_csv(tiny_report).startswith(
            "method,n,tasks,accuracy,fallback_rate,mean_tp,mean_fp,"
            "frac_fp_positive,mean_train_kl,mean_test_kl\n"
        )

    def test_booleans_and_floats_round_trip(self, tiny_report):
        body = report_csv(tiny_report).strip().split("\n")[1:]
        for line in body:
            cells = line.split(",")
            assert cells[6] in ("true", "false")
            assert cells[7] in ("true", "false")
            float(cells[8])
            float(cells[11])


class TestFitTableCrossValidation:
    def test_matches_scalar_fits(self):
        """The batched per-sample fit table must agree with fitting each
        candidate system independently."""
        config = BenchmarkConfig(**TINY)
        ctx = _Context(config)
        rng = np.random.default_rng(99)
        q = rng.dirichlet(np.ones(8))
        for n in (50, 500):
            counts = rng.multinomial(n, q)
            table = _fit_all_models(ctx, counts.astype(np.int64), n)
            f = counts / n
            for k, model in enumerate(ctx.models):
                system = to_coefficients(model, f)
                fit = fit_linear_system(system)
                assert table.valid[k]
                assert table.rank_eff[k] == fit.rank_effective
                assert np.max(np.abs(table.probabilities[k] - fit.probabilities)) < 1e-7

    def test_zero_count_patterns(self):
        """Sparse counts exercise the exclusion patterns; every model
        must still fit and reproduce its own moments."""
        config = BenchmarkConfig(**TINY)
        ctx = _Context(config)
        counts = np.array([5, 0, 3, 0, 0, 0, 2, 0], dtype=np.int64)
        n = int(counts.sum())
        table = _fit_all_models(ctx, counts, n)
        f = counts / n
        assert table.valid.all()
        for k, model in enumerate(ctx.models):
            rows = to_coefficients(model, f).rows
            p = table.probabilities[k]
            assert np.max(np.abs(rows @ p - rows @ f)) < 1e-8

    def test_five_spin_warm_started_table(self, five_spin_ctx):
        """Warm starts along the parent chain must not move the five-spin
        fits away from independent scalar fits."""
        ctx = five_spin_ctx
        rng = np.random.default_rng(3)
        q = boltzmann(random_params(ctx.truth_model, rng)).probs
        n = 100_000
        counts = rng.multinomial(n, q)
        table = _fit_all_models(ctx, counts.astype(np.int64), n)
        f = counts / n
        for k in range(0, len(ctx.models), 50):
            fit = fit_linear_system(to_coefficients(ctx.models[k], f))
            assert table.valid[k]
            assert table.rank_eff[k] == fit.rank_effective
            assert np.max(np.abs(table.probabilities[k] - fit.probabilities)) < 1e-7


class TestTruthScoring:
    def test_truth_row_matches_selection(self, five_spin_ctx):
        """The sweep scores the truth as :mod:`maxentkit.selection` does."""
        ctx = five_spin_ctx
        seed, realization, n, sample = ctx.config.seed, 2, 10_000, 1
        truth = _run_task(ctx, realization, n, sample)["truth"]
        params_rng = np.random.default_rng(np.random.SeedSequence((seed, realization)))
        q = boltzmann(random_params(ctx.truth_model, params_rng)).probs
        rng = np.random.default_rng(np.random.SeedSequence((seed, realization, n, sample)))
        f = rng.multinomial(n, q) / n
        system = to_coefficients(ctx.truth_model, f)
        rank = fit_linear_system(system).rank_effective
        assert truth["valid"] and truth["rank"] == rank
        assert truth["p_value"] == pytest.approx(empirical_p_value(system, f, n), rel=1e-6)
        assert truth["alpha"] == pytest.approx(alpha_empirical(32, rank, n), rel=1e-6)


class TestParents:
    def test_parent_is_a_sub_model_of_rank_one_less(self, five_spin_ctx):
        ctx = five_spin_ctx
        parent = ctx.parent
        assert parent[0] == -1 and ctx.models[0].rank == 1
        for i in range(1, len(ctx.models)):
            j = parent[i]
            assert 0 <= j < len(ctx.models)
            assert ctx.models[j].rank == ctx.models[i].rank - 1
            bits_i, bits_j = int(ctx.closure_bits[i]), int(ctx.closure_bits[j])
            assert bits_j & bits_i == bits_j
            assert set(ctx.models[j].interactions) <= set(ctx.models[i].interactions)
