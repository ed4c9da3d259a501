import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentkit import bench
from maxentkit.bench import (
    BenchmarkConfig,
    _Context,
    _fit_all_models,
    _run_task,
    compare_reports,
    report_csv,
    run_benchmark,
    summary_csv,
    truth_csv,
)
from maxentkit.constraints import _support_reductions
from maxentkit.errors import InputError
from maxentkit.ising import boltzmann, random_params, to_coefficients
from maxentkit.selection import alpha_empirical, empirical_p_value
from maxentkit.simplex import _scaled_kl
from maxentkit.solver import (
    SolveOptions,
    _DenseRows,
    _fit_table,
    _newton_iterate,
    _newton_passes,
    _ProductRows,
    fit_linear_system,
)

TINY = dict(
    n_spins=3,
    truth=((1, 2), (3,)),
    sample_sizes=(100, 1000),
    n_realizations=1,
    n_samples=2,
    test_samples=5,
    seed=7,
)


def has_fit(table):
    """Which models of a fit table have a fit: a row without NaN."""
    return ~np.isnan(table.probabilities).any(axis=1)


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

    @pytest.mark.parametrize(
        "fields",
        [{"sample_sizes": (100_000, 100_000)}, {"methods": ("bic", "bic")}],
        ids=["sample_sizes", "methods"],
    )
    def test_repeated_entries_rejected(self, fields):
        """A repeated size or method would report one task's rows twice
        and count each summary cell's tasks twice over."""
        with pytest.raises(InputError, match="repeat"):
            BenchmarkConfig(**fields)

    @pytest.mark.parametrize("fields", [
        {"n_realizations": 1.5},
        {"n_samples": True},
        {"seed": 2.0},
        {"seed": -1},
        {"threads": "2"},
        {"sample_sizes": (100.7,)},
        {"n_spins": 3, "truth": ((1, 9),)},
        {"n_spins": 3, "truth": ((1, 2.5),)},
        {"n_spins": 7, "truth": ((1, 2),)},
        {"alpha_prefactor": "1"},
        {"alpha_prefactor": float("nan")},
        {"alpha_prefactor": float("inf")},
        {"sample_sizes": 100},
        {"truth": 12},
        {"methods": {"bic"}},
    ], ids=str)
    def test_malformed_fields_rejected(self, fields):
        """Integer fields must be integers (not bools, not floats, which
        were truncated or failed deep in a run), the truth must lie on
        the spins, the sequence fields must be lists or tuples, and the
        prefactor a finite positive number."""
        with pytest.raises(InputError):
            BenchmarkConfig(**fields)

    def test_numpy_integers_accepted(self):
        config = BenchmarkConfig(n_realizations=np.int64(2), sample_sizes=(np.int64(100),))
        assert config.sample_sizes == (100,)

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


class TestWorkerCount:
    """``run_benchmark`` starts no more workers than there are pending
    tasks, and none for one task.  The pool is a stand-in that records
    its size and runs in this process, so no process starts."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("multiprocessing.Pool", RecordingPool)
        monkeypatch.setattr(bench, "_WORKER_CTX", None)
        return sizes

    def test_pool_no_larger_than_the_pending_tasks(self, pools, tiny_report):
        # TINY has four tasks.
        report = run_benchmark(BenchmarkConfig(**TINY, threads=6))
        assert pools == [4]
        assert report_csv(report) == report_csv(tiny_report)

    def test_one_pending_task_runs_in_process(self, pools, tiny_report, tmp_path):
        run_benchmark(BenchmarkConfig(**TINY), resume_dir=str(tmp_path))
        shard = tmp_path / "tasks.jsonl"
        shard.write_text("\n".join(shard.read_text().strip().split("\n")[:-1]) + "\n")
        report = run_benchmark(BenchmarkConfig(**TINY, threads=3), resume_dir=str(tmp_path))
        assert pools == []
        assert report_csv(report) == report_csv(tiny_report)
        # Nothing pending: no pool either.
        run_benchmark(BenchmarkConfig(**TINY, threads=3), resume_dir=str(tmp_path))
        assert pools == []


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
                assert has_fit(table)[k]
                assert table.rank_eff[k] == fit.rank_effective
                assert np.max(np.abs(table.probabilities[k] - fit.probabilities)) < 1e-7

    def test_zero_count_patterns(self):
        """Sparse counts exercise the exclusion patterns; every model
        must still fit, reproduce its own moments and agree with its
        scalar fit.  The second input has spin 1 on in every sample, so
        its product moments saturate and collapse onto spins 2 and 3."""
        config = BenchmarkConfig(**TINY)
        ctx = _Context(config)
        for counts in ([5, 0, 3, 0, 0, 0, 2, 0], [0, 0, 0, 0, 4, 1, 0, 3]):
            counts = np.array(counts, dtype=np.int64)
            n = int(counts.sum())
            table = _fit_all_models(ctx, counts, n)
            f = counts / n
            assert has_fit(table).all()
            for k, model in enumerate(ctx.models):
                system = to_coefficients(model, f)
                p = table.probabilities[k]
                assert np.max(np.abs(system.rows @ p - system.moments)) < 1e-8
                fit = fit_linear_system(system)
                assert table.rank_eff[k] == fit.rank_effective
                assert np.max(np.abs(p - fit.probabilities)) < 1e-7

    def test_pinned_models_are_the_sample(self, monkeypatch):
        """A model whose rows pin its working space is fitted by ``f``
        itself, also when a zero product count excludes states, and never
        reaches the dense fallback."""
        ctx = _Context(BenchmarkConfig(**TINY))
        a = ctx.n_states
        counts = np.array([5, 0, 3, 0, 0, 0, 2, 0], dtype=np.int64)
        f = counts / counts.sum()
        fallback_ranks = []

        def fallback(systems, options):
            fits = _fit_table(systems, options)
            fallback_ranks.extend(fits.rank_eff.tolist())
            return fits

        monkeypatch.setattr(bench, "_fit_table", fallback)
        table = _fit_all_models(ctx, counts, int(counts.sum()))
        pinned = np.flatnonzero(table.rank_eff == a)
        assert pinned.size
        assert all(rank < a for rank in fallback_ranks)
        for k in pinned:
            assert has_fit(table)[k]
            assert np.array_equal(table.probabilities[k], f)

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
            assert has_fit(table)[k]
            assert table.rank_eff[k] == fit.rank_effective
            assert np.max(np.abs(table.probabilities[k] - fit.probabilities)) < 1e-7


class TestCollapse:
    def test_matches_per_subset_loop(self, five_spin_ctx):
        """The vectorised collapse of closure bits by saturated spins
        against the per-subset loop it replaced."""
        ctx = five_spin_ctx
        bits = ctx.closure_bits[np.random.default_rng(5).choice(len(ctx.models), 200)]
        for spins in (0, 0b1, 0b10100, 0b11111):
            expected = []
            for b in bits.tolist():
                out = 0
                for j in range(ctx.n_subsets):
                    cut = int(ctx.subset_spin_mask[j]) & ~spins
                    if b >> j & 1 and cut:
                        out |= 1 << int(ctx.subset_pos[cut])
                expected.append(out)
            assert ctx._collapse(bits, spins).tolist() == expected


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

    def test_scaled_kl_rows_match_one_row_calls(self):
        """The test samples' KLs, one per row, have the bits of the
        train KL's one-row call; a sample observing a state the fit
        excludes gets an infinite row."""
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(8))
        p[6] = 0.0
        log_p = np.full(8, -np.inf)
        np.log(p, out=log_p, where=p > 0)
        counts = rng.multinomial(50, rng.dirichlet(np.ones(8)), size=4)
        counts[:3, 6] = 0
        counts[3, 6] = 2
        weights = counts / 50
        rows = _scaled_kl(weights, log_p, 50)
        assert rows.shape == (4,)
        for w, kl in zip(weights, rows.tolist()):
            assert kl == _scaled_kl(w, log_p, 50)
        assert np.isfinite(rows[:3]).all() and rows[3] == np.inf


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


class TestContextTables:
    # sha256 of each int64 table's bytes for the default config.
    SHA256 = {
        "closure_bits": "6f3b8104c02d4ebc373844c4f7282d742640861b3e869ccef0cc2b3499f0f7b3",
        "parent": "a2f6c6d1349945172fe258941bf2ebc4e211790826811fba3271e10c06a42b7c",
    }

    @pytest.mark.parametrize("name", sorted(SHA256))
    def test_pinned_table(self, five_spin_ctx, name):
        table = getattr(five_spin_ctx, name)
        assert table.dtype == np.int64
        assert hashlib.sha256(table.tobytes()).hexdigest() == self.SHA256[name]

    def test_truth_index(self, five_spin_ctx):
        ctx = five_spin_ctx
        assert ctx.truth_index == 3072
        assert ctx.models[ctx.truth_index] == ctx.truth_model

    def test_closure_bits_match_interactions(self, five_spin_ctx):
        ctx = five_spin_ctx
        for model, bits in zip(ctx.models, ctx.closure_bits.tolist()):
            spin_masks = ctx.subset_spin_mask[np.flatnonzero(ctx._members(np.array([bits]))[0])]
            assert sorted(spin_masks.tolist()) == sorted(
                sum(1 << (i - 1) for i in s) for s in model.interactions
            )


REPORT_HEADER = (
    "method,n,realization,sample,selected,selected_rank,exact,fallback,"
    "tp_rate,fp_rate,train_kl,test_kl\n"
)
TRUTH = "n,realization,sample,rank,p_value,alpha,passed,valid\n100,0,0,4,0.5,0.04,true,true\n"
SUMMARY = (
    "method,n,tasks,accuracy,fallback_rate,mean_tp,mean_fp,frac_fp_positive,"
    "mean_train_kl,mean_test_kl\nbic,100,3,0.0,0.0,1.0,0.0,0.0,2.0,3.0\n"
)


def write_report(directory, rows):
    directory.mkdir()
    (directory / "report.csv").write_text(REPORT_HEADER + "".join(r + "\n" for r in rows))
    (directory / "truth.csv").write_text(TRUTH)
    (directory / "summary.csv").write_text(SUMMARY)
    return str(directory)


class TestCompareReports:
    ROWS = [
        "bic,100,0,0,1+2,3,false,false,1.0,0.0,2.0,3.0",
        "bic,100,0,1,1.2,4,true,false,1.0,0.0,2.0,3.0",
        "bic,100,0,2,1.2,4,true,false,1.0,0.0,inf,3.0",
    ]

    def test_one_difference_in_each_class(self, tmp_path):
        a = write_report(tmp_path / "a", self.ROWS)
        b = write_report(tmp_path / "b", [
            "bic,100,0,0,1.2,4,true,false,1.0,0.0,2.0,3.0",
            "bic,100,0,1,1.2,4,true,false,1.0,0.0,2.001,3.0",
            "bic,100,0,2,1.2,4,true,false,1.0,0.0,inf,3.000000001",
        ])
        result = compare_reports(a, b, rtol=1e-6)
        assert [(d.key, d.column) for d in result.selections] == [
            ("method=bic n=100 realization=0 sample=0", column)
            for column in ("selected", "selected_rank", "exact")
        ]
        assert [(d.key[-8:], d.column, d.a, d.b) for d in result.beyond] == [
            ("sample=1", "train_kl", "2.0", "2.001"),
        ]
        assert [(d.key[-8:], d.column) for d in result.within] == [("sample=2", "test_kl")]
        assert not result.same
        assert compare_reports(a, b, rtol=1e-2).beyond == ()

    def test_floats_that_become_infinite_or_rows_that_vanish(self, tmp_path):
        a = write_report(tmp_path / "a", self.ROWS)
        b = write_report(tmp_path / "b", [self.ROWS[0].replace("2.0,3.0", "inf,3.0")])
        result = compare_reports(a, b, rtol=1.0)
        assert [(d.column, d.b) for d in result.beyond] == [("train_kl", "inf")]
        assert [(d.key[-8:], d.column, d.b) for d in result.selections] == [
            ("sample=1", "row", "absent"), ("sample=2", "row", "absent"),
        ]

    def test_identical_reports(self, tmp_path, tiny_report):
        dirs = []
        for name in ("a", "b"):
            directory = tmp_path / name
            directory.mkdir()
            for file, write in (("report.csv", report_csv), ("truth.csv", truth_csv),
                                ("summary.csv", summary_csv)):
                (directory / file).write_text(write(tiny_report))
            dirs.append(str(directory))
        result = compare_reports(*dirs)
        assert result.same and not result.within
        assert result.lines() == [
            "0 selection changes, 0 floats beyond rtol 1e-06, 0 floats within it"
        ]


def pattern_rows(ctx, counts, bits):
    """The product rows a sweep pattern fits, as ``_fit_pattern`` builds
    them: the row indices of the closure ``bits`` cut by the saturated
    spins of the counts, one stack per row count, and the working states
    their boundary moments leave."""
    n = int(counts.sum())
    m_counts = ctx.zeta_int @ counts
    boundary = 1 + np.flatnonzero((m_counts[1:] == 0) | (m_counts[1:] == n))
    m_frac = m_counts / n
    (excluded,), _, _ = _support_reductions(ctx.zeta_bool[None, boundary], m_frac[None, boundary])
    saturated = boundary[m_frac[boundary] == 1.0] - 1
    sat_spins = np.bitwise_or.reduce(ctx.subset_spin_mask[saturated])
    collapsed = ctx._collapse(np.array(bits, dtype=np.int64), sat_spins)
    n_rows = ctx._members(collapsed).sum(axis=1)
    stacks = [ctx._row_matrix(collapsed[n_rows == d]) for d in np.unique(n_rows)]
    return stacks, ~excluded


class TestProductRows:
    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 3), min_size=32, max_size=32).filter(any),
        # Closure bits of one bit count, so that stacks of several
        # systems are common; collapsing may still split them.
        subsets=st.integers(1, 31).flatmap(lambda k: st.lists(
            st.sets(st.integers(0, 30), min_size=k, max_size=k), min_size=1, max_size=6)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_moments_jacobian_and_shift_match_dense_rows(
        self, five_spin_ctx, counts, subsets, seed
    ):
        ctx = five_spin_ctx
        bits = [sum(1 << j for j in s) for s in subsets]
        stacks, working = pattern_rows(ctx, np.array(counts, dtype=np.int64), bits)
        rng = np.random.default_rng(seed)
        for rmat in stacks:
            product = _ProductRows(ctx.zeta[:, working], rmat, ctx.union)
            dense = _DenseRows(ctx.zeta[rmat][:, :, working])
            assert np.array_equal(product.dense(), dense.stack)
            p = rng.dirichlet(np.ones(working.sum()), size=len(rmat))
            delta = rng.normal(size=rmat.shape)
            self.check_forms_agree(product, p, delta)
            reverse = np.arange(len(rmat))[::-1]
            self.check_forms_agree(product.take(reverse), p[reverse], delta[reverse])

    def test_interior_batches_built_once_fit_as_fresh_ones(self):
        rng = np.random.default_rng(8)
        q = rng.dirichlet(np.ones(32))
        warm = _Context(BenchmarkConfig())
        first, second = (rng.multinomial(10_000, q) for _ in range(2))
        _fit_all_models(warm, first, 10_000)
        cached = dict(warm.interior_rows)
        assert cached
        reused = _fit_all_models(warm, second, 10_000)
        assert all(warm.interior_rows[d] is rows for d, rows in cached.items())
        fresh = _fit_all_models(_Context(BenchmarkConfig()), second, 10_000)
        assert np.array_equal(reused.probabilities, fresh.probabilities)
        assert np.array_equal(has_fit(reused), has_fit(fresh))

    @staticmethod
    def check_forms_agree(rows, p, delta):
        twin = _DenseRows(rows.dense())
        stats, twin_stats = rows.statistics(p), twin.statistics(p)
        for mine, theirs in (
            (rows.moments(stats), twin.moments(twin_stats)),
            (rows.jacobian(stats), twin.jacobian(twin_stats)),
            (rows.shift(delta), twin.shift(delta)),
        ):
            assert mine.shape == theirs.shape
            assert np.max(np.abs(mine - theirs), initial=0.0) <= 1e-13

    def test_newton_passes_match_dense_rows(self):
        """All three passes on both row forms: interior systems, one warm
        start that runs away (the retry from uniform), one system only the
        damped pass fits, and one with infeasible targets."""
        ctx = _Context(BenchmarkConfig(n_spins=4, truth=((1, 2), (3,))))
        bits = ctx.closure_bits[ctx._members(ctx.closure_bits).sum(axis=1) == 8]
        rmat = ctx._row_matrix(bits)
        product = _ProductRows(ctx.zeta, rmat, ctx.union)
        dense = _DenseRows(product.dense())
        assert [ctx.models[i].label for i in np.flatnonzero(
            ctx.closure_bits == bits[3])] == ["1.2+1.3+2.3+2.4"]

        def moments(theta):
            log_q = ctx.zeta.T @ np.array(theta, dtype=float)
            q = np.exp(log_q - log_q.max())
            return ctx.zeta @ (q / q.sum())

        targets = moments(np.random.default_rng(4).normal(0, 0.5, 16))[rmat]
        # Couplings so strong that undamped Newton from uniform does not
        # converge on system 3; system 5 is infeasible; system 7 starts far
        # from its solution, with its log in its row space.
        strong = [3, -8, -6, -37, 27, 17, -5, 12, 4, -8, 15, -5, -5, -12, 7, -1]
        targets[3] = moments(strong)[rmat[3]]
        targets[5, -1] = 1.5
        start = np.full((len(rmat), 16), 1.0 / 16)
        log_start = dense.stack[7].T @ np.r_[0.0, np.full(8, 25.0)]
        start[7] = np.exp(log_start - log_start.max())
        start[7] /= start[7].sum()
        undamped = _newton_iterate(product, targets, start.copy(), 1e-10, 200, 200.0)[2]
        assert np.flatnonzero(~undamped).tolist() == [3, 5, 7]

        for options in (None, SolveOptions(max_iterations=3)):
            p, residuals, converged, steps, errors = _newton_passes(
                product, targets, options, start=start)
            p_d, residuals_d, converged_d, steps_d, errors_d = _newton_passes(
                dense, targets, options, start=start)
            assert np.array_equal(converged, converged_d)
            assert np.array_equal(steps, steps_d)
            assert {k: type(e) for k, e in errors.items()} == {
                k: type(e) for k, e in errors_d.items()}
            assert np.max(np.abs(p - p_d)[converged], initial=0.0) <= 1e-12
            assert np.max(np.abs(residuals - residuals_d)[converged], initial=0.0) <= 1e-12
            if options is None:
                assert list(errors) == [5]
                assert converged[[3, 7]].all()
