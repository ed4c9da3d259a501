import hashlib
import json
import logging
import subprocess
import sys

import pytest

from maxentkit.cli import main

ENUM_SPINS_2 = (
    "index,model,rank\n"
    "0,none,1\n"
    "1,1,2\n"
    "2,2,2\n"
    "3,1+2,3\n"
    "4,1.2,4\n"
)


def write(path, text):
    path.write_text(text)
    return str(path)


def write_json(path, payload):
    return write(path, json.dumps(payload))


@pytest.fixture
def marginal_file(tmp_path):
    return write_json(
        tmp_path / "marginal.json",
        {
            "rows": [
                [1, 1, 1, 1],
                [0, 0, 1, 1],
                [0, 1, 0, 1],
            ],
            "moments": [1.0, 0.4, 0.7],
            "labels": ["00", "01", "10", "11"],
        },
    )


class TestEnumerate:
    def test_two_spins_golden(self, capsys):
        assert main(["enumerate", "--spins", "2"]) == 0
        assert capsys.readouterr().out == ENUM_SPINS_2

    def test_out_file(self, tmp_path):
        out = tmp_path / "models.csv"
        assert main(["enumerate", "--spins", "2", "--out", str(out)]) == 0
        assert out.read_text() == ENUM_SPINS_2

    def test_three_spins_count(self, capsys):
        assert main(["enumerate", "--spins", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 20

    def test_five_spins_pinned(self, capsys):
        assert main(["enumerate", "--spins", "5"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "a4d9cc20d488d92311b3144652b148df5e1eaaa84f71fee8ba935e8c09cf2732"


class TestFit:
    def test_explicit_moments(self, marginal_file, capsys):
        assert main(["fit", marginal_file]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["labels"] == ["00", "01", "10", "11"]
        # Independent marginals factorize.
        expected = [0.18, 0.42, 0.12, 0.28]
        assert result["probabilities"] == pytest.approx(expected, abs=1e-10)
        assert result["rank"] == 3
        assert result["residual"] <= 1e-10
        assert result["excluded_states"] == []
        assert len(result["multipliers"]) == 3

    def test_counts_induce_moments(self, tmp_path, capsys):
        constraints = write_json(
            tmp_path / "identity.json",
            {
                "rows": [
                    [1, 1, 1],
                    [1, 0, 0],
                    [0, 1, 0],
                ]
            },
        )
        counts = write(
            tmp_path / "counts.csv",
            "microstate_label,count\ns0,2\ns1,3\ns2,5\n",
        )
        assert main(["fit", constraints, counts]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["probabilities"] == pytest.approx([0.2, 0.3, 0.5], abs=1e-12)
        assert result["rank"] == 3

    def test_hypergraph_payload(self, tmp_path, capsys):
        model = write_json(
            tmp_path / "model.json", {"n_spins": 2, "hyperedges": [[1], [2]]}
        )
        counts = write(
            tmp_path / "counts.csv",
            "microstate_label,count\n00,18\n01,42\n10,12\n11,28\n",
        )
        assert main(["fit", model, counts]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["labels"] == ["00", "01", "10", "11"]
        assert result["probabilities"] == pytest.approx(
            [0.18, 0.42, 0.12, 0.28], abs=1e-10
        )

    def test_moments_and_counts_conflict(self, marginal_file, tmp_path, capsys):
        counts = write(
            tmp_path / "counts.csv", "microstate_label,count\n00,1\n01,1\n10,1\n11,1\n"
        )
        assert main(["fit", marginal_file, counts]) == 2

    def test_moments_missing_and_no_counts(self, tmp_path):
        constraints = write_json(
            tmp_path / "bare.json", {"rows": [[1, 1], [0, 1]]}
        )
        assert main(["fit", constraints]) == 2

    def test_ipf_matches_newton(self, marginal_file, capsys):
        assert main(["fit", marginal_file, "--solver", "ipf"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["probabilities"] == pytest.approx(
            [0.18, 0.42, 0.12, 0.28], abs=1e-8
        )
        assert result["multipliers"] is None

    def test_zero_marginal_excludes_states(self, tmp_path, capsys):
        constraints = write_json(
            tmp_path / "zero.json",
            {
                "rows": [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]],
                "moments": [1.0, 0.0, 0.7],
                "labels": ["00", "01", "10", "11"],
            },
        )
        assert main(["fit", constraints]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["excluded_states"] == ["10", "11"]
        assert result["probabilities"] == pytest.approx([0.3, 0.7, 0.0, 0.0], abs=1e-12)


class TestExitCodes:
    def test_missing_file(self):
        assert main(["fit", "/nonexistent/constraints.json"]) == 2

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_exit_2(self, tmp_path, tol, capsys):
        # At an infinite tolerance the uniform start would pass as the
        # fit; at NaN the fit would stop as unconverged at residual 0.
        constraints = write_json(
            tmp_path / "pairs.json",
            {"rows": [[1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]], "moments": [1.0, 0.3, 0.6]},
        )
        assert main(["fit", constraints, "--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = write(tmp_path / "bad.json", "{rows: oops")
        assert main(["fit", bad]) == 2

    def test_json_array_rejected(self, tmp_path):
        bad = write(tmp_path / "arr.json", "[1, 2, 3]")
        assert main(["fit", bad]) == 2

    def test_both_payloads_rejected(self, tmp_path):
        bad = write_json(
            tmp_path / "both.json",
            {"rows": [[1, 1]], "n_spins": 1, "hyperedges": []},
        )
        assert main(["fit", bad]) == 2

    def test_bad_counts_header(self, tmp_path, marginal_file):
        constraints = write_json(
            tmp_path / "bare.json",
            {"rows": [[1, 1], [0, 1]], "labels": ["a", "b"]},
        )
        counts = write(tmp_path / "counts.csv", "state,count\na,1\nb,1\n")
        assert main(["fit", constraints, counts]) == 2

    def test_unknown_label_in_counts(self, tmp_path):
        constraints = write_json(
            tmp_path / "bare.json",
            {"rows": [[1, 1], [0, 1]], "labels": ["a", "b"]},
        )
        counts = write(tmp_path / "counts.csv", "microstate_label,count\nzz,1\n")
        assert main(["fit", constraints, counts]) == 2

    def test_inconsistent_moments_exit_3(self, tmp_path, capsys):
        constraints = write_json(
            tmp_path / "inconsistent.json",
            {
                "rows": [
                    [1, 1, 1, 1],
                    [0, 0, 1, 1],
                    [0, 1, 0, 1],
                    [0, 1, 1, 2],
                ],
                "moments": [1.0, 0.4, 0.7, 1.2],
            },
        )
        assert main(["fit", constraints]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_no_solvable_candidate_exit_4(self, tmp_path, capsys):
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        # Boundary target on a huge-ratio coefficient row: the solver
        # stalls against the underflow wall and classifies the moments
        # as infeasible, so every candidate is dropped.
        write_json(
            cand_dir / "steep.json",
            {"rows": [[1, 1, 1], [0, 1, 1000]]},
        )
        counts = write(
            tmp_path / "counts.csv", "microstate_label,count\ns0,7\ns1,0\ns2,0\n"
        )
        assert main(["select", str(cand_dir), counts]) == 4


class TestSample:
    def test_deterministic_and_conserving(self, tmp_path):
        model = write_json(
            tmp_path / "model.json", {"n_spins": 3, "hyperedges": [[1, 2], [3]]}
        )
        args = [
            "sample",
            "--model", model,
            "--params-seed", "11",
            "--n", "500",
            "--seed", "4",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "microstate_label,count"
        assert len(lines) == 9
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 500

    def test_different_seed_changes_counts(self, tmp_path):
        model = write_json(
            tmp_path / "model.json", {"n_spins": 2, "hyperedges": [[1, 2]]}
        )
        base = ["sample", "--model", model, "--params-seed", "11", "--n", "500"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize("n_spins", [2.7, True, "2"])
    def test_non_integer_spin_count_exit_2(self, tmp_path, n_spins, capsys):
        model = write_json(tmp_path / "model.json", {"n_spins": n_spins, "hyperedges": [[1]]})
        args = ["sample", "--model", model, "--params-seed", "1", "--n", "10", "--seed", "1"]
        assert main(args + ["--out", str(tmp_path / "c.csv")]) == 2
        assert "n_spins must be an integer" in capsys.readouterr().err

    def test_explicit_matrix_rejected(self, tmp_path):
        matrix = write_json(tmp_path / "m.json", {"rows": [[1, 1]]})
        assert main(
            ["sample", "--model", matrix, "--params-seed", "1", "--n", "10", "--seed", "1"]
        ) == 2


class TestSelect:
    @pytest.fixture
    def candidate_dir(self, tmp_path):
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        write_json(
            cand_dir / "norm.json",
            {"rows": [[1, 1, 1, 1]], "labels": ["00", "01", "10", "11"]},
        )
        write_json(
            cand_dir / "marginals.json",
            {
                "rows": [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]],
                "labels": ["00", "01", "10", "11"],
            },
        )
        write_json(
            cand_dir / "saturated.json",
            {
                "rows": [
                    [1, 1, 1, 1],
                    [1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 1, 0],
                ],
                "labels": ["00", "01", "10", "11"],
            },
        )
        return cand_dir

    @pytest.fixture
    def product_counts(self, tmp_path):
        return write(
            tmp_path / "counts.csv",
            "microstate_label,count\n00,180\n01,420\n10,120\n11,280\n",
        )

    @pytest.mark.parametrize("prefactor", ["nan", "inf"])
    def test_non_finite_alpha_prefactor_exit_2(
        self, candidate_dir, product_counts, prefactor, capsys
    ):
        # Every threshold fails on a NaN or infinite prefactor, which
        # would report the saturated fallback as the selection.
        args = ["select", str(candidate_dir), product_counts, "--method", "hyper_maxent"]
        assert main([*args, "--alpha-prefactor", prefactor]) == 2
        assert "alpha_prefactor" in capsys.readouterr().err

    def test_recovers_marginal_model(self, candidate_dir, product_counts, capsys):
        assert main(["select", str(candidate_dir), product_counts]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method"] == "bic"
        assert result["n"] == 1000
        assert result["chosen"] == "marginals"
        assert not result["fallback"]
        assert result["failed"] == []
        by_id = {s["id"]: s for s in result["scores"]}
        assert set(by_id) == {"norm", "marginals", "saturated"}
        assert by_id["marginals"]["rank"] == 3
        assert by_id["marginals"]["delta"] == pytest.approx(0.0, abs=1e-12)
        assert by_id["marginals"]["p_value"] == pytest.approx(1.0)

    def test_score_table_sorted_by_rank_then_id(self, candidate_dir, product_counts, capsys):
        assert main(["select", str(candidate_dir), product_counts]) == 0
        result = json.loads(capsys.readouterr().out)
        keys = [(s["rank"], s["id"]) for s in result["scores"]]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("method", ["aic", "hyper_maxent", "hyper_maxent_lrt"])
    def test_other_methods_run(self, candidate_dir, product_counts, capsys, method):
        assert main(
            ["select", str(candidate_dir), product_counts, "--method", method]
        ) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method"] == method
        assert result["chosen"] == "marginals"

    def test_fallback_flagged(self, tmp_path, capsys):
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        write_json(cand_dir / "norm.json", {"rows": [[1, 1, 1, 1]]})
        write_json(
            cand_dir / "marginals.json",
            {"rows": [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]]},
        )
        counts = write(
            tmp_path / "counts.csv",
            "microstate_label,count\ns0,497000\ns1,3000\ns2,3000\ns3,497000\n",
        )
        assert main(
            ["select", str(cand_dir), counts, "--method", "hyper_maxent"]
        ) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["fallback"] is True
        assert result["chosen"] == "marginals"

    def test_manifest_candidates(self, tmp_path, product_counts, capsys):
        cand_dir = tmp_path / "files"
        cand_dir.mkdir()
        labels = ["00", "01", "10", "11"]
        write_json(
            cand_dir / "a.json",
            {"rows": [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]], "labels": labels},
        )
        write_json(cand_dir / "b.json", {"rows": [[1, 1, 1, 1]], "labels": labels})
        manifest = write_json(
            tmp_path / "manifest.json",
            {
                "candidates": [
                    {"id": "pairise", "path": "files/a.json"},
                    {"id": "norm", "path": "files/b.json"},
                ]
            },
        )
        assert main(["select", manifest, product_counts]) == 0
        assert json.loads(capsys.readouterr().out)["chosen"] == "pairise"

    def test_candidate_with_moments_rejected(self, tmp_path, product_counts):
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        write_json(
            cand_dir / "bad.json", {"rows": [[1, 1, 1, 1]], "moments": [1.0]}
        )
        assert main(["select", str(cand_dir), product_counts]) == 2

    def test_mismatched_state_spaces_rejected(self, tmp_path, product_counts):
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        write_json(cand_dir / "a.json", {"rows": [[1, 1, 1, 1]]})
        write_json(cand_dir / "b.json", {"rows": [[1, 1]]})
        assert main(["select", str(cand_dir), product_counts]) == 2

    def test_candidate_in_another_label_order_rejected(
        self, tmp_path, product_counts, capsys
    ):
        # Both constrain the marginal of spin 1; read in the first
        # candidate's label order, b would constrain spin 2's instead.
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        write_json(
            cand_dir / "a.json",
            {"rows": [[1, 1, 1, 1], [0, 0, 1, 1]], "labels": ["00", "01", "10", "11"]},
        )
        write_json(
            cand_dir / "b.json",
            {"rows": [[1, 1, 1, 1], [0, 1, 0, 1]], "labels": ["00", "10", "01", "11"]},
        )
        assert main(["select", str(cand_dir), product_counts]) == 2
        assert "candidate b: state labels differ" in capsys.readouterr().err

    def test_absent_labels_warn(self, candidate_dir, tmp_path, capsys, caplog):
        counts = write(
            tmp_path / "partial.csv",
            "microstate_label,count\n00,5\n01,7\n10,3\n",
        )
        with caplog.at_level("WARNING"):
            assert main(["select", str(candidate_dir), counts]) == 0
        assert "absent" in caplog.text


class TestLogLevel:
    @pytest.fixture
    def package_level(self):
        logger = logging.getLogger("maxentkit")
        level = logger.level
        yield
        logger.setLevel(level)

    def test_error_level_silences_candidate_drop(self, tmp_path, capsys, caplog, package_level):
        cand_dir = tmp_path / "cands"
        cand_dir.mkdir()
        write_json(cand_dir / "norm.json", {"rows": [[1, 1, 1]]})
        # Fails to solve on these counts; see test_no_solvable_candidate_exit_4.
        write_json(cand_dir / "steep.json", {"rows": [[1, 1, 1], [0, 1, 1000]]})
        counts = write(
            tmp_path / "counts.csv", "microstate_label,count\ns0,7\ns1,0\ns2,0\n"
        )
        with caplog.at_level("WARNING"):
            assert main(["select", str(cand_dir), counts]) == 0
        assert "candidate steep failed to solve" in caplog.text
        default = capsys.readouterr().out
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert main(["--log-level", "ERROR", "select", str(cand_dir), counts]) == 0
        assert caplog.text == ""
        assert capsys.readouterr().out == default
        assert json.loads(default)["failed"] == ["steep"]


class TestBench:
    def test_smoke_and_resume(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "config.json",
            {
                "n_spins": 3,
                "truth": [[1, 2], [3]],
                "sample_sizes": [100],
                "n_realizations": 1,
                "n_samples": 2,
                "test_samples": 5,
                "seed": 3,
            },
        )
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", config, "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()

        report = (out_dir / "report.csv").read_text()
        lines = report.strip().split("\n")
        # 4 methods x 1 realization x 2 samples, plus the header.
        assert len(lines) == 1 + 4 * 2
        assert (out_dir / "truth.csv").exists()
        assert (out_dir / "summary.csv").exists()
        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["sample_sizes"] == [100]

        # Rerunning over the same directory reuses the shards and
        # reproduces the tables byte for byte.
        before = (out_dir / "report.csv").read_bytes()
        shard_before = (out_dir / "tasks.jsonl").read_text()
        assert main(["bench", "--config", config, "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "report.csv").read_bytes() == before
        assert (out_dir / "tasks.jsonl").read_text() == shard_before

    def test_unknown_config_field(self, tmp_path):
        config = write_json(tmp_path / "config.json", {"walkers": 5})
        assert main(["bench", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "fields",
        [{"sample_sizes": [100, 100]}, {"methods": ["bic", "bic"]}],
        ids=["sample_sizes", "methods"],
    )
    def test_repeated_config_entries(self, tmp_path, fields):
        tiny = {
            "n_spins": 3, "truth": [[1, 2]], "sample_sizes": [100],
            "n_realizations": 1, "n_samples": 1, "test_samples": 2, "threads": 1,
        }
        config = write_json(tmp_path / "config.json", {**tiny, **fields})
        out_dir = tmp_path / "o"
        assert main(["bench", "--config", config, "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "fields",
        [{"n_realizations": 1.5}, {"sample_sizes": [100.7]}, {"truth": [[1, 9]]},
         {"sample_sizes": 100}],
        ids=["float_count", "float_size", "truth_off_spins", "size_not_list"],
    )
    def test_malformed_config_exits_2_before_out_dir(self, tmp_path, capsys, fields):
        tiny = {
            "n_spins": 3, "truth": [[1, 2]], "sample_sizes": [100],
            "n_realizations": 1, "n_samples": 1, "test_samples": 2, "threads": 1,
        }
        config = write_json(tmp_path / "config.json", {**tiny, **fields})
        out_dir = tmp_path / "o"
        assert main(["bench", "--config", config, "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()
        assert "error:" in capsys.readouterr().err

    def test_threads_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MAXENTKIT_THREADS", "2")
        config = write_json(
            tmp_path / "config.json",
            {
                "n_spins": 3,
                "truth": [[1, 2]],
                "sample_sizes": [100],
                "n_realizations": 1,
                "n_samples": 1,
                "test_samples": 2,
            },
        )
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", config, "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["threads"] == 2

    @pytest.mark.parametrize(
        "value, message",
        [("0", "threads must be at least 1"), ("-3", "threads must be at least 1"),
         ("x", "MAXENTKIT_THREADS must be an integer")],
    )
    def test_bad_threads_env_exits_2_before_out_dir(
        self, tmp_path, monkeypatch, capsys, value, message
    ):
        monkeypatch.setenv("MAXENTKIT_THREADS", value)
        config = write_json(
            tmp_path / "config.json",
            {"n_spins": 3, "truth": [[1, 2]], "sample_sizes": [100],
             "n_realizations": 1, "n_samples": 1, "test_samples": 2},
        )
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", config, "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()
        assert message in capsys.readouterr().err


class TestBenchCompare:
    HEADER = (
        "method,n,realization,sample,selected,selected_rank,exact,fallback,"
        "tp_rate,fp_rate,train_kl,test_kl\n"
    )

    def reports(self, tmp_path, train_kls):
        dirs = []
        for name, train_kl in zip("ab", train_kls):
            directory = tmp_path / name
            directory.mkdir()
            write(directory / "report.csv",
                  self.HEADER + f"bic,100,0,0,1.2,4,true,false,1.0,0.0,{train_kl},3.0\n")
            write(directory / "truth.csv", "n,realization,sample,rank,p_value,alpha,passed,valid\n")
            write(directory / "summary.csv", "method,n,tasks\n")
            dirs.append(str(directory))
        return dirs

    def test_moves_within_rtol_pass(self, tmp_path, capsys):
        a, b = self.reports(tmp_path, ("2.0", "2.000000001"))
        assert main(["bench", "--compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "0 selection changes, 0 floats beyond rtol 1e-06, 1 floats within it" in out

    def test_moves_beyond_rtol_fail(self, tmp_path, capsys):
        a, b = self.reports(tmp_path, ("2.0", "2.001"))
        assert main(["bench", "--compare", a, b]) == 1
        out = capsys.readouterr().out
        assert out.startswith("float beyond rtol 1e-06: report.csv method=bic n=100 "
                              "realization=0 sample=0 train_kl: 2.0 -> 2.001\n")

    def test_needs_out_dir_or_compare(self, tmp_path):
        assert main(["bench"]) == 2
        assert main(["bench", "--compare", str(tmp_path), str(tmp_path / "missing")]) == 2


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maxentkit.cli", "enumerate", "--spins", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == ENUM_SPINS_2
