"""Command-line interface."""

import pytest

from repro.cli import main
from repro.data.synthetic import synthetic_dataset
from repro.persist.format import save_dataset


@pytest.fixture
def dataset_dir(tmp_path):
    ds = synthetic_dataset(80, [5, 4, 3], seed=81)
    return str(save_dataset(ds, tmp_path / "data"))


class TestGenerate:
    def test_synthetic(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        rc = main(
            ["generate", "--kind", "synthetic", "--rows", "50",
             "--values", "4", "4", "--out", out]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "gen" / "records.csv").exists()

    def test_ci_surrogate(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "ci", "--rows", "200",
                   "--out", str(tmp_path / "ci")])
        assert rc == 0

    def test_synthetic_needs_values(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "synthetic", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestInfo:
    def test_describes_and_analyzes(self, dataset_dir, capsys):
        rc = main(["info", dataset_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=80" in out
        assert "A1" in out

    def test_missing_dataset(self, tmp_path, capsys):
        rc = main(["info", str(tmp_path / "ghost")])
        assert rc == 2


class TestQuery:
    def test_runs(self, dataset_dir, capsys):
        rc = main(["query", dataset_dir, "--query", "1,2,0", "--algorithm", "TRS"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "result" in out and "checks" in out

    @pytest.mark.smoke
    def test_query_matches_oracle(self, dataset_dir, capsys):
        from repro.persist.format import load_dataset
        from repro.skyline.oracle import reverse_skyline_by_pruners

        rc = main(["query", dataset_dir, "--query", "0,0,0"])
        assert rc == 0
        out = capsys.readouterr().out
        ds = load_dataset(dataset_dir)
        expected = reverse_skyline_by_pruners(ds, (0, 0, 0))
        assert f"result    : {expected}" in out

    def test_bad_arity(self, dataset_dir, capsys):
        rc = main(["query", dataset_dir, "--query", "1,2"])
        assert rc == 2
        assert "attributes" in capsys.readouterr().err

    def test_bad_value(self, dataset_dir, capsys):
        rc = main(["query", dataset_dir, "--query", "99,0,0"])
        assert rc == 2


class TestBatch:
    def test_matches_single_query_answers(self, dataset_dir, capsys):
        rc = main(["batch", dataset_dir, "--queries", "1,2,0", "0,0,0", "1,2,0",
                   "--workers", "2", "--show-results"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache hits" in out and "1 cache hits" in out
        from repro.persist.format import load_dataset
        from repro.skyline.oracle import reverse_skyline_by_pruners

        ds = load_dataset(dataset_dir)
        expected = reverse_skyline_by_pruners(ds, (1, 2, 0))
        assert f"1,2,0 -> {expected}" in out

    def test_plan_flag_groups_and_matches(self, dataset_dir, capsys):
        rc = main(["batch", dataset_dir, "--queries", "1,2,0", "0,0,0", "2,1,1",
                   "--pool", "serial", "--no-cache", "--plan",
                   "--show-results"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planned     : 3 answered via shared scans" in out
        from repro.persist.format import load_dataset
        from repro.skyline.oracle import reverse_skyline_by_pruners

        ds = load_dataset(dataset_dir)
        expected = reverse_skyline_by_pruners(ds, (1, 2, 0))
        assert f"1,2,0 -> {expected}" in out

    def test_shm_flag_accepted_and_leak_free(self, dataset_dir, capsys):
        rc = main(["batch", dataset_dir, "--queries", "1,2,0", "0,0,0",
                   "2,1,1", "1,1,1", "--pool", "process", "--workers", "2",
                   "--no-cache", "--plan", "--shm"])
        assert rc == 0
        from repro.exec import shm as _shm

        assert _shm.active_segments() == ()

    def test_queries_file_and_serial_pool(self, dataset_dir, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("1,2,0\n0,0,0\n")
        rc = main(["batch", dataset_dir, "--queries-file", str(qfile),
                   "--pool", "serial", "--no-cache", "--repeat", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "queries     : 4 (4 computed, 0 cache hits, 0 failed)" in out

    def test_no_queries_is_an_error(self, dataset_dir, capsys):
        rc = main(["batch", dataset_dir])
        assert rc == 2
        assert "no queries" in capsys.readouterr().err

    def test_attribute_subset_batch(self, dataset_dir, capsys):
        rc = main(["batch", dataset_dir, "--attributes", "A1", "A3",
                   "--queries", "1,0", "--show-results"])
        assert rc == 0
        out = capsys.readouterr().out
        from repro.persist.format import load_dataset

        ds = load_dataset(dataset_dir)
        from repro.engine import ReverseSkylineEngine

        expected = ReverseSkylineEngine(ds).query_subset(["A1", "A3"], (1, 0))
        assert f"1,0 -> {list(expected.record_ids)}" in out

    def test_unknown_attribute_is_readable_not_a_traceback(self, dataset_dir, capsys):
        rc = main(["batch", dataset_dir, "--attributes", "A1", "BOGUS",
                   "--queries", "1,0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "BOGUS" in err
        assert "Traceback" not in err

    def test_subset_arity_checked_against_attributes(self, dataset_dir, capsys):
        rc = main(["batch", dataset_dir, "--attributes", "A1", "A3",
                   "--queries", "1,0,2"])
        assert rc == 2
        assert "--attributes" in capsys.readouterr().err

    def test_inject_faults_recovers_with_identical_answers(self, dataset_dir, capsys):
        main(["batch", dataset_dir, "--queries", "1,2,0", "0,0,0",
              "--pool", "serial", "--show-results"])
        clean = capsys.readouterr().out
        rc = main(["batch", dataset_dir, "--queries", "1,2,0", "0,0,0",
                   "--pool", "serial", "--show-results",
                   "--inject-faults", "0.4", "--fault-seed", "3"])
        assert rc == 0
        chaotic = capsys.readouterr().out
        assert "fault model : rate=0.4, seed=3" in chaotic
        for line in clean.splitlines():
            if "->" in line:  # every answer identical under the storm
                assert line in chaotic

    def test_exhausted_retries_fail_the_batch_legibly(self, dataset_dir, capsys):
        rc = main(["batch", dataset_dir, "--queries", "1,2,0",
                   "--pool", "serial", "--inject-faults", "1.0",
                   "--retries", "2"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "failed [0]:" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_fault_rate_is_an_error(self, dataset_dir, capsys):
        rc = main(["batch", dataset_dir, "--queries", "1,2,0",
                   "--inject-faults", "1.5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestInfluence:
    def test_ranks(self, dataset_dir, capsys):
        rc = main(
            ["influence", dataset_dir, "--probes", "1,2,0", "0,0,0",
             "--algorithm", "TRS"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "gini" in out
        assert "1,2,0" in out


class TestSkyband:
    def test_runs(self, dataset_dir, capsys):
        rc = main(["skyband", dataset_dir, "--query", "1,2,0", "-k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reverse 3-skyband" in out

    def test_k1_matches_query(self, dataset_dir, capsys):
        main(["skyband", dataset_dir, "--query", "0,0,0", "-k", "1"])
        band_out = capsys.readouterr().out
        main(["query", dataset_dir, "--query", "0,0,0"])
        query_out = capsys.readouterr().out
        band_ids = band_out.split("skyband: ")[1].splitlines()[0]
        query_ids = query_out.split("result    : ")[1].splitlines()[0]
        assert band_ids == query_ids


class TestProfile:
    def test_prints_attribute_stats(self, dataset_dir, capsys):
        rc = main(["profile", dataset_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "entropy" in out and "n=80" in out


class TestAdvise:
    def test_heuristic(self, dataset_dir, capsys):
        rc = main(["advise", dataset_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recommended algorithm: TRS" in out

    def test_calibrated(self, dataset_dir, capsys):
        rc = main(["advise", dataset_dir, "--calibrate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "measured TRS" in out

    def test_subset_flag(self, dataset_dir, capsys):
        rc = main(["advise", dataset_dir, "--subset-queries"])
        assert rc == 0
        assert "T-TRS" in capsys.readouterr().out


class TestBackends:
    def test_lists_capability_flags(self, capsys):
        rc = main(["backends"])
        assert rc == 0
        header, rule, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["algorithm", "backends", "auto-dispatch"]
        assert set(rule) == {"-"}
        lines = {line.split()[0]: line for line in rows}
        assert sorted(lines) == [
            "BRS", "Naive", "NumericTRS", "SRS", "T-SRS", "T-TRS", "TRS",
            "VectorBRS", "VectorTRS",
        ]
        assert "-> VectorTRS" in lines["TRS"]
        assert "numpy" not in lines["Naive"]


class TestReport:
    def test_aggregates_artifacts(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig01_demo.txt").write_text("=== demo ===\nrows\n")
        out = tmp_path / "REPORT.md"
        rc = main(["report", "--results", str(results), "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "## Figures" in out.read_text()

    def test_missing_results(self, tmp_path, capsys):
        rc = main(["report", "--results", str(tmp_path / "none"),
                   "--out", str(tmp_path / "R.md")])
        assert rc == 2


class TestSweep:
    def test_memory_sweep_on_synthetic(self, capsys, monkeypatch):
        # Shrink the workload so the CLI test stays fast.
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        rc = main(["sweep", "memory", "--dataset", "synthetic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TRS" in out and "memory" in out


class TestObservability:
    def test_batch_trace_and_metrics_out(self, dataset_dir, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        rc = main(["batch", dataset_dir, "--queries", "1,2,0", "2,1,1",
                   "--pool", "serial", "--trace", str(trace),
                   "--metrics-out", str(prom)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        names = [s["name"] for s in doc["spans"]]
        assert names.count("exec.batch") == 1
        assert names.count("exec.query") == 2
        assert "phase1" in names and "phase2" in names
        text = prom.read_text()
        assert "# TYPE repro_batches_total counter" in text
        assert 'repro_batches_total{pool="serial"} 1' in text

    def test_metrics_subcommand_prom_and_json(self, dataset_dir, tmp_path, capsys):
        import json

        rc = main(["metrics", dataset_dir, "--queries", "1,2,0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert 'repro_queries_total{algorithm="TRS"} 1' in out
        out_file = tmp_path / "m.json"
        rc = main(["metrics", dataset_dir, "--queries", "1,2,0",
                   "--format", "json", "--out", str(out_file), "--breakdown"])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["counters"]['repro_queries_total{algorithm="TRS"}'] == 1
        assert "per-phase attribution" in capsys.readouterr().err

    def test_metrics_needs_queries(self, dataset_dir, capsys):
        rc = main(["metrics", dataset_dir])
        assert rc == 2
        assert "no queries" in capsys.readouterr().err
