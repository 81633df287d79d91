"""Tests for the dataset registry and the command-line interface."""

import re

import pytest

from repro import datasets
from repro.cli import main
from repro.errors import ValidationError
from repro.runtime.engine import Runtime


class TestDatasets:
    def test_available_names(self):
        names = datasets.available()
        assert len(names) == 3
        for name in names:
            assert "bioshock" in name

    def test_load_reproducible(self):
        a = datasets.load("bioshock1_like", frames=4, scale=0.05)
        b = datasets.load("bioshock1_like", frames=4, scale=0.05)
        assert a.frames == b.frames

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="bioshock"):
            datasets.load("doom_like")

    def test_bench_corpus_scale_switch(self, monkeypatch):
        monkeypatch.delenv(datasets.FULL_SCALE_ENV, raising=False)
        assert not datasets.full_scale_requested()
        monkeypatch.setenv(datasets.FULL_SCALE_ENV, "1")
        assert datasets.full_scale_requested()

    def test_corpus_stats_totals(self):
        traces = datasets.corpus(frames=4, scale=0.05)
        rows = datasets.corpus_stats(traces)
        assert rows[-1]["game"] == "TOTAL"
        assert rows[-1]["frames"] == sum(r["frames"] for r in rows[:-1])

    def test_paper_corpus_shape_documented(self):
        # The constants define the paper's 717-frame corpus.
        assert 3 * datasets.PAPER_FRAMES_PER_GAME == 717


class TestCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        code = main(
            [
                "generate",
                "--game",
                "bioshock1_like",
                "--frames",
                "8",
                "--scale",
                "0.05",
                "-o",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_generate_writes_file(self, trace_file):
        assert trace_file.exists()

    def test_info(self, trace_file, capsys):
        assert main(["info", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "frames" in out and "draws" in out

    def test_simulate(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--preset", "lowpower"]) == 0
        out = capsys.readouterr().out
        assert "fps" in out

    def test_subset_and_save(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "subset.jsonl"
        code = main(
            ["subset", str(trace_file), "--save-subset", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "prediction error" in out

    def test_subset_save_def_and_estimate(self, trace_file, tmp_path, capsys):
        def_path = tmp_path / "subset.json"
        assert main(["subset", str(trace_file), "--save-def", str(def_path)]) == 0
        assert def_path.exists()
        capsys.readouterr()
        assert main(["estimate", str(trace_file), str(def_path)]) == 0
        out = capsys.readouterr().out
        assert "subset estimate" in out and "% error" in out

    def test_estimate_mismatched_subset_fails_cleanly(
        self, trace_file, tmp_path, capsys
    ):
        other = tmp_path / "other.jsonl"
        main(
            [
                "generate",
                "--game",
                "bioshock2_like",
                "--frames",
                "6",
                "--scale",
                "0.05",
                "-o",
                str(other),
            ]
        )
        def_path = tmp_path / "subset.json"
        main(["subset", str(trace_file), "--save-def", str(def_path)])
        capsys.readouterr()
        assert main(["estimate", str(other), str(def_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_characterize(self, trace_file, capsys):
        assert main(["characterize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Workload profile" in out
        assert "bottleneck" in out

    def test_validate_command(self, trace_file, tmp_path, capsys):
        def_path = tmp_path / "subset.json"
        main(["subset", str(trace_file), "--save-def", str(def_path)])
        capsys.readouterr()
        code = main(["validate", str(trace_file), str(def_path)])
        out = capsys.readouterr().out
        assert "VERDICT" in out
        assert code in (0, 2)

    def test_sweep(self, trace_file, capsys):
        assert main(["sweep", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "ranking agreement" in out

    def test_missing_file_is_clean_error(self, capsys):
        assert main(["info", "/nonexistent/trace.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_simulate_jobs_matches_serial(self, trace_file, capsys, pooled_fan_outs):
        assert main(["simulate", str(trace_file), "--no-cache"]) == 0
        serial = capsys.readouterr().out.splitlines()[0]
        assert (
            main(["simulate", str(trace_file), "--no-cache", "--jobs", "2"])
            == 0
        )
        parallel = capsys.readouterr().out.splitlines()[0]
        assert parallel == serial

    def test_simulate_cache_dir_warm_rerun(self, trace_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["simulate", str(trace_file), "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "frames_simulated=8" in cold
        assert cache_dir.exists()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "frames_simulated=0" in warm
        assert warm.splitlines()[0] == cold.splitlines()[0]

    def test_no_cache_writes_nothing(self, trace_file, tmp_path, monkeypatch):
        cache_dir = tmp_path / "untouched"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["simulate", str(trace_file), "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_subset_jobs_matches_serial(self, trace_file, capsys, pooled_fan_outs):
        assert main(["subset", str(trace_file), "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["subset", str(trace_file), "--no-cache", "--jobs", "4"]) == 0
        )
        parallel = capsys.readouterr().out

        def report_lines(text):
            # Drop the telemetry line: wall-clock stage times differ.
            return [l for l in text.splitlines() if not l.startswith("[runtime]")]

        assert report_lines(parallel) == report_lines(serial)

    def test_bad_jobs_is_clean_error(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--jobs", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.fixture()
    def small_corpus(self, monkeypatch):
        # Shrink the CI corpus so the experiment command stays fast.
        monkeypatch.setattr(datasets, "CI_FRAMES_PER_GAME", 8)
        monkeypatch.setattr(datasets, "CI_SCALE", 0.05)

    def test_experiment_e4_small(self, capsys, small_corpus):
        assert main(["experiment", "e4"]) == 0
        out = capsys.readouterr().out
        assert "[E4]" in out

    def test_experiment_e5_seed_reaches_runner(self, tmp_path, monkeypatch):
        # Stub the runner: the test is about what the CLI hands it and
        # records, not about E5's clustering.
        import json

        from repro.analysis import experiments
        from repro.analysis.report import ExperimentResult

        calls = []

        def fake_e5(game, *, seed, runtime):
            calls.append((game, seed, type(runtime)))
            return ExperimentResult("E5", "stub", ("frames",), ((1,),))

        monkeypatch.setattr(experiments, "e5_subset_size", fake_e5)
        record = tmp_path / "run.json"
        argv = ["experiment", "e5", "--seed", "3", "--manifest-out", str(record),
                "--no-run-store"]
        assert main(argv) == 0
        assert calls == [("bioshock1_like", 3, Runtime)]
        written = json.loads(record.read_text())
        assert written["seeds"] == {"corpus": 3}
        assert written["config_digests"] == {}

    @pytest.mark.parametrize(
        "flags, env, sizes",
        [
            ([], "1", (datasets.CI_FRAMES_PER_GAME, datasets.CI_SCALE)),
            (["--full-scale"], None, (datasets.PAPER_FRAMES_PER_GAME, 1.0)),
        ],
        ids=["benchmark-env-alone", "full-scale-flag"],
    )
    def test_experiment_traces_sized_by_the_flag_alone(
        self, monkeypatch, flags, env, sizes
    ):
        # $REPRO_FULL_SCALE sizes the benchmark harness's corpus, not the
        # command's: every experiment reads --full-scale alone.  The
        # loader and runners are stubbed: the test is about the sizes asked.
        from repro.analysis import experiments
        from repro.analysis.report import ExperimentResult

        real_load = datasets.load
        requested = []

        def small_load(name, frames=None, seed=datasets.DEFAULT_SEED, scale=1.0):
            requested.append((name, frames, scale))
            return real_load(name, frames=4, seed=seed, scale=0.05)

        def stub(*args, **kwargs):
            return ExperimentResult("EX", "stub", ("game",), (("-",),))

        monkeypatch.setattr(datasets, "load", small_load)
        monkeypatch.setattr(experiments, "e3_error_efficiency_tradeoff", stub)
        monkeypatch.setattr(experiments, "e4_phase_detection", stub)
        if env is None:
            monkeypatch.delenv(datasets.FULL_SCALE_ENV, raising=False)
        else:
            monkeypatch.setenv(datasets.FULL_SCALE_ENV, env)
        for experiment_id, games in (
            ("e3", ["bioshock2_like"]),
            ("e4", list(datasets.available())),
        ):
            requested.clear()
            argv = ["experiment", experiment_id, *flags, "--no-cache",
                    "--no-run-store"]
            assert main(argv) == 0
            assert requested == [(game, *sizes) for game in games], experiment_id

    def test_experiment_e9_records_its_work(self, small_corpus, tmp_path):
        import json

        record = tmp_path / "run.json"
        argv = ["experiment", "e9", "--no-cache", "--no-run-store",
                "--manifest-out", str(record)]
        assert main(argv) == 0
        metrics = json.loads(record.read_text())["metrics"]
        # Every parent frame on each of the three presets, plus the subsets.
        assert metrics.get("counter:frames_simulated", 0) > 3 * 3 * 8
        assert metrics.get("counter:tasks_run", 0) > 0

    def test_experiment_e3_cache_dir_rerun_simulates_nothing(
        self, small_corpus, tmp_path, capsys
    ):
        argv = ["experiment", "e3", "--cache-dir", str(tmp_path / "cache"),
                "--no-run-store"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out.splitlines())

        def frames_simulated(lines):
            (line,) = [l for l in lines if l.startswith("[runtime]")]
            return int(re.search(r"frames_simulated=(\d+)", line).group(1))

        def table(lines):
            return [l for l in lines if not l.startswith("[runtime]")]

        cold, warm = outputs
        assert frames_simulated(cold) > 0
        assert frames_simulated(warm) == 0
        assert table(warm) == table(cold)
