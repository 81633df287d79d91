"""Command-line interface.

Subcommands::

    repro generate  --game bioshock1_like --frames 120 -o trace.jsonl
    repro info      trace.jsonl
    repro simulate  trace.jsonl --preset mainstream
    repro subset    trace.jsonl --preset mainstream --radius 0.21
    repro sweep     trace.jsonl --preset mainstream
    repro experiment e1 [--full-scale]   # e1..e10
    repro check     src/repro --format github
    repro runs      list|show|diff|regress   # run-history store
    repro trace     report spans.jsonl       # span hotspot rollup
    repro serve     --port 8630 --workers 2  # subsetting-as-a-service
    repro jobs      submit|status|result|list|cancel  # service client
    repro dash      --open                   # exploration dashboard
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro import datasets
from repro.analysis import experiments
from repro.core.cluster_frame import DEFAULT_RADIUS
from repro.core.phasedetect import DEFAULT_INTERVAL_LENGTH, DEFAULT_TOLERANCE
from repro.core.pipeline import SubsettingPipeline
from repro.core.subsetting import build_subset
from repro.errors import ReproError
from repro.gfx.traceio import load_trace_auto as load_trace
from repro.gfx.traceio import save_trace_auto as save_trace
from repro.obs import (
    NULL_TRACER,
    JsonLogger,
    NullLogger,
    ObsContext,
    ProgressReporter,
    Tracer,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.history import append_run, collect_record, open_store
from repro.runtime.engine import Runtime, stage_time_s, summary_line
from repro.simgpu._kernels import KERNEL_BACKENDS, set_backend
from repro.simgpu.config import GpuConfig
from repro.simgpu.precomp_store import set_precomp_dir
from repro.synth.generator import generate_trace
from repro.synth.profiles import BIOSHOCK_SERIES
from repro.util.tables import format_table

EXPERIMENT_RUNNERS = (
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
)

#: Default address for `repro serve` / the `repro jobs` client.
DEFAULT_SERVICE_PORT = 8630
DEFAULT_SERVICE_URL = f"http://127.0.0.1:{DEFAULT_SERVICE_PORT}"

#: Default port for the read-only `repro dash` server (distinct from
#: the job service so both can run side by side on one store).
DEFAULT_DASH_PORT = 8631


class _VersionAction(argparse.Action):
    """``--version`` printing :func:`repro.obs.history.version_line`.

    A custom action rather than ``action="version"`` so the git
    subprocess behind the provenance line only runs when the flag is
    actually used, not on every parser construction.
    """

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.obs.history import version_line

        print(version_line())
        parser.exit(0)


def _jobs_arg(value: str):
    """``--jobs`` accepts a positive worker count or the string 'auto'."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    """Execution-backend flags shared by every simulating subcommand."""
    group = parser.add_argument_group("runtime")
    group.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "most worker processes for simulation/clustering: a count, "
            "or 'auto' for the CPUs this process may use; fan-outs too "
            "small to pay for a pool run inline (default: 1, serial)"
        ),
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "artifact cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro)"
        ),
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact cache entirely",
    )
    group.add_argument(
        "--kernels",
        choices=KERNEL_BACKENDS,
        default=None,
        help=(
            "precompute kernel backend: cext (compiled C) / python, "
            "or 'auto' for the fastest available (default: "
            "$REPRO_KERNELS or auto); worker processes inherit it"
        ),
    )
    group.add_argument(
        "--precomp-dir",
        default=None,
        metavar="DIR",
        help=(
            "machine-wide shared precompute store: frame precompute is "
            "published once and mmap'd by every worker (default: "
            "$REPRO_PRECOMP_DIR or .repro/precomp)"
        ),
    )
    group.add_argument(
        "--no-precomp-store",
        action="store_true",
        help="disable the shared precompute store (recompute per worker)",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write a hierarchical execution trace: Chrome trace-event JSON "
            "(open in Perfetto or chrome://tracing), or span JSONL when "
            "FILE ends in .jsonl"
        ),
    )
    obs.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the final metrics snapshot (counters/gauges/histograms) as JSON",
    )
    obs.add_argument(
        "--manifest-out",
        default=None,
        metavar="FILE",
        help=(
            "write this run's record (seeds, config/trace digests, CLI args, "
            "environment, flattened metrics) as JSON: the same bytes the "
            "run store keeps"
        ),
    )
    obs.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log lines on stderr",
    )
    obs.add_argument(
        "--progress",
        action="store_true",
        help=(
            "emit live progress lines on stderr while each stage's tasks "
            "run (tasks done, frames/sec, ETA; heartbeats while workers "
            "are busy) and record the throughput as progress_* gauges"
        ),
    )
    obs.add_argument(
        "--run-store",
        default=None,
        metavar="DIR",
        help=(
            "append this run's record (digests, metrics, stage rollups) "
            "to the run-history store at DIR (default: $REPRO_RUN_STORE "
            "or .repro/runs)"
        ),
    )
    obs.add_argument(
        "--no-run-store",
        action="store_true",
        help="do not append a run record to the run-history store",
    )


def _runtime_from_args(args, obs: ObsContext, progress=None) -> Runtime:
    cache_dir = None
    if not args.no_cache:
        from repro.runtime.cache import default_cache_dir

        cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    return Runtime(
        jobs=args.jobs, cache_dir=cache_dir, metrics=obs.metrics,
        tracer=obs.tracer, progress=progress,
    )


class _ObsSession:
    """Per-command observability bundle: runtime, root span, outputs.

    Construct it first thing in the command, so the run's clock and
    root span cover trace ingest too, record the run's seeds/configs/
    traces on it as they become known, and call :meth:`finish` after the
    command's work — it closes the root span, builds the run's one
    :class:`~repro.obs.history.RunRecord`, appends it to the run store
    and writes whichever of ``--trace-out`` / ``--metrics-out`` /
    ``--manifest-out`` were requested.
    """

    def __init__(self, args, command: str) -> None:
        self.args = args
        self.command = command
        self.logger = (
            JsonLogger() if getattr(args, "log_json", False) else NullLogger()
        )
        # Kernel/precomp selection exports env so worker processes and
        # every layer below resolve the same backend/store; resolving
        # eagerly turns a bad --kernels into a CLI error, not a
        # mid-sweep crash in a worker.
        if getattr(args, "kernels", None):
            set_backend(args.kernels)
        if getattr(args, "no_precomp_store", False):
            set_precomp_dir("")
        elif getattr(args, "precomp_dir", None):
            set_precomp_dir(args.precomp_dir)
        self.obs = ObsContext(
            tracer=Tracer() if getattr(args, "trace_out", None) else NULL_TRACER
        )
        progress = (
            ProgressReporter(metrics=self.obs.metrics)
            if getattr(args, "progress", False)
            else None
        )
        self.runtime = _runtime_from_args(args, self.obs, progress=progress)
        self.seeds: dict = {}
        self.configs: dict = {}
        self.traces: dict = {}
        # Sidecar sections (see repro.obs.artifacts) attached by the
        # command body; append_run writes them next to the run record.
        self.artifacts: dict = {}
        self._started = time.perf_counter()
        self._root_span = self.obs.tracer.span(
            f"cli:{command}", category="cli"
        )
        self._root_span.__enter__()
        self.logger.log("run_start", command=command, argv=args.argv)

    def finish(self) -> None:
        self._root_span.__exit__(None, None, None)
        duration_s = time.perf_counter() - self._started
        args = self.args
        runtime = self.runtime
        snapshot = runtime.metrics.snapshot()
        trace_out = getattr(args, "trace_out", None)
        if trace_out:
            spans = runtime.tracer.spans()
            if str(trace_out).endswith(".jsonl"):
                write_spans_jsonl(spans, trace_out)
            else:
                write_chrome_trace(spans, trace_out)
            print(f"execution trace ({len(spans)} spans) written to {trace_out}")
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out:
            import json

            with open(metrics_out, "w", encoding="utf-8") as stream:
                json.dump(snapshot.as_dict(), stream, indent=2)
                stream.write("\n")
            print(f"metrics written to {metrics_out}")
        from repro.runtime.keys import config_digest, trace_digest

        record = collect_record(
            self.command,
            argv=args.argv,
            snapshot=snapshot,
            seeds=self.seeds,
            config_digests={
                name: config_digest(config)
                for name, config in self.configs.items()
            },
            trace_digests={
                name: trace_digest(trace) for name, trace in self.traces.items()
            },
            jobs=runtime.jobs,
            duration_s=duration_s,
        )
        store = None
        if not getattr(args, "no_run_store", False):
            store = open_store(getattr(args, "run_store", None))
        if store is not None:
            record, record_path = append_run(store, record, self.artifacts)
            if record_path is not None:
                self.logger.log("run_recorded", path=str(record_path))
        manifest_out = getattr(args, "manifest_out", None)
        if manifest_out:
            Path(manifest_out).write_text(record.to_json(), encoding="utf-8")
            print(f"run record written to {manifest_out}")
        self.logger.log(
            "run_end",
            command=self.command,
            duration_s=round(duration_s, 6),
            tasks_run=snapshot.counter_total("tasks_run"),
            frames_simulated=snapshot.counter_total("frames_simulated"),
            cache_hits=snapshot.counter_total("cache_hits"),
            cache_misses=snapshot.counter_total("cache_misses"),
            stage_time_s=round(stage_time_s(snapshot), 6),
        )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "3D workload subsetting for GPU architecture pathfinding "
            "(IISWC 2015 reproduction)"
        ),
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="print version, git provenance, and python version",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic game trace")
    gen.add_argument("--game", choices=BIOSHOCK_SERIES, default=BIOSHOCK_SERIES[0])
    gen.add_argument("--frames", type=int, default=None)
    gen.add_argument("--seed", type=int, default=datasets.DEFAULT_SEED)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("-o", "--output", required=True)

    info = sub.add_parser("info", help="print statistics of a trace file")
    info.add_argument("trace")

    sim = sub.add_parser("simulate", help="simulate a trace on a GPU preset")
    sim.add_argument("trace")
    sim.add_argument(
        "--preset", choices=GpuConfig.preset_names(), default="mainstream"
    )
    _add_runtime_flags(sim)

    subset = sub.add_parser(
        "subset", help="run the full subsetting methodology on a trace"
    )
    subset.add_argument("trace")
    subset.add_argument(
        "--preset", choices=GpuConfig.preset_names(), default="mainstream"
    )
    subset.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    subset.add_argument(
        "--interval-length", type=int, default=DEFAULT_INTERVAL_LENGTH
    )
    subset.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    subset.add_argument(
        "--save-subset", default=None, help="write the subset trace here"
    )
    subset.add_argument(
        "--save-def",
        default=None,
        help="write the subset definition (positions + weights) as JSON",
    )
    _add_runtime_flags(subset)

    sweep = sub.add_parser(
        "sweep", help="pathfinding sweep: parent vs subset over candidates"
    )
    sweep.add_argument("trace")
    sweep.add_argument(
        "--preset", choices=GpuConfig.preset_names(), default="mainstream"
    )
    _add_runtime_flags(sweep)

    estimate = sub.add_parser(
        "estimate",
        help="estimate a parent's time from a saved subset definition",
    )
    estimate.add_argument("trace", help="the parent trace file")
    estimate.add_argument("subset", help="subset JSON from 'subset --save-def'")
    estimate.add_argument(
        "--preset", choices=GpuConfig.preset_names(), default="mainstream"
    )
    _add_runtime_flags(estimate)

    characterize = sub.add_parser(
        "characterize",
        help="profile a trace: pass/bottleneck/traffic breakdown",
    )
    characterize.add_argument("trace")
    characterize.add_argument(
        "--preset", choices=GpuConfig.preset_names(), default="mainstream"
    )

    validate = sub.add_parser(
        "validate",
        help="run the full trust checklist on a saved subset definition",
    )
    validate.add_argument("trace", help="the parent trace file")
    validate.add_argument("subset", help="subset JSON from 'subset --save-def'")
    validate.add_argument(
        "--preset", choices=GpuConfig.preset_names(), default="mainstream"
    )
    _add_runtime_flags(validate)

    exp = sub.add_parser("experiment", help="run a canned experiment (E1-E10)")
    exp.add_argument("id", choices=EXPERIMENT_RUNNERS)
    exp.add_argument(
        "--full-scale",
        action="store_true",
        help="use the paper-scale corpus (717 frames / ~828K draws)",
    )
    exp.add_argument("--seed", type=int, default=datasets.DEFAULT_SEED)
    _add_runtime_flags(exp)

    check = sub.add_parser(
        "check",
        help="static analysis: determinism, cache-safety, and import hygiene",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    check.add_argument(
        "--format",
        choices=["text", "json", "github", "sarif"],
        default="text",
        help="finding output format (default: text)",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )
    check.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the rendered findings to FILE instead of stdout",
    )
    check.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )

    runs = sub.add_parser(
        "runs",
        help="query the append-only run-history store (.repro/runs)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _add_store_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help=(
                "run-store directory (default: $REPRO_RUN_STORE or "
                ".repro/runs)"
            ),
        )

    runs_list = runs_sub.add_parser("list", help="list stored run records")
    _add_store_flag(runs_list)
    runs_list.add_argument(
        "--command", dest="command_filter", default=None,
        help="only runs of this command"
    )
    runs_list.add_argument(
        "--limit", type=int, default=20, help="newest N records (default 20)"
    )
    runs_list.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help=(
            "json emits the same payload as the dashboard's "
            "GET /v1/dash/runs (default: text)"
        ),
    )

    runs_show = runs_sub.add_parser(
        "show", help="print one run record as JSON"
    )
    _add_store_flag(runs_show)
    runs_show.add_argument(
        "ref", help="run id prefix, or a negative index (-1 = newest)"
    )
    runs_show.add_argument(
        "--artifacts",
        action="store_true",
        help=(
            "also list the run's artifact sidecar sections "
            "(clusterings, fidelity, subset) if it has one"
        ),
    )

    runs_diff = runs_sub.add_parser(
        "diff", help="metric-by-metric delta between two run records"
    )
    _add_store_flag(runs_diff)
    runs_diff.add_argument("ref_a", help="baseline run (id prefix or index)")
    runs_diff.add_argument("ref_b", help="candidate run (id prefix or index)")

    regress = runs_sub.add_parser(
        "regress",
        help=(
            "gate the newest run against a baseline window "
            "(median threshold + Mann-Whitney noise check)"
        ),
    )
    _add_store_flag(regress)
    regress.add_argument(
        "--command",
        dest="command_filter",
        default=None,
        help="gate runs of this command (default: the newest run's command)",
    )
    regress.add_argument(
        "--window", type=int, default=5,
        help="baseline window: the N runs before the current one (default 5)",
    )
    regress.add_argument(
        "--current-window", type=int, default=1,
        help=(
            "treat the newest N runs as the current sample (>=3 upgrades "
            "the noise prong to a Mann-Whitney U test; default 1)"
        ),
    )
    regress.add_argument(
        "--threshold", type=float, default=None,
        help="relative threshold vs the baseline median (default 0.2)",
    )
    regress.add_argument(
        "--alpha", type=float, default=None,
        help="Mann-Whitney significance level (default 0.05)",
    )
    regress.add_argument(
        "--min-baseline", type=int, default=None,
        help="fewest baseline samples a series needs to be gated (default 3)",
    )
    regress.add_argument(
        "--select",
        default=None,
        metavar="GLOBS",
        help=(
            "comma-separated series globs to gate, e.g. "
            "'stage:*,counter:*' (default: every gated series)"
        ),
    )
    regress.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help="output format (default: text)",
    )
    regress.add_argument(
        "--verbose",
        action="store_true",
        help="text format: show passing series too, not just regressions",
    )

    trace_cmd = sub.add_parser(
        "trace", help="analyze exported execution traces"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report",
        help="self-time/total-time hotspot table from a span JSONL export",
    )
    trace_report.add_argument("spans", help="span JSONL file (--trace-out *.jsonl)")
    trace_report.add_argument(
        "--sort", choices=["self", "total"], default="self",
        help="hotspot ordering (default: self time)",
    )
    trace_report.add_argument(
        "--limit", type=int, default=30,
        help="show the top N span names (default 30; 0 = all)",
    )
    trace_report.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help=(
            "json emits the same payload as the dashboard's "
            "GET /v1/dash/runs/{ref}/spans (default: text)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="run the subsetting service (job queue + HTTP API)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT)
    serve.add_argument(
        "--workers", type=int, default=1,
        help="jobs executing concurrently (default 1)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=None,
        help="max queued jobs before submissions get 429 (default 64)",
    )
    serve.add_argument(
        "--sim-jobs", type=_jobs_arg, default=1,
        help=(
            "most worker processes per job's simulations (count or "
            "'auto'); small fan-outs run inline"
        ),
    )
    serve.add_argument(
        "--job-dir", default=None,
        help="persistent job store directory (default: .repro/jobs)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help=(
            "artifact cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro)"
        ),
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache (identical jobs re-simulate)",
    )
    serve.add_argument(
        "--run-store", default=None, metavar="DIR",
        help=(
            "run-history store for per-job records (default: "
            "$REPRO_RUN_STORE or .repro/runs)"
        ),
    )
    serve.add_argument(
        "--no-dash", action="store_true",
        help="do not mount the /dash UI and /v1/dash data routes",
    )

    dash = sub.add_parser(
        "dash",
        help=(
            "serve the exploration dashboard over a run store "
            "(read-only; no job executor is started)"
        ),
    )
    dash.add_argument("--host", default="127.0.0.1")
    dash.add_argument("--port", type=int, default=DEFAULT_DASH_PORT)
    dash.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "run-store directory to browse (default: $REPRO_RUN_STORE or "
            ".repro/runs)"
        ),
    )
    dash.add_argument(
        "--job-dir", default=None, metavar="DIR",
        help=(
            "job store to show on /v1/dash/jobs (default: .repro/jobs "
            "when present; reads only)"
        ),
    )
    dash.add_argument(
        "--bench-root", default=".", metavar="DIR",
        help="directory holding committed BENCH_*.json files (default: .)",
    )
    dash.add_argument(
        "--data-only", action="store_true",
        help="serve only the /v1/dash JSON API, not the HTML UI",
    )
    dash.add_argument(
        "--open", action="store_true", dest="open_browser",
        help="open the dashboard in the default browser",
    )

    jobs = sub.add_parser(
        "jobs", help="client for a running subsetting service"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def _add_url_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url", default=DEFAULT_SERVICE_URL,
            help=f"service base URL (default {DEFAULT_SERVICE_URL})",
        )

    jobs_submit = jobs_sub.add_parser("submit", help="submit one job")
    _add_url_flag(jobs_submit)
    jobs_submit.add_argument(
        "--kind", choices=["simulate", "subset", "sweep"], default="subset"
    )
    source = jobs_submit.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--trace", default=None,
        help="path to a trace file (must be readable by the server)",
    )
    source.add_argument(
        "--generate", default=None, metavar="GAME",
        choices=BIOSHOCK_SERIES,
        help="have the server generate a synthetic trace of this game",
    )
    jobs_submit.add_argument("--frames", type=int, default=None)
    jobs_submit.add_argument("--seed", type=int, default=None)
    jobs_submit.add_argument("--scale", type=float, default=None)
    jobs_submit.add_argument(
        "--preset", choices=GpuConfig.preset_names(), default="mainstream"
    )
    jobs_submit.add_argument(
        "--override", action="append", default=[], metavar="FIELD=VALUE",
        help="GpuConfig field override (repeatable), e.g. tex_cache_kb=256",
    )
    jobs_submit.add_argument("--radius", type=float, default=None)
    jobs_submit.add_argument("--interval-length", type=int, default=None)
    jobs_submit.add_argument("--tolerance", type=float, default=None)
    jobs_submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print its result",
    )
    jobs_submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait limit in seconds (default 600)",
    )

    jobs_status = jobs_sub.add_parser("status", help="one job's status")
    _add_url_flag(jobs_status)
    jobs_status.add_argument("job_id")

    jobs_result = jobs_sub.add_parser(
        "result", help="a finished job's result payload as JSON"
    )
    _add_url_flag(jobs_result)
    jobs_result.add_argument("job_id")

    jobs_list = jobs_sub.add_parser("list", help="list jobs on the server")
    _add_url_flag(jobs_list)
    jobs_list.add_argument("--state", default=None)
    jobs_list.add_argument("--kind", default=None)
    jobs_list.add_argument(
        "--limit", type=int, default=20, help="newest N jobs (default 20)"
    )

    jobs_cancel = jobs_sub.add_parser("cancel", help="cancel a queued job")
    _add_url_flag(jobs_cancel)
    jobs_cancel.add_argument("job_id")
    return parser


def _cmd_generate(args) -> int:
    trace = generate_trace(
        args.game, num_frames=args.frames, seed=args.seed, scale=args.scale
    )
    save_trace(trace, args.output)
    stats = trace.stats()
    print(
        f"wrote {args.output}: {stats.num_frames} frames, "
        f"{stats.num_draws} draws, {stats.num_shaders} shaders"
    )
    return 0


def _cmd_info(args) -> int:
    trace = load_trace(args.trace)
    stats = trace.stats()
    rows = [[key, value] for key, value in stats.as_dict().items()]
    print(format_table(["stat", "value"], rows, title=trace.name))
    return 0


def _cmd_simulate(args) -> int:
    session = _ObsSession(args, "simulate")
    trace = load_trace(args.trace)
    config = GpuConfig.preset(args.preset)
    session.configs[config.name] = config
    session.traces[trace.name] = trace
    runtime = session.runtime
    result = runtime.simulate_trace(trace, config)
    print(
        f"{trace.name} on {config.name}: total {result.total_time_ms:.2f} ms, "
        f"mean {result.mean_fps:.1f} fps over {trace.num_frames} frames"
    )
    print(summary_line(runtime.metrics.snapshot()))
    session.finish()
    return 0


def _cmd_subset(args) -> int:
    session = _ObsSession(args, "subset")
    trace = load_trace(args.trace)
    config = GpuConfig.preset(args.preset)
    pipeline = SubsettingPipeline(
        radius=args.radius,
        interval_length=args.interval_length,
        phase_tolerance=args.tolerance,
    )
    session.configs[config.name] = config
    session.traces[trace.name] = trace
    session.seeds["pipeline"] = pipeline.seed
    result = pipeline.run(
        trace, config, keep_clusterings=True, runtime=session.runtime
    )
    print(result.report())
    from repro.obs.artifacts import pipeline_artifact_sections

    session.artifacts = pipeline_artifact_sections(result, trace)
    if args.save_subset:
        subset_trace = result.subset.materialize(trace)
        save_trace(subset_trace, args.save_subset)
        print(f"subset trace written to {args.save_subset}")
    if args.save_def:
        from repro.core.subsetio import save_subset as save_subset_def

        save_subset_def(result.subset, args.save_def)
        print(f"subset definition written to {args.save_def}")
    session.finish()
    return 0


def _cmd_estimate(args) -> int:
    from repro.analysis.sweep import parent_and_subset_times
    from repro.core.subsetio import check_subset_against, load_subset

    session = _ObsSession(args, "estimate")
    trace = load_trace(args.trace)
    subset = load_subset(args.subset)
    check_subset_against(subset, trace)
    config = GpuConfig.preset(args.preset)
    session.configs[config.name] = config
    session.traces[trace.name] = trace
    runtime = session.runtime
    (actual_ns,), (estimate_ns,) = parent_and_subset_times(
        trace, subset, [config], runtime, "estimate"
    )
    error = abs(estimate_ns - actual_ns) / actual_ns
    print(
        f"{trace.name} on {config.name}: subset estimate "
        f"{estimate_ns / 1e6:.2f} ms vs full {actual_ns / 1e6:.2f} ms "
        f"({100 * error:.2f}% error, {subset.num_frames}/{trace.num_frames} "
        "frames simulated)"
    )
    print(summary_line(runtime.metrics.snapshot()))
    session.finish()
    return 0


def _cmd_characterize(args) -> int:
    from repro.analysis.characterize import characterize_trace

    trace = load_trace(args.trace)
    config = GpuConfig.preset(args.preset)
    print(characterize_trace(trace, config).report())
    return 0


def _cmd_validate(args) -> int:
    from repro.analysis.validation import validate_subset
    from repro.core.subsetio import check_subset_against, load_subset

    session = _ObsSession(args, "validate")
    trace = load_trace(args.trace)
    subset = load_subset(args.subset)
    check_subset_against(subset, trace)
    config = GpuConfig.preset(args.preset)
    session.configs[config.name] = config
    session.traces[trace.name] = trace
    runtime = session.runtime
    validation = validate_subset(trace, subset, config, runtime=runtime)
    print(validation.report())
    print(summary_line(runtime.metrics.snapshot()))
    session.finish()
    return 0 if validation.passed else 2


def _cmd_sweep(args) -> int:
    from repro.analysis.sweep import pathfinding_sweep

    session = _ObsSession(args, "sweep")
    trace = load_trace(args.trace)
    subset = build_subset(trace)
    session.traces[trace.name] = trace
    runtime = session.runtime
    result = pathfinding_sweep(trace, subset, runtime=runtime)
    rows = [
        [name, parent / 1e6, estimate / 1e6]
        for name, parent, estimate in zip(
            result.config_names,
            result.parent_times_ns,
            result.subset_estimated_times_ns,
        )
    ]
    print(
        format_table(
            ["config", "parent ms", "subset-estimated ms"],
            rows,
            title=f"Pathfinding sweep on {trace.name}",
        )
    )
    print(f"ranking agreement (spearman): {result.ranking_agreement:.4f}")
    print(f"winner agrees: {result.winner_agrees()}")
    print(summary_line(runtime.metrics.snapshot()))
    from repro.obs.artifacts import sweep_artifact_sections

    session.artifacts = sweep_artifact_sections(result)
    session.finish()
    return 0


#: The presets an experiment simulates, recorded in its run record; the
#: experiments not named here simulate ``mainstream``.
_EXPERIMENT_PRESETS = {
    "e4": (),
    "e5": (),
    "e9": ("lowpower", "mainstream", "highend"),
    "e10": ("lowpower", "highend"),
}


#: The games whose traces an experiment reads; the experiments not named
#: here read all three.  E5 generates its own captures.
_EXPERIMENT_GAMES = {
    "e3": ("bioshock2_like",),
    "e5": (),
    "e7": ("bioshock2_like",),
    "e8": ("bioshock2_like",),
}


def _experiment_traces(args, games: Sequence[str]) -> dict:
    """``games`` at paper size under ``--full-scale``, else at CI size."""
    if args.full_scale:
        frames, scale = datasets.PAPER_FRAMES_PER_GAME, 1.0
    else:
        frames, scale = datasets.CI_FRAMES_PER_GAME, datasets.CI_SCALE
    return {
        game: datasets.load(game, frames=frames, seed=args.seed, scale=scale)
        for game in games
    }


def _cmd_experiment(args) -> int:
    config = GpuConfig.preset("mainstream")
    experiment_id = args.id
    presets = _EXPERIMENT_PRESETS.get(experiment_id, (config.name,))
    simulated = [GpuConfig.preset(name) for name in presets]
    session = _ObsSession(args, f"experiment:{experiment_id}")
    session.configs.update((c.name, c) for c in simulated)
    session.seeds["corpus"] = args.seed
    runtime = session.runtime
    traces = _experiment_traces(
        args, _EXPERIMENT_GAMES.get(experiment_id, BIOSHOCK_SERIES)
    )
    session.traces.update(traces)
    trace = traces.get("bioshock2_like")
    runner = {
        "e1": lambda: experiments.e1_clustering_accuracy(
            traces, config, runtime=runtime
        ),
        "e2": lambda: experiments.e2_cluster_outliers(
            traces, config, runtime=runtime
        ),
        "e3": lambda: experiments.e3_error_efficiency_tradeoff(
            trace, config, runtime=runtime
        ),
        "e4": lambda: experiments.e4_phase_detection(traces),
        "e5": lambda: experiments.e5_subset_size(
            "bioshock1_like", seed=args.seed, runtime=runtime
        ),
        "e6": lambda: experiments.e6_frequency_correlation(
            traces, config, runtime=runtime
        ),
        "e7": lambda: experiments.e7_ablations(trace, config, runtime=runtime),
        "e8": lambda: experiments.e8_baselines(trace, config, runtime=runtime),
        "e9": lambda: experiments.e9_cross_architecture_transfer(
            traces, presets, runtime=runtime
        ),
        "e10": lambda: experiments.e10_phase_signal_stability(
            traces, *simulated, runtime=runtime
        ),
    }[experiment_id]
    print(runner().render())
    print(summary_line(runtime.metrics.snapshot()))
    session.finish()
    return 0


def _cmd_check(args) -> int:
    from repro.checks import reporting
    from repro.checks.engine import run_checks
    from repro.checks.registry import all_rules

    if args.list_rules:
        rows = [
            [rule.rule_id, rule.name, rule.severity, rule.scope]
            for rule in all_rules()
        ]
        print(format_table(["rule", "name", "severity", "scope"], rows,
                           title="repro check rule catalog"))
        return 0

    paths = args.paths or ["src/repro"]
    select = args.select.split(",") if args.select else None
    report = run_checks(paths, select=select)

    fmt = "json" if args.json else args.format
    summary = reporting.summarize(
        report.findings,
        files_scanned=report.files_scanned,
        noqa_suppressed=report.noqa_suppressed,
    )
    output = reporting.render(fmt, report.findings, summary)
    if args.output:
        Path(args.output).write_text(output + "\n", encoding="utf-8")
        print(f"wrote {fmt} findings to {args.output}")
    elif output:
        print(output)
    return 1 if report.findings else 0


def _cmd_runs(args) -> int:
    import json as _json

    from repro.obs.analyze import (
        compare_to_baseline,
        diff_records,
        render_regressions,
    )
    from repro.obs.history import RunStore

    store = RunStore(args.store)

    if args.runs_command == "list":
        if getattr(args, "format", "text") == "json":
            from repro.obs.dash import runs_payload

            payload = runs_payload(
                store, command=args.command_filter, limit=args.limit
            )
            print(_json.dumps(payload, indent=2, sort_keys=True))
            return 0
        records = store.records(command=args.command_filter, limit=args.limit)
        if not records:
            print(f"no run records in {store.root}")
            return 0
        rows = []
        for record in records:
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(record.created_unix)
            )
            rows.append(
                [
                    record.run_id,
                    record.command,
                    stamp,
                    (record.git_sha or "-")[:10],
                    record.jobs if record.jobs is not None else "-",
                    f"{record.metrics.get('derived:duration_s', 0.0):.2f}",
                ]
            )
        print(
            format_table(
                ["run", "command", "created", "git", "jobs", "dur s"],
                rows,
                title=f"run store {store.root} (oldest first)",
            )
        )
        return 0

    if args.runs_command == "show":
        record = store.resolve(args.ref)
        print(_json.dumps(record.to_dict(), indent=2, sort_keys=True))
        if getattr(args, "artifacts", False):
            from repro.errors import ValidationError

            try:
                index = store.artifact_index(record)
            except ValidationError as exc:
                print(f"artifacts: none ({exc})")
                return 0
            directory = store.artifacts_dir(record)
            print(f"artifacts: {directory}")
            for name, entry in sorted(index.get("sections", {}).items()):
                print(
                    f"  {name:<10} {entry['file']}  "
                    f"({entry['bytes']} bytes, sha256 {entry['sha256'][:16]})"
                )
        return 0

    if args.runs_command == "diff":
        record_a = store.resolve(args.ref_a)
        record_b = store.resolve(args.ref_b)
        rows = [
            [
                name,
                "-" if va is None else f"{va:.6g}",
                "-" if vb is None else f"{vb:.6g}",
                "-" if delta is None else f"{delta:+.1%}",
            ]
            for name, va, vb, delta in diff_records(record_a, record_b)
        ]
        print(
            format_table(
                ["series", record_a.run_id, record_b.run_id, "delta"],
                rows,
                title=f"run diff ({record_a.command} vs {record_b.command})",
            )
        )
        return 0

    # regress
    current_n = max(1, args.current_window)
    command = args.command_filter
    if command is None:
        newest = store.records(limit=1)
        if not newest:
            print(f"error: run store {store.root} is empty", file=sys.stderr)
            return 1
        command = newest[-1].command
    window = store.records(
        command=command, limit=args.window + current_n
    )
    if len(window) <= current_n:
        print(
            f"error: need more than {current_n} run(s) of {command!r} "
            f"to gate (have {len(window)})",
            file=sys.stderr,
        )
        return 1
    current = window[-current_n:]
    baseline = window[:-current_n]
    select = args.select.split(",") if args.select else None
    kwargs = {}
    if args.threshold is not None:
        kwargs["rel_threshold"] = args.threshold
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    if args.min_baseline is not None:
        kwargs["min_baseline"] = args.min_baseline
    report = compare_to_baseline(current, baseline, select=select, **kwargs)
    output = render_regressions(args.format, report, verbose=args.verbose)
    if output:
        print(output)
    return 0 if report.passed else 1


def _cmd_trace(args) -> int:
    from repro.obs.analyze import load_spans_jsonl, render_rollup, rollup_spans

    if getattr(args, "format", "text") == "json":
        import json as _json

        from repro.obs.dash import spans_payload

        print(_json.dumps(spans_payload(args.spans), indent=2, sort_keys=True))
        return 0
    spans = load_spans_jsonl(args.spans)
    rollups = rollup_spans(spans)
    if not rollups:
        print(f"no spans in {args.spans}")
        return 0
    limit = args.limit if args.limit > 0 else None
    print(
        render_rollup(
            rollups,
            sort=args.sort,
            limit=limit,
            title=f"span hotspots — {args.spans} ({len(spans)} spans)",
        )
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.runtime.cache import default_cache_dir
    from repro.service.http import build_server

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    server, recovery = build_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        sim_jobs=args.sim_jobs,
        job_dir=args.job_dir,
        cache_dir=cache_dir,
        run_store=args.run_store,
        dashboard=not args.no_dash,
    )
    if recovery["requeued"]:
        print(f"recovered {len(recovery['requeued'])} interrupted job(s): "
              + ", ".join(recovery["requeued"]))
    if recovery["interrupted"]:
        print(f"gave up on {len(recovery['interrupted'])} repeat-crash job(s): "
              + ", ".join(recovery["interrupted"]))
    dash_note = "" if args.no_dash else f", dashboard at {server.url}/dash"
    print(
        f"repro service listening on {server.url} "
        f"(workers={args.workers}, sim_jobs={args.sim_jobs}, "
        f"job_dir={server.app.executor.store.root}{dash_note})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _cmd_dash(args) -> int:
    from repro.service.http import build_dash_server
    from repro.service.jobs import DEFAULT_JOB_DIR

    job_dir = args.job_dir
    if job_dir is None and Path(DEFAULT_JOB_DIR).is_dir():
        job_dir = DEFAULT_JOB_DIR
    server = build_dash_server(
        host=args.host,
        port=args.port,
        run_store=args.store,
        job_dir=job_dir,
        bench_root=args.bench_root,
        serve_ui=not args.data_only,
    )
    surface = "data API only" if args.data_only else f"UI at {server.url}/dash"
    print(
        f"repro dashboard listening on {server.url} ({surface}; "
        "read-only — no job executor)"
    )
    if args.open_browser and not args.data_only:
        import webbrowser

        webbrowser.open(f"{server.url}/dash")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _submit_payload(args) -> dict:
    """The ``POST /v1/jobs`` body the submit flags describe."""
    if args.trace is not None:
        trace: dict = {"path": args.trace}
    else:
        generate = {"game": args.generate}
        for key in ("frames", "seed", "scale"):
            value = getattr(args, key)
            if value is not None:
                generate[key] = value
        trace = {"generate": generate}
    overrides = {}
    for item in args.override:
        if "=" not in item:
            raise ReproError(
                f"--override expects FIELD=VALUE, got {item!r}"
            )
        name, raw = item.split("=", 1)
        import json as _json

        try:
            overrides[name] = _json.loads(raw)
        except _json.JSONDecodeError:
            overrides[name] = raw
    payload = {
        "kind": args.kind,
        "trace": trace,
        "config": {"preset": args.preset, "overrides": overrides},
    }
    params = {}
    for flag, field in (
        ("radius", "radius"),
        ("interval_length", "interval_length"),
        ("tolerance", "tolerance"),
    ):
        value = getattr(args, flag)
        if value is not None:
            params[field] = value
    if params:
        payload["params"] = params
    return payload


def _cmd_jobs(args) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    try:
        return _run_jobs_command(client, args)
    except ServiceClientError as exc:
        if exc.field_errors:
            # Re-raise the server's 422 as the same structured error a
            # local validation failure produces, so main() renders one
            # line per field either way.
            from repro.util.validation import FieldError, FieldValidationError

            raise FieldValidationError([
                FieldError(e["field_path"], e["message"])
                for e in exc.field_errors
            ]) from None
        raise


def _run_jobs_command(client, args) -> int:
    import json as _json

    if args.jobs_command == "submit":
        status = client.submit(_submit_payload(args))
        coalesced = status.get("coalesced_with")
        note = f" (coalesced with {coalesced})" if coalesced else ""
        print(f"job {status['job_id']} {status['state']}{note}")
        if not args.wait:
            return 0
        job_id = status["job_id"]
        final = client.wait(job_id, timeout_s=args.timeout)
        print(f"job {job_id} {final['state']}")
        if final["state"] != "succeeded":
            if final.get("error"):
                print(f"error: {final['error']}", file=sys.stderr)
            return 2
        print(_json.dumps(client.result(job_id), indent=2, sort_keys=True))
        return 0
    if args.jobs_command == "status":
        print(_json.dumps(client.status(args.job_id), indent=2, sort_keys=True))
        return 0
    if args.jobs_command == "result":
        print(_json.dumps(client.result(args.job_id), indent=2, sort_keys=True))
        return 0
    if args.jobs_command == "cancel":
        status = client.cancel(args.job_id)
        print(f"job {status['job_id']} {status['state']}")
        return 0
    # list
    jobs = client.list_jobs(
        state=args.state, kind=args.kind, limit=args.limit
    )
    if not jobs:
        print("no jobs")
        return 0
    rows = []
    for job in jobs:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(job["created_unix"])
        )
        rows.append([
            job["job_id"],
            job["kind"],
            job["state"],
            stamp,
            job.get("coalesced_with") or "-",
        ])
    print(format_table(
        ["job", "kind", "state", "created", "coalesced"],
        rows,
        title=f"jobs at {args.url} (oldest first)",
    ))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "simulate": _cmd_simulate,
    "subset": _cmd_subset,
    "sweep": _cmd_sweep,
    "estimate": _cmd_estimate,
    "validate": _cmd_validate,
    "characterize": _cmd_characterize,
    "experiment": _cmd_experiment,
    "check": _cmd_check,
    "runs": _cmd_runs,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "dash": _cmd_dash,
    "jobs": _cmd_jobs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # What the run record states was run, also when called as a library.
    args.argv = list(sys.argv[1:] if argv is None else argv)
    from repro.util.validation import FieldValidationError

    try:
        return _COMMANDS[args.command](args)
    except FieldValidationError as exc:
        print("error: validation failed", file=sys.stderr)
        for entry in exc.errors:
            print(f"  {entry.field_path}: {entry.message}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
