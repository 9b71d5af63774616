"""chunkfuse benchmark: closed-loop pipeline runs and traced runs.

Usage, from the root of a chunkfuse checkout:

    python3 perfbench/run.py --workload compare-linear --seed 2 --seconds 30 --trace 0

With ``--trace 0`` one process sets the workload up, then calls
``experiment.run_experiment`` back to back, one run at a time, for
``--seconds``, and reports the end-to-end metrics (set-up time, run
time, peak memory). With ``--trace 1`` it alternates untraced runs with
traced runs (see tracer.py) and reports the per-layer metrics.
Every run's ``report.json`` is checked: by its recorded sha256 at the
workload's default seed, by byte identity with the first run at any
other seed, plus the README AUROCs (compare-linear) and the checkpoint
sanity row (dense-windows). Every traced run must match the untraced
report before it to 1e-12 per row, and the public fusion functions must
reproduce the pipeline's fusion to 1e-12. ``--workload all`` runs every workload in both modes.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compare-linear", "overlap-pattern", "dense-windows", "remote-ensemble")
DEFAULT_SECONDS = 30
MIN_RUNS = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "corpus.generate_s": "s", "corpus.split_s": "s", "corpus.notes": "count",
    "corpus.tokens": "count", "tokenizer.vocab_s": "s", "tokenizer.tokenize_s": "s",
    "tokenizer.unk_rate": "ratio", "chunker.chunk_s": "s",
    "chunker.coverage_check_s": "s", "chunker.windows": "count",
    "chunker.dup_factor": "ratio", "training.build_chunks_s": "s",
    "training.train_s": "s", "training.epochs": "count", "training.epoch_s": "s",
    "scoring.build_s": "s", "scoring.featurize_s": "s",
    "scoring.featurize_rows": "count", "scoring.score_s.linear": "s",
    "scoring.score_s.pattern": "s", "scoring.windows_per_s": "1/s",
    "remote.connect_s": "s", "remote.score_s": "s", "remote.chunks_per_s": "1/s",
    "remote.requests": "count", "remote.request_bytes": "bytes",
    "remote.errors": "count", "fusion.fuse_s": "s", "metrics.auroc_s": "s",
    "experiment.emit_s": "s", "trace.overhead_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload config's own seed)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the runs are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    return parser.parse_args(argv)


def _stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through finally, stopping children


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Runner:
    """Closed-loop runs of one prepared workload, each checked."""

    def __init__(self, workload, prepared, reference, expected_digest, at_default_seed):
        self.workload = workload
        self.prepared = prepared
        self.reference = reference
        self.expected_digest = expected_digest
        self.at_default_seed = at_default_seed
        self.times = []
        self.attempted = 0
        self.failed = 0

    def run(self, tracer=None):
        """One run_experiment call, traced if a tracer is given; returns its
        report, or None if it failed. Only untraced runs are timed."""
        from chunkfuse.experiment import run_experiment
        from workloads import check_run

        config = self.prepared.config
        self.attempted += 1
        gc.collect()  # the previous run's garbage is not this run's cost
        started = time.perf_counter()
        try:
            if tracer is None:
                report = run_experiment(config)
            else:
                with tracer.installed():
                    report = run_experiment(config)
        except Exception as err:  # any raise is a failed run, reported below
            return self.fail(f"raised {type(err).__name__}: {err}")
        finally:
            if tracer is None:
                self.times.append(time.perf_counter() - started)
        report_bytes = (Path(config.output_dir) / "report.json").read_bytes()
        digest = hashlib.sha256(report_bytes).hexdigest()
        if self.expected_digest is None:
            self.expected_digest = digest
        problems = check_run(
            self.workload, report, digest, self.expected_digest, self.prepared,
            self.reference, self.at_default_seed,
        )
        if problems:
            return self.fail("; ".join(problems))
        return report

    def fail(self, why):
        self.failed += 1
        print(f"run {self.attempted} failed: {why}", file=sys.stderr)
        return None


def _measure(runner, seconds):
    deadline = time.perf_counter() + seconds
    while runner.attempted < MIN_RUNS or time.perf_counter() < deadline:
        runner.run()


def _trace(runner, seconds, work):
    """Alternate untraced and traced runs; per-layer medians over the traced."""
    import tracer as tracing

    per_run, overheads, spans = [], [], []
    deadline = time.perf_counter() + seconds
    while runner.attempted == 0 or time.perf_counter() < deadline:
        untraced = runner.run()
        tracer = tracing.Tracer()
        traced = runner.run(tracer)
        if traced is None:
            continue
        try:
            metrics = tracer.metrics(runner.prepared.config.chunking)
        except Exception as err:  # e.g. coverage_check rejecting the windows
            runner.fail(f"per-layer metrics raised {type(err).__name__}: {err}")
            continue
        problems = (
            ["its untraced run failed"] if untraced is None
            else tracing.fidelity_problems(traced, untraced)
        ) + tracer.fusion_problems()
        if problems:
            runner.fail("traced run does not match: " + "; ".join(problems))
        per_run.append(metrics)
        if untraced is not None:
            overheads.append(tracer.total_s - runner.times[-1])
        spans = tracer.spans_json()  # not the tracer: it holds the run's data
    if not per_run:
        return {}
    metrics = {name: statistics.median_low(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    (work / "trace.json").write_text(json.dumps(spans, indent=1))
    return metrics


def _run_workload(args):
    src = ROOT / "src"
    if not (src / "chunkfuse").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a chunkfuse checkout (no src/chunkfuse or configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    default_seed = workloads.default_seed(ROOT, args.workload)
    seed = default_seed if args.seed is None else args.seed
    at_default_seed = seed == default_seed

    prepared = None
    try:
        prepared = workloads.set_up(ROOT, args.workload, seed, work)
        setup_s = time.perf_counter() - STARTED
        runner = Runner(
            args.workload, prepared, reference,
            reference["report_sha256"][args.workload] if at_default_seed else None,
            at_default_seed,
        )
        if args.trace:
            metrics = _trace(runner, args.seconds, work)
            units = PER_LAYER_UNITS
        else:
            _measure(runner, args.seconds)
            metrics = {
                "setup_s": setup_s,
                "run_s": statistics.mean(runner.times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
    finally:
        if prepared is not None:
            prepared.close()

    gate = "recorded digest" if at_default_seed else "byte identity across runs"
    print(f"workload {args.workload}, seed {seed} ({gate}), trace {args.trace}")
    q1, median, q3 = _quartiles(runner.times)
    print(f"run time: mean {statistics.mean(runner.times):.4f} s, median {median:.4f} s,"
          f" quartiles {q1:.4f} / {q3:.4f} s, n={len(runner.times)}")
    print("run time samples (s):", " ".join(f"{t:.4f}" for t in runner.times))
    print(f"error_rate: {runner.failed}/{runner.attempted}"
          f" = {runner.failed / runner.attempted:.4f}")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    result = {
        "correct": runner.failed == 0 and set(metrics) == set(units),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units
                    if name in metrics},
    }
    print(json.dumps(result))
    return 0


def _run_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            try:
                out, _ = child.communicate()
            finally:
                if child.poll() is None:
                    child.terminate()  # its own SIGTERM handler stops its server
                    child.wait()
            if child.returncode != 0:
                return child.returncode
            *lines, last = out.splitlines()
            print("\n".join(lines))
            result = json.loads(last)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _stop_on_sigterm)
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
