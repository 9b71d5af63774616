"""The four benchmark workloads: their configs, set-up and output checks.

Every workload drives ``experiment.run_experiment`` on one config built
here from a shipped file under ``configs/``. ``--seed`` replaces the
config's own seed, which drives corpus generation, the split and
training, so one seed gives one fixed set of inputs.

- compare-linear: ``configs/compare_synthetic.json`` unchanged. Training
  and featurization dominate.
- overlap-pattern: ``configs/overlap_pattern.json`` unchanged. No training
  and no featurization: corpus generation, tokenization and the
  per-window pattern search do the work.
- dense-windows: inference only on compare-linear's data, with ``lin-a``
  loaded from a checkpoint trained in set-up plus the pattern scorer, at
  overlap 460 (stride 50: 7.1 window tokens per note token).
- remote-ensemble: ``configs/remote_ensemble.json`` grown to 1500 notes
  with a 0.6 test share, scored against ``chunkfuse serve-mock`` in its
  own process, so the remote layer does hundreds of round trips a run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from chunkfuse.experiment import ComparisonReport, ExperimentConfig, run_experiment
from chunkfuse.metrics import format_percent

SERVER_START_TIMEOUT_S = 30.0
SERVER_STOP_TIMEOUT_S = 10.0

_SHIPPED = {
    "compare-linear": "compare_synthetic.json",
    "overlap-pattern": "overlap_pattern.json",
    "dense-windows": "compare_synthetic.json",
    "remote-ensemble": "remote_ensemble.json",
}


def shipped_config(root: Path, workload: str) -> dict:
    return json.loads((root / "configs" / _SHIPPED[workload]).read_text())


def default_seed(root: Path, workload: str) -> int:
    return int(shipped_config(root, workload).get("seed", 0))


class ServeMock:
    """``chunkfuse serve-mock`` on port 0 in a child process.

    The bound URL is read back from ``--endpoint-file``; the config's
    hard-coded port is never used.
    """

    def __init__(self, root: Path, work: Path):
        self.endpoint_file = work / "endpoint.txt"
        self.endpoint_file.unlink(missing_ok=True)
        self.log = open(work / "serve-mock.log", "wb")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "chunkfuse.cli", "serve-mock",
                "--port", "0", "--max-batch", "4", "--probs", "0.5,0.5",
                "--endpoint-file", str(self.endpoint_file),
            ],
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            self.endpoint = self._wait_for_endpoint()
        except BaseException:
            self.close()
            raise

    def _wait_for_endpoint(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve-mock exited with code {self.proc.returncode}")
            if self.endpoint_file.exists():
                text = self.endpoint_file.read_text()
                if text.endswith("\n"):  # written in one call; the newline ends it
                    return text.strip()
            time.sleep(0.01)
        raise RuntimeError(f"serve-mock wrote no endpoint within {SERVER_START_TIMEOUT_S} s")

    def close(self) -> None:
        if self.proc.poll() is None:
            # SIGINT lets serve-mock shut its HTTP server down cleanly.
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


@dataclass
class Prepared:
    """A workload after set-up: the config each run executes, plus the
    Baseline AUROC the dense-windows check compares against."""

    config: ExperimentConfig
    lin_a_baseline: float | None = None
    server: ServeMock | None = None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def set_up(root: Path, workload: str, seed: int, work: Path) -> Prepared:
    """Everything a workload needs before its first timed run."""
    doc = shipped_config(root, workload)
    doc["seed"] = seed
    doc["output_dir"] = str(work / "run")
    if workload in ("compare-linear", "overlap-pattern"):
        return Prepared(ExperimentConfig.from_json_dict(doc))
    if workload == "dense-windows":
        return _set_up_dense(doc, work)
    server = ServeMock(root, work)
    try:
        doc["data"]["num_docs"] = 1500
        doc["split_ratios"] = [0.3, 0.1, 0.6]
        for scorer in doc["scorers"]:
            if scorer["kind"] == "remote":
                scorer["metadata"]["endpoint"] = server.endpoint
        return Prepared(ExperimentConfig.from_json_dict(doc), server=server)
    except BaseException:
        server.close()
        raise


def _set_up_dense(doc: dict, work: Path) -> Prepared:
    # Train lin-a exactly as compare-linear does (same data, split, vocab
    # and trainer substream), keeping its checkpoint and Baseline AUROC.
    train_doc = dict(
        doc,
        scorers=[s for s in doc["scorers"] if s["scorer_id"] == "lin-a"],
        methods=["baseline"],
        output_dir=str(work / "checkpoint"),
    )
    trained = run_experiment(ExperimentConfig.from_json_dict(train_doc))
    if trained.worst_error_code():
        raise RuntimeError(f"training the lin-a checkpoint failed: {trained.rows}")
    checkpoint = work / "checkpoint" / "scorer_lin-a.ckpt.json"
    doc["scorers"] = [
        {"scorer_id": "lin-a", "kind": "linear",
         "metadata": {"checkpoint": str(checkpoint)}},
        {"scorer_id": "pattern", "kind": "pattern", "metadata": {"pattern": "auto"}},
    ]
    doc["chunking"] = {"capacity": 510, "overlap": 460}
    return Prepared(
        ExperimentConfig.from_json_dict(doc),
        lin_a_baseline=trained.rows[0].macro_auroc,
    )


def check_run(
    workload: str,
    report: ComparisonReport,
    digest: str,
    expected_digest: str,
    prepared: Prepared,
    reference: dict,
    at_default_seed: bool,
) -> list[str]:
    """Every reason this run's output is wrong; empty when it is right.

    ``expected_digest`` is the recorded digest at the default seed, and
    the first run's digest at any other seed.
    """
    problems = []
    if report.worst_error_code():
        errors = [row.error for row in report.rows if row.error]
        problems.append(f"error rows (exit code {report.worst_error_code()}): {errors}")
    if digest != expected_digest:
        problems.append(f"report.json sha256 {digest} != expected {expected_digest}")
    if workload == "compare-linear" and at_default_seed:
        percents = [
            None if row.macro_auroc is None else format_percent(row.macro_auroc)
            for row in report.rows
        ]
        if percents != reference["readme_percents"]:
            problems.append(f"AUROCs {percents} != README {reference['readme_percents']}")
    if workload == "dense-windows":
        baseline = next(
            r for r in report.rows
            if r.method.value == "baseline" and r.scorer_ids == ("lin-a",)
        )
        wanted = prepared.lin_a_baseline
        if baseline.macro_auroc != wanted:
            problems.append(
                f"lin-a Baseline {baseline.macro_auroc!r} != compare-linear's {wanted!r}"
            )
        if at_default_seed and format_percent(wanted) != reference["readme_percents"][0]:
            problems.append(f"checkpoint lin-a Baseline {format_percent(wanted)} != README")
    return problems
