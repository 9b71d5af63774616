"""Command-line surface: subcommands, overrides, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chunkfuse import cli
from chunkfuse.chunker import Chunk
from chunkfuse.cli import main
from chunkfuse.corpus import SECTION_ORDER, CsvSchema, ingest_csv
from chunkfuse.errors import ChunkfuseError, ConfigError
from chunkfuse.remote import RemoteScorer
from chunkfuse.scoring import ScorerDescriptor, ScorerKind


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
OVERLAP_CONFIG = str(CONFIGS / "overlap_pattern.json")
COMPARE_CONFIG = str(CONFIGS / "compare_synthetic.json")


def base_config(tmp_path, **extra) -> str:
    doc = {
        "task": "mortality",
        "data": {"kind": "synthetic", "num_docs": 40, "min_tokens": 80,
                 "max_tokens": 160},
        "scorers": [
            {"scorer_id": "mock-a", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
            {"scorer_id": "mock-b", "kind": "mock", "metadata": {"probs": "0.3,0.7"}},
        ],
        "methods": ["baseline", "ensemble", "aggregation", "ensemble_aggregation"],
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParsing:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_missing_subcommand_is_config_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_on_ingest_rejected(self, capsys):
        rc = main([
            "ingest", "--input", "notes.csv", "--schema", "schema.json",
            "--output", "notes.jsonl",
        ])
        assert rc == 1
        assert "unrecognized arguments: --output notes.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "exp.json"],
        ["evaluate", "--config", "exp.json", "--scorer-id", "lin"],
        ["generate", "--num-docs", "4", "--output", "notes.jsonl"],
    ])
    def test_removed_commands_exit_1(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument command: invalid choice: '{argv[0]}'")
        assert "Traceback" not in err

    def test_overrides_parse_values_as_json_or_keep_the_string(self):
        assert cli._parse_overrides(["--output_dir", "runs/x", "--seed=4", "--a.b", "[1]"]) == {
            "output_dir": "runs/x", "seed": 4, "a.b": [1],
        }

    @pytest.mark.parametrize("extras, message", [
        (["seed"], "unexpected argument 'seed'"),
        (["--", "4"], "unexpected argument '--'"),
        (["--seed", "4", "--data.num_docs"], "override --data.num_docs needs a value"),
    ])
    def test_malformed_overrides_are_config_errors(self, extras, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli._parse_overrides(extras)


SCHEMA = {
    "id_column": "note_id",
    "section_columns": {k: k.lower() for k in SECTION_ORDER},
    "mortality_column": "died",
    "los_column": "los",
}
INGEST_ROWS = [
    ["n1", "chest pain", "two days", "", "", "", "", "", "", "1", "3.5"],
    ["n2", "fever", "", "copd", "", "", "", "", "", "0", ""],
]


def write_ingest_fixture(tmp_path, rows, schema) -> tuple[str, str]:
    header = ["note_id"] + [k.lower() for k in SECTION_ORDER] + ["died", "los"]
    csv_path = tmp_path / "notes.csv"
    csv_path.write_text(
        "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    )
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    return str(csv_path), str(schema_path)


def make_unreadable(tmp_path, csv_path, how) -> str:
    """A directory in place of the CSV, or the CSV with one cell's bytes not UTF-8."""
    if how == "directory":
        (tmp_path / "notes_dir").mkdir()
        return str(tmp_path / "notes_dir")
    Path(csv_path).write_bytes(Path(csv_path).read_bytes().replace(b"fever", b"\xff\xfe"))
    return csv_path


class TestIngest:
    def write_fixture(self, tmp_path, rows, **schema_changes) -> tuple[str, str]:
        return write_ingest_fixture(tmp_path, rows, {**SCHEMA, **schema_changes})

    def test_round_trip(self, tmp_path, capsys):
        csv_path, schema_path = self.write_fixture(tmp_path, INGEST_ROWS)
        rc = main(["ingest", "--input", csv_path, "--schema", schema_path])
        assert rc == 0
        assert "ingested 2 notes (0 rows skipped)" in capsys.readouterr().out
        records = [vars(n) for n in ingest_csv(csv_path, CsvSchema(**SCHEMA)).notes]
        assert [r["note_id"] for r in records] == ["n1", "n2"]
        assert records[0]["los_days"] == 3.5
        assert records[1]["los_days"] is None
        blank = {k: "" for k in SECTION_ORDER}
        assert records == [
            {"los_days": 3.5, "mortality_label": 1, "note_id": "n1",
             "sections": {**blank, "CC": "chest pain", "PI": "two days"}},
            {"los_days": None, "mortality_label": 0, "note_id": "n2",
             "sections": {**blank, "CC": "fever", "MH": "copd"}},
        ]

    def test_missing_schema_file(self, tmp_path, capsys):
        rc = main([
            "ingest", "--input", "whatever.csv",
            "--schema", str(tmp_path / "absent.json"),
        ])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"section_columns": {k: i for i, k in enumerate(SECTION_ORDER)}},
        {"section_columns": 5},
        {"mortality_column": 3},
        {"id_column": None},
        {"label_column": "died"},
    ])
    def test_schema_is_checked_like_a_csv_config(self, tmp_path, capsys, change):
        csv_path, schema_path = self.write_fixture(tmp_path, [INGEST_ROWS[0]], **change)
        rc = main(["ingest", "--input", csv_path, "--schema", schema_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, unreadable):
        csv_path, schema_path = self.write_fixture(tmp_path, INGEST_ROWS)
        bad = make_unreadable(tmp_path, csv_path, unreadable)
        rc = main(["ingest", "--input", bad, "--schema", schema_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err and "Traceback" not in err

    def test_missing_column_and_skipped_rows_are_reported_once(self, tmp_path):
        # its own process, so a library warning would reach logging's
        # last-resort stderr handler as well as the command's own print
        rows = INGEST_ROWS + [["n3", "text", "", "", "", "", "", "", "", "2", ""]]
        columns = {**SCHEMA["section_columns"], "FH": "family_history"}
        csv_path, schema_path = self.write_fixture(tmp_path, rows, section_columns=columns)
        result = subprocess.run(
            [sys.executable, "-m", "chunkfuse.cli", "ingest",
             "--input", csv_path, "--schema", schema_path],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert (result.stdout + result.stderr).count("family_history") == 1
        assert result.stdout == (
            "warning: missing columns ['family_history']\n"
            "ingested 2 notes (1 rows skipped)\n"
        )

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        csv_path, _ = self.write_fixture(tmp_path, INGEST_ROWS)
        Path(csv_path).write_bytes(b"\xef\xbb\xbf" + Path(csv_path).read_bytes())
        notes = ingest_csv(csv_path, CsvSchema(**SCHEMA)).notes
        assert [n.note_id for n in notes] == ["n1", "n2"]

    def test_cell_past_csvs_default_field_limit_is_kept_whole(self, tmp_path):
        words = " ".join(f"w{i}" for i in range(30_000))
        assert len(words) > 131_072  # csv.field_size_limit()'s default
        rows = [[INGEST_ROWS[0][0], words, *INGEST_ROWS[0][2:]], INGEST_ROWS[1]]
        csv_path, _ = self.write_fixture(tmp_path, rows)
        first, _ = ingest_csv(csv_path, CsvSchema(**SCHEMA)).notes
        assert first.sections[SECTION_ORDER[0]] == words

    def test_all_rows_skipped_is_data_error(self, tmp_path, capsys):
        csv_path, schema_path = self.write_fixture(tmp_path, [
            ["n1", "text", "", "", "", "", "", "", "", "2", ""],
        ])
        rc = main(["ingest", "--input", csv_path, "--schema", schema_path])
        assert rc == 2
        assert "no usable notes" in capsys.readouterr().err


class TestCompare:
    def test_end_to_end_prints_table_and_writes_artifacts(self, tmp_path, capsys):
        config = base_config(tmp_path)
        rc = main(["compare", "--config", config])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| Baseline | mock-a | yes | 50.00 |" in out
        assert "| Ensemble + Aggregation | mock-a + mock-b | yes | 50.00 |" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["rows"]) == 6

    def test_dotted_overrides_reach_the_config(self, tmp_path):
        config = base_config(tmp_path)
        rc = main([
            "compare", "--config", config,
            "--seed", "9", "--data.num_docs", "30", "--chunking.overlap=0",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 9
        assert report["sizes"] == {"train": 21, "validation": 3, "test": 6}
        assert all(row["with_overlap"] is False for row in report["rows"])

    def test_dotted_overrides_index_into_lists(self, tmp_path):
        override = ["--scorers.0.metadata.pattern", "sig0"]
        config = cli.load_config(OVERLAP_CONFIG, override)
        assert config.scorers[0].metadata == {"pattern": "sig0"}
        out = tmp_path / "out"
        argv = ["compare", "--config", OVERLAP_CONFIG, "--data.num_docs", "60",
                "--output_dir", str(out), *override]
        assert main(argv) == 0
        (row,) = json.loads((out / "report.json").read_text())["rows"]
        assert row["scorers"] == ["pattern"] and row["error"] is None

    @pytest.mark.parametrize("path, message", [
        ("scorers.5.kind", "no item '5' in a list of 1"),
        ("scorers.x.kind", "no item 'x' in a list of 1"),
        ("seed.x", "'seed' is not an object or a list"),
    ])
    def test_override_past_a_list_or_a_value_exits_1(self, tmp_path, capsys, path, message):
        rc = main(["compare", "--config", OVERLAP_CONFIG, f"--{path}", "mock"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: cannot override {path}: {message}\n"

    def test_failed_scorer_is_reported_once_in_its_row(self, tmp_path, capsys, caplog):
        caplog.set_level(logging.DEBUG)
        out = tmp_path / "out"
        rc = main([
            "compare", "--config", OVERLAP_CONFIG, "--data.num_docs", "60",
            "--output_dir", str(out),
            '--scorers=[{"scorer_id":"p","kind":"pattern","metadata":{"pattern":"zzzz"}}]',
        ])
        assert rc == 1
        assert [r.getMessage() for r in caplog.records if "zzzz" in r.getMessage()] == []
        assert "zzzz" not in capsys.readouterr().err
        (row,) = json.loads((out / "report.json").read_text())["rows"]
        assert row["error"] == "scorer p: pattern scorer p: tokens ['zzzz'] are not in the vocabulary"

    def test_pattern_longer_than_a_window_gives_config_error_rows(self, tmp_path):
        # the 60-token signal fits a window of 60 but never one of 59
        argv = ["compare", "--config", OVERLAP_CONFIG, "--data.num_docs", "60",
                "--chunking.overlap", "0"]
        assert main([*argv, "--chunking.capacity", "60",
                     "--output_dir", str(tmp_path / "fits")]) == 0
        out = tmp_path / "out"
        assert main([*argv, "--chunking.capacity", "59", "--output_dir", str(out)]) == 1
        (row,) = json.loads((out / "report.json").read_text())["rows"]
        assert row["macro_auroc"] is None
        assert row["error"] == ("scorer pattern: pattern scorer pattern: its 60 tokens"
                                " cannot fit in a window of capacity 59")

    def test_trains_linear_scorer_and_saves_checkpoint(self, tmp_path):
        config = base_config(
            tmp_path,
            data={"kind": "synthetic", "num_docs": 80, "min_tokens": 80,
                  "max_tokens": 160},
            scorers=[{"scorer_id": "lin", "kind": "linear"}],
            methods=["baseline", "aggregation"],
            # 48 windows at batch_size 18: 9 micro-batches, 3 optimizer steps
            trainer={"max_epochs": 3, "accumulation_steps": 3},
            split_ratios=[0.6, 0.2, 0.2],
            vocab_size=600,
            seed=5,
        )
        assert main(["compare", "--config", config]) == 0
        trained = tmp_path / "out"
        report = json.loads((trained / "report.json").read_text())
        assert report["sizes"] == {"train": 48, "validation": 16, "test": 16}
        assert [row["error"] for row in report["rows"]] == [None, None]
        checkpoint = trained / "scorer_lin.ckpt.json"
        assert checkpoint.exists()
        # the saved scorer, reloaded by a second run, gives the same rows
        reloaded = tmp_path / "reloaded"
        assert main(["compare", "--config", config, "--output_dir", str(reloaded),
                     "--scorers.0.metadata.checkpoint", str(checkpoint)]) == 0
        assert not (reloaded / "scorer_lin.ckpt.json").exists()
        assert (reloaded / "report.json").read_bytes() == (trained / "report.json").read_bytes()

    def test_empty_checkpoint_path_exits_1_before_training(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["compare", "--config", COMPARE_CONFIG, "--output_dir", str(out),
                   "--scorers.0.metadata.checkpoint", '""'])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: scorer lin-a: metadata.checkpoint is an empty path\n"
        )
        assert not (out / "scorer_lin-a.ckpt.json").exists()

    def test_scorer_failure_propagates_exit_code(self, tmp_path, capsys):
        config = base_config(tmp_path, scorers=[
            {"scorer_id": "mock-a", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
            {"scorer_id": "dead", "kind": "remote",
             "metadata": {"endpoint": "http://127.0.0.1:9"}},
        ], methods=["baseline"])
        rc = main(["compare", "--config", config])
        assert rc == 3
        assert "error:" in capsys.readouterr().out

    @pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
    def test_unreadable_csv_data_path_exits_2(self, tmp_path, capsys, unreadable):
        csv_path, _ = write_ingest_fixture(tmp_path, INGEST_ROWS, SCHEMA)
        bad = make_unreadable(tmp_path, csv_path, unreadable)
        config = base_config(tmp_path, data={"kind": "csv", "path": bad, "schema": SCHEMA})
        rc = main(["compare", "--config", config])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err and "Traceback" not in err

    def test_degenerate_labels_exit_code(self, tmp_path):
        config = base_config(
            tmp_path,
            data={"kind": "synthetic", "num_docs": 40, "min_tokens": 80,
                  "max_tokens": 160, "positive_fraction": 0.0},
            scorers=[{"scorer_id": "solo", "kind": "mock",
                      "metadata": {"probs": "0.6,0.4"}}],
            methods=["baseline"],
        )
        assert main(["compare", "--config", config]) == 4

    def test_empty_split_exits_2(self, tmp_path, capsys):
        rc = main(["compare", "--config", base_config(tmp_path), "--data.num_docs", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: the test split is empty")

    def test_vocabulary_without_a_text_token_exits_1(self, tmp_path, capsys):
        rc = main(["compare", "--config", COMPARE_CONFIG, "--vocab_size", "4",
                   "--output_dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: vocab_size must be at least 4 reserved ids plus one")

    def test_trainer_that_would_never_step_gives_config_error_rows(self, tmp_path, capsys):
        # 42 one-window train notes at batch_size 18: 3 micro-batches an epoch,
        # 9 in 3 epochs, fewer than accumulation_steps 10
        out = tmp_path / "out"
        rc = main([
            "compare", "--config", COMPARE_CONFIG, "--data.num_docs", "60",
            "--data.min_tokens", "50", "--data.max_tokens", "80",
            "--trainer.max_epochs", "3", "--output_dir", str(out),
            '--scorers=[{"scorer_id":"lin-a","kind":"linear"}]',
            '--methods=["baseline","aggregation"]',
        ])
        assert rc == 1
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert [row["method"] for row in rows] == ["baseline", "aggregation"]
        for row in rows:
            assert row["macro_auroc"] is None
            assert row["error"].startswith("scorer lin-a: 42 training windows")
            for name in ("batch_size 18", "max_epochs 3", "accumulation_steps 10"):
                assert name in row["error"]
        assert not (out / "scorer_lin-a.ckpt.json").exists()

    def test_one_class_validation_split_exits_2_before_training(self, tmp_path, caplog):
        # 30 notes at these ratios leave one validation note, of class 1
        out = tmp_path / "out"
        rc = main([
            "compare", "--config", COMPARE_CONFIG, "--data.num_docs", "30",
            "--split_ratios", "[0.8, 0.034, 0.166]", "--output_dir", str(out),
        ])
        assert rc == 2
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert len(rows) == 6
        for row in rows:
            assert row["macro_auroc"] is None
            assert re.fullmatch(
                r"scorer lin-[ab]: validation split of 1 note holds only class 1:"
                r" early stopping's macro AUROC needs two classes",
                row["error"],
            )
        assert not list(out.glob("*.ckpt.json"))
        assert "no positives or no negatives" not in caplog.text

    # sha256 of what a reduced compare_synthetic run writes: a change to
    # the trainer's arithmetic, its sum order or its checkpoints shows here
    TRAINED_BYTES = {
        "report.json": "5d243827aaf1123d2de301844ef8901fba91c4f574ac012296df00a0fa512478",
        "scorer_lin-a.ckpt.json":
            "ba1722dc6dca10d0e63d7945e3a69821b031d07827ef7426b5ec0b7d9d149f9a",
        "scorer_lin-b.ckpt.json":
            "90e8286438a1e7113619bdce33d84bd181eb0347dc7329bfe48828a52a6dc4c7",
    }

    def test_trained_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "out"
        argv = ["compare", "--config", COMPARE_CONFIG, "--data.num_docs", "120",
                "--output_dir", str(out)]
        assert main(argv) == 0
        assert {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in self.TRAINED_BYTES
        } == self.TRAINED_BYTES

    def test_task_with_no_labeled_note_exits_2_naming_it(self, tmp_path, capsys):
        rc = main(["compare", "--config", base_config(tmp_path), "--task", "length_of_stay"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: no notes carry a label for the length_of_stay task\n"

    def test_auto_pattern_on_a_csv_source_gives_config_error_rows(self, tmp_path, capsys):
        rows = [[f"n{i}", f"word{i} pain", *[""] * 7, str(i % 2), ""] for i in range(20)]
        csv_path, _ = write_ingest_fixture(tmp_path, rows, SCHEMA)
        config = base_config(
            tmp_path, data={"kind": "csv", "path": csv_path, "schema": SCHEMA},
            methods=["aggregation"], scorers=[
                {"scorer_id": "mock-a", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
                {"scorer_id": "pat", "kind": "pattern", "metadata": {"pattern": "auto"}},
            ],
        )
        assert main(["compare", "--config", config]) == 1
        out = capsys.readouterr().out
        assert "| Aggregation | mock-a | yes | 50.00 |" in out
        assert "| Aggregation | pat | yes | error: scorer pat: pattern 'auto' needs a" \
            " synthetic data source |" in out

    def test_mock_without_probs_gives_config_error_rows(self, tmp_path, capsys):
        config = base_config(tmp_path, methods=["aggregation"], scorers=[
            {"scorer_id": "mock-a", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
            {"scorer_id": "m", "kind": "mock"},
        ])
        assert main(["compare", "--config", config]) == 1
        out = capsys.readouterr().out
        assert "| Aggregation | mock-a | yes | 50.00 |" in out
        assert "| error: scorer m: mock scorer m needs metadata.probs |" in out

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["compare", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["compare", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        {"parallel_rows": True},
        {"fusion": {"aggregation": "mean"}},
        {"seed": "abc"},
        {"split_ratios": [1.0]},
        {"seed": 0.7},
        {"fusion": {"model_weights": [float("inf"), 1.0]}},
        {"chunking": {"cls_id": 7}},
        {"chunking": {"sep_id": 9}},
        {"trainer": {"seed": 5}},
        {"scorers": [
            {"scorer_id": "lin", "kind": "linear", "metadata": {"checkpiont": "a.json"}},
            {"scorer_id": "mock-b", "kind": "mock", "metadata": {"probs": "0.3,0.7"}},
        ]},
    ])
    def test_malformed_config_exits_1(self, tmp_path, capsys, extra):
        rc = main(["compare", "--config", base_config(tmp_path, **extra)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["compare"])
def test_output_dir_under_a_file_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    config = base_config(tmp_path, output_dir=str(blocker / "out"))
    assert main([command, "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory") and "Traceback" not in err


def test_readme_cli_block_lists_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    lines = dict(re.findall(r"^chunkfuse ([\w-]+)(.*)$", block, flags=re.M))
    assert set(lines) == set(subparsers.choices)
    for name, rest in lines.items():
        flags = set(re.findall(r"--[\w-]+", rest))
        assert flags <= set(subparsers.choices[name]._option_string_actions), name


class TestServeMock:
    def test_serves_scores_until_deadline(self, tmp_path):
        endpoint_file = tmp_path / "endpoint.txt"
        result: dict = {}

        def run():
            result["rc"] = main([
                "serve-mock", "--serve-seconds", "3",
                "--endpoint-file", str(endpoint_file),
                "--probs", "0.25,0.75",
            ])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5
        while not endpoint_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        endpoint = endpoint_file.read_text().strip()
        descriptor = ScorerDescriptor("far", ScorerKind.REMOTE, 2, {"endpoint": endpoint})
        scorer = RemoteScorer.connect(descriptor, "mortality")
        vectors = scorer.score_batch([Chunk(start=0, end=1, source=np.array([7], np.int32))])
        assert [round(p, 6) for p in vectors[0]] == [0.25, 0.75]
        thread.join(timeout=10)
        assert result["rc"] == 0

    @pytest.mark.parametrize("flag, value", [
        ("--port", "99999"), ("--port", "-1"), ("--num-classes", "0"),
        ("--num-classes", "1"), ("--max-batch", "0"),
    ])
    def test_bad_flag_exits_1_naming_it(self, capsys, flag, value):
        assert main(["serve-mock", "--serve-seconds", "0", flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} ")

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_serve_seconds_exits_1_naming_it(self, capsys, value):
        assert main(["serve-mock", "--serve-seconds", value]) == 1
        assert capsys.readouterr().err.startswith("error: --serve-seconds ")

    def test_huge_serve_seconds_sleeps_in_hours(self, monkeypatch):
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            raise KeyboardInterrupt  # stops the server as ^C would

        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=time.monotonic,
                                                         sleep=sleep))
        assert main(["serve-mock", "--serve-seconds", "1e12"]) == 0
        assert slept == [3600]

    def test_port_in_use_exits_1(self, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = str(taken.getsockname()[1])
            assert main(["serve-mock", "--serve-seconds", "0", "--port", port]) == 1
        assert capsys.readouterr().err.startswith(f"error: --port {port}: ")

    def test_probs_must_match_class_count(self, capsys):
        for probs in ("0.2,0.3,0.5", "a,b"):  # too wide, not numbers
            rc = main(["serve-mock", "--probs", probs])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: --probs")


# A compare config that runs in well under a second: a mock and a pattern
# scorer (no training) over a tiny corpus.
FUZZ_CONFIG = {
    "task": "mortality",
    "data": {"kind": "synthetic", "num_docs": 20, "min_tokens": 20, "max_tokens": 40,
             "signal_length": 3},
    "scorers": [
        {"scorer_id": "mock", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
        {"scorer_id": "pattern", "kind": "pattern", "metadata": {"pattern": "auto"}},
    ],
    "methods": ["baseline", "ensemble", "aggregation", "ensemble_aggregation"],
    "output_dir": "out",
    "chunking": {"capacity": 16, "overlap": 4},
    "fusion": {"model_weights": [0.5, 0.5]},
    "trainer": {"max_epochs": 2},
    "split_ratios": [0.5, 0.2, 0.3],
    "vocab_size": 60,
    "seed": 0,
}


def dotted_paths(node, prefix="", in_list=False):
    """(path, whether it passes through a list) for every dotted path into
    a JSON document, inner nodes included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    in_list = in_list or isinstance(node, list)
    for key, child in items:
        yield f"{prefix}{key}", in_list
        if isinstance(child, (dict, list)):
            yield from dotted_paths(child, f"{prefix}{key}.", in_list)


# Text has no path separators, so a fuzzed output_dir stays inside the
# working directory; integers are bounded so a fuzzed corpus stays small.
FUZZ_TEXT = st.text(alphabet="abSIG01 ,_-", max_size=6)
FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats() | FUZZ_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(FUZZ_TEXT, inner, max_size=3),
    max_leaves=6,
)
# Paths through a list index into it, so they reach the config too; junk
# keys never name the subcommands' own flags.
_OBJECT_PATHS = sorted(p for p, in_list in dotted_paths(FUZZ_CONFIG) if not in_list)
_LIST_PATHS = sorted(p for p, in_list in dotted_paths(FUZZ_CONFIG) if in_list)
_JUNK_KEYS = FUZZ_TEXT.filter(lambda key: key not in ("", "config", "help"))
# Values of a path's own type, so that most runs get past parsing.
_TYPED_VALUES = {
    int: st.integers(0, 64),
    float: st.floats(0, 1),
    str: st.sampled_from(["auto", "SIG0 Sig1.", "sig1 sig0", "uniform", "boundary",
                          "synthetic", "csv", "mortality", "length_of_stay",
                          "0.2,0.8", "0.5,0.3,0.2", ""]),
    list: st.lists(st.floats(0, 1), min_size=2, max_size=3),
}


def _base_value(path: str):
    node = FUZZ_CONFIG
    for key in path.split("."):
        node = node[key]
    return node


@st.composite
def fuzz_override(draw) -> list[str]:
    """One ``--key value`` or ``--key=value`` override, mostly on real
    paths and mostly with a value of the path's own type."""
    if draw(st.integers(0, 4)) < 4:
        key = draw(st.sampled_from(_OBJECT_PATHS))
        typed = _TYPED_VALUES.get(type(_base_value(key)))
    else:
        key, typed = draw(st.sampled_from(_LIST_PATHS) | _JUNK_KEYS), None
    value = draw(typed if typed is not None and draw(st.integers(0, 3)) < 3 else FUZZ_JSON)
    raw = json.dumps(value)
    return [f"--{key}={raw}"] if draw(st.booleans()) else [f"--{key}", raw]


def assert_fails_closed(rc, capsys):
    out, err = capsys.readouterr()
    assert 0 <= rc <= 4
    if rc:
        assert "error:" in err or "error:" in out, (rc, out, err)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(fuzz_override(), max_size=2))
def test_fuzz_compare_overrides_fail_closed(tmp_path, monkeypatch, capsys, overrides):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(FUZZ_CONFIG))
    argv = ["compare", "--config", "config.json"]
    for override in overrides:
        argv += override
    assert_fails_closed(main(argv), capsys)


def test_fuzz_compare_base_config_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(FUZZ_CONFIG))
    assert main(["compare", "--config", "config.json"]) == 0


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzz_ingest_schema_fails_closed(tmp_path, capsys, data):
    schema = json.loads(json.dumps(SCHEMA))
    paths = sorted(path for path, _ in dotted_paths(schema))
    *parents, last = data.draw(st.sampled_from(paths) | FUZZ_TEXT).split(".")
    node = schema
    for key in parents:
        node = node[key]
    node[last] = data.draw(FUZZ_JSON)
    if data.draw(st.booleans()):
        schema = data.draw(FUZZ_JSON)  # a whole document of any shape
    csv_path, schema_path = write_ingest_fixture(tmp_path, INGEST_ROWS, schema)
    rc = main(["ingest", "--input", csv_path, "--schema", schema_path])
    assert_fails_closed(rc, capsys)


# Cells with separators, quotes, newlines, numbers and labels out of range.
FUZZ_CELLS = st.sampled_from(["", "0", "1", "2", "3.5", "-1", "nan", "x", "chest pain"]) | st.text(
    alphabet='ab01.,"\n\r ', max_size=8
)


@st.composite
def fuzz_csv(draw) -> str:
    """CSV text whose header drops and reorders schema columns and may add
    others, followed by rows of any cell count."""
    columns = ["note_id"] + [k.lower() for k in SECTION_ORDER] + ["died", "los"]
    header = draw(st.lists(st.sampled_from(columns + ["extra"]), unique=True, max_size=14))
    rows = draw(st.lists(
        st.lists(FUZZ_CELLS, max_size=len(header) + 2), max_size=4
    ))
    text = io.StringIO()
    csv.writer(text).writerows([header] + rows)
    return text.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_csv())
def test_fuzz_ingest_csv_fails_closed(tmp_path, capsys, text):
    csv_path = tmp_path / "notes.csv"
    csv_path.write_text(text, newline="")
    try:
        result = ingest_csv(csv_path, CsvSchema(**SCHEMA))
    except ChunkfuseError:
        pass
    else:
        assert all(isinstance(note.note_id, str) for note in result.notes)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(SCHEMA))
    rc = main(["ingest", "--input", str(csv_path), "--schema", str(schema_path)])
    assert_fails_closed(rc, capsys)
    assert rc <= 2


@pytest.mark.parametrize("row, message", [
    (["n3", "chest"], "line 3 has fewer cells than the header"),
    # an unquoted comma in the physical exam shifts the labels one cell right
    (["n3", "", "", "", "", "", "bp 120", " hr 80", "", "", "1", "20"],
     "line 3 has more cells than the header"),
    (["n1", "cough", "", "", "", "", "", "", "", "0", "2"],
     "line 3 repeats note id 'n1' of line 2"),
    (["", "cough", "", "", "", "", "", "", "", "0", "2"], "line 3 has an empty note id"),
    ([" \t", "cough", "", "", "", "", "", "", "", "0", "2"], "line 3 has an empty note id"),
], ids=["short_row", "long_row", "repeated_id", "empty_id", "blank_id"])
def test_short_row_is_data_error_naming_its_line(tmp_path, capsys, row, message):
    # the checker and the pipeline refuse the file alike
    csv_path, schema_path = write_ingest_fixture(tmp_path, [INGEST_ROWS[0], row], SCHEMA)
    config = base_config(tmp_path, data={"kind": "csv", "path": csv_path, "schema": SCHEMA})
    for argv in (["ingest", "--input", csv_path, "--schema", schema_path],
                 ["compare", "--config", config]):
        assert main(argv) == 2
        assert f"{csv_path}: {message}" in capsys.readouterr().err


def test_header_naming_a_column_twice_is_data_error(tmp_path, capsys):
    # csv.DictReader would keep the last "died" cell: n1 would survive
    header = ["note_id"] + [k.lower() for k in SECTION_ORDER] + ["died", "los", "died"]
    csv_path = tmp_path / "notes.csv"
    csv_path.write_text(",".join(header) + "\nn1,a,,,,,,,,1,3,0\n")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(SCHEMA))
    config = base_config(tmp_path, data={"kind": "csv", "path": str(csv_path), "schema": SCHEMA})
    for argv in (["ingest", "--input", str(csv_path), "--schema", str(schema_path)],
                 ["compare", "--config", config]):
        assert main(argv) == 2
        assert f"{csv_path}: header names column 'died' twice" in capsys.readouterr().err
