"""Command-line surface: subcommands, overrides, exit codes."""

import json
import threading
import time
from pathlib import Path

import pytest

from chunkfuse.chunker import Chunk
from chunkfuse.cli import main
from chunkfuse.corpus import SECTION_ORDER
from chunkfuse.remote import RemoteScorer


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

    def test_unknown_flag_on_generate_rejected(self, tmp_path, capsys):
        rc = main([
            "generate", "--num-docs", "4",
            "--output", str(tmp_path / "x.jsonl"), "--window", "7",
        ])
        assert rc == 1
        assert "window" in capsys.readouterr().err


class TestGenerate:
    def test_writes_jsonl_with_exact_positive_count(self, tmp_path, capsys):
        out = tmp_path / "notes.jsonl"
        rc = main([
            "generate", "--num-docs", "12", "--output", str(out),
            "--min-tokens", "30", "--max-tokens", "60", "--seed", "4",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        records = [json.loads(line) for line in lines]
        assert sum(r["mortality_label"] for r in records) == 6
        assert all(set(r["sections"]) == set(SECTION_ORDER) for r in records)
        assert "12 notes (6 positive)" in capsys.readouterr().out

    def test_bad_generator_value_is_config_error(self, tmp_path, capsys):
        rc = main([
            "generate", "--num-docs", "0", "--output", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 1
        assert "num_docs" in capsys.readouterr().err


class TestIngest:
    def write_fixture(self, tmp_path, rows) -> tuple[str, str]:
        header = ["note_id"] + [k.lower() for k in SECTION_ORDER] + ["died", "los"]
        csv_path = tmp_path / "notes.csv"
        csv_path.write_text(
            "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
        )
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({
            "id_column": "note_id",
            "section_columns": {k: k.lower() for k in SECTION_ORDER},
            "mortality_column": "died",
            "los_column": "los",
        }))
        return str(csv_path), str(schema_path)

    def test_round_trip(self, tmp_path, capsys):
        csv_path, schema_path = self.write_fixture(tmp_path, [
            ["n1", "chest pain", "two days", "", "", "", "", "", "", "1", "3.5"],
            ["n2", "fever", "", "copd", "", "", "", "", "", "0", ""],
        ])
        out = tmp_path / "notes.jsonl"
        rc = main([
            "ingest", "--input", csv_path, "--schema", schema_path,
            "--output", str(out),
        ])
        assert rc == 0
        assert "ingested 2 notes (0 rows skipped)" in capsys.readouterr().out
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["note_id"] for r in records] == ["n1", "n2"]
        assert records[0]["los_days"] == 3.5
        assert records[1]["los_days"] is None

    def test_missing_schema_file(self, tmp_path, capsys):
        rc = main([
            "ingest", "--input", "whatever.csv",
            "--schema", str(tmp_path / "absent.json"),
        ])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

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

    def test_scorer_failure_propagates_exit_code(self, tmp_path, capsys):
        config = base_config(tmp_path, scorers=[
            {"scorer_id": "mock-a", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
            {"scorer_id": "dead", "kind": "remote",
             "metadata": {"endpoint": "http://127.0.0.1:9"}},
        ], methods=["baseline"])
        rc = main(["compare", "--config", config])
        assert rc == 3
        assert "error:" in capsys.readouterr().out

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

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["compare", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        {"parallel_rows": True},
        {"fusion": {"aggregation": "mean"}},
        {"seed": "abc"},
        {"split_ratios": [1.0]},
        {"seed": 0.7},
        {"fusion": {"model_weights": [float("inf"), 1.0]}},
    ])
    def test_malformed_config_exits_1(self, tmp_path, capsys, extra):
        rc = main(["compare", "--config", base_config(tmp_path, **extra)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestEvaluate:
    def test_selects_scorer_by_id(self, tmp_path, capsys):
        config = base_config(tmp_path)
        rc = main(["evaluate", "--config", config, "--scorer-id", "mock-b"])
        assert rc == 0
        assert "scorer mock-b: macro AUROC 50.00%" in capsys.readouterr().out

    def test_unknown_scorer_lists_configured(self, tmp_path, capsys):
        config = base_config(tmp_path)
        rc = main(["evaluate", "--config", config, "--scorer-id", "nope"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "mock-a" in err and "mock-b" in err


class TestTrain:
    def test_trains_linear_scorer_and_saves_checkpoint(self, tmp_path, capsys):
        config = base_config(
            tmp_path,
            data={"kind": "synthetic", "num_docs": 80, "min_tokens": 80,
                  "max_tokens": 160},
            scorers=[{"scorer_id": "lin", "kind": "linear"}],
            methods=["aggregation"],
            trainer={"max_epochs": 3},
            split_ratios=[0.6, 0.2, 0.2],
            vocab_size=600,
            seed=5,
        )
        rc = main(["train", "--config", config])
        assert rc == 0
        out = capsys.readouterr().out
        assert "splits: train=48 validation=16 test=16" in out
        assert "scorer lin: ready (linear)" in out
        assert (tmp_path / "out" / "scorer_lin.ckpt.json").exists()

    def test_failed_scorer_sets_exit_code(self, tmp_path, capsys):
        config = base_config(tmp_path, scorers=[
            {"scorer_id": "mock-a", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
            {"scorer_id": "dead", "kind": "remote",
             "metadata": {"endpoint": "http://127.0.0.1:9"}},
        ], methods=["baseline"])
        rc = main(["train", "--config", config])
        assert rc == 3
        out = capsys.readouterr().out
        assert "scorer mock-a: ready (mock)" in out
        assert "scorer dead: FAILED" in out


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
        scorer = RemoteScorer.connect(endpoint, "mortality", 2)
        vectors = scorer.score_batch([Chunk(index=0, start=0, end=1, ids=(2, 7, 3))])
        assert [round(p, 6) for p in vectors[0]] == [0.25, 0.75]
        thread.join(timeout=10)
        assert result["rc"] == 0

    def test_probs_must_match_class_count(self, capsys):
        rc = main(["serve-mock", "--probs", "0.2,0.3,0.5"])
        assert rc == 1
        assert "--probs" in capsys.readouterr().err
