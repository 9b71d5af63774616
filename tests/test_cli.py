"""Command-line surface: subcommands, overrides, exit codes."""

import csv
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chunkfuse import cli
from chunkfuse.chunker import Chunk
from chunkfuse.cli import main
from chunkfuse.corpus import SECTION_ORDER, CsvSchema, ingest_csv
from chunkfuse.errors import ChunkfuseError
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


@pytest.mark.parametrize("command", ["compare", "train"])
def test_output_dir_under_a_file_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    config = base_config(tmp_path, output_dir=str(blocker / "out"))
    assert main([command, "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory") and "Traceback" not in err


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
        vectors = scorer.score_batch([Chunk(start=0, end=1, source=(7,))])
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
# Paths below a list are refused (overrides address objects only); junk
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


def test_short_row_is_data_error_naming_its_line(tmp_path, capsys):
    csv_path, schema_path = write_ingest_fixture(
        tmp_path, [INGEST_ROWS[0], ["n1", "chest"]], SCHEMA
    )
    rc = main(["ingest", "--input", csv_path, "--schema", schema_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{csv_path}: line 3 has fewer cells than the header" in err
