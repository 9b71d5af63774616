"""Experiment grid: config parsing, row plan, reports, error rows."""

import dataclasses
import json
import math
import re
import tracemalloc
import typing
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chunkfuse.experiment as experiment
import chunkfuse.scoring as scoring
import chunkfuse.tokenizer as tokenizer
import chunkfuse.training as training
from chunkfuse.chunker import ChunkingConfig
from chunkfuse.corpus import (
    SECTION_ORDER,
    CsvSchema,
    GeneratorConfig,
    TaskKind,
    generate_synthetic_corpus,
)
from chunkfuse.errors import (
    ChunkfuseError,
    ConfigError,
    ContractError,
    DataError,
    build_block,
    conforms,
    read_json,
)
from chunkfuse.experiment import (
    ComparisonReport,
    CsvSource,
    ExperimentConfig,
    Method,
    ReportRow,
    _build_scorer,
    _note_probs,
    _prepare_data,
    emit_report,
    run_experiment,
)
from chunkfuse.fusion import FusionSpec, PredictionMatrix, ensemble_fuse, weighted_fuse
from chunkfuse.metrics import RocReport, macro_auroc
from chunkfuse.scoring import (
    ProbabilityVector,
    ScorerDescriptor,
    ScorerKind,
    TrainerConfig,
)
from chunkfuse.seeds import child_seed


def mock_descriptor(scorer_id: str, probs: str, num_classes: int = 2) -> ScorerDescriptor:
    return ScorerDescriptor(
        scorer_id=scorer_id,
        kind=ScorerKind.MOCK,
        num_classes=num_classes,
        metadata={"probs": probs},
    )


def vocab_of(config: ExperimentConfig):
    """The vocabulary a run of ``config`` builds."""
    return _prepare_data(config)[0].vocab


def small_config(tmp_path, **overrides) -> ExperimentConfig:
    defaults = dict(
        task=TaskKind.MORTALITY,
        data=GeneratorConfig(num_docs=40, min_tokens=80, max_tokens=160),
        scorers=(
            mock_descriptor("mock-a", "0.6,0.4"),
            mock_descriptor("mock-b", "0.3,0.7"),
        ),
        methods=tuple(Method),
        output_dir=str(tmp_path / "out"),
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigInvariants:
    def test_requires_at_least_one_method(self, tmp_path):
        with pytest.raises(ConfigError, match="method"):
            small_config(tmp_path, methods=())

    def test_requires_at_least_one_scorer(self, tmp_path):
        with pytest.raises(ConfigError, match="scorer"):
            small_config(tmp_path, scorers=(), methods=(Method.BASELINE,))

    def test_rejects_duplicate_scorer_ids(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            small_config(
                tmp_path,
                scorers=(
                    mock_descriptor("same", "0.6,0.4"),
                    mock_descriptor("same", "0.3,0.7"),
                ),
            )

    def test_ensemble_methods_need_two_scorers(self, tmp_path):
        with pytest.raises(ConfigError, match="at least 2"):
            small_config(
                tmp_path,
                scorers=(mock_descriptor("solo", "0.6,0.4"),),
                methods=(Method.ENSEMBLE,),
            )

    def test_single_scorer_fine_without_ensemble_methods(self, tmp_path):
        config = small_config(
            tmp_path,
            scorers=(mock_descriptor("solo", "0.6,0.4"),),
            methods=(Method.BASELINE, Method.AGGREGATION),
        )
        assert config.fusion.model_weights == (1.0,)

    def test_scorer_class_count_must_match_task(self, tmp_path):
        with pytest.raises(ConfigError, match="class counts"):
            small_config(
                tmp_path,
                scorers=(
                    mock_descriptor("bad", "0.25,0.25,0.25,0.25", num_classes=4),
                    mock_descriptor("ok", "0.3,0.7"),
                ),
            )

    def test_fusion_weight_count_must_match_scorers(self, tmp_path):
        with pytest.raises(ConfigError, match="fusion weights"):
            small_config(tmp_path, fusion=FusionSpec(model_weights=(0.2, 0.3, 0.5)))

    @pytest.mark.parametrize("change, message", [
        ({"split_ratios": (0.5, 0.3, 0.3)}, "split_ratios must sum to 1"),
        ({"split_ratios": (1.2, -0.1, -0.1)}, "split_ratios must be non-negative"),
        ({"vocab_size": 3}, "vocab_size must be at least 4"),
        ({"vocab_size": 4}, "plus one text token, got 4"),
    ])
    def test_bad_split_ratios_or_vocab_size_refused_before_any_work(
        self, tmp_path, monkeypatch, change, message
    ):
        def no_corpus(*args):
            raise AssertionError("the corpus was generated")

        monkeypatch.setattr(experiment, "generate_synthetic_corpus", no_corpus)
        with pytest.raises(ConfigError, match=message):
            run_experiment(small_config(tmp_path, **change))

    def test_default_fusion_is_uniform_and_tracks_overlap(self, tmp_path):
        config = small_config(tmp_path, chunking=ChunkingConfig(overlap=0))
        assert config.fusion == FusionSpec(model_weights=(0.5, 0.5))
        report = run_experiment(config)
        assert all(row.with_overlap is False for row in report.rows)


class TestConfigFromJson:
    def base_doc(self, tmp_path) -> dict:
        return {
            "task": "mortality",
            "data": {"kind": "synthetic", "num_docs": 40},
            "scorers": [
                {"scorer_id": "m1", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
                {"scorer_id": "m2", "kind": "mock", "metadata": {"probs": "0.3,0.7"}},
            ],
            "methods": ["baseline", "aggregation"],
            "output_dir": str(tmp_path / "out"),
            "seed": 11,
        }

    def test_happy_path(self, tmp_path):
        config = ExperimentConfig.from_json_dict(self.base_doc(tmp_path))
        assert config.task.num_classes == 2
        assert isinstance(config.data, GeneratorConfig)
        assert config.data.num_docs == 40
        assert config.methods == (Method.BASELINE, Method.AGGREGATION)
        assert config.seed == 11
        assert config.scorers[0].num_classes == 2

    def test_a_stated_scorer_class_count_meets_the_task_check(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["scorers"][1]["num_classes"] = 7
        with pytest.raises(ConfigError, match="scorer class counts must match the task") as exc:
            ExperimentConfig.from_json_dict(doc)
        assert exc.value.exit_code == 1

    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["chunk_overlap"] = 50
        with pytest.raises(ConfigError, match="chunk_overlap"):
            ExperimentConfig.from_json_dict(doc)

    def test_missing_required_key_rejected(self, tmp_path):
        doc = self.base_doc(tmp_path)
        del doc["methods"]
        with pytest.raises(ConfigError, match="methods"):
            ExperimentConfig.from_json_dict(doc)

    def test_unknown_task_rejected(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["task"] = "readmission"
        with pytest.raises(ConfigError, match="readmission"):
            ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("task", [["mortality"], None, 3, {"task": "mortality"}])
    def test_non_string_task_rejected(self, tmp_path, task):
        doc = self.base_doc(tmp_path)
        doc["task"] = task
        with pytest.raises(ConfigError, match="unknown task .*use one of") as raised:
            ExperimentConfig.from_json_dict(doc)
        assert raised.value.exit_code == 1

    def test_unknown_method_rejected(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["methods"] = ["baseline", "stacking"]
        with pytest.raises(ConfigError, match="stacking"):
            ExperimentConfig.from_json_dict(doc)

    def test_unknown_scorer_kind_rejected(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["scorers"][0]["kind"] = "transformer"
        with pytest.raises(ConfigError, match="transformer"):
            ExperimentConfig.from_json_dict(doc)

    def test_bad_generator_field_rejected(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["data"]["window"] = 99
        with pytest.raises(ConfigError, match="data"):
            ExperimentConfig.from_json_dict(doc)

    def test_csv_source_needs_path_and_schema(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["data"] = {"kind": "csv", "path": "notes.csv"}
        with pytest.raises(ConfigError, match="schema"):
            ExperimentConfig.from_json_dict(doc)

    def test_bad_data_kind_rejected(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["data"] = {"kind": "parquet"}
        with pytest.raises(ConfigError, match="parquet"):
            ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("data", [["kind", "synthetic"]]),
        ("scorers", ["m1"]),
        ("scorers", [{"scorer_id": "m1", "kind": "mock", "metadata": "0.6,0.4"}]),
        ("vocab_size", "abc"),
        ("seed", "abc"),
        ("methods", 5),
        ("fusion", {"aggregation": "bogus"}),
        ("fusion", {"model_weights": [0.5, 0.5], "with_overlap": False}),
        ("parallel_rows", True),
        ("split_ratios", [1.0]),
        ("split_ratios", ["a", "b", "c"]),
        ("scorers", [{"scorer_id": "m1", "kind": "mock", "metadata": {"probs": 0.6}}]),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, key, value):
        doc = self.base_doc(tmp_path)
        doc[key] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("path, value", [
        ("chunking.capacity", 30.5),
        ("chunking.overlap", 2.5),
        ("data.num_docs", 40.5),
        ("trainer.max_epochs", 2.5),
        ("trainer.batch_size", 4.5),
        ("trainer.learning_rate", math.nan),
        ("scorers.0.scorer_id", 5),
        ("split_ratios", [math.nan, 0.5, 0.5]),
        ("vocab_size", 99.9),
        ("vocab_size", True),
        ("seed", 0.7),
        ("fusion.model_weights", [math.nan, 1]),
        ("fusion.model_weights", [math.inf, 1]),
        ("fusion.model_weights", [1e308, 1e308]),  # finite, but the sum is not
    ])
    def test_bad_number_is_config_error(self, tmp_path, path, value):
        doc = self.base_doc(tmp_path)
        doc["chunking"], doc["trainer"] = {}, {}
        doc["fusion"] = {"model_weights": [1, 1]}
        replace_at(doc, path, value)
        with pytest.raises(ChunkfuseError) as err:
            ExperimentConfig.from_json_dict(doc)
        assert err.value.exit_code == 1

    @pytest.mark.parametrize("kind, key", [
        ("linear", "checkpoint"), ("pattern", "pattern"),
        ("remote", "endpoint"), ("mock", "probs"),
    ])
    def test_scorer_metadata_holds_only_the_key_its_kind_reads(self, tmp_path, kind, key):
        doc = self.base_doc(tmp_path)
        doc["methods"] = ["aggregation"]
        doc["scorers"] = [{"scorer_id": "s", "kind": kind, "metadata": {key: "x"}}]
        assert ExperimentConfig.from_json_dict(doc).scorers[0].metadata == {key: "x"}
        doc["scorers"][0]["metadata"]["checkpiont"] = "x"
        with pytest.raises(ConfigError, match="checkpiont"):
            ExperimentConfig.from_json_dict(doc)

    def test_trainer_block_round_trips(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["trainer"] = {"learning_rate": 0.05, "max_epochs": 7}
        config = ExperimentConfig.from_json_dict(doc)
        assert config.trainer.learning_rate == 0.05
        assert config.trainer.max_epochs == 7


def replace_at(doc, path: str, value):
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    for key in parents:
        doc = doc[key]
    doc[last] = value


FULL_DOCS = [
    {
        "task": "mortality",
        "data": {
            "kind": "synthetic", "num_docs": 40, "min_tokens": 80, "max_tokens": 160,
            "signal_length": 12, "positive_fraction": 0.5, "placement": "boundary",
            "boundary_period": 50, "straddle_prob": 0.5, "filler_vocab_size": 400,
        },
        "scorers": [
            {"scorer_id": "m1", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
            {"scorer_id": "lin", "kind": "linear", "metadata": {}},
        ],
        "methods": ["baseline", "ensemble_aggregation"],
        "output_dir": "out",
        "chunking": {"capacity": 510, "overlap": 50},
        "fusion": {"model_weights": [0.3, 0.7]},
        "trainer": {
            "learning_rate": 0.01, "weight_decay": 0.01, "max_epochs": 3,
            "early_stop_delta": 0.0001, "early_stop_patience": 3,
            "accumulation_steps": 2, "warmup_steps": 5, "batch_size": 8,
        },
        "split_ratios": [0.7, 0.1, 0.2],
        "vocab_size": 600,
        "seed": 0,
    },
    {
        "task": "length_of_stay",
        "data": {
            "kind": "csv", "path": "notes.csv",
            "schema": {
                "id_column": "id",
                "section_columns": {k: k.lower() for k in SECTION_ORDER},
                "mortality_column": None, "los_column": "los",
            },
        },
        "scorers": [{"scorer_id": "m1", "kind": "mock"}],
        "methods": ["aggregation"],
        "output_dir": "out",
    },
]


def paths_of(node, prefix=""):
    """Every dotted path into a JSON document, inner nodes included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        path = f"{prefix}{key}"
        yield path
        if isinstance(child, (dict, list)):
            yield from paths_of(child, path + ".")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def assert_numbers_sound(block):
    """Int fields hold ints (not bools) and float fields finite numbers,
    recursively through nested config blocks."""
    if isinstance(block, (list, tuple)):
        for item in block:
            assert_numbers_sound(item)
        return
    if not dataclasses.is_dataclass(block):
        return
    hints = typing.get_type_hints(type(block))
    for f in dataclasses.fields(block):
        value, hint = getattr(block, f.name), hints[f.name]
        if hint is int:
            assert type(value) is int, (f.name, value)
        elif hint is float or hint == tuple[float, ...]:
            for x in value if isinstance(value, tuple) else (value,):
                assert type(x) in (int, float) and math.isfinite(x), (f.name, value)
        else:
            assert_numbers_sound(value)


@pytest.mark.parametrize("doc", FULL_DOCS)
def test_fuzz_base_documents_parse(doc):
    assert_numbers_sound(ExperimentConfig.from_json_dict(json.loads(json.dumps(doc))))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_fields_fail_closed(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(FULL_DOCS))))
    path = data.draw(st.sampled_from(list(paths_of(doc))))
    replace_at(doc, path, data.draw(JSON_VALUES))
    try:
        config = ExperimentConfig.from_json_dict(doc)
    except ChunkfuseError:
        return
    assert_numbers_sound(config)


SCHEMA = CsvSchema(id_column="id", section_columns={k: k for k in SECTION_ORDER})
SCORER = ScorerDescriptor(scorer_id="s", kind=ScorerKind.MOCK, num_classes=2)
# Each config block with the fewest valid arguments it takes.
BLOCKS = {
    ChunkingConfig: {},
    GeneratorConfig: {"num_docs": 5},
    CsvSchema: {"id_column": "id", "section_columns": SCHEMA.section_columns},
    CsvSource: {"path": "notes.csv", "schema": SCHEMA},
    ScorerDescriptor: {"scorer_id": "s", "kind": ScorerKind.MOCK, "num_classes": 2},
    TrainerConfig: {},
    FusionSpec: {"model_weights": (1.0,)},
    ExperimentConfig: {
        "task": TaskKind.MORTALITY, "data": GeneratorConfig(num_docs=5),
        "scorers": (SCORER,), "methods": (Method.BASELINE,), "output_dir": "out",
    },
}
ODD_VALUES = st.sampled_from([
    2.5, math.nan, True, None, "5", "mortality", b"5", [1], (1,), ("a",), (1.0, 2.0, 3.0),
    {"probs": 1}, {"k": "v"}, TaskKind.MORTALITY, ScorerKind.MOCK, SCORER, SCHEMA,
    ChunkingConfig(), object(),
])


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.__name__)
def test_blocks_take_their_minimal_arguments(block):
    block(**BLOCKS[block])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_python_built_block_refuses_a_wrongly_typed_field(data):
    block = data.draw(st.sampled_from(list(BLOCKS)))
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(block)]))
    value = data.draw(ODD_VALUES)
    assume(not conforms(typing.get_type_hints(block)[name], value))
    with pytest.raises(ConfigError, match=f"^{name} must be a valid") as raised:
        block(**{**BLOCKS[block], name: value})
    assert raised.value.exit_code == 1


@pytest.mark.parametrize("block, name, value", [
    (TrainerConfig, "max_epochs", 2.5),
    (GeneratorConfig, "num_docs", "5"),
    (ExperimentConfig, "task", "mortality"),
    (ExperimentConfig, "split_ratios", [0.7, 0.1, 0.2]),
])
def test_python_built_block_type_examples(block, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be a valid"):
        block(**{**BLOCKS[block], name: value})


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).resolve().parents[1] / "configs").iterdir()),
    ids=lambda path: path.name,
)
def test_shipped_config_files_parse(path):
    doc = read_json(path, "config")
    if path.name.startswith("csv_schema"):
        assert isinstance(build_block("schema", CsvSchema, doc), CsvSchema)
    else:
        assert isinstance(ExperimentConfig.from_json_dict(doc), ExperimentConfig)


class TestRunExperiment:
    def test_rows_follow_method_order_with_per_scorer_fanout(self, tmp_path):
        report = run_experiment(small_config(tmp_path))
        plan = [(r.method, r.scorer_ids) for r in report.rows]
        assert plan == [
            (Method.BASELINE, ("mock-a",)),
            (Method.BASELINE, ("mock-b",)),
            (Method.ENSEMBLE, ("mock-a", "mock-b")),
            (Method.AGGREGATION, ("mock-a",)),
            (Method.AGGREGATION, ("mock-b",)),
            (Method.ENSEMBLE_AGGREGATION, ("mock-a", "mock-b")),
        ]

    def test_constant_scorers_sit_at_chance(self, tmp_path):
        report = run_experiment(small_config(tmp_path))
        for row in report.rows:
            assert row.error is None
            assert row.macro_auroc == 0.5

    def test_sizes_and_artifacts(self, tmp_path):
        config = small_config(tmp_path)
        report = run_experiment(config)
        assert report.sizes == {"train": 28, "validation": 4, "test": 8}
        out = Path(config.output_dir)
        assert (out / "report.json").exists()
        assert (out / "report.md").exists()
        assert (out / "roc_class_0.csv").exists()
        assert (out / "roc_class_1.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["rows"]) == 6
        assert "wall_clock" not in json.dumps(doc)

    def test_pattern_scorer_auto_finds_planted_signal(self, tmp_path):
        config = small_config(
            tmp_path,
            data=GeneratorConfig(num_docs=40, min_tokens=600, max_tokens=900),
            scorers=(
                ScorerDescriptor(
                    scorer_id="pattern",
                    kind=ScorerKind.PATTERN,
                    num_classes=2,
                    metadata={"pattern": "auto"},
                ),
            ),
            methods=(Method.AGGREGATION,),
        )
        report = run_experiment(config)
        (row,) = report.rows
        assert row.error is None
        assert row.macro_auroc == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "pattern, vocab_size",
        # 8: room for 4 filler words only
        [("zzzqqq zzzqqq", 5000), ("SIG0 zzzqqq.", 5000), ("auto", 8)],
    )
    def test_pattern_outside_vocabulary_yields_error_rows(self, tmp_path, pattern, vocab_size):
        config = small_config(
            tmp_path,
            scorers=(
                mock_descriptor("mock-a", "0.6,0.4"),
                ScorerDescriptor(
                    scorer_id="pat",
                    kind=ScorerKind.PATTERN,
                    num_classes=2,
                    metadata={"pattern": pattern},
                ),
            ),
            methods=(Method.AGGREGATION,),
            vocab_size=vocab_size,
        )
        mock_row, pattern_row = run_experiment(config).rows
        assert mock_row.error is None
        assert pattern_row.macro_auroc is None and pattern_row.error_code == 1
        assert "not in the vocabulary" in pattern_row.error

    def test_pattern_tokens_are_normalized_like_note_text(self, tmp_path):
        config = small_config(
            tmp_path,
            data=GeneratorConfig(num_docs=40, min_tokens=600, max_tokens=900),
            scorers=tuple(
                ScorerDescriptor(
                    scorer_id=sid, kind=ScorerKind.PATTERN, num_classes=2,
                    metadata={"pattern": pattern},
                )
                for sid, pattern in (("plain", "sig0 sig1 sig2"), ("as-written", "SIG0 Sig1, sig2."))
            ),
            methods=(Method.AGGREGATION,),
        )
        plain, written = run_experiment(config).rows
        assert plain.error is None and written.error is None
        assert written.macro_auroc == plain.macro_auroc == pytest.approx(1.0)

    @pytest.mark.parametrize("num_docs, ratios, empty", [
        (1, (0.7, 0.1, 0.2), "test"),
        (40, (1.0, 0.0, 0.0), "test"),
        (40, (0.0, 0.0, 1.0), "train"),
    ])
    def test_empty_split_is_data_error(self, tmp_path, num_docs, ratios, empty):
        config = small_config(
            tmp_path,
            data=GeneratorConfig(num_docs=num_docs, min_tokens=80, max_tokens=160),
            split_ratios=ratios,
        )
        message = f"the {empty} split is empty: {num_docs} labeled notes split by ratios {list(ratios)}"
        with pytest.raises(DataError, match=re.escape(message)) as err:
            run_experiment(config)
        assert err.value.exit_code == 2

    def test_unreachable_remote_scorer_yields_error_rows_only(self, tmp_path):
        self.check_remote_error_rows(tmp_path, "http://127.0.0.1:9", code=3)

    @pytest.mark.parametrize("endpoint", [
        "127.0.0.1:9", "abc", "", "http://127.0.0.1:abc", "http://127.0.0.1:99999", "http://",
        "http://127.0.0.1:1/a b", "http://127.0.0.1:1/a\x01b",
    ])
    def test_endpoint_without_scheme_yields_config_error_rows(self, tmp_path, endpoint):
        self.check_remote_error_rows(tmp_path, endpoint, code=1)

    def check_remote_error_rows(self, tmp_path, endpoint, code):
        config = small_config(
            tmp_path,
            scorers=(
                mock_descriptor("mock-a", "0.6,0.4"),
                ScorerDescriptor(
                    scorer_id="dead",
                    kind=ScorerKind.REMOTE,
                    num_classes=2,
                    metadata={"endpoint": endpoint},
                ),
            ),
            methods=(Method.BASELINE, Method.ENSEMBLE_AGGREGATION),
        )
        report = run_experiment(config)
        by_key = {(r.method, r.scorer_ids): r for r in report.rows}
        good = by_key[(Method.BASELINE, ("mock-a",))]
        assert good.error is None and good.macro_auroc == pytest.approx(0.5)
        for key in [
            (Method.BASELINE, ("dead",)),
            (Method.ENSEMBLE_AGGREGATION, ("mock-a", "dead")),
        ]:
            row = by_key[key]
            assert row.macro_auroc is None
            assert "dead" in row.error
            assert row.error_code == code
        assert report.worst_error_code() == code

    @pytest.mark.parametrize("module", [experiment, training])
    def test_a_dropped_last_window_stops_the_run(self, tmp_path, monkeypatch, module):
        # the test split is chunked in experiment, train/validation in training
        real = module.chunk

        def dropping(ids, config):
            windows = real(ids, config)
            return windows[:-1] if len(windows) > 1 else windows

        monkeypatch.setattr(module, "chunk", dropping)
        linear = ScorerDescriptor(scorer_id="lin", kind=ScorerKind.LINEAR, num_classes=2)
        config = small_config(
            tmp_path,
            scorers=(linear,) if module is training else small_config(tmp_path).scorers,
            methods=(Method.BASELINE,),
            chunking=ChunkingConfig(capacity=30, overlap=5),
            trainer=TrainerConfig(max_epochs=1),
        )
        with pytest.raises(ContractError, match="last chunk must end") as raised:
            run_experiment(config)
        assert raised.value.exit_code == 1

    def test_degenerate_test_labels_yield_metric_error_row(self, tmp_path):
        config = small_config(
            tmp_path,
            data=GeneratorConfig(
                num_docs=40, min_tokens=80, max_tokens=160,
                positive_fraction=0.0,
            ),
            scorers=(mock_descriptor("solo", "0.6,0.4"),),
            methods=(Method.BASELINE,),
        )
        report = run_experiment(config)
        (row,) = report.rows
        assert row.macro_auroc is None
        assert row.error_code == 4
        assert (Path(config.output_dir) / "report.json").exists()

    @pytest.mark.parametrize("checkpoint, code", [
        ("{not json", 1),
        ({"num_classes": 2, "vocab_size": 3, "bias": [0.0, 0.0]}, 1),
        ({"num_classes": 2, "vocab_size": 3, "weights": [0.0] * 5,
          "bias": [0.0, 0.0]}, 1),
        # loads fine (every weight is finite), but its logits overflow to
        # inf and its scores come out NaN
        pytest.param(
            {"num_classes": 2, "vocab_size": 5000, "weights": [1e308] * 5000 + [0.0] * 5000,
             "bias": [0.0, 0.0]}, 3,
            marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"),
        ),
        # a non-finite bias is refused where the checkpoint is loaded
        ({"num_classes": 2, "vocab_size": 5000, "weights": [0.0] * 10000,
          "bias": [float("nan"), 0.0]}, 1),
        # a trained scorer's seed is an argument, not a TrainerConfig field
        ({"num_classes": 2, "vocab_size": 5000, "weights": [0.0] * 10000,
          "bias": [0.0, 0.0], "trainer_config": {"seed": 3}}, 1),
    ])
    def test_bad_checkpoint_yields_error_rows_only(self, tmp_path, checkpoint, code):
        path = tmp_path / "lin.ckpt.json"
        config = small_config(
            tmp_path,
            scorers=(
                mock_descriptor("mock-a", "0.6,0.4"),
                ScorerDescriptor(
                    scorer_id="lin",
                    kind=ScorerKind.LINEAR,
                    num_classes=2,
                    metadata={"checkpoint": str(path)},
                ),
            ),
            methods=(Method.BASELINE,),
        )
        if not isinstance(checkpoint, str):
            # bound to this run's vocabulary, so only its own fault shows
            vocab_sha256 = vocab_of(config).sha256()
            checkpoint = json.dumps(dict(checkpoint, vocab_sha256=vocab_sha256))
        path.write_text(checkpoint)
        good, bad = run_experiment(config).rows
        assert good.error is None and good.macro_auroc == pytest.approx(0.5)
        assert bad.macro_auroc is None
        assert bad.error.startswith("scorer lin: ")
        assert bad.error_code == code

    def test_two_class_scorers_are_refused_by_a_four_class_task(self, tmp_path):
        # 40 notes over the four stay bins; every note holds "pain"
        rows = [f"n{i},chest pain day {i % 7},{(1.0, 5.0, 10.0, 20.0)[i % 4]}" for i in range(40)]
        csv_path = tmp_path / "notes.csv"
        csv_path.write_text("\n".join(["id,cc,los", *rows]) + "\n")
        path = tmp_path / "lin.ckpt.json"
        config = small_config(
            tmp_path,
            task=TaskKind.LENGTH_OF_STAY,
            data=CsvSource(path=str(csv_path), schema=CsvSchema(
                id_column="id", section_columns={k: k.lower() for k in SECTION_ORDER},
                los_column="los",
            )),
            scorers=tuple(
                ScorerDescriptor(scorer_id=sid, kind=kind, num_classes=4, metadata=meta)
                for sid, kind, meta in (
                    ("pat", ScorerKind.PATTERN, {"pattern": "pain"}),
                    ("lin", ScorerKind.LINEAR, {"checkpoint": str(path)}),
                    ("mock", ScorerKind.MOCK, {"probs": "0.25,0.25,0.25,0.25"}),
                )
            ),
            methods=(Method.BASELINE, Method.AGGREGATION),
            split_ratios=(0.5, 0.2, 0.3),
        )
        vocab = vocab_of(config)  # the checkpoint is bound to it
        path.write_text(json.dumps({
            "num_classes": 2, "vocab_size": len(vocab), "weights": [0.0] * (2 * len(vocab)),
            "bias": [0.0, 0.0], "vocab_sha256": vocab.sha256(),
        }))
        report = run_experiment(config)
        assert len(report.rows) == 6
        for row in report.rows:
            if row.scorer_ids == ("mock",):
                assert row.error is None and row.macro_auroc == pytest.approx(0.5)
            else:
                assert row.macro_auroc is None and row.error_code == 1
                assert row.error.endswith("gives 2 classes, the task has 4")
        assert report.worst_error_code() == 1

    @pytest.mark.parametrize("probs, message", [
        ("0.2,0.3,0.5", "gives 3 classes, the task has 2"),
        ("a,b", "not numbers"),
    ])
    def test_bad_mock_probs_yield_error_rows_only(self, tmp_path, probs, message):
        config = small_config(
            tmp_path,
            scorers=(mock_descriptor("mock-a", "0.6,0.4"), mock_descriptor("bad", probs)),
        )
        report = run_experiment(config)
        for row in report.rows:
            if "bad" in row.scorer_ids:
                assert row.macro_auroc is None and row.error_code == 1
                assert row.error.startswith("scorer bad: ") and message in row.error
            else:
                assert row.error is None and row.macro_auroc == pytest.approx(0.5)
        assert report.worst_error_code() == 1
        assert (Path(config.output_dir) / "report.json").exists()


def reference_note_probs(method, ids, columns, weights, i):
    """Note i's fused vector through the public fusion functions."""
    last = 1 if method in (Method.BASELINE, Method.ENSEMBLE) else None
    per_model = [
        [ProbabilityVector(tuple(row)) for row in columns[sid][i][:last]] for sid in ids
    ]
    matrix = PredictionMatrix(note_id=f"n{i}", entries=tuple(zip(*per_model)))
    if method is Method.ENSEMBLE_AGGREGATION:
        spec = FusionSpec(model_weights=tuple(weights[sid] for sid in ids))
        return weighted_fuse(matrix, spec).fused.probs
    return ensemble_fuse(matrix).fused.probs


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(2, 5),
    st.lists(st.integers(1, 8), min_size=1, max_size=5),
    st.integers(0, 2**31),
)
def test_note_probs_matches_reference_fusion(
    num_models, num_classes, window_counts, seed
):
    rng = np.random.default_rng(seed)
    ids = [f"s{j}" for j in range(num_models)]
    columns = {
        sid: [rng.dirichlet(np.ones(num_classes), size=k) for k in window_counts]
        for sid in ids
    }
    weights = {sid: float(w) for sid, w in zip(ids, rng.random(num_models) + 0.05)}
    for method in Method:
        fused = method in (Method.ENSEMBLE, Method.ENSEMBLE_AGGREGATION)
        picked = ids if fused else ids[:1]
        got = _note_probs(method, picked, columns, weights)
        assert len(got) == len(window_counts)
        for i, probs in enumerate(got):
            want = reference_note_probs(method, picked, columns, weights, i)
            assert np.abs(np.asarray(probs) - want).max() <= 1e-12, method


def test_aggregation_pools_its_scorer_unweighted_even_at_fusion_weight_zero():
    rng = np.random.default_rng(4)
    counts = [1, 4, 2]
    columns = {sid: [rng.dirichlet(np.ones(3), size=k) for k in counts] for sid in "ab"}
    got = _note_probs(Method.AGGREGATION, ["b"], columns, {"a": 1.0, "b": 0.0})
    assert np.array_equal(got, scoring.pool_windows(np.concatenate(columns["b"]), counts))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TaskKind), st.integers(1, 3), st.data())
def test_constant_scorers_pool_to_exactly_chance(task, num_models, data):
    # A scorer that gives every window the same row must give every note
    # that row, whatever its window count, so no method ranks the notes.
    classes = task.num_classes
    counts = data.draw(st.lists(st.integers(1, 40), min_size=2, max_size=12))
    labels = data.draw(
        st.lists(st.integers(0, classes - 1), min_size=len(counts), max_size=len(counts))
        .filter(lambda y: len(set(y)) > 1)
    )
    unit = st.floats(0.0, 1.0, allow_nan=False)
    ids = [f"s{j}" for j in range(num_models)]
    rows = {sid: data.draw(st.lists(unit, min_size=classes, max_size=classes)) for sid in ids}
    columns = {sid: [np.tile(rows[sid], (k, 1)) for k in counts] for sid in ids}
    weights = {sid: data.draw(st.floats(0.05, 1.0)) for sid in ids}
    for method in Method:
        fused = method in (Method.ENSEMBLE, Method.ENSEMBLE_AGGREGATION)
        probs = _note_probs(method, ids if fused else ids[:1], columns, weights)
        assert macro_auroc(probs, labels, classes).macro_auc == 0.5, method


def test_data_preparation_holds_no_split_text_whole(tmp_path):
    # a pattern-only run trains nothing: only the test split's notes, a
    # fifth of the text, are kept, and each other note lives for its step
    config = small_config(
        tmp_path,
        data=GeneratorConfig(num_docs=400, min_tokens=1000, max_tokens=2000),
        scorers=(ScorerDescriptor("pat", ScorerKind.PATTERN, 2, {"pattern": "auto"}),),
        methods=(Method.AGGREGATION,),
    )
    notes = generate_synthetic_corpus(config.data, child_seed(config.seed, "data"))
    text_bytes = sum(len(note.assembled_text.encode()) for note in notes)
    tracemalloc.start()
    try:
        prepared, train, validation = _prepare_data(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert train is None and validation is None
    assert len(prepared.test_notes) == 80
    assert peak < text_bytes / 2, (peak, text_bytes)


def test_readme_config_table_lists_exactly_the_parsed_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Experiment config", 1)[1].split("\n## ", 1)[0]
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M)) == keys


class TestTrainedScorersEndToEnd:
    def linear_config(self, tmp_path, out: str, **overrides) -> ExperimentConfig:
        defaults = dict(
            task=TaskKind.MORTALITY,
            data=GeneratorConfig(num_docs=80, min_tokens=80, max_tokens=160),
            scorers=(
                ScorerDescriptor(scorer_id="lin", kind=ScorerKind.LINEAR, num_classes=2),
            ),
            methods=(Method.AGGREGATION,),
            output_dir=str(tmp_path / out),
            trainer=TrainerConfig(max_epochs=4),
            split_ratios=(0.6, 0.2, 0.2),
            vocab_size=600,
            seed=5,
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_reruns_are_byte_identical(self, tmp_path):
        first = self.linear_config(tmp_path, "run1")
        second = self.linear_config(tmp_path, "run2")
        run_experiment(first)
        run_experiment(second)
        for name in ("report.json", "scorer_lin.ckpt.json"):
            a = (Path(first.output_dir) / name).read_bytes()
            b = (Path(second.output_dir) / name).read_bytes()
            assert a == b, f"{name} differs between identical reruns"

    def test_checkpoint_reload_reproduces_row(self, tmp_path):
        trained = self.linear_config(tmp_path, "trained")
        report_a = run_experiment(trained)
        checkpoint = str(Path(trained.output_dir) / "scorer_lin.ckpt.json")
        reloaded = self.linear_config(
            tmp_path,
            "reloaded",
            scorers=(
                ScorerDescriptor(
                    scorer_id="lin",
                    kind=ScorerKind.LINEAR,
                    num_classes=2,
                    metadata={"checkpoint": checkpoint},
                ),
            ),
        )
        report_b = run_experiment(reloaded)
        assert report_a.rows[0].macro_auroc == pytest.approx(
            report_b.rows[0].macro_auroc, abs=0
        )

    @pytest.mark.parametrize("vocab_sha256, seed", [
        (..., 6),  # as saved, but the run at seed 6 builds another vocabulary
        (None, 5),  # the run's own vocabulary, but the digest is missing
    ])
    def test_checkpoint_is_bound_to_its_vocabulary(self, tmp_path, vocab_sha256, seed):
        trained = self.linear_config(tmp_path, "trained")
        run_experiment(trained)
        checkpoint = Path(trained.output_dir) / "scorer_lin.ckpt.json"
        doc = json.loads(checkpoint.read_text())
        if vocab_sha256 is None:
            del doc["vocab_sha256"]
        checkpoint.write_text(json.dumps(doc))
        reloaded = self.linear_config(
            tmp_path,
            "reloaded",
            scorers=(
                ScorerDescriptor(
                    scorer_id="lin",
                    kind=ScorerKind.LINEAR,
                    num_classes=2,
                    metadata={"checkpoint": str(checkpoint)},
                ),
            ),
            seed=seed,
        )
        assert len(vocab_of(reloaded)) == len(vocab_of(trained))
        (row,) = run_experiment(reloaded).rows
        assert row.macro_auroc is None and row.error_code == 1
        assert "trained on vocabulary" in row.error

    def test_checkpoint_holds_no_seed_or_id_and_the_derived_seeds_weights(self, tmp_path):
        config = self.linear_config(
            tmp_path, "trained", trainer=TrainerConfig(max_epochs=3, accumulation_steps=1)
        )
        run_experiment(config)
        doc = json.loads((Path(config.output_dir) / "scorer_lin.ckpt.json").read_text())
        assert set(doc) == {"vocab_size", "num_classes", "weights", "bias",
                            "trainer_config", "best_val_auroc", "vocab_sha256"}
        assert set(doc["trainer_config"]) == {f.name for f in dataclasses.fields(TrainerConfig)}
        # The file does not record the seed, so its weights pin the derivation:
        # each trained scorer's seed is the "train:<id>" substream.
        _, train, validation = _prepare_data(config)

        def trained_weights(seed):
            scorer, _ = training.train_linear_scorer(
                train, validation, config.scorers[0], config.trainer, seed
            )
            return scorer.weights

        saved = np.array(doc["weights"]).reshape(2, doc["vocab_size"])
        assert np.array_equal(saved, trained_weights(child_seed(config.seed, "train:lin")))
        assert not np.array_equal(saved, trained_weights(config.seed))

    def test_checkpoint_answers_to_its_configured_id(self, tmp_path):
        trained = self.linear_config(
            tmp_path, "trained",
            scorers=(ScorerDescriptor(scorer_id="lin-a", kind=ScorerKind.LINEAR, num_classes=2),),
        )
        run_experiment(trained)
        checkpoint = Path(trained.output_dir) / "scorer_lin-a.ckpt.json"
        config = self.linear_config(
            tmp_path, "reloaded",
            scorers=(ScorerDescriptor(scorer_id="x", kind=ScorerKind.LINEAR, num_classes=2,
                                      metadata={"checkpoint": str(checkpoint)}),),
        )
        prepared, _, _ = _prepare_data(config)
        scorer = _build_scorer(config.scorers[0], config, prepared.vocab, None, None,
                               prepared.test_ids, tmp_path)
        assert scorer.descriptor.scorer_id == "x"

    def test_training_splits_are_featurized_once(self, tmp_path, monkeypatch):
        calls = Counter()

        def counting(name, featurize):
            def counted(*args):
                calls[name] += 1
                return featurize(*args)
            return counted

        for name, module in (("training", training), ("scoring", scoring)):
            monkeypatch.setattr(
                module, "chunks_to_csr", counting(name, module.chunks_to_csr)
            )
        config = self.linear_config(
            tmp_path,
            "two",
            scorers=tuple(
                ScorerDescriptor(scorer_id=sid, kind=ScorerKind.LINEAR, num_classes=2)
                for sid in ("lin-a", "lin-b")
            ),
        )
        report = run_experiment(config)
        assert all(row.error is None for row in report.rows)
        # train and validation once for both trainers; the test split once
        # per linear scorer
        assert calls == {"training": 2, "scoring": 2}

    def test_each_note_is_normalized_once(self, tmp_path, monkeypatch):
        normalized = Counter()
        normalize = tokenizer.normalize

        def counted(text):
            normalized[text] += 1
            return normalize(text)

        monkeypatch.setattr(tokenizer, "normalize", counted)
        config = self.linear_config(tmp_path, "out")
        report = run_experiment(config)
        assert all(row.error is None for row in report.rows)
        notes = generate_synthetic_corpus(config.data, child_seed(config.seed, "data"))
        # train, validation and test notes alike: once each, and no more
        assert normalized == Counter(note.assembled_text for note in notes)
        assert normalized.total() == config.data.num_docs

    def test_test_windows_span_one_shared_int32_array_per_note(self, tmp_path, monkeypatch):
        score_chunks, batches = experiment.score_chunks, {}

        def captured(scorer, chunks):
            batches[scorer.descriptor.scorer_id] = list(chunks)
            return score_chunks(scorer, chunks)

        monkeypatch.setattr(experiment, "score_chunks", captured)
        config = self.linear_config(
            tmp_path, "out",
            scorers=(
                ScorerDescriptor(scorer_id="lin", kind=ScorerKind.LINEAR, num_classes=2),
                ScorerDescriptor(scorer_id="pat", kind=ScorerKind.PATTERN, num_classes=2),
            ),
            chunking=ChunkingConfig(capacity=30, overlap=5),
        )
        report = run_experiment(config)
        assert all(row.error is None for row in report.rows)
        assert set(batches) == {"lin", "pat"}
        windows = batches["lin"]
        assert all(a is b for a, b in zip(windows, batches["pat"], strict=True))
        # one array per test note, in note order, spanned by all its windows
        sources = list({id(c.source): c.source for c in windows}.values())
        prepared = _prepare_data(config)[0]
        assert len(windows) > len(sources) == len(prepared.test_notes) > 1
        for source, note in zip(sources, prepared.test_notes):
            assert isinstance(source, np.ndarray) and source.dtype == np.int32
            want = tokenizer.tokenize(note.assembled_text, prepared.vocab).ids
            assert source.tolist() == list(want)

    @pytest.mark.parametrize("max_epochs", [
        4,  # trains: 3 micro-batches an epoch, one optimizer step in 4 epochs
        1,  # refused (3 micro-batches for accumulation_steps 10): error rows
    ])
    def test_training_splits_are_freed_before_the_test_split_is_chunked(
        self, tmp_path, monkeypatch, max_epochs
    ):
        build_labeled_chunks, tokenize = experiment.build_labeled_chunks, experiment.tokenize
        splits, alive = [], []

        def watched(*args):
            split = build_labeled_chunks(*args)
            splits.append(weakref.ref(split))
            return split

        def first_test_note_tokenized(*args):
            if not alive:
                alive.append([ref() is not None for ref in splits])
            return tokenize(*args)

        monkeypatch.setattr(experiment, "build_labeled_chunks", watched)
        monkeypatch.setattr(experiment, "tokenize", first_test_note_tokenized)
        config = self.linear_config(tmp_path, "out", trainer=TrainerConfig(max_epochs=max_epochs))
        (row,) = run_experiment(config).rows
        assert (row.error is None) == (max_epochs == 4)
        assert alive == [[False, False]]


def roc_of(value: float) -> RocReport:
    return RocReport(per_class_auc=[value, value], macro_auc=value, roc_points={})


class TestEmitReport:
    def handmade_report(self) -> ComparisonReport:
        rows = (
            ReportRow(Method.BASELINE, ("lin-a",), True, roc=roc_of(0.8123)),
            ReportRow(Method.ENSEMBLE, ("lin-a", "lin-b"), True, roc=roc_of(0.8341)),
            ReportRow(Method.AGGREGATION, ("lin-a",), True, roc=roc_of(0.9007)),
            ReportRow(
                Method.ENSEMBLE_AGGREGATION,
                ("lin-a", "lin-b"),
                True,
                error="scorer lin-b: connection refused",
                error_code=3,
            ),
        )
        return ComparisonReport(
            task="mortality",
            seed=7,
            sizes={"train": 14, "validation": 2, "test": 4},
            rows=rows,
            wall_clock_seconds=1.25,
        )

    def test_markdown_table(self, tmp_path):
        emit_report(self.handmade_report(), tmp_path)
        expected = (
            "| Category | Architecture | Overlap | Macro AUROC (%) |\n"
            "| --- | --- | --- | --- |\n"
            "| Baseline | lin-a | yes | 81.23 |\n"
            "| Ensemble | lin-a + lin-b | yes | 83.41 |\n"
            "| Aggregation | lin-a | yes | 90.07 |\n"
            "| Ensemble + Aggregation | lin-a + lin-b | yes |"
            " error: scorer lin-b: connection refused |\n"
            "\n"
            "task: mortality, seed: 7,"
            " sizes: {'train': 14, 'validation': 2, 'test': 4}\n"
            "wall clock: 1.2 s\n"
        )
        assert (tmp_path / "report.md").read_text() == expected

    def test_json_excludes_wall_clock(self, tmp_path):
        emit_report(self.handmade_report(), tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["seed"] == 7
        assert doc["rows"][0]["macro_auroc"] == 0.8123
        assert doc["rows"][0]["macro_auroc_percent"] == "81.23"
        assert doc["rows"][3]["error"].startswith("scorer lin-b")
        assert "wall_clock_seconds" not in json.dumps(doc)
