"""The benchmark's tracer (``perfbench/tracer.py``) against today's pipeline.

``perfbench/run.py --trace 1`` wraps pipeline functions by name and reads
some of their arguments and results. A refactor that renames or reshapes
one of them breaks traced runs; this test sees that in the suite. The
tracer module is loaded from its file and used as it is.
"""

import importlib.util
import json
import sys
from pathlib import Path

from chunkfuse.chunker import ChunkingConfig
from chunkfuse.corpus import GeneratorConfig, TaskKind
from chunkfuse.experiment import ExperimentConfig, Method, run_experiment
from chunkfuse.remote import StubScorerServer
from chunkfuse.scoring import ScorerDescriptor, ScorerKind, TrainerConfig

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def id_sum_scores(ids):
    p = (sum(ids) % 89) / 89.0 * 0.8 + 0.1
    return [p, 1.0 - p]


def test_traced_run_matches_plain_run_and_fills_every_layer(tmp_path, capsys):
    tracing = load_tracer()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {metric["name"] for metric in declared["per_layer"]}
    with StubScorerServer(num_classes=2, max_batch=8, score_fn=id_sum_scores) as server:
        def config_of(output_dir, *scorers):
            return ExperimentConfig(
                task=TaskKind.MORTALITY,
                data=GeneratorConfig(num_docs=40, min_tokens=80, max_tokens=160),
                scorers=tuple(
                    ScorerDescriptor(scorer_id=sid, kind=kind, num_classes=2, metadata=meta)
                    for sid, kind, meta in scorers
                ),
                methods=tuple(Method) if len(scorers) > 1 else (Method.BASELINE,),
                output_dir=str(tmp_path / output_dir),
                chunking=ChunkingConfig(capacity=30, overlap=5),
                trainer=TrainerConfig(max_epochs=3),
                seed=4,
            )

        # the checkpoint is trained on the same data, split and vocabulary
        run_experiment(config_of("trained", ("lin", ScorerKind.LINEAR, {})))
        checkpoint = str(tmp_path / "trained" / "scorer_lin.ckpt.json")
        config = config_of(
            "out",
            ("lin", ScorerKind.LINEAR, {}),
            ("ckpt", ScorerKind.LINEAR, {"checkpoint": checkpoint}),
            ("pat", ScorerKind.PATTERN, {"pattern": "auto"}),
            ("far", ScorerKind.REMOTE, {"endpoint": server.endpoint}),
        )
        plain = run_experiment(config)
        plain_requests = len(server.batch_sizes)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_experiment(config)
    assert all(row.error is None for row in plain.rows)
    assert tracing.fidelity_problems(traced, plain) == []
    assert tracer.fusion_problems() == []
    metrics = tracer.metrics(config.chunking)
    assert set(metrics) == per_layer - {"trace.overhead_s"}
    windows = sum(map(len, tracer.results("chunker.chunk_s")))
    assert metrics["chunker.windows"] == windows > 0
    # the tracer computes the request count; the stub saw the requests
    assert metrics["remote.requests"] == len(server.batch_sizes) - plain_requests > 0
    assert metrics["remote.errors"] == 0
    built = tracer.results("scoring.build_s")  # LinearScorer.load and PatternScorer.for_pattern
    assert sorted(s.descriptor.scorer_id for s in built) == ["ckpt", "pat"]
    err = capsys.readouterr().err
    assert "not found" not in err
    assert "public fusion check skipped" not in err
