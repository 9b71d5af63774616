"""Command-line entry point.

Subcommands: ingest, generate, train, evaluate, compare, serve-mock.

The config-driven commands (train, evaluate, compare) read one JSON
config and accept dotted-path overrides for any field in it, e.g.
``--chunking.overlap 0`` or ``--trainer.max_epochs=5``. Override values
are parsed as JSON, falling back to plain strings, so lists and objects
work too: ``--fusion.model_weights='[0.7, 0.3]'``.

Exit codes: 0 success, 1 config errors, 2 data errors, 3 scorer or
transport errors, 4 undefined metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

from .corpus import CsvSchema, GeneratorConfig, generate_synthetic_corpus, ingest_csv
from .errors import ChunkfuseError, ConfigError, DataError, read_json
from .experiment import (
    ExperimentConfig,
    Method,
    build_scorers,
    prepare_data,
    run_experiment,
)
from .metrics import format_percent
from .remote import StubScorerServer

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Usage mistakes are config errors (exit 1), not argparse's exit 2."""

    def error(self, message: str) -> None:
        raise ConfigError(message)


def _parse_overrides(extras: list[str]) -> dict[str, object]:
    """Turn leftover ``--dotted.path value`` args into an override map."""
    overrides: dict[str, object] = {}
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--") or len(token) == 2:
            raise ConfigError(f"unexpected argument {token!r}")
        body = token[2:]
        if "=" in body:
            key, raw = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(extras):
                raise ConfigError(f"override --{key} needs a value")
            raw = extras[i + 1]
            i += 2
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _apply_overrides(doc: dict, overrides: dict[str, object]) -> dict:
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = doc
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(
                    f"cannot override {dotted}: {part!r} is not an object"
                )
        node[parts[-1]] = value
    return doc


def _load_config(args: argparse.Namespace, extras: list[str]) -> ExperimentConfig:
    doc = read_json(args.config, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return ExperimentConfig.from_json_dict(
        _apply_overrides(doc, _parse_overrides(extras))
    )


def _reject_extras(extras: list[str]) -> None:
    if extras:
        raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")


def _note_record(note) -> dict:
    return {
        "note_id": note.note_id,
        "sections": dict(note.sections),
        "mortality_label": note.mortality_label,
        "los_days": note.los_days,
    }


def _write_jsonl(notes, path: str) -> None:
    try:
        with open(path, "w") as handle:
            for note in notes:
                handle.write(json.dumps(_note_record(note), sort_keys=True) + "\n")
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from err


def cmd_ingest(args: argparse.Namespace, extras: list[str]) -> int:
    _reject_extras(extras)
    schema_doc = read_json(args.schema, "schema")
    try:
        schema = CsvSchema(**schema_doc)
    except TypeError as err:
        raise ConfigError(f"bad schema: {err}") from err
    result = ingest_csv(args.input, schema)
    if result.missing_columns:
        print(f"warning: missing columns {list(result.missing_columns)}")
    if not result.notes:
        raise DataError(f"{args.input} produced no usable notes")
    if args.output:
        _write_jsonl(result.notes, args.output)
    print(
        f"ingested {len(result.notes)} notes"
        f" ({result.skipped_rows} rows skipped)"
    )
    return 0


def cmd_generate(args: argparse.Namespace, extras: list[str]) -> int:
    _reject_extras(extras)
    generator = GeneratorConfig(
        num_docs=args.num_docs,
        min_tokens=args.min_tokens,
        max_tokens=args.max_tokens,
        signal_length=args.signal_length,
        positive_fraction=args.positive_fraction,
        placement=args.placement,
        boundary_period=args.boundary_period,
        straddle_prob=args.straddle_prob,
        filler_vocab_size=args.filler_vocab_size,
    )
    notes = generate_synthetic_corpus(generator, args.seed)
    _write_jsonl(notes, args.output)
    positives = sum(1 for n in notes if n.mortality_label == 1)
    print(f"wrote {len(notes)} notes ({positives} positive) to {args.output}")
    return 0


def cmd_train(args: argparse.Namespace, extras: list[str]) -> int:
    config = _load_config(args, extras)
    prepared = prepare_data(config)
    print(
        f"splits: train={prepared.sizes['train']}"
        f" validation={prepared.sizes['validation']}"
        f" test={prepared.sizes['test']}, vocab={len(prepared.vocab)}"
    )
    scorers, failures = build_scorers(config, prepared)
    for descriptor in config.scorers:
        sid = descriptor.scorer_id
        if sid in failures:
            print(f"scorer {sid}: FAILED ({failures[sid]})")
        else:
            print(f"scorer {sid}: ready ({descriptor.kind.value})")
    return max((err.exit_code for err in failures.values()), default=0)


def cmd_evaluate(args: argparse.Namespace, extras: list[str]) -> int:
    config = _load_config(args, extras)
    wanted = args.scorer_id or config.scorers[0].scorer_id
    matches = [s for s in config.scorers if s.scorer_id == wanted]
    if not matches:
        available = [s.scorer_id for s in config.scorers]
        raise ConfigError(f"no scorer {wanted!r}; configured: {available}")
    config = dataclasses.replace(
        config, scorers=(matches[0],), methods=(Method.AGGREGATION,), fusion=None
    )
    report = run_experiment(config)
    (row,) = report.rows
    if row.error is not None:
        print(f"scorer {wanted}: error: {row.error}")
        return row.error_code or 1
    print(f"scorer {wanted}: macro AUROC {format_percent(row.macro_auroc)}%")
    print(f"artifacts in {config.output_dir}")
    return 0


def cmd_compare(args: argparse.Namespace, extras: list[str]) -> int:
    config = _load_config(args, extras)
    report = run_experiment(config)
    print((Path(config.output_dir) / "report.md").read_text(), end="")
    return report.worst_error_code()


def cmd_serve_mock(args: argparse.Namespace, extras: list[str]) -> int:
    _reject_extras(extras)
    score_fn = None
    if args.probs:
        probs = [float(p) for p in args.probs.split(",")]
        if len(probs) != args.num_classes:
            raise ConfigError(
                f"--probs has {len(probs)} values for {args.num_classes} classes"
            )
        score_fn = lambda ids: list(probs)  # noqa: E731
    server = StubScorerServer(
        num_classes=args.num_classes,
        max_batch=args.max_batch,
        score_fn=score_fn,
        port=args.port,
    ).start()
    try:
        print(f"serving {server.endpoint} (classes={args.num_classes},"
              f" max_batch={args.max_batch})")
        sys.stdout.flush()
        if args.endpoint_file:
            Path(args.endpoint_file).write_text(server.endpoint + "\n")
        if args.serve_seconds is not None:
            time.sleep(args.serve_seconds)
        else:
            while True:  # interrupt to stop
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="chunkfuse", description=__doc__.split("\n")[0])
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress at INFO level"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="read a CSV corpus and report stats")
    ingest.add_argument("--input", required=True, help="CSV file of notes")
    ingest.add_argument("--schema", required=True, help="JSON column-mapping file")
    ingest.add_argument("--output", help="write notes as JSON lines")
    ingest.set_defaults(handler=cmd_ingest)

    generate = sub.add_parser("generate", help="write a synthetic corpus")
    generate.add_argument("--num-docs", type=int, required=True)
    generate.add_argument("--output", required=True, help="JSON lines destination")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--min-tokens", type=int, default=1500)
    generate.add_argument("--max-tokens", type=int, default=3000)
    generate.add_argument("--signal-length", type=int, default=12)
    generate.add_argument("--positive-fraction", type=float, default=0.5)
    generate.add_argument("--placement", choices=("uniform", "boundary"),
                          default="uniform")
    generate.add_argument("--boundary-period", type=int, default=510)
    generate.add_argument("--straddle-prob", type=float, default=0.5)
    generate.add_argument("--filler-vocab-size", type=int, default=400)
    generate.set_defaults(handler=cmd_generate)

    for name, handler, text in (
        ("train", cmd_train, "prepare data and build every configured scorer"),
        ("evaluate", cmd_evaluate, "score one scorer on the test split"),
        ("compare", cmd_compare, "run the full method comparison grid"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="experiment JSON file")
        if name == "evaluate":
            cmd.add_argument("--scorer-id", help="defaults to the first scorer")
        cmd.set_defaults(handler=handler)

    serve = sub.add_parser("serve-mock", help="run a local scoring endpoint")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument("--num-classes", type=int, default=2)
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--probs", help="constant reply, comma separated")
    serve.add_argument("--endpoint-file", help="write the bound URL here")
    serve.add_argument("--serve-seconds", type=float, default=None,
                       help="stop after this long (default: run until ^C)")
    serve.set_defaults(handler=cmd_serve_mock)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if args.verbose:
            logging.basicConfig(level=logging.INFO, format="%(message)s")
        return args.handler(args, extras)
    except ChunkfuseError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
