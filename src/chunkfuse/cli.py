"""Command-line entry point.

Subcommands: ingest, compare, serve-mock.

``compare`` runs the method grid of one JSON experiment config, training
and checkpointing the linear scorers it needs on the way. It accepts
dotted-path overrides for any field in the config, e.g.
``--chunking.overlap 0`` or ``--trainer.max_epochs=5``. Override values
are parsed as JSON, falling back to plain strings, so lists and objects
work too: ``--fusion.model_weights='[0.7, 0.3]'``. A decimal part indexes
a list: ``--scorers.0.metadata.pattern sig0``.

Exit codes: 0 success, 1 config errors, 2 data errors, 3 scorer or
transport errors, 4 undefined metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path

from .corpus import CsvSchema, ingest_csv
from .errors import (
    ChunkfuseError,
    ConfigError,
    DataError,
    as_object,
    build_block,
    read_json,
    write_text,
)
from .experiment import ExperimentConfig, run_experiment
from .scoring import parse_probs


class _Parser(argparse.ArgumentParser):
    """Usage mistakes are config errors (exit 1), not argparse's exit 2.
    Flags are never abbreviated, so an override such as ``--c 5`` stays a
    config path instead of being read as ``--config``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

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
    """Set each dotted path in ``doc``: a part is an object's key (made if
    absent) or, in a list, the decimal index of an item."""
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = doc
        for i, part in enumerate(parts):
            if isinstance(node, list):
                if not (part.isdecimal() and int(part) < len(node)):
                    raise ConfigError(
                        f"cannot override {dotted}: no item {part!r} in a list of {len(node)}"
                    )
                part = int(part)
            elif not isinstance(node, dict):
                raise ConfigError(
                    f"cannot override {dotted}: {parts[i - 1]!r} is not an object or a list"
                )
            if i + 1 == len(parts):
                node[part] = value
            else:
                node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]
    return doc


def load_config(path: str | Path, extras: list[str]) -> ExperimentConfig:
    """The one reader of experiment config files: parse the JSON at
    ``path`` and apply ``extras``, a list of ``--dotted.path value``
    overrides, before the config is built."""
    doc = as_object(read_json(path, "config"), "config root")
    return ExperimentConfig.from_json_dict(
        _apply_overrides(doc, _parse_overrides(extras))
    )


def _reject_extras(extras: list[str]) -> None:
    if extras:
        raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")


def cmd_ingest(args: argparse.Namespace, extras: list[str]) -> int:
    _reject_extras(extras)
    schema_doc = as_object(read_json(args.schema, "schema"), "schema")
    schema = build_block("schema", CsvSchema, schema_doc)
    result = ingest_csv(args.input, schema)
    if result.missing_columns:
        print(f"warning: missing columns {list(result.missing_columns)}")
    if not result.notes:
        raise DataError(f"{args.input} produced no usable notes")
    print(
        f"ingested {len(result.notes)} notes"
        f" ({result.skipped_rows} rows skipped)"
    )
    return 0


def cmd_compare(args: argparse.Namespace, extras: list[str]) -> int:
    config = load_config(args.config, extras)
    report = run_experiment(config)
    print((Path(config.output_dir) / "report.md").read_text(), end="")
    return report.worst_error_code()


def cmd_serve_mock(args: argparse.Namespace, extras: list[str]) -> int:
    _reject_extras(extras)
    if not 0 <= args.port <= 65535:
        raise ConfigError(f"--port must be in [0, 65535], got {args.port}")
    if args.num_classes < 2:
        raise ConfigError(f"--num-classes must be at least 2, got {args.num_classes}")
    if args.max_batch < 1:
        raise ConfigError(f"--max-batch must be at least 1, got {args.max_batch}")
    seconds = args.serve_seconds
    if seconds is not None and not (math.isfinite(seconds) and seconds >= 0):
        raise ConfigError(f"--serve-seconds must be finite and at least 0, got {seconds}")
    score_fn = None
    if args.probs:
        probs = parse_probs(args.probs, "--probs")
        if len(probs) != args.num_classes:
            raise ConfigError(
                f"--probs has {len(probs)} values for {args.num_classes} classes"
            )
        score_fn = lambda ids: list(probs)  # noqa: E731
    from .remote import StubScorerServer  # the HTTP stack loads only to serve

    try:
        server = StubScorerServer(
            num_classes=args.num_classes,
            max_batch=args.max_batch,
            score_fn=score_fn,
            port=args.port,
        ).start()
    except OSError as err:  # the port is taken or may not be bound
        raise ConfigError(f"--port {args.port}: cannot serve on it: {err}") from err
    try:
        print(f"serving {server.endpoint} (classes={args.num_classes},"
              f" max_batch={args.max_batch})")
        sys.stdout.flush()
        if args.endpoint_file:
            write_text(args.endpoint_file, server.endpoint + "\n", "endpoint file")
        # Hour-long sleeps: one sleep of over about 9.2e9 s overflows.
        deadline = time.monotonic() + (math.inf if seconds is None else seconds)
        while (left := deadline - time.monotonic()) > 0:  # interrupt to stop
            time.sleep(min(left, 3600))
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
    ingest.set_defaults(handler=cmd_ingest)

    compare = sub.add_parser("compare", help="run the full method comparison grid")
    compare.add_argument("--config", required=True, help="experiment JSON file")
    compare.set_defaults(handler=cmd_compare)

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
