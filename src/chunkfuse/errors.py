"""Exception hierarchy shared across the pipeline, plus the file reader
and writers and the one config block builder whose failures raise it.

Each family maps to a CLI exit code: config errors exit 1, data errors 2,
scorer/transport errors 3, undefined metrics 4.
"""

import dataclasses
import enum
import json
import sys
import types
import typing
from pathlib import Path


class ChunkfuseError(Exception):
    exit_code = 1


class ConfigError(ChunkfuseError):
    exit_code = 1


class SchemaError(ConfigError):
    """A column mapping names a required column the file does not have."""


class ContractError(ChunkfuseError):
    """Caller violated a documented precondition (shape or count mismatch)."""

    exit_code = 1


class DataError(ChunkfuseError):
    exit_code = 2


class InvalidLabelError(DataError):
    pass


class ScorerError(ChunkfuseError):
    exit_code = 3


class TransportError(ScorerError):
    """Remote scorer could not be reached or answered with a non-200 status.

    Carries enough metadata for the caller to decide whether to retry.
    """

    def __init__(self, message, url=None, status=None, attempts=1):
        super().__init__(message)
        self.url = url
        self.status = status
        self.attempts = attempts


class ProtocolError(ScorerError):
    """Remote scorer answered 200 but the payload violates the wire contract."""


class NumericDivergenceError(ScorerError):
    """Training loss became non-finite."""


class MetricUndefinedError(ChunkfuseError):
    exit_code = 4


class DegenerateClassError(MetricUndefinedError):
    """Labels contain only one class, so the ROC curve is undefined."""


def read_json(path, what: str):
    """Parse a JSON file; a missing, unreadable or invalid one is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as err:
        raise ConfigError(f"{what} file not found: {path}") from err
    except OSError as err:
        raise ConfigError(f"cannot read {what} file {path}: {err}") from err
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path} is not valid JSON: {err}") from err


def make_dir(path, what: str) -> Path:
    """Create a directory and its parents; one that cannot be made is a DataError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise DataError(f"cannot create {what} {path}: {err}") from err
    return path


def write_text(path, text: str, what: str) -> Path:
    """Write ``text`` as UTF-8 with its newlines as given (a CSV's CRLF rows
    stay CRLF); a file that cannot be written is a DataError."""
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as err:
        raise DataError(f"cannot write {what} {path}: {err}") from err
    return path


def conforms(hint, value) -> bool:
    """Whether a config value fits its field's type. An int field takes
    an int but not a bool or a float; a float field takes a finite int or
    float; a str field a string. Tuples, dicts and unions are checked
    element by element; any other class by ``isinstance``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in (int, str):
        return type(value) is hint
    if hint is float:  # NaN, the infinities and ints past float range fail
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if hint is type(None):
        return value is None
    if origin in (typing.Union, types.UnionType):
        return any(conforms(arm, value) for arm in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        arms = args[:1] * len(value) if args[-1:] == (...,) else args
        return len(arms) == len(value) and all(map(conforms, arms, value))
    if origin is dict:
        return isinstance(value, dict) and all(
            conforms(args[0], k) and conforms(args[1], v) for k, v in value.items()
        )
    return isinstance(value, hint)


def config_block(cls):
    """Make ``cls`` a frozen dataclass whose fields are checked against
    their types (``conforms``) whenever a block is constructed, before the
    class's own ``__post_init__``; a misfit is a ConfigError naming it."""
    own_checks = getattr(cls, "__post_init__", None)
    hints: dict = {}  # resolved on first use, once every name they cite exists

    def __post_init__(self) -> None:
        if not hints:
            hints.update(typing.get_type_hints(cls))
        for name, hint in hints.items():
            value = getattr(self, name)
            if not conforms(hint, value):
                shown = hint.__name__ if isinstance(hint, type) else hint
                raise ConfigError(f"{name} must be a valid {shown}, got {value!r}")
        if own_checks is not None:
            own_checks(self)

    cls.__post_init__ = __post_init__
    return dataclasses.dataclass(frozen=True)(cls)


def as_object(value, what: str) -> dict:
    """A copy of a JSON object; any other value is a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return dict(value)


def from_json(name: str, hint, value):
    """A JSON value read as its field's type: an enum field takes one of its
    values, a block field (or a tuple of them, or one that may be None) is
    built from its object, and lists become tuples. Anything else is left
    for the block's own type check."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        legal = [member.value for member in hint]
        if value not in legal:  # compared, never hashed: a list value is refused too
            raise ConfigError(f"unknown {name} {value!r}; use one of {sorted(legal)}")
        return hint(value)
    if dataclasses.is_dataclass(hint):
        return build_block(name, hint, as_object(value, name))
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        (arm,) = (a for a in args if a is not type(None))
        return None if value is None else from_json(name, arm, value)
    if origin is tuple and isinstance(value, list):
        arms = args[:1] * len(value) if args[-1:] == (...,) else args
        if len(arms) == len(value):
            return tuple(from_json(name, arm, item) for arm, item in zip(arms, value))
    return value


def build_block(kind: str, factory, fields: dict):
    """Construct a config block from a JSON object, each value read as its
    field's type (``from_json``); the block checks the result itself. Every
    config block, in a config file or from a CLI command, is built here."""
    hints = typing.get_type_hints(factory)
    for name, value in fields.items():
        if name in hints:  # an unknown name is left for the factory to refuse
            fields[name] = from_json(name, hints[name], value)
    try:
        return factory(**fields)
    except TypeError as err:
        raise ConfigError(f"bad {kind} block: {err}") from err
