"""Exception hierarchy shared across the pipeline, plus the JSON-file
reader and the config type rule (``conforms``) whose failures raise it.

Each family maps to a CLI exit code: config errors exit 1, data errors 2,
scorer/transport errors 3, undefined metrics 4.
"""

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

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class MetricUndefinedError(ChunkfuseError):
    exit_code = 4


class DegenerateClassError(MetricUndefinedError):
    """Labels contain only one class, so the ROC curve is undefined."""

    def __init__(self, message, class_index=None):
        super().__init__(message)
        self.class_index = class_index


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


def conforms(hint, value) -> bool:
    """Whether a config value fits its field's type. An int field takes
    an int but not a bool or a float; a float field takes a finite int or
    float; a str field a string. Tuples, dicts and unions are checked
    element by element; other types are left to their constructors."""
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
        if not isinstance(value, (list, tuple)):
            return False
        arms = args[:1] * len(value) if args[-1:] == (...,) else args
        return len(arms) == len(value) and all(map(conforms, arms, value))
    if origin is dict:
        return isinstance(value, dict) and all(
            conforms(args[0], k) and conforms(args[1], v) for k, v in value.items()
        )
    return True
