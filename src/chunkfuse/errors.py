"""Exception hierarchy shared across the pipeline.

Each family maps to a CLI exit code: config errors exit 1, data errors 2,
scorer/transport errors 3, undefined metrics 4.
"""

import json
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
