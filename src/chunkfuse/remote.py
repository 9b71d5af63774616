"""HTTP chunk scorer: the integration path for real encoder backends.

Wire protocol (JSON over HTTP, UTF-8):

- ``GET /info`` -> ``{"max_batch": int, "num_classes": int}``
- ``POST /score`` with ``{"task": str, "num_classes": int,
  "chunks": [{"ids": [int, ...]}, ...]}`` -> ``{"scores": [[p, ...], ...]}``
  with one score row per chunk, in request order. Chunk ids are framed,
  ``[CLS_ID, *content, SEP_ID]``: the one place windows are framed.

The client splits oversized batches per the server's advertised limit,
sends up to ``MAX_WORKERS`` sub-batches at once, and reassembles results
in input order. Each request waits ``TIMEOUT_S`` seconds and is tried
``MAX_ATTEMPTS`` times on network failures and 5xx replies. A reply that
is not a JSON object, or ``/info`` fields that are not integers, are
protocol violations. Score rows whose sum strays from 1 by at most 1e-4
are renormalized with a warning; anything worse, or a non-finite entry,
is a protocol violation, not a value to be repaired.

``StubScorerServer`` is the bundled in-process test double; the CLI's
``serve-mock`` command exposes it on a real port. It answers a malformed
``/score`` request with 400 and ``{"error": str}``.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence
from urllib.parse import urlsplit

import numpy as np

from .chunker import Chunk
from .errors import ConfigError, ContractError, ProtocolError, TransportError, conforms
from .scoring import ScorerDescriptor, ScorerKind

logger = logging.getLogger(__name__)

SIMPLEX_TOLERANCE = 1e-4
TIMEOUT_S = 10.0  # per request
MAX_ATTEMPTS = 3  # retries follow at once; there is no backoff
MAX_WORKERS = 4  # sub-batches in flight at once


def _http_json(url: str, payload: dict | None) -> dict:
    """One JSON request with retries on network failures and 5xx. A body
    that is not JSON, or JSON that is not an object, is a ProtocolError."""
    body = None if payload is None else json.dumps(payload).encode()
    last: TransportError | None = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
                raw = response.read()
            break
        except urllib.error.HTTPError as err:
            last = TransportError(
                f"{url} returned HTTP {err.code}", url=url, status=err.code,
                attempts=attempt,
            )
            if err.code < 500:
                raise last from err  # client errors will not heal on retry
        except (urllib.error.URLError, TimeoutError, ConnectionError,
                http.client.IncompleteRead) as err:
            last = TransportError(
                f"{url} unreachable: {err}", url=url, status=None, attempts=attempt
            )
    else:
        raise last
    try:
        reply = json.loads(raw.decode())
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError, digit limit
        raise ProtocolError(f"{url} returned non-JSON body") from err
    if not isinstance(reply, dict):
        raise ProtocolError(f"{url} returned a JSON {type(reply).__name__}, not an object")
    return reply


def _score_rows(scores: object, num_chunks: int, num_classes: int, url: str) -> np.ndarray:
    """One reply's ``scores`` as a (chunks, classes) array, checked whole.
    Rows within SIMPLEX_TOLERANCE of summing to 1 are renormalized, each by
    its own sum; any other departure from a distribution is a ProtocolError."""
    if not isinstance(scores, list):
        raise ProtocolError(f"{url}: reply lacks a 'scores' list")
    if len(scores) != num_chunks:
        raise ProtocolError(f"{url}: {len(scores)} score rows for {num_chunks} chunks")
    expected = (num_chunks, num_classes)
    try:
        rows = np.array(scores, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise ProtocolError(f"{url}: score rows are not a {expected} array of numbers") from err
    if rows.shape != expected:
        raise ProtocolError(f"{url}: score rows of shape {rows.shape}, expected {expected}")
    if not np.isfinite(rows).all():
        raise ProtocolError(f"{url}: non-finite score entry")
    if ((rows < 0.0) | (rows > 1.0 + SIMPLEX_TOLERANCE)).any():
        raise ProtocolError(f"{url}: score entry outside [0, 1]")
    totals = rows.sum(axis=1)
    worst = int(np.abs(totals - 1.0).argmax())
    if abs(totals[worst] - 1.0) > SIMPLEX_TOLERANCE:
        raise ProtocolError(
            f"{url}: scores sum to {totals[worst]:.6f}, beyond the"
            f" {SIMPLEX_TOLERANCE} tolerance"
        )
    drifting = totals != 1.0
    if drifting.any():
        logger.warning("%s: renormalizing %d score rows not summing to 1",
                       url, int(drifting.sum()))
        rows[drifting] /= totals[drifting, None]
    return rows


@dataclass
class RemoteScorer:
    """Client for one remote scoring endpoint.

    Construct via :meth:`connect`, which checks the endpoint, probes
    ``/info`` and pins the server's batch limit and class count.
    """

    descriptor: ScorerDescriptor
    endpoint: str
    task: str
    max_batch: int

    @classmethod
    def connect(
        cls, endpoint: str, task: str, num_classes: int, scorer_id: str = "remote"
    ) -> "RemoteScorer":
        try:
            parts = urlsplit(endpoint)
            parts.port  # raises unless the port is absent or a number in 0-65535
        except ValueError:
            parts = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(
                f"remote scorer {scorer_id} needs an http(s) metadata.endpoint"
                f" with a host and a valid port, got {endpoint!r}"
            )
        endpoint = endpoint.rstrip("/")
        info = _http_json(endpoint + "/info", None)
        server_classes, max_batch = info.get("num_classes"), info.get("max_batch")
        if not (conforms(int, server_classes) and conforms(int, max_batch)):
            raise ProtocolError(f"{endpoint}/info: malformed capability reply {info}")
        if server_classes != num_classes:
            raise ContractError(
                f"server scores {server_classes} classes, task needs {num_classes}"
            )
        if max_batch < 1:
            raise ProtocolError(f"{endpoint}/info: nonsensical max_batch {max_batch}")
        return cls(
            descriptor=ScorerDescriptor(
                scorer_id=scorer_id,
                kind=ScorerKind.REMOTE,
                num_classes=num_classes,
                metadata={"endpoint": endpoint},
            ),
            endpoint=endpoint,
            task=task,
            max_batch=max_batch,
        )

    def _score_sub_batch(self, chunks: Sequence[Chunk]) -> np.ndarray:
        url = self.endpoint + "/score"
        num_classes = self.descriptor.num_classes
        reply = _http_json(url, {
            "task": self.task,
            "num_classes": num_classes,
            "chunks": [{"ids": list(c.ids)} for c in chunks],
        })
        return _score_rows(reply.get("scores"), len(chunks), num_classes, url)

    def score_batch(self, chunks: Sequence[Chunk]) -> np.ndarray:
        if not chunks:
            raise ContractError("remote batch must be non-empty")
        parts = [
            chunks[i : i + self.max_batch]
            for i in range(0, len(chunks), self.max_batch)
        ]
        # Sub-batches may land on the server in any order; pool.map
        # returns their replies in input order regardless.
        with ThreadPoolExecutor(max_workers=min(MAX_WORKERS, len(parts))) as pool:
            return np.concatenate(list(pool.map(self._score_sub_batch, parts)))


class _StubHandler(BaseHTTPRequestHandler):
    server: "_StubHTTPServer"

    def log_message(self, *args) -> None:  # silence per-request stderr noise
        pass

    def _reply(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        stub = self.server.stub
        if self.path != "/info":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        self._reply(200, {"max_batch": stub.max_batch,
                          "num_classes": stub.num_classes})

    def _score_body(self) -> dict:
        """The /score request body, checked for structure only (not each
        id); a malformed one is a ValueError saying why."""
        length = int(self.headers.get("Content-Length", "0"))
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        body = json.loads(self.rfile.read(length).decode())
        chunks = body.get("chunks") if isinstance(body, dict) else None
        if not (isinstance(chunks, list) and all(
            isinstance(c, dict) and isinstance(c.get("ids"), list) for c in chunks
        )):
            raise ValueError("body must be an object whose chunks is a list of"
                             " objects each holding an ids list")
        return body

    def do_POST(self) -> None:
        stub = self.server.stub
        if self.path != "/score":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        try:
            body = self._score_body()
        except (ValueError, RecursionError) as err:  # JSONDecodeError, UnicodeDecodeError
            self._reply(400, {"error": f"malformed /score request: {err}"})
            return
        with stub.lock:
            stub.batch_sizes.append(len(body["chunks"]))
        override = stub.respond
        if override is not None:
            status, payload = override(body)
            self._reply(status, payload)
            return
        scores = [stub.score_fn(c["ids"]) for c in body["chunks"]]
        self._reply(200, {"scores": scores})


class _StubHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, stub: "StubScorerServer"):
        super().__init__(address, _StubHandler)
        self.stub = stub


@dataclass
class StubScorerServer:
    """In-process scoring server for tests and local integration.

    ``score_fn`` maps a chunk's id list to one score row; ``respond``
    (when set) overrides the whole /score reply with (status, payload),
    which is how tests inject failures. ``batch_sizes`` records the chunk
    count of each /score request, not its body.
    """

    num_classes: int = 2
    max_batch: int = 64
    score_fn: Callable[[list[int]], list[float]] | None = None
    respond: Callable[[dict], tuple[int, object]] | None = None
    port: int = 0
    batch_sizes: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        limits = {"num_classes": (2, math.inf), "max_batch": (1, math.inf),
                  "port": (0, 65535)}
        for name, (low, high) in limits.items():
            value = getattr(self, name)
            if not (isinstance(value, int) and low <= value <= high):
                raise ConfigError(
                    f"{name} must be an int in [{low}, {high}], got {value!r}"
                )
        if self.score_fn is None:
            uniform = [1.0 / self.num_classes] * self.num_classes
            self.score_fn = lambda ids: list(uniform)
        self.lock = threading.Lock()
        self._httpd = _StubHTTPServer(("127.0.0.1", self.port), self)
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05),
            daemon=True,
        )

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "StubScorerServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "StubScorerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
