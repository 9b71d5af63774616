"""HTTP chunk scorer: the integration path for real encoder backends.

Wire protocol (JSON over HTTP, UTF-8):

- ``GET /info`` -> ``{"max_batch": int, "num_classes": int}``
- ``POST /score`` with ``{"task": str, "num_classes": int,
  "chunks": [{"ids": [int, ...]}, ...]}`` -> ``{"scores": [[p, ...], ...]}``
  with one score row per chunk, in request order.

The client splits oversized batches per the server's advertised limit,
may issue the sub-batches concurrently, and reassembles results in input
order. Score rows whose sum strays from 1 by at most 1e-4 are
renormalized with a warning; anything worse, or a non-finite entry, is
a protocol violation, not a value to be repaired.

``StubScorerServer`` is the bundled in-process test double; the CLI's
``serve-mock`` command exposes it on a real port.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence

import numpy as np

from .chunker import Chunk
from .errors import ContractError, ProtocolError, TransportError
from .scoring import ScorerDescriptor, ScorerKind

logger = logging.getLogger(__name__)

SIMPLEX_TOLERANCE = 1e-4


def _http_json(
    url: str,
    payload: dict | None,
    timeout: float,
    max_attempts: int,
    backoff_seconds: float,
) -> dict:
    """One JSON request with retries on network failures and 5xx."""
    body = None if payload is None else json.dumps(payload).encode()
    last: TransportError | None = None
    for attempt in range(1, max_attempts + 1):
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.loads(response.read().decode())
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
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ProtocolError(f"{url} returned non-JSON body") from err
        if attempt < max_attempts and backoff_seconds > 0:
            time.sleep(backoff_seconds * attempt)
    raise last


def _validate_row(row: object, num_classes: int, url: str) -> list[float]:
    if not isinstance(row, list) or len(row) != num_classes:
        raise ProtocolError(
            f"{url}: score row has {len(row) if isinstance(row, list) else 'no'}"
            f" entries, expected {num_classes}"
        )
    try:
        values = [float(v) for v in row]
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"{url}: non-numeric score entry in {row}") from err
    if not all(map(math.isfinite, values)):
        raise ProtocolError(f"{url}: non-finite score entry in {values}")
    if any(v < 0.0 or v > 1.0 + SIMPLEX_TOLERANCE for v in values):
        raise ProtocolError(f"{url}: score entry outside [0, 1]: {values}")
    total = sum(values)
    if abs(total - 1.0) > SIMPLEX_TOLERANCE:
        raise ProtocolError(
            f"{url}: scores sum to {total:.6f}, beyond the"
            f" {SIMPLEX_TOLERANCE} tolerance"
        )
    if total != 1.0:
        logger.warning("%s: renormalizing score row summing to %.6f", url, total)
        values = [v / total for v in values]
    return values


@dataclass
class RemoteScorer:
    """Client for one remote scoring endpoint.

    Construct via :meth:`connect`, which probes ``/info`` and pins the
    server's batch limit and class count.
    """

    descriptor: ScorerDescriptor
    endpoint: str
    task: str
    max_batch: int
    timeout: float = 10.0
    max_attempts: int = 3
    backoff_seconds: float = 0.0
    max_concurrency: int = 4

    @classmethod
    def connect(
        cls,
        endpoint: str,
        task: str,
        num_classes: int,
        scorer_id: str = "remote",
        timeout: float = 10.0,
        max_attempts: int = 3,
        backoff_seconds: float = 0.0,
    ) -> "RemoteScorer":
        endpoint = endpoint.rstrip("/")
        info = _http_json(
            endpoint + "/info", None, timeout, max_attempts, backoff_seconds
        )
        try:
            server_classes = int(info["num_classes"])
            max_batch = int(info["max_batch"])
        except (KeyError, TypeError, ValueError) as err:
            raise ProtocolError(f"{endpoint}/info: malformed capability reply {info}") from err
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
            timeout=timeout,
            max_attempts=max_attempts,
            backoff_seconds=backoff_seconds,
        )

    def _score_sub_batch(self, chunks: Sequence[Chunk]) -> list[list[float]]:
        url = self.endpoint + "/score"
        reply = _http_json(
            url,
            {
                "task": self.task,
                "num_classes": self.descriptor.num_classes,
                "chunks": [{"ids": list(c.ids)} for c in chunks],
            },
            self.timeout,
            self.max_attempts,
            self.backoff_seconds,
        )
        scores = reply.get("scores")
        if not isinstance(scores, list):
            raise ProtocolError(f"{url}: reply lacks a 'scores' list: {reply}")
        if len(scores) != len(chunks):
            raise ProtocolError(
                f"{url}: {len(scores)} score rows for {len(chunks)} chunks"
            )
        return [_validate_row(r, self.descriptor.num_classes, url) for r in scores]

    def score_batch(self, chunks: Sequence[Chunk]) -> np.ndarray:
        if not chunks:
            raise ContractError("remote batch must be non-empty")
        parts = [
            chunks[i : i + self.max_batch]
            for i in range(0, len(chunks), self.max_batch)
        ]
        if len(parts) == 1:
            return np.array(self._score_sub_batch(parts[0]))
        # Sub-batches may land on the server in any order; executor.map
        # reassembles replies in input order regardless.
        workers = min(self.max_concurrency, len(parts))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(self._score_sub_batch, parts))
        return np.array([row for part in results for row in part])


class _StubHandler(BaseHTTPRequestHandler):
    server: "._StubHTTPServer"

    def log_message(self, *args) -> None:  # silence per-request stderr noise
        pass

    def _reply(self, status: int, payload: dict) -> None:
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

    def do_POST(self) -> None:
        stub = self.server.stub
        if self.path != "/score":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length).decode())
        with stub.lock:
            stub.requests.append(body)
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
    which is how tests inject failures.
    """

    num_classes: int = 2
    max_batch: int = 64
    score_fn: Callable[[list[int]], list[float]] | None = None
    respond: Callable[[dict], tuple[int, dict]] | None = None
    port: int = 0
    requests: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
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
