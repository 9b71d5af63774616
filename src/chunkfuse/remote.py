"""HTTP chunk scorer: the integration path for real encoder backends.

Wire protocol (JSON over HTTP, UTF-8):

- ``GET /info`` -> ``{"max_batch": int, "num_classes": int}``
- ``POST /score`` with ``{"task": str, "num_classes": int,
  "chunks": [{"ids": [int, ...]}, ...]}`` -> ``{"scores": [[p, ...], ...]}``
  with one score row per chunk, in request order. Chunk ids are framed,
  ``[CLS_ID, *content, SEP_ID]``: the one place windows are framed.

The client splits oversized batches per the server's advertised limit,
sends up to ``MAX_WORKERS`` sub-batches at once, and reassembles results
in input order. Connections are persistent (HTTP/1.1): one scoring call
keeps at most ``MAX_WORKERS`` of them open, reuses each for request after
request unless the server says it will close it, and closes them all when
it returns. Each request waits ``TIMEOUT_S`` seconds and is tried
``MAX_ATTEMPTS`` times on network failures and 5xx replies, a failed
attempt on a fresh connection. Any other reply outside 2xx fails at once:
a 3xx redirect is not followed, and ``*_proxy`` environment variables are
not consulted. A reply that is not a JSON object, or ``/info`` fields that
are not integers, are protocol violations. Score rows whose sum strays
from 1 by at most 1e-4 are renormalized with a warning; anything worse, or
a non-finite entry, is a protocol violation, not a value to be repaired.

``StubScorerServer`` is the bundled in-process test double; the CLI's
``serve-mock`` command exposes it on a real port. It speaks HTTP/1.1 with
Nagle's algorithm off, and closes every connection whose request body it
did not read. It answers a malformed ``/score`` request with 400 and
``{"error": str}``, as it does a body that stops short of its
Content-Length for ``TIMEOUT_S`` seconds.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import queue
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence
from urllib.parse import urlsplit

import numpy as np

from .chunker import Chunk
from .errors import ConfigError, ContractError, ProtocolError, TransportError, conforms
from .scoring import ScorerDescriptor

logger = logging.getLogger(__name__)

SIMPLEX_TOLERANCE = 1e-4
TIMEOUT_S = 10.0  # per request
MAX_ATTEMPTS = 3  # retries follow at once; there is no backoff
MAX_WORKERS = 4  # sub-batches in flight at once


def _connection(url: str) -> http.client.HTTPConnection:
    """A new, not yet connected, connection to ``url``'s host."""
    parts = urlsplit(url)
    kind = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    return kind(parts.hostname, parts.port, timeout=TIMEOUT_S)


def _http_json(url: str, payload: dict | None,
               idle: queue.SimpleQueue | None = None) -> dict:
    """One JSON request with retries on network failures and 5xx. A body
    that is not JSON, or JSON that is not an object, is a ProtocolError.

    The request goes out on a connection taken from ``idle``, or a new one,
    and a connection the server keeps open is put back there afterwards;
    without ``idle`` it is closed. A connection that failed is closed."""
    parts = urlsplit(url)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    method, body, headers = "GET", None, {}
    if payload is not None:
        method, body = "POST", json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"}
    last: TransportError | None = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            conn = idle.get_nowait() if idle is not None else _connection(url)
        except queue.Empty:
            conn = _connection(url)
        try:
            conn.request(method, target, body, headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as err:
            conn.close()
            last = TransportError(
                f"{url} unreachable: {err}", url=url, status=None, attempts=attempt
            )
            continue
        if idle is None or response.will_close:
            conn.close()
        else:
            idle.put(conn)
        if 200 <= response.status < 300:
            break
        last = TransportError(
            f"{url} returned HTTP {response.status}", url=url,
            status=response.status, attempts=attempt,
        )
        if response.status < 500:
            raise last  # client errors (and redirects) will not heal on retry
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

    Construct via :meth:`connect`, which checks the descriptor's endpoint,
    probes ``/info`` and pins the server's batch limit and class count.
    """

    descriptor: ScorerDescriptor
    endpoint: str
    task: str
    max_batch: int

    @classmethod
    def connect(cls, descriptor: ScorerDescriptor, task: str) -> "RemoteScorer":
        endpoint = descriptor.metadata.get("endpoint", "")
        try:
            parts = urlsplit(endpoint)
            parts.port  # raises unless the port is absent or a number in 0-65535
        except ValueError:
            parts = None
        if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
                or not endpoint.isascii() or re.search(r"[\x00-\x20\x7f]", endpoint)):
            raise ConfigError(
                f"remote scorer {descriptor.scorer_id} needs an http(s) metadata.endpoint with"
                f" a host, a valid port and no space, control or non-ASCII character"
                f" (write an IDN host in its xn-- form), got {endpoint!r}"
            )
        endpoint = endpoint.rstrip("/")
        info = _http_json(endpoint + "/info", None)
        server_classes, max_batch = info.get("num_classes"), info.get("max_batch")
        if not (conforms(int, server_classes) and conforms(int, max_batch)):
            raise ProtocolError(f"{endpoint}/info: malformed capability reply {info}")
        if server_classes != descriptor.num_classes:
            raise ContractError(
                f"server scores {server_classes} classes, task needs {descriptor.num_classes}"
            )
        if max_batch < 1:
            raise ProtocolError(f"{endpoint}/info: nonsensical max_batch {max_batch}")
        return cls(descriptor, endpoint, task, max_batch)

    def _score_sub_batch(self, chunks: Sequence[Chunk], idle: queue.SimpleQueue) -> np.ndarray:
        url = self.endpoint + "/score"
        num_classes = self.descriptor.num_classes
        reply = _http_json(url, {
            "task": self.task,
            "num_classes": num_classes,
            "chunks": [{"ids": list(c.ids)} for c in chunks],
        }, idle)
        return _score_rows(reply.get("scores"), len(chunks), num_classes, url)

    def score_batch(self, chunks: Sequence[Chunk]) -> np.ndarray:
        if not chunks:
            raise ContractError("remote batch must be non-empty")
        parts = [
            chunks[i : i + self.max_batch]
            for i in range(0, len(chunks), self.max_batch)
        ]
        # A worker holds at most one connection at a time, so the pool
        # never holds more than the workers do.
        idle: queue.SimpleQueue = queue.SimpleQueue()
        try:
            # Sub-batches may land on the server in any order; pool.map
            # returns their replies in input order regardless.
            with ThreadPoolExecutor(max_workers=min(MAX_WORKERS, len(parts))) as pool:
                replies = pool.map(lambda part: self._score_sub_batch(part, idle), parts)
                return np.concatenate(list(replies))
        finally:  # the workers have all returned: every open connection is idle
            while not idle.empty():
                idle.get_nowait().close()


class _StubHandler(BaseHTTPRequestHandler):
    server: "_StubHTTPServer"
    protocol_version = "HTTP/1.1"  # keep-alive: a client may send request after request
    # Headers and body go out as two sends; with Nagle's algorithm on, the
    # client's delayed ACK holds the body back by tens of milliseconds.
    disable_nagle_algorithm = True
    timeout = TIMEOUT_S  # a body shorter than its Content-Length must not pin a thread

    def log_message(self, *args) -> None:  # silence per-request stderr noise
        pass

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:  # the client has gone; nobody reads the reply
            pass

    def _reply(self, status: int, payload: object, body_read: bool = False) -> None:
        """Send ``payload``. Unless the request's body was read, or it has
        none, the connection closes after the reply: the unread bytes would
        be taken for the next request."""
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if not body_read and ("Content-Length" in self.headers
                              or "Transfer-Encoding" in self.headers):
            self.send_header("Connection", "close")  # sets close_connection
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
        raw = self.rfile.read(length)  # short at EOF; TimeoutError if the client stalls
        if len(raw) < length:
            raise ValueError(f"body of {len(raw)} bytes, Content-Length {length}")
        body = json.loads(raw.decode())
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
        except (ValueError, RecursionError, TimeoutError) as err:
            self._reply(400, {"error": f"malformed /score request: {err}"})
            return
        with stub.lock:
            stub.batch_sizes.append(len(body["chunks"]))
        override = stub.respond
        if override is not None:
            status, payload = override(body)
            self._reply(status, payload, body_read=True)
            return
        scores = [stub.score_fn(c["ids"]) for c in body["chunks"]]
        self._reply(200, {"scores": scores}, body_read=True)


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
