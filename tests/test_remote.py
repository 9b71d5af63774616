import http.client
import json
import socket
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfuse import remote
from chunkfuse.chunker import Chunk
from chunkfuse.cli import main
from chunkfuse.errors import (
    ConfigError,
    ContractError,
    ProtocolError,
    ScorerError,
    TransportError,
)
from chunkfuse.remote import RemoteScorer, StubScorerServer
from chunkfuse.scoring import ScorerDescriptor, ScorerKind, score_chunks


def make_chunk(i):
    return Chunk(start=0, end=1, source=np.array([1000 + i], np.int32))


def id_scores(ids):
    p = (ids[1] % 100) / 100.0
    return [1.0 - p, p]


def remote_at(endpoint, scorer_id="remote"):
    """The descriptor of a 2-class remote scorer at ``endpoint``."""
    return ScorerDescriptor(scorer_id, ScorerKind.REMOTE, 2, {"endpoint": endpoint})


def connect(stub):
    return RemoteScorer.connect(remote_at(stub.endpoint), "mortality")


def test_info_probe_and_fixed_vector_round_trip():
    with StubScorerServer(num_classes=2, max_batch=16) as stub:
        scorer = connect(stub)
        assert scorer.max_batch == 16
        assert scorer.descriptor.metadata["endpoint"] == stub.endpoint
        out = scorer.score_batch([make_chunk(i) for i in range(3)])
        assert out.tolist() == [[0.5, 0.5]] * 3


@pytest.mark.parametrize("name, value", [
    ("num_classes", 0), ("num_classes", 1), ("num_classes", 2.0), ("max_batch", 0),
    ("port", -1), ("port", 65536),
])
def test_stub_refuses_bad_fields_before_binding(monkeypatch, name, value):
    def no_bind(*args):
        raise AssertionError("bound a socket")

    monkeypatch.setattr(remote, "_StubHTTPServer", no_bind)
    with pytest.raises(ConfigError, match=f"^{name} must be an int in ") as exc:
        StubScorerServer(**{name: value})
    assert exc.value.exit_code == 1


def post_score(stub, body: bytes, length: str | None = None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(urlsplit(stub.endpoint).netloc, timeout=5)
    try:
        conn.putrequest("POST", "/score")
        conn.putheader("Content-Length", str(len(body)) if length is None else length)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


MALFORMED_SCORE_REQUESTS = [  # (body, Content-Length when not the body's length)
    (b"not json", None),
    (b"\xff\xfe{}", None),
    (b"[]", None),
    (b'{"chunks": 5}', None),
    (b'{"chunks": [5]}', None),
    (b'{"chunks": [{"ids": 7}]}', None),
    (b'{"task": "mortality"}', None),
    (b"{}", "two"),
    (b"{}", "-1"),
]


@pytest.mark.parametrize("body, length", MALFORMED_SCORE_REQUESTS)
def test_malformed_score_request_gets_400_and_the_stub_keeps_serving(body, length):
    with StubScorerServer() as stub:
        status, reply = post_score(stub, body, length)
        assert status == 400 and "malformed /score request" in reply["error"]
        status, reply = post_score(stub, b'{"chunks": [{"ids": [2, 9, 3]}]}')
        assert (status, reply) == (200, {"scores": [[0.5, 0.5]]})
        assert stub.batch_sizes == [1]


@pytest.mark.parametrize("path, body, length", [
    ("/nope", b'{"chunks": [{"ids": [2, 9, 3]}]}', None),
    *(("/score", body, length) for body, length in MALFORMED_SCORE_REQUESTS),
])
def test_reply_that_leaves_the_body_unread_closes_the_connection(path, body, length):
    # On a kept-alive connection the unread body would be parsed as the
    # start of the next request.
    request = (f"POST {path} HTTP/1.1\r\nHost: stub\r\n"
               f"Content-Length: {len(body) if length is None else length}\r\n\r\n")
    with StubScorerServer() as stub:
        address = urlsplit(stub.endpoint).hostname, urlsplit(stub.endpoint).port
        with socket.create_connection(address, timeout=5) as conn:
            conn.sendall(request.encode() + body + b"GET /info HTTP/1.1\r\n\r\n")
            reply = conn.makefile("rb").read()  # to EOF: the stub closed the connection
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == (b"404" if path == "/nope" else b"400")
        assert b"\r\nConnection: close" in head
        assert b"HTTP/1.1" not in rest  # the GET after the body was not answered
        status, reply = post_score(stub, b'{"chunks": [{"ids": [2, 9, 3]}]}')
        assert (status, reply) == (200, {"scores": [[0.5, 0.5]]})


def test_short_body_gets_400_after_the_timeout_and_a_gone_client_is_dropped(
    monkeypatch, capfd
):
    monkeypatch.setattr(remote._StubHandler, "timeout", 0.3)
    short = b"POST /score HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
    with StubScorerServer() as stub:
        address = urlsplit(stub.endpoint).hostname, urlsplit(stub.endpoint).port
        with socket.create_connection(address) as gone:
            gone.sendall(short)  # and leaves before the reply
        with socket.create_connection(address, timeout=1.0) as stalled:
            started = time.monotonic()
            stalled.sendall(short)
            reply = stalled.makefile("rb").read()  # the stub closes after replying
        assert time.monotonic() - started < 1.0
        assert reply.split(b"\r\n", 1)[0].endswith(b" 400 Bad Request")
        assert b"malformed /score request" in reply
        status, reply = post_score(stub, b'{"chunks": [{"ids": [2, 9, 3]}]}')
        assert (status, reply) == (200, {"scores": [[0.5, 0.5]]})
    assert "Traceback" not in capfd.readouterr().err


def test_class_count_mismatch_rejected_at_connect():
    with StubScorerServer(num_classes=3) as stub:
        with pytest.raises(ContractError, match="3 classes"):
            connect(stub)


def test_malformed_info_reply():
    for field, value in [
        ("max_batch", "lots"),
        ("max_batch", float("inf")),  # sent as Infinity
        ("max_batch", True),
        ("max_batch", 4.0),
        ("num_classes", 2.7),
        ("num_classes", None),
    ]:
        with StubScorerServer() as stub:
            setattr(stub, field, value)  # /info now emits a non-integer
            with pytest.raises(ProtocolError, match="malformed capability"):
                connect(stub)
    with StubScorerServer() as stub:
        stub.max_batch = 0
        with pytest.raises(ProtocolError, match="nonsensical max_batch 0"):
            connect(stub)


@pytest.mark.parametrize("endpoint", [
    "http://127.0.0.1:abc", "http://127.0.0.1:99999", "ftp://x", "http://", "127.0.0.1:9", "",
    # http.client refuses these only once a request is under way
    "http://127.0.0.1:1/a b", "http://127.0.0.1:1/a\tb", "http://127.0.0.1:1/\x00",
    "http://127.0.0.1:1/\x7f", "http://127.0.0.1:1/a\r\nHost: x",
    # and these with a UnicodeEncodeError, outside every caught family
    "http://127.0.0.1:1/\u00e9", "http://127.0.0.1:1/a\xa0b",
])
def test_bad_endpoint_is_config_error_before_any_request(monkeypatch, endpoint):
    def no_request(url, payload):
        raise AssertionError(f"request sent to {url}")

    monkeypatch.setattr(remote, "_http_json", no_request)
    with pytest.raises(ConfigError, match="needs an http"):
        RemoteScorer.connect(remote_at(endpoint, "r"), "mortality")


def test_unreachable_server_is_transport_error():
    with pytest.raises(TransportError) as exc:
        RemoteScorer.connect(remote_at("http://127.0.0.1:9"), "mortality")
    assert exc.value.attempts == 3
    assert exc.value.status is None


@contextmanager
def ssh_server():
    """The endpoint of a server that reads each request and answers it with
    an SSH banner, not HTTP."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                conn.recv(65536)
                conn.sendall(b"SSH-2.0-OpenSSH_9.0\r\n")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()


def test_server_that_does_not_speak_http_is_transport_error():
    with ssh_server() as endpoint, pytest.raises(TransportError) as exc:
        RemoteScorer.connect(remote_at(endpoint), "mortality")
    assert exc.value.attempts == 3
    assert exc.value.status is None


def test_compare_with_a_server_that_does_not_speak_http_gives_error_rows(tmp_path, capsys):
    config = tmp_path / "config.json"
    with ssh_server() as endpoint:
        config.write_text(json.dumps({
            "task": "mortality",
            "data": {"kind": "synthetic", "num_docs": 40, "min_tokens": 80,
                     "max_tokens": 160},
            "scorers": [
                {"scorer_id": "mock", "kind": "mock", "metadata": {"probs": "0.6,0.4"}},
                {"scorer_id": "far", "kind": "remote", "metadata": {"endpoint": endpoint}},
            ],
            "methods": ["baseline"],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["compare", "--config", str(config)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    mock_row, far_row = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert mock_row["macro_auroc"] == 0.5
    assert far_row["error"].startswith("scorer far: ")


def test_batches_split_to_server_limit_and_keep_order():
    with StubScorerServer(max_batch=10, score_fn=id_scores) as stub:
        scorer = connect(stub)
        chunks = [make_chunk(i) for i in range(25)]
        out = scorer.score_batch(chunks)
        # arrival order at the server is unspecified; the split sizes and
        # the client-side output order are what the contract fixes
        assert sorted(stub.batch_sizes) == [5, 10, 10]
        for i, vector in enumerate(out):
            assert vector[1] == pytest.approx((1000 + i) % 100 / 100.0)


def test_concurrent_sub_batches_preserve_order():
    with StubScorerServer(max_batch=8, score_fn=id_scores) as stub:
        scorer = connect(stub)
        out = scorer.score_batch([make_chunk(i) for i in range(100)])
        assert len(stub.batch_sizes) == 13
        for i, vector in enumerate(out):
            assert vector[1] == pytest.approx((1000 + i) % 100 / 100.0)


@pytest.fixture
def stub_connections(monkeypatch):
    """Counts of the connections the stub has accepted and finished."""
    counts = {"accepted": 0, "finished": 0}
    lock = threading.Lock()
    setup, finish = remote._StubHandler.setup, remote._StubHandler.finish

    def counted_setup(self):
        with lock:
            counts["accepted"] += 1
        setup(self)

    def counted_finish(self):
        try:
            finish(self)
        finally:
            with lock:
                counts["finished"] += 1

    monkeypatch.setattr(remote._StubHandler, "setup", counted_setup)
    monkeypatch.setattr(remote._StubHandler, "finish", counted_finish)
    return counts


def all_finished(counts, within_s=2.0):
    """Whether every accepted connection finishes within ``within_s``, well
    inside the TIMEOUT_S an idle connection would otherwise be held."""
    deadline = time.monotonic() + within_s
    while counts["finished"] < counts["accepted"] and time.monotonic() < deadline:
        time.sleep(0.01)
    return counts["finished"] == counts["accepted"]


def test_one_call_reuses_at_most_max_workers_connections_and_closes_them(stub_connections):
    with StubScorerServer(max_batch=2, score_fn=id_scores) as stub:
        scorer = connect(stub)
        assert all_finished(stub_connections) and stub_connections["accepted"] == 1
        out = scorer.score_batch([make_chunk(i) for i in range(80)])
        assert len(stub.batch_sizes) == 40
        assert 1 <= stub_connections["accepted"] - 1 <= remote.MAX_WORKERS
        assert all_finished(stub_connections)
        stub.respond = lambda body: (200, {"scores": []})
        # kept in `failed`, the error's traceback holds the call's frames
        with pytest.raises(ProtocolError) as failed:
            scorer.score_batch([make_chunk(i) for i in range(80)])
        assert all_finished(stub_connections)
    assert out[:, 1] == pytest.approx([(1000 + i) % 100 / 100.0 for i in range(80)])


def test_server_that_closes_every_connection_gets_one_per_request(
    monkeypatch, stub_connections
):
    send_response = remote._StubHandler.send_response

    def closing(self, code, message=None):
        send_response(self, code, message)
        self.send_header("Connection", "close")

    monkeypatch.setattr(remote._StubHandler, "send_response", closing)
    with StubScorerServer(max_batch=2, score_fn=id_scores) as stub:
        out = connect(stub).score_batch([make_chunk(i) for i in range(20)])
        assert all_finished(stub_connections)
        assert stub_connections["accepted"] == 1 + len(stub.batch_sizes) == 11
    assert out[:, 1] == pytest.approx([(1000 + i) % 100 / 100.0 for i in range(20)])


def test_empty_batch_rejected():
    with StubScorerServer() as stub:
        with pytest.raises(ContractError):
            connect(stub).score_batch([])


def test_row_count_mismatch_names_counts():
    with StubScorerServer() as stub:
        stub.respond = lambda body: (200, {"scores": [[0.5, 0.5]] * 2})
        scorer = connect(stub)
        stub.respond = lambda body: (200, {"scores": [[0.5, 0.5]] * 2})
        with pytest.raises(ProtocolError, match="2 score rows for 3 chunks"):
            scorer.score_batch([make_chunk(i) for i in range(3)])


def test_row_width_and_content_validation():
    with StubScorerServer() as stub:
        scorer = connect(stub)
        cases = [
            {"scores": [[0.2, 0.3, 0.5]]},  # too wide
            {"scores": [[0.5, "x"]]},  # non-numeric
            {"scores": [[-0.2, 1.2]]},  # outside [0, 1]
            {"scores": [[float("nan"), float("nan")]]},  # non-finite
            {"wrong_key": []},  # missing scores
            {"scores": [[10**400, 0]]},  # past float range
            {"scores": [[[0.5], [0.5]]]},  # too deep
            [[0.5, 0.5]],  # a list, not an object
            "hello",
            None,
        ]
        for payload in cases:
            stub.respond = lambda body, p=payload: (200, p)
            with pytest.raises(ProtocolError):
                scorer.score_batch([make_chunk(0)])


def test_simplex_violation_beyond_band_is_protocol_error():
    with StubScorerServer() as stub:
        scorer = connect(stub)
        stub.respond = lambda body: (200, {"scores": [[0.7, 0.31]]})
        with pytest.raises(ProtocolError, match="sum"):
            scorer.score_batch([make_chunk(0)])


def test_within_band_renormalized_with_warning(caplog):
    with StubScorerServer() as stub:
        scorer = connect(stub)
        stub.respond = lambda body: (200, {"scores": [[0.70005, 0.3]]})
        with caplog.at_level("WARNING"):
            (vector,) = scorer.score_batch([make_chunk(0)])
    assert sum(vector) == pytest.approx(1.0, abs=1e-15)
    assert vector[0] == pytest.approx(0.70005 / 1.00005)
    assert "renormalizing" in caplog.text


def test_each_drifting_row_renormalized_by_its_own_sum(caplog):
    rows = [[0.70005, 0.3], [0.25, 0.75], [0.4, 0.59995]]
    with StubScorerServer() as stub:
        scorer = connect(stub)
        stub.respond = lambda body: (200, {"scores": rows})
        with caplog.at_level("WARNING"):
            out = scorer.score_batch([make_chunk(i) for i in range(3)])
    assert out[0] == pytest.approx(np.array(rows[0]) / 1.00005, abs=1e-15)
    assert out[1].tolist() == rows[1]  # an exact row is left as sent
    assert out[2] == pytest.approx(np.array(rows[2]) / 0.99995, abs=1e-15)
    (warning,) = [r.message for r in caplog.records if "renormalizing" in r.message]
    assert "2 score rows" in warning  # one warning per reply


def test_exact_sum_is_untouched(caplog):
    with StubScorerServer() as stub:
        scorer = connect(stub)
        stub.respond = lambda body: (200, {"scores": [[0.25, 0.75]]})
        with caplog.at_level("WARNING"):
            (vector,) = scorer.score_batch([make_chunk(0)])
    assert vector.tolist() == [0.25, 0.75]
    assert "renormalizing" not in caplog.text


def test_client_error_fails_fast_server_error_retries():
    with StubScorerServer() as stub:
        scorer = connect(stub)
        stub.respond = lambda body: (404, {"error": "nope"})
        with pytest.raises(TransportError) as exc:
            scorer.score_batch([make_chunk(0)])
        assert (exc.value.status, exc.value.attempts) == (404, 1)
        stub.batch_sizes.clear()
        stub.respond = lambda body: (503, {"error": "busy"})
        with pytest.raises(TransportError) as exc:
            scorer.score_batch([make_chunk(0)])
        assert (exc.value.status, exc.value.attempts) == (503, 3)
        assert len(stub.batch_sizes) == 3
        assert exc.value.url == stub.endpoint + "/score"


def test_transient_failure_then_recovery():
    with StubScorerServer() as stub:
        scorer = connect(stub)
        state = {"calls": 0}

        def flaky(body):
            state["calls"] += 1
            if state["calls"] == 1:
                return (500, {"error": "warming up"})
            return (200, {"scores": [[0.5, 0.5]]})

        stub.respond = flaky
        (vector,) = scorer.score_batch([make_chunk(0)])
        assert vector.tolist() == [0.5, 0.5]
        assert state["calls"] == 2


class CannedConnection:
    """A connection whose every reply is a 200 with the body ``read`` gives."""

    def __init__(self, read):
        self.read = read
        self.requests = []

    def request(self, method, target, body, headers):
        self.requests.append((method, target))

    def getresponse(self):
        return SimpleNamespace(status=200, will_close=False, read=self.read)

    def close(self):
        pass


def test_undecodable_reply_is_protocol_error_truncated_reply_retries(monkeypatch):
    def serve(read):
        conn = CannedConnection(read)
        monkeypatch.setattr(remote, "_connection", lambda url: conn)
        return conn.requests

    calls = serve(lambda: b"\xff\xfe{")
    with pytest.raises(ProtocolError, match="non-JSON"):
        remote._http_json("http://stub/score", {})
    assert calls == [("POST", "/score")]  # a garbled body is not retried

    def truncated():
        raise http.client.IncompleteRead(b"{", 10)

    calls = serve(truncated)
    with pytest.raises(TransportError) as exc:
        remote._http_json("http://stub/score", {})
    assert exc.value.attempts == 3 and len(calls) == 3


# Any JSON value the stub can send: scalars (with the non-finite floats
# Python's json writes as NaN and Infinity, and ints past float range)
# nested in lists and objects.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -(10**400), "0.5", "nan", "1e999"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Score rows near the contract, so the row check sees more than a shape error.
ENTRY = st.floats(-0.1, 1.1) | st.sampled_from([0.5, 0.25, 0.75, 1.0, 0]) | JSON
REPLY = (
    JSON
    | st.fixed_dictionaries({"scores": JSON})
    | st.fixed_dictionaries({"scores": st.lists(
        st.lists(ENTRY, min_size=1, max_size=3) | JSON, max_size=4)})
)


@pytest.fixture(scope="module")
def shared_stub():
    with StubScorerServer() as stub:
        yield stub


@settings(max_examples=200, deadline=None)
@given(
    num_classes=st.just(2) | JSON,
    max_batch=st.integers(1, 3) | JSON,
    status=st.sampled_from([200, 200, 200, 404, 500]),
    reply=REPLY,
    num_chunks=st.integers(1, 4),
)
def test_any_reply_gives_valid_rows_or_scorer_error(
    shared_stub, num_classes, max_batch, status, reply, num_chunks
):
    shared_stub.num_classes, shared_stub.max_batch = num_classes, max_batch
    shared_stub.respond = lambda body: (status, reply)
    chunks = [make_chunk(i) for i in range(num_chunks)]
    try:
        scorer = connect(shared_stub)
    except ContractError:  # a well-formed /info for another class count
        assert type(num_classes) is int and num_classes != 2
        return
    except ScorerError:
        return
    assert type(num_classes) is int and type(max_batch) is int and max_batch >= 1
    try:
        rows = score_chunks(scorer, chunks)
    except ScorerError:
        return
    assert rows.shape == (num_chunks, 2)
    assert np.isfinite(rows).all() and np.allclose(rows.sum(axis=1), 1.0)
