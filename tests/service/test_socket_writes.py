"""Every response the server sends leaves in one socket write.

The handler's ``wfile`` is wrapped to record its writes.  A JSON page, an
error, the metrics text and an NDJSON stream must each be one write holding
the status line, the headers and the whole body.  A client that resets its
connection before the response gets none, and the server prints nothing.
"""

import json
import socket
import struct
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import ModelRegistry, ServiceApp, build_server
from repro.service.api import _ServiceHandler
from repro.testing.scenarios import get_scenario

pytestmark = pytest.mark.service


class _RecordingWriter:
    def __init__(self, raw, writes: list):
        self._raw = raw
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture()
def served(monkeypatch):
    """A tiny-n server whose handlers record their writes, one list per connection."""
    connections: list[list[bytes]] = []
    setup = _ServiceHandler.setup

    def recording_setup(handler):
        setup(handler)
        connections.append([])
        handler.wfile = _RecordingWriter(handler.wfile, connections[-1])

    monkeypatch.setattr(_ServiceHandler, "setup", recording_setup)
    scenario = get_scenario("tiny-n")
    app = ServiceApp(ModelRegistry(), num_workers=1)
    app.publish_model("m", scenario.dataset(0), scenario.config(), seed=5)
    server = build_server(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", connections
    finally:
        server.shutdown()
        server.server_close()
        app.close()


def _fetch(url, body=None):
    request = urllib.request.Request(
        url, data=None if body is None else json.dumps(body).encode()
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def test_every_response_is_one_socket_write(served):
    base, connections = served
    status, body = _fetch(base + "/sessions", {"model": "m", "budget": {"max_rows": 100}})
    session = json.loads(body)["session_id"]
    requests = [
        ("/healthz", None),
        ("/metrics", None),
        ("/no-such-route", None),
        ("/generate", {"session": session, "rows": 4, "seed": 1}),
        ("/generate", {"session": session, "rows": 4, "seed": 2, "stream": True}),
        (f"/budget?session={session}&ledger=1", None),
    ]
    received = [(status, body)] + [_fetch(base + path, payload) for path, payload in requests]
    assert [status for status, _ in received] == [201, 200, 200, 404, 200, 200, 200]
    assert len(received[5][1].splitlines()) == 5  # the stream: a header line and 4 rows
    assert len(connections) == len(received)
    for writes, (status, body) in zip(connections, received):
        assert len(writes) == 1, [len(write) for write in writes]
        head, _, sent_body = writes[0].partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.0 {status} ".encode())
        assert sent_body == body


def test_a_client_that_resets_its_connection_prints_no_traceback(served, capsys):
    base, _ = served
    _, body = _fetch(base + "/sessions", {"model": "m", "budget": {"max_rows": 100000}})
    session = json.loads(body)["session_id"]
    host, port = base.removeprefix("http://").split(":")
    for seed in range(10):
        payload = json.dumps(
            {"session": session, "rows": 2000, "seed": seed, "stream": bool(seed % 2)}
        ).encode()
        client = socket.create_connection((host, int(port)))
        client.sendall(
            f"POST /generate HTTP/1.0\r\nContent-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        # Linger 0: close() sends a reset instead of a FIN.
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client.close()
    status, _ = _fetch(base + "/generate", {"session": session, "rows": 2, "seed": 99})
    assert status == 200
    assert "Traceback" not in capsys.readouterr().err
