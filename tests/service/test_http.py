"""The stdlib JSON/HTTP front end, exercised over a real socket."""

import json
import socket
import threading
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.service import ModelRegistry, ServiceApp, build_server
from repro.testing.scenarios import get_scenario

pytestmark = pytest.mark.service

SCENARIO = get_scenario("tiny-n")


@pytest.fixture(scope="module")
def server_url():
    app = ServiceApp(ModelRegistry(), num_workers=1)
    app.publish_model("tiny", SCENARIO.dataset(0), SCENARIO.config(), seed=5)
    server = build_server(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    app.close()


def get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def post(url, body):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestEndpoints:
    def test_healthz(self, server_url):
        status, payload = get(f"{server_url}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"] == 1

    def test_models(self, server_url):
        status, payload = get(f"{server_url}/models")
        assert status == 200
        (model,) = payload["models"]
        assert model["name"] == "tiny"
        assert model["k"] == SCENARIO.k
        status, payload = get(f"{server_url}/models/tiny")
        assert status == 200
        assert payload["name"] == "tiny"

    def test_session_generate_budget_roundtrip(self, server_url):
        status, session = post(
            f"{server_url}/sessions",
            {"model": "tiny", "tenant": "http", "budget": {"max_rows": 6}},
        )
        assert status == 201
        session_id = session["session_id"]
        assert session["remaining"]["rows"] == 6

        status, page = post(
            f"{server_url}/generate",
            {"session": session_id, "rows": 4, "seed": 9, "limit": 2},
        )
        assert status == 200
        assert page["requested_rows"] == 4
        assert len(page["rows"]) <= 2
        assert page["columns"] == SCENARIO.schema().names
        released = page["released_rows"]

        # Paginate the rest of the release.
        if page["next_offset"] is not None:
            status, second = get(
                f"{server_url}/releases/{page['release_id']}"
                f"?offset={page['next_offset']}&limit=100"
            )
            assert status == 200
            assert len(second["rows"]) == released - len(page["rows"])

        status, budget = get(f"{server_url}/budget?session={session_id}&ledger=1")
        assert status == 200
        assert budget["spent"]["rows"] == released
        assert [e["event"] for e in budget["ledger"]] == ["reserve", "commit"]

    def test_overspend_returns_409_with_remainder(self, server_url):
        _status, session = post(
            f"{server_url}/sessions", {"model": "tiny", "budget": {"max_rows": 1}}
        )
        status, refusal = post(
            f"{server_url}/generate", {"session": session["session_id"], "rows": 5}
        )
        assert status == 409
        assert refusal["code"] == "budget_exceeded"
        assert refusal["remaining"]["rows"] == 1

    def test_streaming_ndjson(self, server_url):
        _status, session = post(f"{server_url}/sessions", {"model": "tiny"})
        request = urllib.request.Request(
            f"{server_url}/generate",
            data=json.dumps(
                {"session": session["session_id"], "rows": 3, "seed": 4, "stream": True}
            ).encode(),
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in response.read().splitlines()]
        header, rows = lines[0], lines[1:]
        assert header["requested_rows"] == 3
        assert len(rows) == header["released_rows"]
        assert all(len(row) == len(header["columns"]) for row in rows)

    def test_malformed_integers_are_400_not_500(self, server_url):
        _status, session = post(f"{server_url}/sessions", {"model": "tiny"})
        status, payload = post(
            f"{server_url}/generate",
            {"session": session["session_id"], "rows": 2, "seed": "abc"},
        )
        assert status == 400
        assert payload["code"] == "bad_parameter"
        status, payload = get(f"{server_url}/releases/rel000001?offset=abc")
        assert status in (400, 404)  # bad offset or already-expired release
        assert payload["code"] in ("bad_parameter", "unknown_release")

    def test_negative_seed_or_attempt_budget_is_400_before_any_reserve(
        self, server_url
    ):
        _status, session = post(f"{server_url}/sessions", {"model": "tiny"})
        session_id = session["session_id"]
        for name in ("seed", "max_attempts"):
            status, payload = post(
                f"{server_url}/generate", {"session": session_id, "rows": 2, name: -1}
            )
            assert status == 400
            assert payload["code"] == "bad_parameter"
            assert name in payload["error"]
        _status, budget = get(f"{server_url}/budget?session={session_id}&ledger=1")
        assert budget["ledger"] == []

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, server_url, length):
        address = urlparse(server_url)
        with socket.create_connection((address.hostname, address.port), timeout=5) as raw:
            raw.sendall(
                b"POST /sessions HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
                + b'{"model": "tiny"}'
            )
            status_line = raw.makefile("rb").readline()
        assert status_line.split()[1] == b"400"

    def test_removed_accuracy_budget_key_is_400(self, server_url):
        status, payload = post(
            f"{server_url}/sessions",
            {"model": "tiny", "budget": {"max_rows": 10, "accuracy": "approximate"}},
        )
        assert status == 400
        assert payload["code"] == "bad_budget"
        assert "accuracy" in payload["error"]

    def test_unknown_routes_and_ids(self, server_url):
        status, payload = get(f"{server_url}/budget?session=nope")
        assert status == 404
        assert payload["code"] == "unknown_session"
        status, payload = post(f"{server_url}/sessions", {"model": "nope"})
        assert status == 404
        assert payload["code"] == "unknown_model"
        status, payload = post(f"{server_url}/generate", {"session": "x", "rows": "y"})
        assert status == 400
