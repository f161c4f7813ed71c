"""The bytes a tenant receives, pinned, and the decoder's range check.

The digests below were recorded from responses of the server before its
response path was rewritten (one decoder on the schema, one ``json.dumps``
per payload).  A fresh app answers a fixed request sequence on two
scenarios: ``tiny-n``, whose attempts all pass, and ``toy-correlated``, a
randomized test whose releases skip failed attempts and whose budgets are
fractional ε.  ``created_at`` and ``timestamp`` values are wall-clock
readings, so they are masked before hashing and every other byte counts.
"""

import hashlib
import json
import re
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.results import SynthesisReport
from repro.service import ModelRegistry, ServiceApp, build_server
from repro.service.api import ReleaseRecord
from repro.testing.scenarios import get_scenario

pytestmark = pytest.mark.service

_WALL_CLOCK = re.compile(rb'"(created_at|timestamp)": [^,}]+')

#: Per scenario, the session budget and the sha256 of each masked body.
BUDGETS = {
    "tiny-n": {"max_rows": 100},
    "toy-correlated": {"epsilon": 1000.0, "max_rows": 100},
}
PINNED = {
    "tiny-n": {
        "budget_ledger": "fb4fced2a074b6424b9db3d778e314bbd98c08f770209dcd342f37121f7dd7c2",
        "generate_page": "b163bdb3b28f2e3c4d376492f84e481f08cfc787803bff1d5198f93252fafe66",
        "generate_stream": "09c831ba044659d4963a301757a748d7344b324ebd78d9faad013c569fd7d7e2",
        "release_offset_0": "aecf2eb4dc9c8bcbeb4f1c5e100412a585992248fb16758ecc001658debc5376",
        "release_offset_2": "86eedc4244a46bb95d8391af382a2514fbed2db81abacfd88c388ad6e14dfaaf",
    },
    "toy-correlated": {
        "budget_ledger": "476e09796e79d5f13e2f16b0939295d138398df3cded5667cf5282f581b84487",
        "generate_page": "8cb698ee69bc4541ae1d59462289effe4a074d21a7a104653c604acc0c212d08",
        "generate_stream": "adc1451dc642831fbdf71440326552e5f0670054275e1223fae45f23e7b3ea78",
        "release_offset_0": "a02397d6b1b40b878d6aee60cf809fa1337d41857709e9b3b4f8537e86144d45",
        "release_offset_2": "f967bc586b780f8e462f7c28ae665bdb659643fc8a31a4b41aab4ec1a17c5691",
    },
}


def _digest(body: bytes) -> str:
    return hashlib.sha256(_WALL_CLOCK.sub(rb'"\1": 0', body)).hexdigest()


@pytest.fixture(scope="module", params=sorted(PINNED))
def bodies(request):
    scenario = get_scenario(request.param)
    app = ServiceApp(ModelRegistry(), num_workers=1)
    app.publish_model("m", scenario.dataset(0), scenario.config(), seed=5)
    server = build_server(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    def fetch(path, body=None):
        request = urllib.request.Request(
            base + path, data=None if body is None else json.dumps(body).encode()
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.read()

    try:
        session = json.loads(
            fetch("/sessions", {"model": "m", "tenant": "pinned",
                                "budget": BUDGETS[request.param]})
        )["session_id"]
        page = fetch("/generate", {"session": session, "rows": 6, "seed": 11})
        stream = fetch(
            "/generate", {"session": session, "rows": 6, "seed": 12, "stream": True}
        )
        release_id = json.loads(page)["release_id"]
        yield request.param, {
            "generate_page": page,
            "generate_stream": stream,
            "release_offset_0": fetch(f"/releases/{release_id}?offset=0&limit=100"),
            "release_offset_2": fetch(f"/releases/{release_id}?offset=2&limit=3"),
            "budget_ledger": fetch(f"/budget?session={session}&ledger=1"),
        }
    finally:
        server.shutdown()
        server.server_close()
        app.close()


def test_response_bytes_match_pinned_digests(bodies):
    scenario, responses = bodies
    digests = {name: _digest(body) for name, body in responses.items()}
    assert digests == PINNED[scenario]


def test_the_pinned_pages_hold_rows(bodies):
    """The digests pin rows only if every page and the stream carry some."""
    _scenario, responses = bodies
    assert json.loads(responses["release_offset_2"])["rows"]
    assert json.loads(responses["generate_page"])["rows"]
    assert len(responses["generate_stream"].splitlines()) > 1


def _record(codes, passed=None) -> ReleaseRecord:
    schema = get_scenario("tiny-n").schema()
    candidates = np.array(codes, dtype=np.int64)
    rows = len(candidates)
    report = SynthesisReport(
        schema,
        {
            "seed_indices": np.zeros(rows, dtype=np.int64),
            "candidates": candidates,
            "passed": np.ones(rows, dtype=bool) if passed is None else passed,
            "plausible_seeds": np.zeros(rows, dtype=np.int64),
            "partition_indices": np.zeros(rows, dtype=np.int64),
            "thresholds": np.zeros(rows),
            "records_checked": np.zeros(rows, dtype=np.int64),
            "count_saturated": np.zeros(rows, dtype=bool),
        },
    )
    return ReleaseRecord(
        release_id="rel000001",
        request_id="s00001-r00001",
        session_id="s00001",
        model_id="m",
        base_seed=0,
        requested_rows=rows,
        report=report,
        created_at=0.0,
    )


@pytest.mark.parametrize("bad", ["cardinality", "negative"])
def test_decoded_rows_refuse_codes_outside_the_domain(bad):
    cardinalities = get_scenario("tiny-n").schema().cardinalities
    row = [0] * len(cardinalities)
    row[1] = cardinalities[1] if bad == "cardinality" else -1
    record = _record([[0] * len(cardinalities), row])
    with pytest.raises(ValueError, match="outside the domain"):
        record.decoded_rows()
    # The page that holds only the in-domain row decodes.
    assert len(record.decoded_rows(0, 1)) == 1


def test_decoded_rows_gather_the_window_of_released_rows():
    schema = get_scenario("tiny-n").schema()
    codes = np.random.default_rng(3).integers(0, schema.cardinalities, size=(9, 3))
    passed = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=bool)
    record = _record(codes, passed)
    expected = [
        [attribute.values[code] for attribute, code in zip(schema, row)]
        for row in codes[passed]
    ]
    assert record.decoded_rows() == expected
    for offset in range(6):
        for limit in (1, 2, 5):
            assert record.decoded_rows(offset, limit) == expected[offset:offset + limit]
