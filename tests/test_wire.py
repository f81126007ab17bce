"""Binary wire protocol: framed codec, negotiation, and the HTTP fast path.

Covers the tentpole contracts:

* ``wire.dumps`` / ``wire.loads`` round-trip JSON-like trees with numpy
  arrays bit-for-bit (dtype, shape, and bytes preserved; no pickle);
* malformed frames -- bad magic, unknown version, truncation, forbidden
  dtypes, reserved keys, negative shapes -- raise
  :class:`~repro.service.wire.WireError`;
* the columnar answer forms (id lists, neighbor lists) round-trip through
  frames and still accept the plain JSON shapes;
* content negotiation: ``binary=True`` clients get answers bit-for-bit
  equal to JSON clients and to direct in-process calls on all four query
  endpoints across LA / Words / Color, while plain JSON clients and
  mixed ``Content-Type``/``Accept`` pairings keep working;
* binary-framed errors still surface as :class:`ServiceClientError`;
* the structured access log emits one JSON line per request with the
  negotiated codec, and stays silent when disabled.
"""

from __future__ import annotations

import http.client
import io
import json
import time

import numpy as np
import pytest

from conftest import RADIUS
from repro import QueryService
from repro.core.queries import Neighbor
from repro.service import wire
from repro.service.http import HttpQueryServer, ServiceClient, ServiceClientError

K = 5


# ---------------------------------------------------------------------------
# frame codec round trips
# ---------------------------------------------------------------------------


def test_frame_roundtrip_plain_json_tree():
    payload = {
        "a": 1,
        "b": 2.5,
        "c": "text",
        "d": None,
        "e": True,
        "f": [1, [2, {"g": "nested"}]],
    }
    assert wire.loads(wire.dumps(payload)) == payload


@pytest.mark.parametrize(
    "dtype",
    ["float64", "float32", "int64", "int32", "uint8", "bool", "complex128"],
)
def test_frame_roundtrip_ndarray_bit_for_bit(dtype):
    rng = np.random.default_rng(3)
    arr = (rng.random((7, 5)) * 100).astype(dtype)
    out = wire.loads(wire.dumps({"arr": arr}))["arr"]
    assert out.dtype == np.dtype(dtype).newbyteorder("<").newbyteorder("=")
    assert out.shape == arr.shape
    assert out.tobytes() == arr.tobytes()


def test_frame_roundtrip_noncontiguous_and_nested_arrays():
    base = np.arange(40, dtype=np.float64).reshape(8, 5)
    view = base[::2, 1:4]  # non-contiguous view must be serialised correctly
    payload = {"top": view, "deep": [{"inner": np.array([1, 2, 3], np.int64)}]}
    out = wire.loads(wire.dumps(payload))
    assert np.array_equal(out["top"], view)
    assert np.array_equal(out["deep"][0]["inner"], [1, 2, 3])


def test_frame_arrays_decode_zero_copy_readonly():
    out = wire.loads(wire.dumps({"a": np.arange(10, dtype=np.int64)}))["a"]
    # decoded arrays are frombuffer views over the frame -- never a copy,
    # therefore never writeable
    assert not out.flags.writeable


@pytest.mark.parametrize("q,d", [(1, 2), (16, 282), (64, 282), (7, 3)])
def test_query_batch_frame_is_its_header_and_exactly_its_floats(q, d):
    """The binary frame of a ``q x d`` float64 batch costs no per-element
    byte: its prefix, its JSON header, the first buffer's alignment and
    exactly ``8 q d`` bytes; it decodes as a read-only view of the frame.
    (The property a wall-ratio gate against the in-process call stood for.)"""
    queries = np.random.default_rng(q).random((q, d))
    frame = wire.dumps({"queries": queries, "radius": 2.0, "k": 5})
    magic, version, header_len = wire._PREFIX.unpack_from(frame)
    assert (magic, version) == (wire.WIRE_MAGIC, wire.WIRE_VERSION)
    header = json.loads(frame[wire._PREFIX.size : wire._PREFIX.size + header_len])
    assert header == {
        "tree": {"queries": {"$nd": 0}, "radius": 2.0, "k": 5},
        "arrays": [{"dtype": "<f8", "shape": [q, d], "offset": 0, "nbytes": 8 * q * d}],
    }
    assert len(frame) == wire._PREFIX.size + header_len + wire._align(0) + 8 * q * d
    out = wire.loads(frame)["queries"]
    assert out.dtype == np.float64 and out.shape == (q, d)
    assert out.tobytes() == queries.tobytes()
    assert not out.flags.writeable
    assert np.shares_memory(out, np.frombuffer(frame, dtype=np.uint8))


def test_frame_scalar_numpy_values_become_python():
    out = wire.loads(wire.dumps({"x": np.float64(1.5), "n": np.int64(7)}))
    assert out == {"x": 1.5, "n": 7}
    assert type(out["x"]) is float and type(out["n"]) is int


# ---------------------------------------------------------------------------
# malformed frames
# ---------------------------------------------------------------------------


def test_frame_rejects_object_dtype_on_encode():
    with pytest.raises(wire.WireError, match="numeric"):
        wire.dumps({"bad": np.array(["a", "b"], dtype=object)})


def test_frame_rejects_reserved_key():
    with pytest.raises(wire.WireError, match=r"\$nd"):
        wire.dumps({"$nd": 0})


def test_frame_rejects_bad_magic():
    blob = bytearray(wire.dumps({"a": 1}))
    blob[:4] = b"NOPE"
    with pytest.raises(wire.WireError, match="magic"):
        wire.loads(bytes(blob))


def test_frame_rejects_unknown_version():
    blob = bytearray(wire.dumps({"a": 1}))
    blob[4] = 99
    with pytest.raises(wire.WireError, match="version"):
        wire.loads(bytes(blob))


def test_frame_rejects_truncation():
    blob = wire.dumps({"a": np.arange(100, dtype=np.float64)})
    for cut in (3, 10, len(blob) - 7):
        with pytest.raises(wire.WireError):
            wire.loads(blob[:cut])


def test_frame_rejects_smuggled_object_dtype():
    # a tampered header naming a non-numeric dtype must not reach numpy
    blob = wire.dumps({"a": np.arange(4, dtype=np.float64)})
    assert b'"<f8"' in blob
    with pytest.raises(wire.WireError):
        wire.loads(blob.replace(b'"<f8"', b'"|O8"', 1))


def test_frame_rejects_negative_shape():
    # a tampered negative shape with a matching negative byte count (same
    # header length) must be refused, not handed to numpy
    blob = wire.dumps({"a": np.arange(4, dtype=np.float64)})
    tampered = blob.replace(b'"shape": [4]', b'"shape":[-4]', 1).replace(
        b'"nbytes": 32', b'"nbytes":-32', 1
    )
    assert tampered != blob
    with pytest.raises(wire.WireError, match="negative"):
        wire.loads(tampered)


def test_accepts_binary_header_matching():
    assert wire.accepts_binary(wire.BINARY_CONTENT_TYPE)
    assert wire.accepts_binary(f"{wire.BINARY_CONTENT_TYPE}; q=1.0")
    assert not wire.accepts_binary("application/json")
    assert not wire.accepts_binary(None)
    assert not wire.accepts_binary("")


# ---------------------------------------------------------------------------
# columnar answer forms
# ---------------------------------------------------------------------------


def test_id_list_forms_roundtrip_and_accept_json():
    ids = [3, 1, 4, 15]
    packed = wire.loads(wire.dumps({"ids": wire.pack_id_list(ids)}))["ids"]
    assert wire.unpack_id_list(packed) == ids
    assert all(type(i) is int for i in wire.unpack_id_list(packed))
    assert wire.unpack_id_list(ids) == ids  # plain JSON form

    lists = [[5, 2], [], [9, 8, 7]]
    packed = wire.loads(wire.dumps({"r": wire.pack_id_lists(lists)}))["r"]
    assert wire.unpack_id_lists(packed) == lists
    assert wire.unpack_id_lists(lists) == lists  # plain JSON form


def test_neighbor_forms_roundtrip_and_accept_json():
    answer = [Neighbor(1.5, 3), Neighbor(2.25, 8)]
    packed = wire.loads(wire.dumps({"n": wire.pack_neighbors(answer)}))["n"]
    assert wire.unpack_neighbors(packed) == answer
    assert wire.unpack_neighbors([[1.5, 3], [2.25, 8]]) == answer  # JSON form

    lists = [answer, [], [Neighbor(0.0, 1)]]
    packed = wire.loads(wire.dumps({"r": wire.pack_neighbor_lists(lists)}))["r"]
    assert wire.unpack_neighbor_lists(packed) == lists
    json_form = [[[n.distance, n.object_id] for n in ns] for ns in lists]
    assert wire.unpack_neighbor_lists(json_form) == lists


# ---------------------------------------------------------------------------
# negotiated HTTP fast path
# ---------------------------------------------------------------------------


@pytest.fixture
def served_factory(datasets, built_indexes):
    """Start a LAESA server over any conftest dataset; yields a builder."""
    stack = []

    def start(dataset_name, **server_kwargs):
        index = built_indexes(dataset_name, "LAESA")
        service = QueryService(index, cache_size=0, use_dispatcher=False)
        server = HttpQueryServer(service, **server_kwargs).start()
        stack.append((server, service))
        return index, server

    yield start
    for server, service in reversed(stack):
        server.close()
        service.close()


@pytest.mark.parametrize("dataset_name", ["LA", "Words", "Color"])
def test_binary_equals_json_equals_inproc_all_endpoints(
    served_factory, datasets, dataset_name
):
    """The acceptance matrix: binary == JSON == in-process, all endpoints."""
    index, server = served_factory(dataset_name)
    dataset = datasets[dataset_name]
    queries = [dataset[i] for i in range(6)]
    radius = RADIUS[dataset_name]
    with ServiceClient(port=server.port) as json_client, ServiceClient(
        port=server.port, binary=True
    ) as bin_client:
        for q in queries:
            expected_range = index.range_query(q, radius)
            expected_knn = index.knn_query(q, K)
            assert json_client.range_query(q, radius) == expected_range
            assert bin_client.range_query(q, radius) == expected_range
            assert json_client.knn_query(q, K) == expected_knn
            assert bin_client.knn_query(q, K) == expected_knn
        expected_range_many = index.range_query_many(queries, radius)
        expected_knn_many = index.knn_query_many(queries, K)
        assert json_client.range_query_many(queries, radius) == expected_range_many
        assert bin_client.range_query_many(queries, radius) == expected_range_many
        assert json_client.knn_query_many(queries, K) == expected_knn_many
        assert bin_client.knn_query_many(queries, K) == expected_knn_many


def test_mixed_negotiation_raw_requests(served_factory, datasets):
    """Content-Type and Accept are honoured independently."""
    index, server = served_factory("LA")
    query = np.asarray(datasets["LA"][0], dtype=np.float64)
    radius = RADIUS["LA"]
    expected = index.range_query(query, radius)

    def post(body, content_type, accept):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            headers = {"Content-Type": content_type}
            if accept:
                headers["Accept"] = accept
            conn.request("POST", "/range", body, headers)
            resp = conn.getresponse()
            return resp.status, resp.getheader("Content-Type"), resp.read()
        finally:
            conn.close()

    # binary request body, default (JSON) response
    status, ctype, body = post(
        wire.dumps({"query": query, "radius": radius}),
        wire.BINARY_CONTENT_TYPE,
        None,
    )
    assert status == 200 and "application/json" in ctype
    assert json.loads(body)["ids"] == expected

    # JSON request body, binary response
    status, ctype, body = post(
        json.dumps({"query": query.tolist(), "radius": radius}).encode(),
        "application/json",
        wire.BINARY_CONTENT_TYPE,
    )
    assert status == 200 and wire.accepts_binary(ctype)
    assert body[:4] == wire.WIRE_MAGIC
    assert wire.unpack_id_list(wire.loads(body)["ids"]) == expected


def test_binary_errors_surface_as_client_errors(served_factory):
    _, server = served_factory("LA")
    with ServiceClient(port=server.port, binary=True) as client:
        # wrong query type for a vector index -> 400, error framed binary
        with pytest.raises(ServiceClientError):
            client.range_query("not-a-vector", 1.0)
        # wrong dimensionality -> server-side error, still a clean exception
        with pytest.raises(ServiceClientError):
            client.range_query(np.zeros(1), 1.0)


def test_malformed_binary_body_is_bad_request(served_factory):
    _, server = served_factory("LA")
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    try:
        conn.request(
            "POST",
            "/range",
            b"RPWB\x01garbage",
            {"Content-Type": wire.BINARY_CONTENT_TYPE},
        )
        assert conn.getresponse().status == 400
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# structured access log
# ---------------------------------------------------------------------------


def test_access_log_emits_one_json_line_per_request(served_factory, datasets):
    log = io.StringIO()
    index, server = served_factory("LA", access_log=log)
    radius = RADIUS["LA"]
    with ServiceClient(port=server.port) as json_client, ServiceClient(
        port=server.port, binary=True
    ) as bin_client:
        json_client.range_query(datasets["LA"][0], radius)
        bin_client.knn_query(datasets["LA"][1], K)
        json_client.healthz()
    # the log line is written just after the response is flushed to the
    # client, so give the handler threads a moment to finish
    deadline = time.monotonic() + 5.0
    while log.getvalue().count("\n") < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    lines = [json.loads(line) for line in log.getvalue().splitlines()]
    assert len(lines) == 3
    by_path = {entry["path"]: entry for entry in lines}
    assert by_path["/range"]["codec"] == "json"
    assert by_path["/knn"]["codec"] == "binary"
    for entry in lines:
        assert entry["status"] == 200
        assert entry["wall_ms"] >= 0
        assert entry["nbytes"] > 0
        assert entry["ts"] > 0
        assert entry["method"] in ("GET", "POST")


def test_access_log_off_by_default(served_factory, datasets):
    index, server = served_factory("LA")
    assert server.access_log is None
    with ServiceClient(port=server.port) as client:
        client.range_query(datasets["LA"][0], RADIUS["LA"])
