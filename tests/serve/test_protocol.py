"""Tests for :mod:`repro.serve.protocol` (the JSON-lines wire format)."""

import numpy as np
import pytest

from repro.core import (
    EqualityQuery,
    EqualityThresholdQuery,
    EqualityTopKQuery,
    QueryError,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
    UncertainAttribute,
    WindowedEqualityQuery,
)
from repro.core.results import Match, QueryResult
from repro.serve.protocol import (
    ProtocolError,
    decode_line,
    encode_line,
    matches_to_wire,
    parse_request,
    query_from_wire,
    query_to_wire,
)


def uda(*pairs):
    return UncertainAttribute.from_pairs(list(pairs))


EXAMPLES = [
    EqualityQuery(uda((2, 0.5), (9, 0.25))),
    EqualityThresholdQuery(uda((0, 0.125), (4, 0.5)), 0.1),
    EqualityTopKQuery(uda((1, 1.0)), 3),
    WindowedEqualityQuery(uda((3, 0.5), (5, 0.5)), 0.2, 1),
    SimilarityThresholdQuery(uda((2, 0.75)), 0.4, "l1"),
    SimilarityTopKQuery(uda((2, 0.25), (3, 0.75)), 2, "kl"),
]


@pytest.mark.parametrize("query", EXAMPLES, ids=lambda q: type(q).__name__)
def test_query_round_trips_bit_exactly(query):
    wire = query_to_wire(query)
    back = query_from_wire(wire)
    assert type(back) is type(query)
    assert np.array_equal(back.q.items, query.q.items)
    assert np.array_equal(back.q.probs, query.q.probs)
    for name in ("threshold", "k", "window", "divergence"):
        if hasattr(query, name):
            assert getattr(back, name) == getattr(query, name)


def test_round_trip_survives_json(tmp_path):
    """The full encode -> bytes -> decode path preserves the query."""
    query = EqualityThresholdQuery(uda((7, 1 / 3), (11, 1 / 7)), 0.05)
    line = encode_line({"id": 1, **query_to_wire(query)})
    back = parse_request(decode_line(line))
    assert np.array_equal(back.query.q.probs, query.q.probs)


def test_unknown_kind_rejected():
    with pytest.raises(ProtocolError, match="unknown query kind"):
        query_from_wire({"kind": "join", "items": [1], "probs": [0.5]})


def test_missing_field_rejected():
    with pytest.raises(ProtocolError, match="threshold"):
        query_from_wire({"kind": "petq", "items": [1], "probs": [0.5]})


def test_bad_distribution_rejected():
    with pytest.raises(ProtocolError, match="bad distribution"):
        query_from_wire(
            {"kind": "peq", "items": [1, "x"], "probs": [0.5, 0.5]}
        )


def test_descriptor_validation_propagates():
    # Structurally valid wire, semantically invalid query: the
    # descriptor's own QueryError surfaces (threshold out of range).
    with pytest.raises(QueryError):
        query_from_wire(
            {"kind": "petq", "items": [1], "probs": [0.5], "threshold": 2.0}
        )


def test_unsupported_query_type_rejected_on_encode():
    with pytest.raises(ProtocolError, match="unsupported query type"):
        query_to_wire(object())


def test_request_requires_id():
    with pytest.raises(ProtocolError, match="id"):
        parse_request(query_to_wire(EXAMPLES[0]))


def test_request_id_must_be_scalar():
    message = {"id": True, **query_to_wire(EXAMPLES[0])}
    with pytest.raises(ProtocolError, match="'id'"):
        parse_request(message)


def test_request_deadline_validated():
    message = {"id": 1, "deadline_ms": -5, **query_to_wire(EXAMPLES[0])}
    with pytest.raises(ProtocolError, match="deadline_ms"):
        parse_request(message)


def test_request_tau_floor_roundtrips_on_topk():
    message = {"id": 1, "tau_floor": 0.25, **query_to_wire(EXAMPLES[2])}
    request = parse_request(message)
    assert request.tau_floor == 0.25
    assert parse_request(
        {"id": 2, **query_to_wire(EXAMPLES[2])}
    ).tau_floor == 0.0


def test_request_tau_floor_must_be_non_negative():
    message = {"id": 1, "tau_floor": -0.1, **query_to_wire(EXAMPLES[2])}
    with pytest.raises(ProtocolError, match="tau_floor"):
        parse_request(message)


def test_request_tau_floor_rejected_off_topk():
    message = {"id": 1, "tau_floor": 0.25, **query_to_wire(EXAMPLES[1])}
    with pytest.raises(ProtocolError, match="tau_floor"):
        parse_request(message)


def test_request_tau_floor_rejected_on_mutation():
    message = {
        "id": 1,
        "tau_floor": 0.25,
        "mutate": "delete",
        "tid": 3,
    }
    with pytest.raises(ProtocolError, match="tau_floor"):
        parse_request(message)


def test_request_sketch_roundtrips_on_similarity():
    # simtq and simtopk both accept the override; absent means "defer
    # to the server's resolved REPRO_SKETCH mode".
    for example in (EXAMPLES[4], EXAMPLES[5]):
        wire = query_to_wire(example)
        for mode in ("off", "exact", "approx"):
            request = parse_request(
                decode_line(encode_line({"id": 1, "sketch": mode, **wire}))
            )
            assert request.sketch == mode
        assert parse_request({"id": 2, **wire}).sketch is None


def test_request_div_ceiling_roundtrips_on_simtopk():
    wire = query_to_wire(EXAMPLES[5])
    request = parse_request(
        decode_line(encode_line({"id": 1, "div_ceiling": 0.625, **wire}))
    )
    assert request.div_ceiling == 0.625
    assert parse_request({"id": 2, **wire}).div_ceiling is None
    # Zero is a legal ceiling ("nothing can beat the heap").
    assert parse_request(
        {"id": 3, "div_ceiling": 0, **wire}
    ).div_ceiling == 0.0


def test_request_sketch_value_validated():
    message = {"id": 1, "sketch": "sorta", **query_to_wire(EXAMPLES[4])}
    with pytest.raises(ProtocolError, match="'sketch'"):
        parse_request(message)


def test_request_sketch_rejected_off_similarity():
    # Equality kinds never take the sketch override, valid value or not.
    for example in (EXAMPLES[0], EXAMPLES[1], EXAMPLES[2], EXAMPLES[3]):
        message = {"id": 1, "sketch": "exact", **query_to_wire(example)}
        with pytest.raises(
            ProtocolError, match="only applies to similarity"
        ):
            parse_request(message)


def test_request_div_ceiling_rejected_off_simtopk():
    # Similarity thresholds and every equality kind refuse the ceiling.
    for example in (EXAMPLES[2], EXAMPLES[4]):
        message = {"id": 1, "div_ceiling": 0.5, **query_to_wire(example)}
        with pytest.raises(
            ProtocolError, match="only applies to simtopk"
        ):
            parse_request(message)


def test_request_div_ceiling_must_be_non_negative_number():
    wire = query_to_wire(EXAMPLES[5])
    for bad in (-0.5, True, "low"):
        message = {"id": 1, "div_ceiling": bad, **wire}
        with pytest.raises(ProtocolError, match="div_ceiling"):
            parse_request(message)


@pytest.mark.parametrize("kind_index", [2, 5], ids=["topk", "simtopk"])
@pytest.mark.parametrize("bad_k", [True, False, 2.5, 3.0, float("inf"), "3"])
def test_request_k_must_be_an_integer(kind_index, bad_k):
    # JSON true would otherwise run as k=1, and 2.5 reach the executors.
    wire = {**query_to_wire(EXAMPLES[kind_index]), "k": bad_k}
    with pytest.raises(QueryError, match="k must be an integer"):
        parse_request(decode_line(encode_line({"id": 1, **wire})))


@pytest.mark.parametrize(
    "field, kind_index",
    [("deadline_ms", 0), ("tau_floor", 2), ("div_ceiling", 5)],
)
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_request_numbers_must_be_finite(field, kind_index, bad):
    # NaN passes every "< 0" test; JSON admits NaN and Infinity.
    line = encode_line({"id": 1, **query_to_wire(EXAMPLES[kind_index])})
    line = line[:-2] + f', "{field}": {bad}}}\n'.encode()
    with pytest.raises(ProtocolError, match=field):
        parse_request(decode_line(line))


def test_similarity_threshold_must_be_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(QueryError, match="finite"):
            SimilarityThresholdQuery(uda((2, 0.75)), bad, "l1")
    wire = {**query_to_wire(EXAMPLES[4]), "threshold": float("nan")}
    with pytest.raises(QueryError, match="finite"):
        parse_request({"id": 1, **wire})


def test_request_sketch_fields_rejected_on_mutation():
    for extra in ({"sketch": "exact"}, {"div_ceiling": 0.5}):
        message = {"id": 1, "mutate": "compact", **extra}
        with pytest.raises(ProtocolError, match="not valid on a mutation"):
            parse_request(message)


def test_decode_line_rejects_non_json():
    with pytest.raises(ProtocolError, match="not valid JSON"):
        decode_line(b"{nope\n")


def test_decode_line_rejects_non_object():
    with pytest.raises(ProtocolError, match="not an object"):
        decode_line(b"[1, 2]\n")


def test_encode_line_is_deterministic():
    message = {"b": 1, "a": 2}
    assert encode_line(message) == b'{"a":2,"b":1}\n'


def test_matches_to_wire_preserves_presentation_order():
    result = QueryResult(
        matches=[Match(tid=5, score=0.25), Match(tid=2, score=0.75)]
    )
    assert matches_to_wire(result) == [[2, 0.75], [5, 0.25]]
