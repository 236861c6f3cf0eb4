import random

import pytest
from hypothesis import given, settings, strategies as st

from wlbind import (
    AdjlistError,
    Graph6Error,
    SimpleGraph,
    emit_adjlist,
    encode_graph6,
    parse_adjlist,
    parse_graph6,
)

from helpers import (
    all_graphs,
    k,
    mask_to_graph,
    order10_graph,
    path,
    ref_decode_graph6,
    ref_encode_graph6,
)


def test_graph6_known_strings():
    assert parse_graph6(b"A_") == k(2)
    assert parse_graph6(b"A?") == SimpleGraph.from_edges(2, [])
    assert parse_graph6(b"Bw") == k(3)
    assert encode_graph6(k(2)) == b"A_"
    assert encode_graph6(SimpleGraph.from_edges(2, [])) == b"A?"
    assert encode_graph6(k(3)) == b"Bw"


def test_graph6_accepts_header_and_whitespace():
    assert parse_graph6(b">>graph6<<A_\n") == k(2)
    assert parse_graph6("A_ ") == k(2)


def test_graph6_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert parse_graph6(encode_graph6(g)) == g


def _assert_graph6_matches_reference(g: SimpleGraph) -> None:
    data = encode_graph6(g)
    assert data == ref_encode_graph6(g)
    assert parse_graph6(data).matrix.tolist() == ref_decode_graph6(data) == g.matrix.tolist()


def test_graph6_matches_bitwise_reference_exhaustive():
    for n in range(1, 7):
        for g in all_graphs(n):
            _assert_graph6_matches_reference(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(7, 62), st.data())
def test_graph6_matches_bitwise_reference_random(n, data):
    e = n * (n - 1) // 2
    _assert_graph6_matches_reference(mask_to_graph(n, data.draw(st.integers(0, (1 << e) - 1))))


def test_graph6_matches_bitwise_reference_four_byte_header():
    rng = random.Random(100)
    g = SimpleGraph.from_edges(
        100, [(u, v) for u in range(1, 101) for v in range(u + 1, 101) if rng.random() < 0.3]
    )
    assert encode_graph6(g)[0] == 126
    _assert_graph6_matches_reference(g)


def test_graph6_long_order_field():
    g = path(70)  # needs the 3-byte order encoding
    assert parse_graph6(encode_graph6(g)) == g


def test_graph6_error_reporting():
    with pytest.raises(Graph6Error):
        parse_graph6(b"")
    with pytest.raises(Graph6Error) as e:
        parse_graph6(b"B\x00")
    assert e.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6(b"B")  # truncated body
    with pytest.raises(Graph6Error):
        parse_graph6(b"Bww")  # too many body bytes
    with pytest.raises(Graph6Error):
        parse_graph6(b"A~")  # non-zero padding bits
    with pytest.raises(Graph6Error):
        parse_graph6(b"?")  # order 0
    with pytest.raises(Graph6Error) as e:
        parse_graph6("B\u00e9")  # non-ASCII text, not a '?' byte
    assert e.value.offset == 1


def test_orders_past_the_cap_are_rejected_before_decoding():
    # a 3-byte order field of 9000 with no body: the order is refused first
    field = bytes([126] + [63 + ((9000 >> s) & 63) for s in (12, 6, 0)])
    with pytest.raises(Graph6Error, match="9000 unsupported"):
        parse_graph6(field)
    with pytest.raises(AdjlistError, match="9000 unsupported") as e:
        parse_adjlist("9000\n")
    assert e.value.line == 1


@given(st.integers(2, 12), st.data())
def test_graph6_roundtrip_random(n, data):
    e = n * (n - 1) // 2
    g = mask_to_graph(n, data.draw(st.integers(0, (1 << e) - 1)))
    assert parse_graph6(encode_graph6(g)) == g


def test_adjlist_known_strings():
    assert parse_adjlist("2\n1 2\n") == k(2)
    assert parse_adjlist("3\n1 2\n2 3\n") == path(3)
    assert emit_adjlist(k(2)) == "2\n1 2\n"


def test_adjlist_roundtrip_order10():
    g = order10_graph()
    assert len(g.edges()) == 15
    assert parse_adjlist(emit_adjlist(g)) == g


def test_adjlist_errors():
    with pytest.raises(AdjlistError):
        parse_adjlist("")
    with pytest.raises(AdjlistError):
        parse_adjlist("x\n")
    with pytest.raises(AdjlistError):
        parse_adjlist("3\n1 1\n")  # self-loop
    with pytest.raises(AdjlistError):
        parse_adjlist("3\n1 4\n")  # out of range
    with pytest.raises(AdjlistError) as e:
        parse_adjlist("3\n1 2\n2 1\n")  # duplicate edge
    assert e.value.line == 3
    with pytest.raises(AdjlistError):
        parse_adjlist("3\n1 2 3\n")


def test_codecs_mutually_consistent_exhaustive():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert parse_adjlist(emit_adjlist(g)) == parse_graph6(encode_graph6(g))
