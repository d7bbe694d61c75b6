"""Binary proof encoding: the integer codec, rule schemas, fact keys."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from graphcanon import Coloring, Graph, proof
from graphcanon.proof import (
    FACT_KINDS,
    INT_WIDTH,
    MAX_WIRE_INT,
    Canonical,
    CanonicalLeaf,
    ColoringAxiom,
    Equitable,
    ExtendPath,
    Individualize,
    InvariantAxiom,
    InvariantsEqual,
    InvariantsEqualSym,
    MergeOrbits,
    OnPath,
    OrbitsAxiom,
    OrbitSubset,
    PathAxiom,
    PhiEqual,
    PruneAutomorphism,
    PruneInvariant,
    PruneLeaf,
    PruneOrbits,
    PruneParent,
    Pruned,
    ProofDecodeError,
    ProofEncodeError,
    REqual,
    RFiner,
    SplitColoring,
    TargetCell,
    TargetIs,
    decode_int,
    decode_proof,
    decode_rule,
    encode_int,
    encode_ints,
    encode_proof,
    encode_rule,
    fact_key,
    proof_to_ints,
)
from oracle_utils import (
    corruptions,
    random_rule,
    reference_decode_rule,
    reference_proof_to_ints,
    rngs,
)

BOUNDARY_INTS = [0, 1, 1 << 6, 1 << 12, 1 << 18, 1 << 24, 1 << 30, MAX_WIRE_INT]


# ---------------------------------------------------------------------------
# Integer codec
# ---------------------------------------------------------------------------


def test_encode_int_goldens():
    assert encode_int(0) == bytes.fromhex("fc 80 80 80 80 80".replace(" ", ""))
    assert encode_int(17) == bytes.fromhex("fc 80 80 80 80 91".replace(" ", ""))
    assert encode_int(MAX_WIRE_INT) == bytes.fromhex(
        "fd bf bf bf bf bf".replace(" ", "")
    )


def test_every_int_is_six_bytes():
    for v in BOUNDARY_INTS:
        assert len(encode_int(v)) == INT_WIDTH


@pytest.mark.parametrize("v", BOUNDARY_INTS)
def test_boundary_round_trip(v):
    data = encode_int(v)
    value, pos = decode_int(data)
    assert value == v and pos == INT_WIDTH


@given(st.integers(0, MAX_WIRE_INT))
def test_int_round_trip(v):
    assert decode_int(encode_int(v)) == (v, INT_WIDTH)


def test_encode_rejects_out_of_range():
    with pytest.raises(ProofEncodeError):
        encode_int(-1)
    with pytest.raises(ProofEncodeError):
        encode_int(MAX_WIRE_INT + 1)


def test_decode_rejects_truncation():
    data = encode_int(12345)
    for cut in range(INT_WIDTH):
        with pytest.raises(ProofDecodeError):
            decode_int(data[:cut])


def test_decode_rejects_bad_lead_byte():
    data = bytearray(encode_int(7))
    data[0] = 0x80  # continuation marker where a lead byte belongs
    with pytest.raises(ProofDecodeError):
        decode_int(bytes(data))


def test_decode_rejects_bad_continuation_byte():
    data = bytearray(encode_int(7))
    data[3] = 0xFC  # lead marker where a continuation byte belongs
    with pytest.raises(ProofDecodeError):
        decode_int(bytes(data))


def test_decode_offset_is_reported():
    bad = encode_int(1) + b"\xff"
    with pytest.raises(ProofDecodeError) as exc_info:
        decode_int(bad, INT_WIDTH)
    assert exc_info.value.offset == INT_WIDTH


def test_encode_ints_round_trip():
    values = [3, 0, MAX_WIRE_INT, 17]
    assert proof_to_ints(encode_ints(values)) == values


@pytest.mark.parametrize(
    "values", [[], BOUNDARY_INTS, BOUNDARY_INTS[::-1], [MAX_WIRE_INT] * 3]
)
def test_encode_ints_matches_per_integer_encoding(values):
    assert encode_ints(values) == b"".join(map(encode_int, values))


@given(st.lists(st.integers(0, MAX_WIRE_INT), max_size=40))
def test_encode_ints_matches_per_integer_encoding_on_random_lists(values):
    assert encode_ints(values) == b"".join(map(encode_int, values))


@pytest.mark.parametrize(
    "values, bad",
    [([5, -1, 2**31], -1), ([5, 2**31, -1], 2**31), ([-3], -3), ([0, 1, 2**40], 2**40)],
)
def test_encode_ints_names_the_first_value_out_of_range(values, bad):
    with pytest.raises(ProofEncodeError) as bulk:
        encode_ints(values)
    with pytest.raises(ProofEncodeError) as single:
        encode_int(bad)
    assert str(bulk.value) == str(single.value) == f"integer {bad} outside wire range"


def _outcome(decode, *args):
    """What a decoder returns, or the type, message and offset it raises."""
    try:
        return decode(*args)
    except ProofDecodeError as exc:
        return type(exc), str(exc), exc.offset


@settings(max_examples=60)
@given(st.lists(st.integers(0, MAX_WIRE_INT), max_size=12), st.data())
def test_bulk_int_reader_matches_per_integer_reader(values, data):
    stream = encode_ints(values)
    assert proof_to_ints(stream) == reference_proof_to_ints(stream) == values
    for cut in range(len(stream)):
        short = stream[:cut]
        expected = _outcome(reference_proof_to_ints, short)
        assert _outcome(proof_to_ints, short) == expected
    for bad in corruptions(stream):
        assert _outcome(proof_to_ints, bad) == _outcome(reference_proof_to_ints, bad)
    noise = data.draw(st.binary(max_size=20))
    assert _outcome(proof_to_ints, noise) == _outcome(reference_proof_to_ints, noise)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2, 63, 64, 65, 200]), rngs)
def test_bulk_rule_reader_matches_per_integer_reader(n, rng):
    """Same rule and end position on valid input; on every truncation and
    single-byte corruption, the same error, message and offset."""
    rule = random_rule(rng, n)
    prefix = encode_ints([rng.randrange(MAX_WIRE_INT)])
    data = prefix + encode_rule(rule, n)
    start = len(prefix)
    expected = (rule, len(data))
    assert decode_rule(data, start, n) == expected
    assert reference_decode_rule(data, start, n) == expected
    for cut in range(start, len(data)):
        short = data[:cut]
        assert _outcome(decode_rule, short, start, n) == _outcome(
            reference_decode_rule, short, start, n
        )
    for bad in corruptions(data, range(start, len(data)), rng):
        assert _outcome(decode_rule, bad, start, n) == _outcome(
            reference_decode_rule, bad, start, n
        )


def test_reference_decoders_do_not_use_the_column_decoder(monkeypatch):
    """The oracles stay per-integer: with the column decoder broken they
    still decode and still report errors, so comparing them with the bulk
    decoders compares two decoders, not one with itself."""

    def broken(*args):
        raise AssertionError("column decoder called")

    monkeypatch.setattr(proof, "_ints", broken)
    with pytest.raises(AssertionError, match="column decoder called"):
        proof_to_ints(encode_int(5))
    for rule, ints in RULE_WIRE_GOLDENS:
        data = encode_ints([9, *ints])
        assert reference_proof_to_ints(data) == [9, *ints]
        assert reference_decode_rule(data, INT_WIDTH, 4) == (rule, len(data))
        cut = (ProofDecodeError, "truncated integer", len(data) - INT_WIDTH)
        assert _outcome(reference_proof_to_ints, data[:-1]) == cut
        assert _outcome(reference_decode_rule, data[:-1], INT_WIDTH, 4) == cut


# ---------------------------------------------------------------------------
# Rule encoding
# ---------------------------------------------------------------------------


def test_individualize_wire_golden():
    rule = Individualize(nu=(0,), v=1, pi=Coloring((0, 2, 1, 2)))
    data = encode_rule(rule, 4)
    assert proof_to_ints(data) == [1, 1, 0, 1, 0, 2, 1, 2]
    back, pos = decode_rule(data, 0, 4)
    assert type(back) is Individualize
    assert back == rule and pos == len(data)


def test_encode_rule_rejects_fields_of_the_wrong_size():
    with pytest.raises(ProofEncodeError, match="coloring size"):
        encode_rule(Individualize(nu=(), v=0, pi=Coloring((0, 0, 0))), 4)
    with pytest.raises(ProofEncodeError, match="permutation size"):
        encode_rule(PruneAutomorphism((0,), (1,), (1, 0, 2)), 4)


def test_rule_codes_are_stable():
    assert proof_to_ints(encode_rule(ColoringAxiom(), 3)) == [0]
    assert proof_to_ints(encode_rule(PathAxiom(), 3)) == [15]


_PI = Coloring((0, 2, 1, 2))
_PJ = Coloring((1, 0, 2, 3))

# One rule of every kind on n = 4 with its frozen integer stream: the code,
# then each field in wire order (a sequence or set is length-prefixed; a
# coloring or permutation is n values).
RULE_WIRE_GOLDENS = [
    (ColoringAxiom(), [0]),
    (Individualize((0,), 1, _PI), [1, 1, 0, 1, 0, 2, 1, 2]),
    (SplitColoring((2,), _PI), [2, 1, 2, 0, 2, 1, 2]),
    (Equitable((2, 0), _PJ), [3, 2, 2, 0, 1, 0, 2, 3]),
    (TargetCell((), _PI), [4, 0, 0, 2, 1, 2]),
    (InvariantAxiom((3,)), [5, 1, 3]),
    (
        InvariantsEqual((0,), _PI, (2,), _PJ),
        [6, 1, 0, 0, 2, 1, 2, 1, 2, 1, 0, 2, 3],
    ),
    (InvariantsEqualSym((0, 1), (1, 0)), [7, 2, 0, 1, 2, 1, 0]),
    (OrbitsAxiom(2, (0,)), [8, 2, 1, 0]),
    (
        MergeOrbits((1,), (2, 3), (0,), (0, 2, 1, 3), 1, 2),
        [9, 1, 1, 2, 2, 3, 1, 0, 0, 2, 1, 3, 1, 2],
    ),
    (
        PruneInvariant((1,), _PJ, (3,), _PI),
        [10, 1, 1, 1, 0, 2, 3, 1, 3, 0, 2, 1, 2],
    ),
    (
        PruneLeaf((0, 1), _PJ, (1, 0), _PI),
        [11, 2, 0, 1, 1, 0, 2, 3, 2, 1, 0, 0, 2, 1, 2],
    ),
    (PruneAutomorphism((0,), (1,), (1, 0, 3, 2)), [12, 1, 0, 1, 1, 1, 0, 3, 2]),
    (PruneParent((2,), (1, 3)), [13, 1, 2, 2, 1, 3]),
    (PruneOrbits((0, 3), (1,), 0, 3), [14, 2, 0, 3, 1, 1, 0, 3]),
    (PathAxiom(), [15]),
    (ExtendPath((0,), (1, 3), 3), [16, 1, 0, 2, 1, 3, 3]),
    (CanonicalLeaf((3, 1), _PJ), [17, 2, 3, 1, 1, 0, 2, 3]),
]


def test_rule_schema_is_frozen():
    """Every code's class name and ``(field, shape)`` layout, as read from
    the rule classes' annotations on this Python."""
    schema = {code: (cls.__name__, s) for code, (cls, s) in proof.RULE_SCHEMA.items()}
    assert schema == {
        0: ("ColoringAxiom", ()),
        1: ("Individualize", (("nu", "Seq"), ("v", "Vertex"), ("pi", "Coloring"))),
        2: ("SplitColoring", (("nu", "Seq"), ("pi", "Coloring"))),
        3: ("Equitable", (("nu", "Seq"), ("pi", "Coloring"))),
        4: ("TargetCell", (("nu", "Seq"), ("pi", "Coloring"))),
        5: ("InvariantAxiom", (("nu", "Seq"),)),
        6: (
            "InvariantsEqual",
            (("nu1", "Seq"), ("pi1", "Coloring"), ("nu2", "Seq"), ("pi2", "Coloring")),
        ),
        7: ("InvariantsEqualSym", (("nu1", "Seq"), ("nu2", "Seq"))),
        8: ("OrbitsAxiom", (("v", "Vertex"), ("nu", "Seq"))),
        9: (
            "MergeOrbits",
            (
                ("omega1", "VertexSet"),
                ("omega2", "VertexSet"),
                ("nu", "Seq"),
                ("sigma", "Perm"),
                ("w1", "Vertex"),
                ("w2", "Vertex"),
            ),
        ),
        10: (
            "PruneInvariant",
            (("nu1", "Seq"), ("pi1", "Coloring"), ("nu2", "Seq"), ("pi2", "Coloring")),
        ),
        11: (
            "PruneLeaf",
            (("nu1", "Seq"), ("pi1", "Coloring"), ("nu2", "Seq"), ("pi2", "Coloring")),
        ),
        12: ("PruneAutomorphism", (("nu1", "Seq"), ("nu2", "Seq"), ("sigma", "Perm"))),
        13: ("PruneParent", (("nu", "Seq"), ("cell", "VertexSet"))),
        14: (
            "PruneOrbits",
            (("omega", "VertexSet"), ("nu", "Seq"), ("w1", "Vertex"), ("w2", "Vertex")),
        ),
        15: ("PathAxiom", ()),
        16: ("ExtendPath", (("nu", "Seq"), ("cell", "VertexSet"), ("w", "Vertex"))),
        17: ("CanonicalLeaf", (("nu", "Seq"), ("pi", "Coloring"))),
    }


def test_rule_wire_goldens_cover_every_kind():
    assert len({type(rule) for rule, _ in RULE_WIRE_GOLDENS}) == 18


@pytest.mark.parametrize(
    "rule,ints",
    [pytest.param(r, i, id=type(r).__name__) for r, i in RULE_WIRE_GOLDENS],
)
def test_rule_wire_golden(rule, ints):
    assert proof_to_ints(encode_rule(rule, 4)) == ints
    back, pos = decode_rule(encode_ints(ints), 0, 4)
    # Rules compare as plain tuples, so the kind is checked on its own.
    assert type(back) is type(rule)
    assert back == rule and pos == len(ints) * INT_WIDTH


@pytest.mark.parametrize(
    "rule,ints",
    [pytest.param(r, i, id=type(r).__name__) for r, i in RULE_WIRE_GOLDENS],
)
def test_decode_rule_reads_only_its_own_rule(rule, ints, monkeypatch):
    """Bytes after a rule that are no integers at all change nothing, and
    the decoder looks at no more than the largest rule's 4n + 6 integers."""
    data = encode_ints(ints)
    windows = []

    def spy(data, start, stop):
        windows.append(stop - start)
        return real(data, start, stop)

    real = proof._ints
    monkeypatch.setattr(proof, "_ints", spy)
    assert decode_rule(data + b"\x41" * 10_000, 0, 4) == (rule, len(data))
    assert decode_rule(data, 0, 4) == (rule, len(data))
    assert windows[0] == INT_WIDTH * (4 * 4 + 6)


def test_decode_rule_rejects_unknown_code():
    with pytest.raises(ProofDecodeError):
        decode_rule(encode_ints([99]), 0, 4)


def test_decode_rule_rejects_vertex_out_of_range():
    # Individualize nu=(7,) on a 4-vertex graph
    with pytest.raises(ProofDecodeError):
        decode_rule(encode_ints([1, 1, 7, 1, 0, 0, 0, 0]), 0, 4)


def test_decode_rule_rejects_duplicate_sequence():
    with pytest.raises(ProofDecodeError):
        decode_rule(encode_ints([1, 2, 0, 0, 1, 0, 0, 0, 0]), 0, 4)


def test_decode_rule_rejects_individualized_vertex_in_nu():
    with pytest.raises(ProofDecodeError):
        decode_rule(encode_ints([1, 1, 1, 1, 0, 1, 0, 1]), 0, 4)


def test_decode_rule_rejects_gappy_coloring():
    # CanonicalLeaf with colors (0, 2, 2): color 1 missing
    with pytest.raises(ProofDecodeError):
        decode_rule(encode_ints([17, 0, 0, 2, 2]), 0, 3)


def test_decode_rule_rejects_non_bijective_perm():
    # PruneAutomorphism nu1=() nu2=() sigma=(0, 0, 1)
    with pytest.raises(ProofDecodeError):
        decode_rule(encode_ints([12, 0, 0, 0, 0, 1]), 0, 3)


def test_decode_rule_rejects_unsorted_set():
    # PruneParent nu=() cell={1,0} written out of order
    with pytest.raises(ProofDecodeError):
        decode_rule(encode_ints([13, 0, 2, 1, 0]), 0, 3)


@settings(max_examples=300)
@given(st.integers(1, 12), rngs)
def test_random_rule_round_trip(n, rng):
    rule = random_rule(rng, n)
    data = encode_rule(rule, n)
    back, pos = decode_rule(data, 0, n)
    assert type(back) is type(rule)
    assert back == rule
    assert pos == len(data)


# ---------------------------------------------------------------------------
# Whole proofs
# ---------------------------------------------------------------------------


def test_proof_stream_round_trip():
    # Across n = 64 the columns that are all zero differ between a single
    # rule and the whole stream, which encode_proof writes in one pass.
    for n in (6, 63, 64, 65, 70):
        rng = random.Random(5)
        rules = [random_rule(rng, n) for _ in range(40)]
        data = encode_proof(n, rules)
        assert data == encode_int(n) + b"".join(encode_rule(r, n) for r in rules)
        back_n, back_rules = decode_proof(data)
        assert back_n == n
        assert back_rules == rules
        assert [type(r) for r in back_rules] == [type(r) for r in rules]
        # the stream header is just n
        assert proof_to_ints(data)[0] == n


def test_decode_proof_rejects_trailing_garbage():
    data = encode_proof(3, [ColoringAxiom()]) + b"\x01"
    with pytest.raises(ProofDecodeError):
        decode_proof(data)


def test_decode_proof_rejects_empty():
    with pytest.raises(ProofDecodeError):
        decode_proof(b"")


# ---------------------------------------------------------------------------
# Fact keys
# ---------------------------------------------------------------------------


def test_fact_keys_are_frozen():
    pi = Coloring((1, 0, 1))
    assert fact_key(REqual((2,), pi)) == (0, 1, 2, 1, 0, 1)
    assert fact_key(RFiner((0, 1), pi)) == (1, 2, 0, 1, 1, 0, 1)
    assert fact_key(TargetIs((1,), (0, 2))) == (2, 1, 1, 2, 0, 2)
    assert fact_key(OrbitSubset((0,), (1, 2))) == (3, 1, 0, 2, 1, 2)
    assert fact_key(PhiEqual((0,), (2,))) == (4, 1, 0, 1, 2)
    assert fact_key(Pruned((0,))) == (5, 1, 0)
    assert fact_key(OnPath(())) == (6, 0)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert fact_key(Canonical(g, pi)) == (7, 2, 0, 1, 1, 2, 1, 0, 1)
    # Rejections name a fact's kind by its code.
    assert FACT_KINDS == (
        "REqual", "RFiner", "TargetIs", "OrbitSubset", "PhiEqual", "Pruned", "OnPath",
        "Canonical",
    )


def test_fact_keys_distinguish_kinds():
    pi = Coloring((0, 1))
    keys = {
        fact_key(REqual((), pi)),
        fact_key(RFiner((), pi)),
        fact_key(TargetIs((), (0, 1))),
        fact_key(OrbitSubset((), (0,))),
        fact_key(PhiEqual((), ())),
        fact_key(Pruned(())),
        fact_key(OnPath(())),
    }
    assert len(keys) == 7


def test_fact_keys_distinguish_contents():
    pi1 = Coloring((0, 1))
    pi2 = Coloring((1, 0))
    assert fact_key(REqual((), pi1)) != fact_key(REqual((), pi2))
    assert fact_key(Pruned((0,))) != fact_key(Pruned((1,)))
    assert fact_key(Pruned((0, 1))) != fact_key(Pruned((1,)))
    assert fact_key(OnPath((2,))) != fact_key(Pruned((2,)))


def test_canonical_fact_key_covers_graph_and_coloring():
    g1 = Graph.from_edges(2, [(0, 1)])
    g2 = Graph.from_edges(2, [])
    pi = Coloring((0, 1))
    assert fact_key(Canonical(g1, pi)) != fact_key(Canonical(g2, pi))
