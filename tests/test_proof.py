"""Binary proof encoding: the integer codec, rule schemas, fact keys."""

import random
from array import array

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
    encode_ints,
    encode_proof,
    fact_key,
    iter_rules,
    rule_ints,
)
from oracle_utils import (
    corruptions,
    proof_to_ints,
    random_rule,
    reference_decode_rule,
    reference_encode_int,
    reference_proof_to_ints,
    rngs,
)

BOUNDARY_INTS = [0, 1, 1 << 6, 1 << 12, 1 << 18, 1 << 24, 1 << 30, MAX_WIRE_INT]


# ---------------------------------------------------------------------------
# Integer codec
# ---------------------------------------------------------------------------


def test_encode_int_goldens():
    assert encode_ints([0]) == bytes.fromhex("fc 80 80 80 80 80".replace(" ", ""))
    assert encode_ints([17]) == bytes.fromhex("fc 80 80 80 80 91".replace(" ", ""))
    assert encode_ints([MAX_WIRE_INT]) == bytes.fromhex(
        "fd bf bf bf bf bf".replace(" ", "")
    )


def test_every_int_is_six_bytes():
    for v in BOUNDARY_INTS:
        assert len(encode_ints([v])) == INT_WIDTH


@pytest.mark.parametrize("v", BOUNDARY_INTS)
def test_boundary_round_trip(v):
    data = encode_ints([v])
    value, pos = decode_int(data)
    assert value == v and pos == INT_WIDTH


@given(st.integers(0, MAX_WIRE_INT))
def test_int_round_trip(v):
    assert decode_int(encode_ints([v])) == (v, INT_WIDTH)


def test_encode_rejects_out_of_range():
    with pytest.raises(ProofEncodeError):
        encode_ints([-1])
    with pytest.raises(ProofEncodeError):
        encode_ints([MAX_WIRE_INT + 1])


def test_decode_rejects_truncation():
    data = encode_ints([12345])
    for cut in range(INT_WIDTH):
        with pytest.raises(ProofDecodeError):
            decode_int(data[:cut])


def test_decode_rejects_bad_lead_byte():
    data = bytearray(encode_ints([7]))
    data[0] = 0x80  # continuation marker where a lead byte belongs
    with pytest.raises(ProofDecodeError):
        decode_int(bytes(data))


def test_decode_rejects_bad_continuation_byte():
    data = bytearray(encode_ints([7]))
    data[3] = 0xFC  # lead marker where a continuation byte belongs
    with pytest.raises(ProofDecodeError):
        decode_int(bytes(data))


def test_decode_offset_is_reported():
    bad = encode_ints([1]) + b"\xff"
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
    assert encode_ints(values) == b"".join(encode_ints([v]) for v in values)


@given(st.lists(st.integers(0, MAX_WIRE_INT), max_size=40))
def test_encode_ints_matches_per_integer_encoding_on_random_lists(values):
    assert encode_ints(values) == b"".join(encode_ints([v]) for v in values)


@pytest.mark.parametrize(
    "values, bad",
    [([5, -1, 2**31], -1), ([5, 2**31, -1], 2**31), ([-3], -3), ([0, 1, 2**40], 2**40)],
)
def test_encode_ints_names_the_first_value_out_of_range(values, bad):
    with pytest.raises(ProofEncodeError) as bulk:
        encode_ints(values)
    with pytest.raises(ProofEncodeError) as single:
        encode_ints([bad])
    assert str(bulk.value) == str(single.value) == f"integer {bad} outside wire range"


# One ceiling per byte-plane layout: one column, one plane, the columns that
# straddle planes 0-1 and 1-2, two planes, three, and the whole wire range.
WIDTHS = [63, 255, 4095, 65535, (1 << 24) - 1, MAX_WIRE_INT]


@pytest.mark.parametrize("top", WIDTHS)
def test_encode_ints_matches_per_integer_encoding_at_every_width(top):
    rng = random.Random(top)
    values = [rng.randint(0, top) for _ in range(300)] + [top, 0]
    want = b"".join(map(reference_encode_int, values))
    assert encode_ints(values) == want == b"".join(encode_ints([v]) for v in values)
    assert encode_ints(array("H" if top >> 16 == 0 else "I", values)) == want
    assert proof_to_ints(want) == reference_proof_to_ints(want) == values


# A host of the other byte order keeps each item's planes at the other end;
# swapping the items' bytes stands in for it. Only "H" arrays reach the
# encoder as they are, so its side is checked up to 16 bits.
@pytest.mark.parametrize("top", [255, 65535])
def test_encoder_reads_the_planes_of_the_other_byte_order(monkeypatch, top):
    rng = random.Random(top)
    values = array("H", [rng.randint(0, top) for _ in range(500)])
    want = encode_ints(values)
    values.byteswap()
    monkeypatch.setattr(proof, "_LITTLE", not proof._LITTLE)
    assert encode_ints(values) == want


@pytest.mark.parametrize("top", [255, 65535, MAX_WIRE_INT])
def test_decoder_writes_the_planes_of_the_other_byte_order(monkeypatch, top):
    rng = random.Random(top)
    values = [rng.randint(0, top) for _ in range(500)]
    data = encode_ints(values)
    monkeypatch.setattr(proof, "_LITTLE", not proof._LITTLE)
    swapped = array("I", proof._ints(data, 0, len(data))[0])
    swapped.byteswap()
    assert swapped.tolist() == values


def test_reference_encoder_matches_the_goldens():
    for v in (0, 17, MAX_WIRE_INT):
        assert reference_encode_int(v) == encode_ints([v])
    assert reference_encode_int(MAX_WIRE_INT) == b"\xfd\xbf\xbf\xbf\xbf\xbf"


def test_encode_ints_reads_an_unsigned_array_as_its_values():
    # An "H" array is read by its byte planes; any other array is a list.
    values = [0, 1, 255, 256, 4095, 65535]
    for typecode in "HIiq":
        assert encode_ints(array(typecode, values)) == encode_ints(values)
    with pytest.raises(ProofEncodeError, match="integer -1 outside"):
        encode_ints(array("i", [3, -1]))


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
    data = prefix + encode_ints(rule_ints(rule, n))
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
        proof_to_ints(encode_ints([5]))
    for rule, ints in RULE_WIRE_GOLDENS:
        data = encode_ints([9, *ints])
        assert reference_proof_to_ints(data) == [9, *ints]
        assert reference_decode_rule(data, INT_WIDTH, 4) == (rule, len(data))
        cut = (ProofDecodeError, "truncated integer", len(data) - INT_WIDTH)
        assert _outcome(reference_proof_to_ints, data[:-1]) == cut
        assert _outcome(reference_decode_rule, data[:-1], INT_WIDTH, 4) == cut


def _bad_field_rules(n):
    """``(name, ints, message)``: rules on ``n`` vertices whose last read
    field is bad, with the message it must raise. At ``n = 1`` the gap's
    color 2 is out of range too, and no permutation repeats a value."""
    gap = "bad coloring: colors must cover 0..m-1 with no gaps"
    high = [*range(n - 1), n]
    merge = [9, 1, 0, 1, 0, 0]  # MergeOrbits({0}, {0}, (), sigma, ...)
    rules = [
        ("gap", [17, 0, *[0] * (n - 1), 2], gap if n > 1 else "color value outside range"),
        ("color >= n", [2, 1, 0, *high], "color value outside range"),
        ("value >= n", [12, 0, 0, *high], "permutation is not a bijection"),
    ]
    if n > 1:
        repeat = [*merge, *range(n - 1), 0, 0, 0]
        rules.append(("repeated value", repeat, "permutation is not a bijection"))
    return rules


@pytest.mark.parametrize("n", [1, 64, 256])
def test_bad_field_errors_match_the_per_integer_reader(n):
    """A coloring with a gap or a color >= n, and a permutation with a
    repeated value or one >= n: the same error, message and offset (the byte
    after the field) from the indexed decoder and the per-integer one, for
    one rule and for a whole stream."""
    for name, ints, message in _bad_field_rules(n):
        data = encode_ints([n, *ints])
        field_end = len(data) - INT_WIDTH * (2 if ints[0] == 9 else 0)
        want = (ProofDecodeError, message, field_end)
        assert _outcome(decode_rule, data, INT_WIDTH, n) == want, name
        assert _outcome(reference_decode_rule, data, INT_WIDTH, n) == want, name
        assert _outcome(decode_proof, data) == _stream_rules(data) == want, name


@pytest.mark.parametrize(
    "ints, want",
    [
        ([0, 17, 0], (ProofDecodeError, "bad coloring: coloring of an empty vertex set", 18)),
        ([0, 0, 3, 0], (ProofDecodeError, "bad coloring: coloring of an empty vertex set", 24)),
        ([0, 1, 0, 0], (ProofDecodeError, "vertex 0 outside 0..-1", 24)),
        ([0, 12, 0, 0], (0, [PruneAutomorphism((), (), ())])),
        ([0, 13, 0, 0, 15], (0, [PruneParent((), ()), PathAxiom()])),
    ],
)
def test_streams_on_no_vertices_keep_their_outcome(ints, want):
    """A header of n = 0: a coloring field is rejected as Coloring rejects
    an empty one, a vertex field is out of range, and rules of empty
    sequences, sets and permutations decode."""
    data = encode_ints(ints)
    per_integer = _stream_rules(data)
    assert _outcome(decode_proof, data) == want
    assert want in (per_integer, (0, per_integer))


def _stream_rules(data):
    """The rules of a whole stream, one at a time through the per-integer
    reader, or the type, message and offset of its first error."""
    try:
        n, pos = decode_int(data, 0)
        rules = []
        while pos < len(data):
            rule, pos = reference_decode_rule(data, pos, n)
            rules.append(rule)
        return rules
    except ProofDecodeError as exc:
        return type(exc), str(exc), exc.offset


def _windowed_rules(data):
    n, pos = decode_int(data, 0)
    return list(iter_rules(data, pos, n))


@pytest.mark.parametrize("window", [1, 2, 5, 7])
@pytest.mark.parametrize("n", [10, 300])
def test_windowed_decoding_matches_per_integer_decoding(n, window, monkeypatch):
    """Rules that straddle windows decode whole; a cut or a corrupt byte at
    or next to a window boundary gives the per-integer reader's error."""
    rng = random.Random(n * 100 + window)
    rules = [random_rule(rng, n) for _ in range(4)]
    data = encode_proof(n, rules)
    monkeypatch.setattr(proof, "WINDOW", window)
    assert _windowed_rules(data) == _stream_rules(data) == rules
    assert [type(r) for r in _windowed_rules(data)] == [type(r) for r in rules]
    pos = INT_WIDTH
    for rule in rules:  # decode_rule reads its own range in windows too
        back, pos = decode_rule(data, pos, n)
        assert back == rule and type(back) is type(rule)
    assert pos == len(data)
    boundaries = range(INT_WIDTH * (1 + window), len(data), INT_WIDTH * window)
    for boundary in rng.sample(boundaries, min(8, len(boundaries))):
        near = range(boundary - INT_WIDTH, min(boundary + INT_WIDTH, len(data)))
        for cut in near:
            short = data[:cut]
            assert _outcome(_windowed_rules, short) == _stream_rules(short)
        for bad in corruptions(data, near, rng):
            assert _outcome(_windowed_rules, bad) == _stream_rules(bad)
            assert _outcome(proof_to_ints, bad) == _outcome(reference_proof_to_ints, bad)


def test_stored_decode_error_holds_no_frame(monkeypatch):
    # Every valid stream ends in the end-of-data error; stored with its
    # traceback, it would keep the decoder's frame and columns alive.
    errors = []
    real = proof._ints

    def spy(data, start, stop):
        ints, error = real(data, start, stop)
        errors.append(error)
        return ints, error

    monkeypatch.setattr(proof, "_ints", spy)
    monkeypatch.setattr(proof, "WINDOW", 3)
    data = encode_proof(4, [r for r, _ in RULE_WIRE_GOLDENS])
    assert _windowed_rules(data) == [r for r, _ in RULE_WIRE_GOLDENS]
    assert len(errors) > 1 and errors[-1] is not None
    assert (str(errors[-1]), errors[-1].offset) == ("truncated integer", len(data))
    assert all(e is None or e.__traceback__ is None for e in errors)


# ---------------------------------------------------------------------------
# Rule encoding
# ---------------------------------------------------------------------------


def test_individualize_wire_golden():
    rule = Individualize(nu=(0,), v=1, pi=Coloring((0, 2, 1, 2)))
    data = encode_ints(rule_ints(rule, 4))
    assert proof_to_ints(data) == [1, 1, 0, 1, 0, 2, 1, 2]
    back, pos = decode_rule(data, 0, 4)
    assert type(back) is Individualize
    assert back == rule and pos == len(data)


def test_encode_rule_rejects_fields_of_the_wrong_size():
    with pytest.raises(ProofEncodeError, match="coloring size"):
        encode_ints(rule_ints(Individualize(nu=(), v=0, pi=Coloring((0, 0, 0))), 4))
    with pytest.raises(ProofEncodeError, match="permutation size"):
        encode_ints(rule_ints(PruneAutomorphism((0,), (1,), (1, 0, 2)), 4))


def test_rule_codes_are_stable():
    assert proof_to_ints(encode_ints(rule_ints(ColoringAxiom(), 3))) == [0]
    assert proof_to_ints(encode_ints(rule_ints(PathAxiom(), 3))) == [15]


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
    assert proof_to_ints(encode_ints(rule_ints(rule, 4))) == ints
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
    data = encode_ints(rule_ints(rule, n))
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
        singles = (encode_ints(rule_ints(r, n)) for r in rules)
        assert data == encode_ints([n]) + b"".join(singles)
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
