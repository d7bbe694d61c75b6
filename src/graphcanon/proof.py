"""Binary proof format: rules, facts, and the bit-exact codec.

A proof is a stream of unsigned integers, each encoded in exactly six bytes:
a lead byte ``0b111111_0x`` carrying the top bit of the value, followed by
five continuation bytes ``0b10_xxxxxx`` carrying six value bits each (big
endian). The representable range is ``0 .. 2^31 - 1``.

The stream starts with the vertex count ``n`` and continues with rule
applications, back to back, with no framing: a rule is its numeric code (its
position in :data:`Rule`) followed by its fields in declaration order. Each
field is annotated with its shape:

* ``Vertex``: one integer,
* ``Seq``: a length prefix, then that many distinct vertices,
* ``VertexSet``: a length prefix, then that many vertices, strictly ascending,
* ``Coloring``: ``n`` color values, covering ``0..m-1``,
* ``Perm``: ``n`` values, a bijection.

The rule NamedTuple classes are the only statement of that layout:
:data:`RULE_CODE` and :data:`RULE_SCHEMA` are read from them. What each rule
consumes is stated once, in :func:`graphcanon.checker.premises`. A rule
compares as a plain tuple, so ``type(rule)`` is part of its identity.

The codec works a byte column at a time: the encoder translates each column
from the values' byte planes, and the decoder checks each column once and
puts the planes back together from them, at most :data:`WINDOW` integers at
a time; :func:`decode_rule` reads no further than the largest rule. The first
bad integer is re-read with :func:`decode_int`.

A fact derived by a rule *is* its integer tuple: the kind's index in
:data:`FACT_KINDS`, then each sequence length-prefixed and each coloring as
its ``n`` colors. The checker and the emitter store the tuples that
:func:`REqual` and the other constructors build. ``Canonical`` alone is no
key but a named pair of the verdict's graph and coloring, which no rule
consumes; being a tuple too, it is told apart with ``isinstance`` first.
:func:`fact_key` flattens it.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterator, NamedTuple, get_args

from .core import MAX_WIRE_INT, Coloring, Graph

INT_WIDTH = 6
# Integers a reader decodes at a time: with 64 Ki, verify_proof held 2.4 times
# a random cubic graph's proof (n = 60), with 16 Ki 1.8 times (tracemalloc).
WINDOW = 1 << 14
# Per byte: 1 if it is not a lead byte, or not a continuation byte.
_BAD_LEAD = bytes(b & 0xFE != 0xFC for b in range(256))
_BAD_CONT = bytes(b & 0xC0 != 0x80 for b in range(256))
# The value bits of a valid byte: a lead byte's low bit, a continuation's low 6.
_VALUE = bytes(b & 1 if b >= 0xC0 else b & 0x3F for b in range(256))
# Byte column j carries value bits s .. s + 5 (s = _SHIFTS[j]) under the marker
# _HEADS[j], and byte plane p bits 8p .. 8p + 7. Per column and plane that share
# bits: (j, p, a plane byte's bits in the column, with the marker from the
# column's lowest plane, and a column byte's value bits in the plane).
_HEADS = b"\xfc\x80\x80\x80\x80\x80"
_SHIFTS = (30, 24, 18, 12, 6, 0)
_PAIRS = [
    (j, p, bytes(b << 8 * p >> s & 0x3F | _HEADS[j] * (p == s // 8) for b in range(256)),
     bytes(_VALUE[b] << s >> 8 * p & 0xFF for b in range(256)))
    for j, s in enumerate(_SHIFTS) for p in range(4) if s - 8 < 8 * p < s + 6
]
_LITTLE = sys.byteorder == "little"


class ProofError(Exception):
    """Base class for encoding/decoding failures."""


class ProofEncodeError(ProofError):
    pass


class ProofDecodeError(ProofError):
    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


def encode_int(value: int) -> bytes:
    return encode_ints([value])


def decode_int(data: bytes, pos: int = 0) -> tuple[int, int]:
    """Decode one integer at ``pos``; returns ``(value, next_pos)``."""
    if pos + INT_WIDTH > len(data):
        raise ProofDecodeError("truncated integer", pos)
    lead = data[pos]
    if lead & 0xFE != 0xFC:
        raise ProofDecodeError(f"bad lead byte 0x{lead:02x}", pos)
    value = lead & 0x01
    for i in range(1, INT_WIDTH):
        b = data[pos + i]
        if b & 0xC0 != 0x80:
            raise ProofDecodeError(f"bad continuation byte 0x{b:02x}", pos + i)
        value = (value << 6) | (b & 0x3F)
    return value, pos + INT_WIDTH


def _or(parts: list[bytes], k: int) -> bytes:
    """The bytewise OR of one or two byte strings of length ``k``."""
    if len(parts) == 1:
        return parts[0]
    a, b = (int.from_bytes(part, "little") for part in parts)
    return (a | b).to_bytes(k, "little")


def encode_ints(values) -> bytes:
    """Encode many integers, each byte column translated from their byte planes.
    An ``"H"`` array, whose items are in range by their type, is read as it is."""
    if not (isinstance(values, array) and values.typecode == "H"):
        values = list(values)
        try:
            values = bytes(values)  # if every value is below 256
        except ValueError:
            top = max(values)
            if min(values) < 0 or top > MAX_WIRE_INT:
                bad = next(v for v in values if not 0 <= v <= MAX_WIRE_INT)
                raise ProofEncodeError(f"integer {bad} outside wire range") from None
            values = array("H" if top >> 16 == 0 else "I", values)
    raw, size = bytes(values), memoryview(values).itemsize
    k = len(raw) // size
    planes = [raw[p if _LITTLE else size - 1 - p :: size] for p in range(size)]
    del raw  # the planes hold its bytes
    while planes and planes[-1].count(0) == k:
        planes.pop()  # the columns only they feed keep their zero bits
    out = bytearray(_HEADS * k)
    for j in range(INT_WIDTH):
        parts = [planes[p].translate(t) for i, p, t, _ in _PAIRS if i == j and p < len(planes)]
        if parts:
            out[j::INT_WIDTH] = _or(parts, k)
    del planes, parts  # hold nothing but ``out`` while it is copied
    return bytes(out)


def _ints(data: bytes, start: int, stop: int) -> tuple[list[int], ProofError | None]:
    """The integers of ``data[start:stop]`` up to the first bad one, and the
    :func:`decode_int` error of the integer after them (``None`` if the range
    is clean and ends before ``data``). The columns' value bits are put
    together by byte planes, skipping columns of markers alone. ``stop`` is
    ``len(data)`` or ``start`` plus a multiple of INT_WIDTH."""
    end = start + max(stop - start, 0) // INT_WIDTH * INT_WIDTH
    cols = [data[j:end:INT_WIDTH] for j in range(start, start + INT_WIDTH)]
    bad = [cols[0].translate(_BAD_LEAD).find(1)]
    bad += [col.translate(_BAD_CONT).find(1) for col in cols[1:]]
    k = min([len(cols[0])] + [i for i in bad if i >= 0])
    cols = [col[:k] if col.count(head, 0, k) < k else None for col, head in zip(cols, _HEADS)]
    ints = array("I")
    buf = bytearray(ints.itemsize * k)
    for p in range(4):
        parts = [cols[j].translate(t) for j, q, _, t in _PAIRS if q == p and cols[j]]
        if parts:
            buf[p if _LITTLE else ints.itemsize - 1 - p :: ints.itemsize] = _or(parts, k)
    ints.frombytes(buf)
    end = start + INT_WIDTH * k
    try:
        if end < stop or stop == len(data):
            decode_int(data, end)  # raises: bad, cut short or at the end of data
    except ProofDecodeError as exc:
        # Without its traceback the error holds no frame, so no column, alive.
        return ints.tolist(), exc.with_traceback(None)
    return ints.tolist(), None


def proof_to_ints(data: bytes) -> list[int]:
    """Flatten a proof stream into its integer sequence (no structure)."""
    ints, error = _ints(data, 0, len(data))
    if INT_WIDTH * len(ints) < len(data):
        raise error
    return ints


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

# Field shapes. The codec dispatches on the annotation's text, so a rule
# field must be annotated with one of these or with ``Coloring``.
Vertex = int
Seq = tuple[int, ...]
VertexSet = tuple[int, ...]
Perm = tuple[int, ...]


class ColoringAxiom(NamedTuple):
    pass


class Individualize(NamedTuple):
    nu: Seq
    v: Vertex
    pi: Coloring


class SplitColoring(NamedTuple):
    nu: Seq
    pi: Coloring


class Equitable(NamedTuple):
    nu: Seq
    pi: Coloring


class TargetCell(NamedTuple):
    nu: Seq
    pi: Coloring


class InvariantAxiom(NamedTuple):
    nu: Seq


class InvariantsEqual(NamedTuple):
    """Parameters name the two child nodes: ``nu1 = [nu', v']`` etc."""

    nu1: Seq
    pi1: Coloring
    nu2: Seq
    pi2: Coloring


class InvariantsEqualSym(NamedTuple):
    nu1: Seq
    nu2: Seq


class OrbitsAxiom(NamedTuple):
    v: Vertex
    nu: Seq


class MergeOrbits(NamedTuple):
    omega1: VertexSet
    omega2: VertexSet
    nu: Seq
    sigma: Perm
    w1: Vertex
    w2: Vertex


class PruneInvariant(NamedTuple):
    nu1: Seq
    pi1: Coloring
    nu2: Seq
    pi2: Coloring


class PruneLeaf(NamedTuple):
    nu1: Seq
    pi1: Coloring
    nu2: Seq
    pi2: Coloring


class PruneAutomorphism(NamedTuple):
    nu1: Seq
    nu2: Seq
    sigma: Perm


class PruneParent(NamedTuple):
    nu: Seq
    cell: VertexSet


class PruneOrbits(NamedTuple):
    omega: VertexSet
    nu: Seq
    w1: Vertex
    w2: Vertex


class PathAxiom(NamedTuple):
    pass


class ExtendPath(NamedTuple):
    nu: Seq
    cell: VertexSet
    w: Vertex


class CanonicalLeaf(NamedTuple):
    nu: Seq
    pi: Coloring


Rule = (
    ColoringAxiom
    | Individualize
    | SplitColoring
    | Equitable
    | TargetCell
    | InvariantAxiom
    | InvariantsEqual
    | InvariantsEqualSym
    | OrbitsAxiom
    | MergeOrbits
    | PruneInvariant
    | PruneLeaf
    | PruneAutomorphism
    | PruneParent
    | PruneOrbits
    | PathAxiom
    | ExtendPath
    | CanonicalLeaf
)


RULE_CODE: dict[type, int] = {cls: code for code, cls in enumerate(get_args(Rule))}
# A NamedTuple keeps each postponed annotation as a ForwardRef of its text.
RULE_SCHEMA: dict[int, tuple[type, tuple[tuple[str, str], ...]]] = {
    code: (cls, tuple((f, t.__forward_arg__) for f, t in cls.__annotations__.items()))
    for cls, code in RULE_CODE.items()
}


def _field_ints(value, shape: str, n: int):
    if shape == "Vertex":
        return (value,)
    if shape == "Seq" or shape == "VertexSet":
        return (len(value), *value)
    if shape == "Coloring":
        if value.n != n:
            raise ProofEncodeError("coloring size does not match n")
        return value.colors
    if shape == "Perm":
        if len(value) != n:
            raise ProofEncodeError("permutation size does not match n")
        return value
    raise AssertionError(shape)


def rule_ints(rule: Rule, n: int) -> list[int]:
    """A rule's code followed by its fields' integers."""
    code = RULE_CODE[type(rule)]
    values = [code]
    for value, (_, shape) in zip(rule, RULE_SCHEMA[code][1]):
        values.extend(_field_ints(value, shape, n))
    return values


def encode_rule(rule: Rule, n: int) -> bytes:
    return encode_ints(rule_ints(rule, n))


class _Reader:
    """Reads the integers of ``data[start:stop]``, each decoded once by
    :func:`_ints`, :data:`WINDOW` at a time; a read may span windows.

    ``pos`` is the byte offset of the next integer. A read that reaches a
    bad integer, or the end of ``data``, raises the error of :func:`decode_int`.
    """

    def __init__(self, data: bytes, start: int, stop: int):
        self.data, self.stop, self.step = data, stop, INT_WIDTH * WINDOW
        self.end = min(stop, start + self.step)
        self.ints, self.error = _ints(data, start, self.end)
        self.pos, self.i = start, 0

    def read(self) -> int:
        return self.read_many(1)[0]

    def read_many(self, k: int) -> list[int]:
        i = self.i
        while i + k > len(self.ints):
            if self.error is not None or self.end >= self.stop:
                raise self.error
            stop = min(self.stop, self.end + self.step)
            ints, self.error = _ints(self.data, self.end, stop)
            self.ints, self.end, i = self.ints[i:] + ints, stop, 0
        self.i, self.pos = i + k, self.pos + INT_WIDTH * k
        return self.ints[i : i + k]


def _decode_field(r: _Reader, shape: str, n: int):
    if shape == "Vertex":
        v = r.read()
        if v >= n:
            raise ProofDecodeError(f"vertex {v} outside 0..{n - 1}", r.pos)
        return v
    if shape == "Seq":
        length = r.read()
        if length > n:
            raise ProofDecodeError(f"sequence length {length} exceeds n", r.pos)
        seq = tuple(r.read_many(length))
        if seq and max(seq) >= n:
            raise ProofDecodeError("sequence vertex outside range", r.pos)
        if len(set(seq)) != length:
            raise ProofDecodeError("sequence vertices not distinct", r.pos)
        return seq
    if shape == "VertexSet":
        length = r.read()
        if length > n:
            raise ProofDecodeError(f"set size {length} exceeds n", r.pos)
        vs = tuple(r.read_many(length))
        if vs and max(vs) >= n:
            raise ProofDecodeError("set vertex outside range", r.pos)
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ProofDecodeError("set not strictly ascending", r.pos)
        return vs
    if shape == "Coloring":
        colors = r.read_many(n)
        if colors and max(colors) >= n:
            raise ProofDecodeError("color value outside range", r.pos)
        try:
            return Coloring(colors)
        except ValueError as exc:
            raise ProofDecodeError(f"bad coloring: {exc}", r.pos) from None
    if shape == "Perm":
        sigma = tuple(r.read_many(n))
        if sorted(sigma) != list(range(n)):
            raise ProofDecodeError("permutation is not a bijection", r.pos)
        return sigma
    raise AssertionError(shape)


def _read_rule(r: _Reader, n: int) -> Rule:
    """Read one rule, with its shape checks (ranges, distinctness, ordering,
    colorings, permutations) and the rule-local ones that need no facts."""
    pos = r.pos
    code = r.read()
    entry = RULE_SCHEMA.get(code)
    if entry is None:
        raise ProofDecodeError(f"unknown rule code {code}", pos)
    cls, schema = entry
    rule = cls(*[_decode_field(r, shape, n) for _, shape in schema])
    if isinstance(rule, Individualize) and rule.v in rule.nu:
        raise ProofDecodeError("individualized vertex already in sequence", pos)
    if isinstance(rule, (InvariantsEqual, PruneInvariant)):
        if not rule.nu1 or not rule.nu2:
            raise ProofDecodeError("child sequences must be non-empty", pos)
    return rule


def decode_rule(data: bytes, pos: int, n: int) -> tuple[Rule, int]:
    """Decode one rule at ``pos``; returns ``(rule, next_pos)``. Reads at most
    ``4n + 6`` integers (``MergeOrbits``, the largest rule): O(n) per call."""
    r = _Reader(data, pos, min(len(data), pos + INT_WIDTH * (4 * n + 6)))
    return _read_rule(r, n), r.pos


def iter_rules(data: bytes, pos: int, n: int) -> Iterator[Rule]:
    """Yield the rules of ``data[pos:]``, decoding its integers once."""
    r = _Reader(data, pos, len(data))
    while r.pos < len(data):
        yield _read_rule(r, n)


def encode_proof(n: int, rules) -> bytes:
    """Serialize a full proof stream: ``n`` followed by the rules."""
    values = [n]
    for rule in rules:
        values += rule_ints(rule, n)
    return encode_ints(values)


def decode_proof(data: bytes) -> tuple[int, list[Rule]]:
    """Parse a complete stream; mainly for tests and tooling."""
    n, pos = decode_int(data, 0)
    return n, list(iter_rules(data, pos, n))


# --------------------------------------------------------------------------
# Facts
# --------------------------------------------------------------------------


# A fact is its key: the integer tuple the checker stores, led by its kind's
# index in FACT_KINDS. Only Canonical, which no rule consumes, is a named pair.
FACT_KINDS = (
    "REqual", "RFiner", "TargetIs", "OrbitSubset", "PhiEqual", "Pruned", "OnPath",
    "Canonical",
)
Fact = tuple[int, ...]


def REqual(nu: Seq, pi: Coloring) -> Fact:
    return (0, len(nu), *nu, *pi.colors)


def RFiner(nu: Seq, pi: Coloring) -> Fact:
    return (1, len(nu), *nu, *pi.colors)


def TargetIs(nu: Seq, cell: VertexSet) -> Fact:
    return (2, len(nu), *nu, len(cell), *cell)


def OrbitSubset(nu: Seq, omega: VertexSet) -> Fact:
    return (3, len(nu), *nu, len(omega), *omega)


def PhiEqual(nu1: Seq, nu2: Seq) -> Fact:
    return (4, len(nu1), *nu1, len(nu2), *nu2)


def Pruned(nu: Seq) -> Fact:
    return (5, len(nu), *nu)


def OnPath(nu: Seq) -> Fact:
    return (6, len(nu), *nu)


class Canonical(NamedTuple):
    graph: Graph
    coloring: Coloring


def fact_key(fact: Fact | Canonical) -> tuple[int, ...]:
    """The integer tuple of a fact: a tuple fact as it is, and a
    ``Canonical`` flattened to its code, its edges and its coloring."""
    if isinstance(fact, Canonical):
        flat = [x for edge in fact.graph.edges for x in edge]
        return (7, len(fact.graph.edges), *flat, *fact.coloring.colors)
    return fact
