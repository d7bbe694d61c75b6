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
puts the planes back together from them into a window of integers, at least
:data:`WINDOW` of them or the largest rule's ``4n + 6``; :func:`decode_rule`
reads no further than the largest rule. The first bad integer is re-read
with :func:`decode_int`. Before each rule the window is refilled to hold the
largest rule, and the rule is read by index from it, each field's checks
made once on its slice; a read past the window raises the error of the
integer after it.

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


def encode_ints(values) -> bytearray:
    """Encode many integers into one ``bytearray``, each byte column translated
    from their byte planes; it compares equal to ``bytes`` but is not hashable.
    An ``"H"`` array, whose items are in range by their type, is read as it is;
    any other iterable is range-checked into an ``"H"`` or ``"I"`` array."""
    if not (isinstance(values, array) and values.typecode == "H"):
        values = list(values)
        top = max(values, default=0)
        if min(values, default=0) < 0 or top > MAX_WIRE_INT:
            bad = next(v for v in values if not 0 <= v <= MAX_WIRE_INT)
            raise ProofEncodeError(f"integer {bad} outside wire range")
        values = array("H" if top >> 16 == 0 else "I", values)
    raw, size = bytes(values), memoryview(values).itemsize
    k = len(raw) // size
    planes = [raw[p if _LITTLE else size - 1 - p :: size] for p in range(size)]
    del raw  # the planes hold its bytes
    while planes and planes[-1].count(0) == k:
        planes.pop()  # the columns only they feed keep their zero bits
    out = bytearray(_HEADS) * k
    for j in range(INT_WIDTH):
        parts = [planes[p].translate(t) for i, p, t, _ in _PAIRS if i == j and p < len(planes)]
        if parts:
            out[j::INT_WIDTH] = _or(parts, k)
    return out


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


# Per rule code: its class and its fields' shapes, in wire order.
_PLANS = {code: (cls, tuple(s for _, s in f)) for code, (cls, f) in RULE_SCHEMA.items()}


class _Reader:
    """Holds integers of ``data[start:stop]``, each decoded once by
    :func:`_ints`, in a window of at least :data:`WINDOW` of them:
    ``ints[i]`` is the integer at byte offset ``pos``. ``error`` is the
    :func:`decode_int` error of the integer after the window, if the window
    stops at a bad integer or at the end of ``data``.
    """

    def __init__(self, data: bytes, start: int, stop: int):
        self.data, self.stop, self.step = data, stop, INT_WIDTH * WINDOW
        self.ints, self.error, self.end, self.pos, self.i = (), None, start, start, 0

    def fill(self, k: int) -> None:
        """Make the window hold ``k`` integers from ``i`` on, unless an
        error or ``stop`` comes first."""
        i = self.i
        missing = i + k - len(self.ints)
        if missing > 0 and self.error is None:
            stop = min(self.stop, self.end + max(self.step, INT_WIDTH * missing))
            ints, self.error = _ints(self.data, self.end, stop)
            self.ints, self.end, self.i = self.ints[i:] + tuple(ints), stop, 0


def _read_rule(r: _Reader, n: int) -> Rule:
    """Read one rule, with its shape checks (ranges, distinctness, ordering,
    colorings, permutations) and the rule-local ones that need no facts.
    The window is filled for the largest rule, then each field is read by
    index; a read past the window raises its error, and a check that fails
    names the byte offset after its field."""
    r.fill(4 * n + 6)
    ints, i, pos = r.ints, r.i, r.pos
    top, at = len(ints), pos - INT_WIDTH * i  # ints[j] is at byte at + 6j
    if i >= top:
        raise r.error
    if ints[i] not in _PLANS:
        raise ProofDecodeError(f"unknown rule code {ints[i]}", pos)
    cls, shapes = _PLANS[ints[i]]
    fields, j = [], i + 1
    for shape in shapes:
        if shape == "Seq" or shape == "VertexSet":
            if j >= top:
                raise r.error
            length, j = ints[j], j + 1
            if length > n:
                what = "sequence length" if shape == "Seq" else "set size"
                raise ProofDecodeError(f"{what} {length} exceeds n", at + INT_WIDTH * j)
            k = j + length
        else:  # a Vertex is one value; a Coloring or a Perm is n values
            k = j + 1 if shape == "Vertex" else j + n
        if k > top:
            raise r.error
        value, j, end = ints[j:k], k, at + INT_WIDTH * k
        if shape == "Seq":
            if value and max(value) >= n:
                raise ProofDecodeError("sequence vertex outside range", end)
            if len(set(value)) != length:
                raise ProofDecodeError("sequence vertices not distinct", end)
        elif shape == "Perm":
            if value and max(value) >= n or len(set(value)) != n:
                raise ProofDecodeError("permutation is not a bijection", end)
        elif shape == "Vertex":
            value = value[0]
            if value >= n:
                raise ProofDecodeError(f"vertex {value} outside 0..{n - 1}", end)
        elif shape == "VertexSet":
            if value and max(value) >= n:
                raise ProofDecodeError("set vertex outside range", end)
            if any(a >= b for a, b in zip(value, value[1:])):
                raise ProofDecodeError("set not strictly ascending", end)
        else:  # a Coloring: the range check, then the gap check, once
            m = max(value, default=0)
            if value and m >= n:
                raise ProofDecodeError("color value outside range", end)
            if len(set(value)) != m + 1:
                try:  # Coloring's own message: a gap, or no vertices (n = 0)
                    Coloring(value)
                except ValueError as exc:
                    raise ProofDecodeError(f"bad coloring: {exc}", end) from None
            colors, value = value, Coloring.__new__(Coloring)
            value.colors = colors  # so Coloring.__init__ checks nothing again
        fields.append(value)
    r.i, r.pos = j, at + INT_WIDTH * j
    rule = tuple.__new__(cls, fields)
    if cls is Individualize and rule.v in rule.nu:
        raise ProofDecodeError("individualized vertex already in sequence", pos)
    if cls is InvariantsEqual or cls is PruneInvariant:
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


def encode_proof(n: int, rules) -> bytearray:
    """Serialize a full proof stream, ``n`` then the rules, into a ``bytearray``."""
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
