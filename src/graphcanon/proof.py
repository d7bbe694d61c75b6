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

The rule dataclasses are the only statement of that layout: :data:`RULE_CODE`
and :data:`RULE_SCHEMA` are read from them. What each rule consumes is stated
once, in :func:`graphcanon.checker.premises`.

Facts derived by rules are identified by integer tuples (:func:`fact_key`);
the checker stores and looks up those keys only, never rich objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_args

from .core import MAX_WIRE_INT, Coloring, Graph

INT_WIDTH = 6
# Valid lead and continuation bytes, and a table keeping a byte's low 6 bits.
_LEAD_BYTES = b"\xfc\xfd"
_CONT_BYTES = bytes(range(0x80, 0xC0))
_LOW6 = bytes(b & 0x3F for b in range(256))


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


def encode_ints(values) -> bytes:
    """Encode many integers at once, one byte column per extended slice."""
    values = list(values)
    top = max(values, default=0)
    if min(values, default=0) < 0 or top > MAX_WIRE_INT:
        bad = next(v for v in values if not 0 <= v <= MAX_WIRE_INT)
        raise ProofEncodeError(f"integer {bad} outside wire range")
    zero = b"\xfc\x80\x80\x80\x80\x80"  # lead byte, then five continuations
    out = bytearray(zero * len(values))
    for j, (head, shift) in enumerate(zip(zero, (30, 24, 18, 12, 6, 0))):
        if top >> shift:  # else every value has only zero bits here, as 0 does
            out[j::INT_WIDTH] = bytes([head | ((v >> shift) & 0x3F) for v in values])
    return bytes(out)


def proof_to_ints(data: bytes) -> list[int]:
    """Flatten a proof stream into its integer sequence (no structure)."""
    return _Reader(data, 0).read_many(-(-len(data) // INT_WIDTH))


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

# Field shapes. The codec dispatches on the annotation's name, so a rule
# field must be annotated with one of these or with ``Coloring``.
Vertex = int
Seq = tuple[int, ...]
VertexSet = tuple[int, ...]
Perm = tuple[int, ...]


@dataclass(frozen=True)
class ColoringAxiom:
    pass


@dataclass(frozen=True)
class Individualize:
    nu: Seq
    v: Vertex
    pi: Coloring


@dataclass(frozen=True)
class SplitColoring:
    nu: Seq
    pi: Coloring


@dataclass(frozen=True)
class Equitable:
    nu: Seq
    pi: Coloring


@dataclass(frozen=True)
class TargetCell:
    nu: Seq
    pi: Coloring


@dataclass(frozen=True)
class InvariantAxiom:
    nu: Seq


@dataclass(frozen=True)
class InvariantsEqual:
    """Parameters name the two child nodes: ``nu1 = [nu', v']`` etc."""

    nu1: Seq
    pi1: Coloring
    nu2: Seq
    pi2: Coloring


@dataclass(frozen=True)
class InvariantsEqualSym:
    nu1: Seq
    nu2: Seq


@dataclass(frozen=True)
class OrbitsAxiom:
    v: Vertex
    nu: Seq


@dataclass(frozen=True)
class MergeOrbits:
    omega1: VertexSet
    omega2: VertexSet
    nu: Seq
    sigma: Perm
    w1: Vertex
    w2: Vertex


@dataclass(frozen=True)
class PruneInvariant:
    nu1: Seq
    pi1: Coloring
    nu2: Seq
    pi2: Coloring


@dataclass(frozen=True)
class PruneLeaf:
    nu1: Seq
    pi1: Coloring
    nu2: Seq
    pi2: Coloring


@dataclass(frozen=True)
class PruneAutomorphism:
    nu1: Seq
    nu2: Seq
    sigma: Perm


@dataclass(frozen=True)
class PruneParent:
    nu: Seq
    cell: VertexSet


@dataclass(frozen=True)
class PruneOrbits:
    omega: VertexSet
    nu: Seq
    w1: Vertex
    w2: Vertex


@dataclass(frozen=True)
class PathAxiom:
    pass


@dataclass(frozen=True)
class ExtendPath:
    nu: Seq
    cell: VertexSet
    w: Vertex


@dataclass(frozen=True)
class CanonicalLeaf:
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
RULE_SCHEMA: dict[int, tuple[type, tuple[tuple[str, str], ...]]] = {
    code: (cls, tuple((f.name, f.type) for f in fields(cls)))
    for cls, code in RULE_CODE.items()
}


def _encode_field(value, shape: str, n: int) -> list[int]:
    if shape == "Vertex":
        return [value]
    if shape == "Seq" or shape == "VertexSet":
        return [len(value), *value]
    if shape == "Coloring":
        if value.n != n:
            raise ProofEncodeError("coloring size does not match n")
        return list(value.colors)
    if shape == "Perm":
        if len(value) != n:
            raise ProofEncodeError("permutation size does not match n")
        return list(value)
    raise AssertionError(shape)


def encode_rule(rule: Rule, n: int) -> bytes:
    code = RULE_CODE[type(rule)]
    _, schema = RULE_SCHEMA[code]
    values = [code]
    for name, shape in schema:
        values.extend(_encode_field(getattr(rule, name), shape, n))
    return encode_ints(values)


class _Reader:
    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def read(self) -> int:
        v, self.pos = decode_int(self.data, self.pos)
        return v

    def read_many(self, k: int) -> list[int]:
        """Read ``k`` integers from one slice, checked column by column.

        A short or malformed slice is re-read one integer at a time, so the
        first error and its offset are those of :func:`decode_int`.
        """
        chunk = self.data[self.pos : self.pos + INT_WIDTH * k]
        cols = [chunk[j::INT_WIDTH] for j in range(INT_WIDTH)]
        valid = len(chunk) == INT_WIDTH * k and not cols[0].translate(None, _LEAD_BYTES)
        if not valid or b"".join(cols[1:]).translate(None, _CONT_BYTES):
            return [self.read() for _ in range(k)]
        self.pos += len(chunk)
        return [
            (a & 1) << 30 | b << 24 | c << 18 | d << 12 | e << 6 | f
            for a, b, c, d, e, f in zip(*[col.translate(_LOW6) for col in cols])
        ]


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
        if any(v >= n for v in seq):
            raise ProofDecodeError("sequence vertex outside range", r.pos)
        if len(set(seq)) != length:
            raise ProofDecodeError("sequence vertices not distinct", r.pos)
        return seq
    if shape == "VertexSet":
        length = r.read()
        if length > n:
            raise ProofDecodeError(f"set size {length} exceeds n", r.pos)
        vs = tuple(r.read_many(length))
        if any(v >= n for v in vs):
            raise ProofDecodeError("set vertex outside range", r.pos)
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ProofDecodeError("set not strictly ascending", r.pos)
        return vs
    if shape == "Coloring":
        colors = r.read_many(n)
        if any(c >= n for c in colors):
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


def decode_rule(data: bytes, pos: int, n: int) -> tuple[Rule, int]:
    """Decode one rule at ``pos``; returns ``(rule, next_pos)``.

    Performs all shape-level validation (ranges, distinctness, ordering,
    well-formed colorings and permutations) plus the rule-local constraints
    that don't need the fact database.
    """
    r = _Reader(data, pos)
    code = r.read()
    entry = RULE_SCHEMA.get(code)
    if entry is None:
        raise ProofDecodeError(f"unknown rule code {code}", pos)
    cls, schema = entry
    kwargs = {name: _decode_field(r, shape, n) for name, shape in schema}
    rule = cls(**kwargs)
    if isinstance(rule, Individualize) and rule.v in rule.nu:
        raise ProofDecodeError("individualized vertex already in sequence", pos)
    if isinstance(rule, (InvariantsEqual, PruneInvariant)):
        if not rule.nu1 or not rule.nu2:
            raise ProofDecodeError("child sequences must be non-empty", pos)
    return rule, r.pos


def encode_proof(n: int, rules) -> bytes:
    """Serialize a full proof stream: ``n`` followed by the rules."""
    parts = [encode_int(n)]
    parts.extend(encode_rule(rule, n) for rule in rules)
    return b"".join(parts)


def decode_proof(data: bytes) -> tuple[int, list[Rule]]:
    """Parse a complete stream; mainly for tests and tooling."""
    n, pos = decode_int(data, 0)
    rules = []
    while pos < len(data):
        rule, pos = decode_rule(data, pos, n)
        rules.append(rule)
    return n, rules


# --------------------------------------------------------------------------
# Facts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class REqual:
    nu: tuple[int, ...]
    pi: Coloring


@dataclass(frozen=True)
class RFiner:
    nu: tuple[int, ...]
    pi: Coloring


@dataclass(frozen=True)
class TargetIs:
    nu: tuple[int, ...]
    cell: tuple[int, ...]


@dataclass(frozen=True)
class OrbitSubset:
    nu: tuple[int, ...]
    omega: tuple[int, ...]


@dataclass(frozen=True)
class PhiEqual:
    nu1: tuple[int, ...]
    nu2: tuple[int, ...]


@dataclass(frozen=True)
class Pruned:
    nu: tuple[int, ...]


@dataclass(frozen=True)
class OnPath:
    nu: tuple[int, ...]


@dataclass(frozen=True)
class Canonical:
    graph: Graph
    coloring: Coloring


Fact = REqual | RFiner | TargetIs | OrbitSubset | PhiEqual | Pruned | OnPath | Canonical

FACT_CODES: dict[type, int] = {cls: code for code, cls in enumerate(get_args(Fact))}


def fact_key(fact: Fact) -> tuple[int, ...]:
    """Flatten a fact into the integer tuple the checker stores."""
    code = FACT_CODES[type(fact)]
    if isinstance(fact, (REqual, RFiner)):
        return (code, len(fact.nu), *fact.nu, *fact.pi.colors)
    if isinstance(fact, (TargetIs, OrbitSubset)):
        second = fact.cell if isinstance(fact, TargetIs) else fact.omega
        return (code, len(fact.nu), *fact.nu, len(second), *second)
    if isinstance(fact, PhiEqual):
        return (code, len(fact.nu1), *fact.nu1, len(fact.nu2), *fact.nu2)
    if isinstance(fact, (Pruned, OnPath)):
        return (code, len(fact.nu), *fact.nu)
    if isinstance(fact, Canonical):
        flat = [x for edge in fact.graph.edges for x in edge]
        return (code, len(fact.graph.edges), *flat, *fact.coloring.colors)
    raise AssertionError(type(fact))
