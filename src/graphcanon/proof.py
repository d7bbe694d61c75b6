"""Binary proof format: rules, facts, and the bit-exact codec.

A proof is a stream of unsigned integers, each encoded in exactly six bytes:
a lead byte ``0b111111_0x`` carrying the top bit of the value, followed by
five continuation bytes ``0b10_xxxxxx`` carrying six value bits each (big
endian). The representable range is ``0 .. 2^31 - 1``.

The stream starts with the vertex count ``n`` and continues with rule
applications, back to back, with no framing: a rule is its numeric code
followed by its parameters. Parameter shapes are one of

* a vertex (one integer),
* a sequence (length prefix, then that many distinct vertices),
* a set (length prefix, then that many vertices, strictly ascending),
* a coloring (``n`` color values, covering ``0..m-1``),
* a permutation (``n`` values, a bijection).

Facts derived by rules are identified by integer tuples (:func:`fact_key`);
the checker stores and looks up those keys only, never rich objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import MAX_WIRE_INT, Coloring, Graph

INT_WIDTH = 6


class ProofError(Exception):
    """Base class for encoding/decoding failures."""


class ProofEncodeError(ProofError):
    pass


class ProofDecodeError(ProofError):
    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


def encode_int(value: int) -> bytes:
    if not (0 <= value <= MAX_WIRE_INT):
        raise ProofEncodeError(f"integer {value} outside wire range")
    return bytes(
        (
            0xFC | (value >> 30),
            0x80 | ((value >> 24) & 0x3F),
            0x80 | ((value >> 18) & 0x3F),
            0x80 | ((value >> 12) & 0x3F),
            0x80 | ((value >> 6) & 0x3F),
            0x80 | (value & 0x3F),
        )
    )


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
    return b"".join(encode_int(v) for v in values)


def proof_to_ints(data: bytes) -> list[int]:
    """Flatten a proof stream into its integer sequence (no structure)."""
    out = []
    pos = 0
    while pos < len(data):
        v, pos = decode_int(data, pos)
        out.append(v)
    return out


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ColoringAxiom:
    pass


@dataclass(frozen=True)
class Individualize:
    nu: tuple[int, ...]
    v: int
    pi: Coloring


@dataclass(frozen=True)
class SplitColoring:
    nu: tuple[int, ...]
    pi: Coloring


@dataclass(frozen=True)
class Equitable:
    nu: tuple[int, ...]
    pi: Coloring


@dataclass(frozen=True)
class TargetCell:
    nu: tuple[int, ...]
    pi: Coloring


@dataclass(frozen=True)
class InvariantAxiom:
    nu: tuple[int, ...]


@dataclass(frozen=True)
class InvariantsEqual:
    """Parameters name the two child nodes: ``nu1 = [nu', v']`` etc."""

    nu1: tuple[int, ...]
    pi1: Coloring
    nu2: tuple[int, ...]
    pi2: Coloring


@dataclass(frozen=True)
class InvariantsEqualSym:
    nu1: tuple[int, ...]
    nu2: tuple[int, ...]


@dataclass(frozen=True)
class OrbitsAxiom:
    v: int
    nu: tuple[int, ...]


@dataclass(frozen=True)
class MergeOrbits:
    omega1: tuple[int, ...]
    omega2: tuple[int, ...]
    nu: tuple[int, ...]
    sigma: tuple[int, ...]
    w1: int
    w2: int


@dataclass(frozen=True)
class PruneInvariant:
    nu1: tuple[int, ...]
    pi1: Coloring
    nu2: tuple[int, ...]
    pi2: Coloring


@dataclass(frozen=True)
class PruneLeaf:
    nu1: tuple[int, ...]
    pi1: Coloring
    nu2: tuple[int, ...]
    pi2: Coloring


@dataclass(frozen=True)
class PruneAutomorphism:
    nu1: tuple[int, ...]
    nu2: tuple[int, ...]
    sigma: tuple[int, ...]


@dataclass(frozen=True)
class PruneParent:
    nu: tuple[int, ...]
    cell: tuple[int, ...]


@dataclass(frozen=True)
class PruneOrbits:
    omega: tuple[int, ...]
    nu: tuple[int, ...]
    w1: int
    w2: int


@dataclass(frozen=True)
class PathAxiom:
    pass


@dataclass(frozen=True)
class ExtendPath:
    nu: tuple[int, ...]
    cell: tuple[int, ...]
    w: int


@dataclass(frozen=True)
class CanonicalLeaf:
    nu: tuple[int, ...]
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


class Field(Enum):
    VERTEX = "vertex"
    SEQ = "seq"  # length-prefixed, distinct vertices
    SET = "set"  # length-prefixed, strictly ascending vertices
    COLORING = "coloring"  # n color values
    PERM = "perm"  # n values, bijection


# code -> (rule class, ordered (attribute, shape) pairs)
RULE_SCHEMA: dict[int, tuple[type, tuple[tuple[str, Field], ...]]] = {
    0: (ColoringAxiom, ()),
    1: (
        Individualize,
        (("nu", Field.SEQ), ("v", Field.VERTEX), ("pi", Field.COLORING)),
    ),
    2: (SplitColoring, (("nu", Field.SEQ), ("pi", Field.COLORING))),
    3: (Equitable, (("nu", Field.SEQ), ("pi", Field.COLORING))),
    4: (TargetCell, (("nu", Field.SEQ), ("pi", Field.COLORING))),
    5: (InvariantAxiom, (("nu", Field.SEQ),)),
    6: (
        InvariantsEqual,
        (
            ("nu1", Field.SEQ),
            ("pi1", Field.COLORING),
            ("nu2", Field.SEQ),
            ("pi2", Field.COLORING),
        ),
    ),
    7: (InvariantsEqualSym, (("nu1", Field.SEQ), ("nu2", Field.SEQ))),
    8: (OrbitsAxiom, (("v", Field.VERTEX), ("nu", Field.SEQ))),
    9: (
        MergeOrbits,
        (
            ("omega1", Field.SET),
            ("omega2", Field.SET),
            ("nu", Field.SEQ),
            ("sigma", Field.PERM),
            ("w1", Field.VERTEX),
            ("w2", Field.VERTEX),
        ),
    ),
    10: (
        PruneInvariant,
        (
            ("nu1", Field.SEQ),
            ("pi1", Field.COLORING),
            ("nu2", Field.SEQ),
            ("pi2", Field.COLORING),
        ),
    ),
    11: (
        PruneLeaf,
        (
            ("nu1", Field.SEQ),
            ("pi1", Field.COLORING),
            ("nu2", Field.SEQ),
            ("pi2", Field.COLORING),
        ),
    ),
    12: (
        PruneAutomorphism,
        (("nu1", Field.SEQ), ("nu2", Field.SEQ), ("sigma", Field.PERM)),
    ),
    13: (PruneParent, (("nu", Field.SEQ), ("cell", Field.SET))),
    14: (
        PruneOrbits,
        (
            ("omega", Field.SET),
            ("nu", Field.SEQ),
            ("w1", Field.VERTEX),
            ("w2", Field.VERTEX),
        ),
    ),
    15: (PathAxiom, ()),
    16: (ExtendPath, (("nu", Field.SEQ), ("cell", Field.SET), ("w", Field.VERTEX))),
    17: (CanonicalLeaf, (("nu", Field.SEQ), ("pi", Field.COLORING))),
}

RULE_CODE: dict[type, int] = {cls: code for code, (cls, _) in RULE_SCHEMA.items()}


def _encode_field(value, shape: Field, n: int) -> list[int]:
    if shape is Field.VERTEX:
        return [value]
    if shape is Field.SEQ or shape is Field.SET:
        return [len(value), *value]
    if shape is Field.COLORING:
        if value.n != n:
            raise ProofEncodeError("coloring size does not match n")
        return list(value.colors)
    if shape is Field.PERM:
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


def _decode_field(r: _Reader, shape: Field, n: int):
    if shape is Field.VERTEX:
        v = r.read()
        if v >= n:
            raise ProofDecodeError(f"vertex {v} outside 0..{n - 1}", r.pos)
        return v
    if shape is Field.SEQ:
        length = r.read()
        if length > n:
            raise ProofDecodeError(f"sequence length {length} exceeds n", r.pos)
        seq = tuple(r.read() for _ in range(length))
        if any(v >= n for v in seq):
            raise ProofDecodeError("sequence vertex outside range", r.pos)
        if len(set(seq)) != length:
            raise ProofDecodeError("sequence vertices not distinct", r.pos)
        return seq
    if shape is Field.SET:
        length = r.read()
        if length > n:
            raise ProofDecodeError(f"set size {length} exceeds n", r.pos)
        vs = tuple(r.read() for _ in range(length))
        if any(v >= n for v in vs):
            raise ProofDecodeError("set vertex outside range", r.pos)
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ProofDecodeError("set not strictly ascending", r.pos)
        return vs
    if shape is Field.COLORING:
        colors = [r.read() for _ in range(n)]
        if any(c >= n for c in colors):
            raise ProofDecodeError("color value outside range", r.pos)
        try:
            return Coloring(colors)
        except ValueError as exc:
            raise ProofDecodeError(f"bad coloring: {exc}", r.pos) from None
    if shape is Field.PERM:
        sigma = tuple(r.read() for _ in range(n))
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

FACT_CODES = {
    REqual: 0,
    RFiner: 1,
    TargetIs: 2,
    OrbitSubset: 3,
    PhiEqual: 4,
    Pruned: 5,
    OnPath: 6,
    Canonical: 7,
}


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
