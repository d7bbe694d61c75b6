"""Independent verification of canonical-form proofs.

The checker consumes a binary proof stream for a colored graph ``(G, pi0)``
and replays it rule by rule: every premise listed by :func:`premises` must
already sit in the fact database, every side condition is recomputed from
scratch (refinement splits, invariant hashes, graph comparisons, automorphism
checks), and the derived fact is inserted. :func:`premises` is the only
statement of what each rule consumes; the emitters use it too. A stream is
accepted iff it decodes completely, every rule applies, and some rule derived
a Canonical fact — whose content is the checker's own, independently computed
answer.

Nothing here trusts the solver: the checker never sees search state, only
the rule parameters, and recomputes every conclusion (e.g. a split rule's
resulting coloring, or the relabelled graph of a canonical leaf) itself.

Facts are integer tuples (:mod:`graphcanon.proof`); :func:`premises` and
:func:`apply_rule` build them, and they sit in a flat hash set as they are,
next to the permutations already verified as automorphisms of ``(G, pi0)``.

The store also memoizes what the checker proved about each coloring a
``SplitColoring`` rule concluded: the coloring itself, its cells cached, and
the cells known *uniform* there (cells that split no cell). They are the
premise's cells up to and including the splitting cell, plus the premise's
own uniform cells, each kept only if it is still a cell of the conclusion.
``SplitColoring`` and ``Equitable`` take their premise's entry out of the
memo (a premise read again is scanned in full), and the splitter scan skips
those cells. This is sound because a cell uniform for ``pi`` stays uniform
in every refinement of ``pi`` where it is still a cell, and after a round
against ``W`` every fragment is uniform w.r.t. ``W``. The memo is filled
only from the checker's own splits, never from stream fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Coloring,
    Graph,
    act_coloring,
    graph_compare,
    is_automorphism,
    relabel_graph,
)
from .invariant import hash_colored
from .proof import (
    FACT_KINDS,
    Canonical,
    CanonicalLeaf,
    ColoringAxiom,
    Equitable,
    ExtendPath,
    Fact,
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
    ProofDecodeError,
    PruneAutomorphism,
    PruneInvariant,
    PruneLeaf,
    PruneOrbits,
    PruneParent,
    Pruned,
    REqual,
    RFiner,
    Rule,
    SplitColoring,
    TargetCell,
    TargetIs,
    decode_int,
    iter_rules,
)
from .refine import individualize, split, splitting_cell, target_cell

# Error kinds reported in verdicts.
DECODE = "decode"
N_MISMATCH = "n-mismatch"
MISSING_PREMISE = "missing-premise"
SIDE_CONDITION = "side-condition"
NO_CANONICAL = "no-canonical"
CANONICAL_CONFLICT = "canonical-conflict"


class CheckFailure(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# --------------------------------------------------------------------------
# Fact database
# --------------------------------------------------------------------------


class FlatSetDatabase:
    """Fact store backed by a plain set of integer tuples.

    ``automorphisms`` holds the permutations already verified against the
    ``(G, pi0)`` this store is used with, so one store serves one colored
    graph. So does ``uniform``, the split memo of the module docstring: it
    maps a coloring's colors to the coloring and its cells known uniform.
    """

    def __init__(self) -> None:
        self._keys: set[tuple[int, ...]] = set()
        self.automorphisms: set[tuple[int, ...]] = set()
        self.uniform: dict[tuple[int, ...], tuple[Coloring, frozenset]] = {}

    def take(self, pi: Coloring) -> tuple[Coloring, frozenset]:
        """The stored copy of ``pi`` and its cells known uniform, else ``pi``
        and no cells, dropping the entry from the memo."""
        return self.uniform.pop(pi.colors, (pi, frozenset()))

    def insert(self, key: Sequence[int]) -> bool:
        key = tuple(key)
        if key in self._keys:
            return False
        self._keys.add(key)
        return True

    def contains(self, key: Sequence[int]) -> bool:
        return tuple(key) in self._keys

    def __len__(self) -> int:
        return len(self._keys)


# --------------------------------------------------------------------------
# Rule application
# --------------------------------------------------------------------------


def premises(rule: Rule) -> tuple[Fact, ...]:
    """The facts ``rule`` consumes, in the order the checker looks them up.

    This is the one statement of each rule's premises: the checker requires
    them and the emitters derive them before writing the rule.
    """
    match rule:
        case Individualize(nu=nu, pi=pi) | TargetCell(nu=nu, pi=pi):
            return (REqual(nu, pi),)
        case SplitColoring(nu=nu, pi=pi) | Equitable(nu=nu, pi=pi):
            return (RFiner(nu, pi),)
        case InvariantsEqual(nu1, pi1, nu2, pi2) | PruneInvariant(nu1, pi1, nu2, pi2):
            return (PhiEqual(nu1[:-1], nu2[:-1]), REqual(nu1, pi1), REqual(nu2, pi2))
        case InvariantsEqualSym(nu1, nu2):
            return (PhiEqual(nu1, nu2),)
        case MergeOrbits(omega1, omega2, nu):
            return (OrbitSubset(nu, omega1), OrbitSubset(nu, omega2))
        case PruneLeaf(nu1, pi1, nu2, pi2):
            return (REqual(nu1, pi1), REqual(nu2, pi2), PhiEqual(nu1, nu2))
        case PruneParent(nu, cell):
            return (TargetIs(nu, cell), *(Pruned(nu + (w,)) for w in cell))
        case PruneOrbits(omega, nu):
            return (OrbitSubset(nu, omega),)
        case ExtendPath(nu, cell, v):
            others = (Pruned(nu + (w,)) for w in cell if w != v)
            return (OnPath(nu), TargetIs(nu, cell), *others)
        case CanonicalLeaf(nu, pi):
            return (OnPath(nu), REqual(nu, pi))
    return ()


def _fail(message: str) -> CheckFailure:
    return CheckFailure(SIDE_CONDITION, message)


def _need_automorphism(
    g: Graph, pi0: Coloring, sigma: Sequence[int], db: FlatSetDatabase
) -> None:
    sigma = tuple(sigma)
    if sigma in db.automorphisms:
        return
    if not is_automorphism(g, pi0, sigma):
        raise _fail("sigma is not an automorphism of (G, pi0)")
    db.automorphisms.add(sigma)


def apply_rule(
    g: Graph, pi0: Coloring, rule: Rule, db: FlatSetDatabase
) -> Fact | Canonical:
    """Validate one rule against the database and return its conclusion.

    Raises :class:`CheckFailure` when a premise is absent or a recomputed
    side condition does not hold. The caller inserts the conclusion. ``db``
    must only ever be used with this ``(G, pi0)``.
    """
    if isinstance(rule, ExtendPath) and rule.w not in rule.cell:
        # Checked before the premises, which name every other cell vertex.
        raise _fail("extension vertex outside the target cell")
    needed = premises(rule)
    for i, fact in enumerate(needed):
        if not db.contains(fact):
            where = f"premise {i + 1} of {len(needed)}"
            raise CheckFailure(
                MISSING_PREMISE, f"missing premise: {FACT_KINDS[fact[0]]} ({where})"
            )

    if isinstance(rule, ColoringAxiom):
        return RFiner((), pi0)

    if isinstance(rule, Individualize):
        return RFiner(rule.nu + (rule.v,), individualize(rule.pi, rule.v))

    if isinstance(rule, SplitColoring):
        pi, uniform = db.take(rule.pi)
        i = splitting_cell(g, pi, uniform)
        if i is None:
            raise _fail("coloring is already equitable; nothing splits")
        out = split(g, pi, i)
        kept = frozenset((*pi.cells[: i + 1], *uniform)).intersection(out.cells)
        db.uniform[out.colors] = out, kept
        return RFiner(rule.nu, out)

    if isinstance(rule, Equitable):
        if splitting_cell(g, *db.take(rule.pi)) is not None:
            raise _fail("coloring is not equitable")
        return REqual(rule.nu, rule.pi)

    if isinstance(rule, TargetCell):
        cell = target_cell(rule.pi)
        if cell is None:
            raise _fail("discrete coloring has no target cell")
        return TargetIs(rule.nu, cell)

    if isinstance(rule, InvariantAxiom):
        return PhiEqual(rule.nu, rule.nu)

    if isinstance(rule, InvariantsEqual):
        h1 = hash_colored(g, rule.pi1)
        if h1 != hash_colored(g, rule.pi2):
            raise _fail("invariant hashes differ")
        return PhiEqual(rule.nu1, rule.nu2)

    if isinstance(rule, InvariantsEqualSym):
        return PhiEqual(rule.nu2, rule.nu1)

    if isinstance(rule, OrbitsAxiom):
        return OrbitSubset(rule.nu, (rule.v,))

    if isinstance(rule, MergeOrbits):
        if rule.w1 not in rule.omega1 or rule.w2 not in rule.omega2:
            raise _fail("witnesses outside their classes")
        if rule.sigma[rule.w1] != rule.w2:
            raise _fail("sigma does not map w1 to w2")
        if any(rule.sigma[x] != x for x in rule.nu):
            raise _fail("sigma does not fix the node sequence")
        _need_automorphism(g, pi0, rule.sigma, db)
        merged = tuple(sorted(set(rule.omega1) | set(rule.omega2)))
        return OrbitSubset(rule.nu, merged)

    if isinstance(rule, PruneInvariant):
        h1 = hash_colored(g, rule.pi1)
        if h1 <= hash_colored(g, rule.pi2):
            raise _fail("first invariant hash does not dominate")
        return Pruned(rule.nu2)

    if isinstance(rule, PruneLeaf):
        if not rule.pi2.discrete:
            raise _fail("pruned node is not a leaf")
        if rule.pi1.discrete:
            g1 = relabel_graph(g, rule.pi1.perm())
            g2 = relabel_graph(g, rule.pi2.perm())
            if graph_compare(g1, g2) <= 0:
                raise _fail("first leaf graph does not dominate")
        return Pruned(rule.nu2)

    if isinstance(rule, PruneAutomorphism):
        if len(rule.nu1) != len(rule.nu2):
            raise _fail("sequences differ in length")
        if not rule.nu1 < rule.nu2:
            raise _fail("first sequence is not lexicographically smaller")
        if any(rule.sigma[a] != b for a, b in zip(rule.nu1, rule.nu2)):
            raise _fail("sigma does not map nu1 onto nu2")
        _need_automorphism(g, pi0, rule.sigma, db)
        return Pruned(rule.nu2)

    if isinstance(rule, PruneParent):
        return Pruned(rule.nu)

    if isinstance(rule, PruneOrbits):
        if rule.w1 not in rule.omega or rule.w2 not in rule.omega:
            raise _fail("witnesses outside the class")
        if not rule.w1 < rule.w2:
            raise _fail("w1 must be smaller than w2")
        return Pruned(rule.nu + (rule.w2,))

    if isinstance(rule, PathAxiom):
        return OnPath(())

    if isinstance(rule, ExtendPath):
        return OnPath(rule.nu + (rule.w,))

    if isinstance(rule, CanonicalLeaf):
        if not rule.pi.discrete:
            raise _fail("canonical leaf coloring is not discrete")
        sigma = rule.pi.perm()
        return Canonical(relabel_graph(g, sigma), act_coloring(pi0, sigma))

    raise AssertionError(f"unhandled rule {type(rule).__name__}")


# --------------------------------------------------------------------------
# Stream verification
# --------------------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of checking one proof stream."""

    accepted: bool
    canonical_graph: Graph | None = None
    canonical_coloring: Coloring | None = None
    error_kind: str | None = None
    error_index: int | None = None
    error_message: str | None = None
    rules_applied: int = 0
    facts: int = 0

    @property
    def reason(self) -> str | None:
        if self.accepted:
            return None
        where = "" if self.error_index is None else f" at rule {self.error_index}"
        return f"{self.error_kind}{where}: {self.error_message}"


def verify_proof(g: Graph, pi0: Coloring, data: bytes) -> Verdict:
    """Check a proof stream against ``(G, pi0)``.

    Accepts iff ``pi0`` and the stream are on ``g``'s vertex count, the
    stream decodes end to end, every rule applies, and a Canonical fact was
    derived. The first Canonical fact provides the verdict's canonical graph
    and coloring; a later one that differs from it is rejected as a
    canonical conflict, which sound rules never produce.
    """
    db = FlatSetDatabase()
    canonical: Canonical | None = None
    applied = 0

    def reject(kind: str, message: str, index: int | None = None) -> Verdict:
        return Verdict(
            False,
            error_kind=kind,
            error_index=index,
            error_message=message,
            rules_applied=applied,
            facts=len(db),
        )

    if pi0.n != g.n:
        return reject(N_MISMATCH, f"coloring has n={pi0.n}, graph has n={g.n}")
    try:
        n, pos = decode_int(data, 0)
    except ProofDecodeError as exc:
        return reject(DECODE, f"{exc} at byte {exc.offset}")
    if n != g.n:
        return reject(N_MISMATCH, f"proof is for n={n}, graph has n={g.n}")
    try:
        for rule in iter_rules(data, pos, n):
            try:
                fact = apply_rule(g, pi0, rule, db)
            except CheckFailure as exc:
                return reject(exc.kind, f"{type(rule).__name__}: {exc}", applied)
            if isinstance(fact, Canonical):
                if canonical is None:
                    canonical = fact
                elif fact != canonical:
                    return reject(
                        CANONICAL_CONFLICT,
                        f"{type(rule).__name__}: canonical form differs from"
                        " the one derived first",
                        applied,
                    )
            else:  # no rule takes a Canonical premise
                db.insert(fact)
            applied += 1
    except ProofDecodeError as exc:
        return reject(DECODE, f"{exc} at byte {exc.offset}", applied)
    if canonical is None:
        return reject(NO_CANONICAL, "stream ended without deriving a canonical form")
    return Verdict(
        True,
        canonical_graph=canonical.graph,
        canonical_coloring=canonical.coloring,
        rules_applied=applied,
        facts=len(db),
    )
