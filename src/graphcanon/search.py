"""Canonical labelling by individualization-refinement search.

The search tree's nodes are sequences of individualized vertices; each node
carries the refined coloring of its sequence. Children extend a node by the
vertices of the first non-singleton cell, in ascending order. Among all
leaves (nodes with discrete refinements) the canonical leaf maximizes the
invariant vector, with ties broken towards the greater relabelled graph; the
canonical form of ``(G, pi0)`` is that leaf's relabelled graph and coloring.

The engine prunes with three devices:

* invariant comparison against the best leaf found so far (children whose
  hash falls below the best vector are cut; children above it dethrone it);
* discovered automorphisms: one found at two equally-good leaves fixes
  their common prefix pointwise, so it merges orbit classes at every node of
  that prefix (McKay & Piperno's stored-generator pruning), cutting later
  siblings in an already explored orbit; the search then pops back to the
  deepest of those nodes;
* equal invariants with a worse relabelled graph at leaf level.

The tree is walked depth first with an explicit stack holding one frame per
internal node of the current path, so tree depth is not bounded by Python's
recursion limit.

``_Search(g, pi0, True)`` also records every pruning decision as a trace
event; ``graphcanon.emitter.emit_during`` replays that trace as a proof.
:func:`canonical_form` records none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    Coloring,
    Graph,
    act_coloring,
    compose,
    graph_compare,
    invert,
    is_automorphism,
    relabel_graph,
    unit_coloring,
)
from .invariant import hash_colored
from .refine import individualize, make_equitable, target_cell


class SearchError(RuntimeError):
    """Internal inconsistency (in practice: a 64-bit hash collision)."""


# --------------------------------------------------------------------------
# Trace events
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitMergeEv:
    """An automorphism merged two orbit classes at ``node``."""

    node: tuple[int, ...]
    w1: int
    w2: int
    sigma: tuple[int, ...]
    class1: frozenset[int]
    class2: frozenset[int]


@dataclass(frozen=True)
class ChildOrbitPrunedEv:
    """Child ``w`` of ``parent`` skipped: its orbit class holds ``w1 < w``."""

    parent: tuple[int, ...]
    w: int
    w1: int
    omega: frozenset[int]


@dataclass(frozen=True)
class ChildInvariantPrunedEv:
    """Child ``w`` hashed below the best path's node ``best_child``."""

    parent: tuple[int, ...]
    w: int
    best_child: tuple[int, ...]


@dataclass(frozen=True)
class DethroneInvariantEv:
    """Child ``w`` of ``parent`` hashed above the old best path."""

    parent: tuple[int, ...]
    w: int
    old_best: tuple[int, ...]
    diverge: int  # common prefix length of old_best and parent


@dataclass(frozen=True)
class DethroneLeafEv:
    """``node`` ties the old best leaf's invariant but beats it outright."""

    node: tuple[int, ...]
    old_best: tuple[int, ...]
    diverge: int


@dataclass(frozen=True)
class LeafWorseEv:
    """``node`` ties the best prefix but loses (worse graph, or it is a
    discrete dead end shallower than the best leaf)."""

    node: tuple[int, ...]
    best_node: tuple[int, ...]


@dataclass(frozen=True)
class ParentDoneEv:
    """All children of ``node`` were cut; the node itself is dead."""

    node: tuple[int, ...]


TraceEvent = (
    OrbitMergeEv
    | ChildOrbitPrunedEv
    | ChildInvariantPrunedEv
    | DethroneInvariantEv
    | DethroneLeafEv
    | LeafWorseEv
    | ParentDoneEv
)


# --------------------------------------------------------------------------
# Orbit bookkeeping
# --------------------------------------------------------------------------


class UnionFind:
    """Union-find over ``0..n-1`` that can enumerate each class's members."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self._members: list[list[int] | None] = [[i] for i in range(n)]

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, rx: int, ry: int) -> int:
        """Merge two roots; returns the surviving root."""
        mx, my = self._members[rx], self._members[ry]
        assert mx is not None and my is not None
        if len(mx) < len(my):
            rx, ry, mx, my = ry, rx, my, mx
        self.parent[ry] = rx
        mx.extend(my)
        self._members[ry] = None
        return rx

    def members(self, root: int) -> list[int]:
        m = self._members[root]
        assert m is not None, "members() takes a class root"
        return m


def orbit_merge(
    uf: UnionFind,
    sigma: Sequence[int],
    on_union: Callable[[int, int, frozenset[int], frozenset[int]], None] | None = None,
) -> bool:
    """Fold an automorphism into an orbit partition.

    Merges ``x`` with ``sigma[x]`` for every vertex, calling ``on_union`` once
    per actual merge with the two class contents as they were just before it.
    Returns True when anything merged.
    """
    merged = False
    for x in range(len(sigma)):
        rx, ry = uf.find(x), uf.find(sigma[x])
        if rx == ry:
            continue
        if on_union is not None:
            on_union(x, sigma[x], frozenset(uf.members(rx)), frozenset(uf.members(ry)))
        uf.union(rx, ry)
        merged = True
    return merged


def discover_automorphism(
    g: Graph, pi0: Coloring, pi1: Coloring, pi2: Coloring
) -> tuple[int, ...] | None:
    """The permutation carrying one discrete refinement onto another.

    For two leaves with equal relabelled graphs, ``perm(pi1) o perm(pi2)^-1``
    is an automorphism of ``(G, pi0)``; returns it, or None if the candidate
    fails verification.
    """
    sigma = compose(pi1.perm(), invert(pi2.perm()))
    return sigma if is_automorphism(g, pi0, sigma) else None


# --------------------------------------------------------------------------
# The search proper
# --------------------------------------------------------------------------


@dataclass
class CanonicalResult:
    """Everything the solver learned about ``(G, pi0)``."""

    graph: Graph
    coloring: Coloring
    labelling: tuple[int, ...]
    leaf: tuple[int, ...]
    phi: tuple[int, ...]
    generators: list[tuple[int, ...]]
    visited: int


def _common_prefix(a: Sequence[int], b: Sequence[int]) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


class _Best:
    __slots__ = ("phi", "path", "coloring", "graph", "complete")

    def __init__(self) -> None:
        self.phi: list[int] = []
        self.path: tuple[int, ...] = ()
        self.coloring: Coloring | None = None
        self.graph: Graph | None = None
        self.complete = False


class _Frame:
    """An internal node on the current search path, with its target cell,
    the index of its next child, and its orbit partition."""

    __slots__ = ("nu", "pi", "cell", "next", "orbits")

    def __init__(self, nu: tuple[int, ...], pi: Coloring, cell: tuple[int, ...]):
        self.nu = nu
        self.pi = pi
        self.cell = cell
        self.next = 0
        self.orbits = UnionFind(pi.n)


class _Search:
    def __init__(self, g: Graph, pi0: Coloring, want_trace: bool):
        if pi0.n != g.n:
            raise ValueError("coloring size does not match graph order")
        self.g = g
        self.pi0 = pi0
        self.best = _Best()
        self.generators: list[tuple[int, ...]] = []
        self.trace: list[TraceEvent] | None = [] if want_trace else None
        self.visited = 0
        self._frames: list[_Frame] = []

    def _emit(self, ev: TraceEvent) -> None:
        if self.trace is not None:
            self.trace.append(ev)

    def run(self) -> CanonicalResult:
        self._enter((), make_equitable(self.g, self.pi0, self.pi0.cells))
        self._explore()
        best = self.best
        assert best.complete and best.coloring is not None and best.graph is not None
        labelling = best.coloring.perm()
        return CanonicalResult(
            graph=best.graph,
            coloring=act_coloring(self.pi0, labelling),
            labelling=labelling,
            leaf=best.path,
            phi=tuple(best.phi),
            generators=self.generators,
            visited=self.visited,
        )

    def _handle_equal_leaf(self, nu: tuple[int, ...], pi: Coloring) -> int:
        """Two leaves with identical invariants and graphs: record the
        automorphism and report the depth ``d`` to backjump to.

        The automorphism fixes the leaves' common prefix ``nu[:d]``
        pointwise, so it is folded into the orbits of every node
        ``nu[:j]``, ``j <= d``, where it prunes later siblings; at ``nu[:d]``
        it also prunes the current branch.
        """
        best = self.best
        assert best.coloring is not None
        sigma = discover_automorphism(self.g, self.pi0, best.coloring, pi)
        if sigma is None or any(
            sigma[b] != c for b, c in zip(best.path, nu)
        ):
            raise SearchError(
                "equal invariants with incompatible leaf structure "
                "(64-bit hash collision)"
            )
        self.generators.append(sigma)
        d = _common_prefix(best.path, nu)
        trace = self.trace
        node: tuple[int, ...] = ()

        def record(x, y, c1, c2):
            assert trace is not None
            trace.append(OrbitMergeEv(node, x, y, sigma, c1, c2))

        # ``record`` reads ``node`` when called, so each union is tagged with
        # the level being merged.
        on_union = None if trace is None else record
        for j in range(d + 1):
            node = nu[:j]
            orbit_merge(self._frames[j].orbits, sigma, on_union)
        uf = self._frames[d].orbits
        cls = frozenset(uf.members(uf.find(nu[d])))
        w1 = min(cls)
        assert w1 < nu[d]
        self._emit(ChildOrbitPrunedEv(nu[:d], nu[d], w1, cls))
        return d

    def _enter(self, nu: tuple[int, ...], pi: Coloring) -> int | None:
        """Visit the node ``nu`` (refined coloring ``pi``): settle a leaf, or
        push a frame for the node's children.

        Returns the depth of a backjump target, or None: on a backjump, every
        frame deeper than the target is abandoned wholesale.
        """
        self.visited += 1
        g = self.g
        best = self.best
        depth = len(nu)
        discrete = pi.discrete

        if best.complete and depth == len(best.phi):
            assert best.graph is not None
            if discrete:
                graph = relabel_graph(g, pi.perm())
                cmp = graph_compare(graph, best.graph)
                if cmp == 0:
                    return self._handle_equal_leaf(nu, pi)
                if cmp > 0:
                    self._emit(
                        DethroneLeafEv(nu, best.path, _common_prefix(best.path, nu))
                    )
                    best.path, best.coloring, best.graph = nu, pi, graph
                else:
                    self._emit(LeafWorseEv(nu, best.path))
                return None
            # A non-discrete node tying a complete leaf invariant: only
            # possible under a hash collision, but the proof system covers
            # it, so dethrone and keep searching below this node.
            self._emit(DethroneLeafEv(nu, best.path, _common_prefix(best.path, nu)))
            best.complete = False
            best.path, best.coloring, best.graph = nu, None, None
        elif discrete:
            if best.complete:
                # Discrete strictly above the best leaf's depth: its shorter
                # invariant vector is a proper prefix, hence worse.
                self._emit(LeafWorseEv(nu, tuple(best.path[:depth])))
            else:
                best.path = nu
                best.coloring = pi
                best.graph = relabel_graph(g, pi.perm())
                best.complete = True
            return None

        cell = target_cell(pi)
        assert cell is not None
        self._frames.append(_Frame(nu, pi, cell))
        return None

    def _explore(self) -> None:
        """Run the depth-first search over the frames on the stack."""
        g = self.g
        best = self.best
        frames = self._frames
        while frames:
            top = frames[-1]
            nu = top.nu
            depth = len(nu)
            if top.next == len(top.cell):
                frames.pop()
                if not (len(best.path) >= depth and best.path[:depth] == nu):
                    self._emit(ParentDoneEv(nu))
                continue
            w = top.cell[top.next]
            top.next += 1
            uf = top.orbits
            members = uf.members(uf.find(w))
            if len(members) > 1:
                w1 = min(members)
                if w1 < w:
                    self._emit(ChildOrbitPrunedEv(nu, w, w1, frozenset(members)))
                    continue
            child_nu = nu + (w,)
            child_pi = make_equitable(g, individualize(top.pi, w), [(w,)])
            h = hash_colored(g, child_pi, equitable=True)
            if best.complete:
                ref = best.phi[depth]
                if h < ref:
                    self._emit(
                        ChildInvariantPrunedEv(nu, w, tuple(best.path[: depth + 1]))
                    )
                    continue
                if h > ref:
                    self._emit(
                        DethroneInvariantEv(
                            nu, w, best.path, _common_prefix(best.path, nu)
                        )
                    )
                    best.coloring = None
                    best.graph = None
                    best.complete = False
            if not best.complete:
                # A fresh best path: nothing below it can backjump above it.
                del best.phi[depth:]
                best.phi.append(h)
                best.path = child_nu
            d = self._enter(child_nu, child_pi)
            if d is not None:
                del frames[d + 1 :]


def canonical_form(g: Graph, pi0: Coloring | None = None) -> CanonicalResult:
    """Compute the canonical form of the colored graph ``(G, pi0)``.

    ``pi0`` defaults to the unit coloring.
    """
    if pi0 is None:
        pi0 = unit_coloring(g.n)
    return _Search(g, pi0, False).run()
