"""The checker's trusted base: the graphcanon functions ``verify_proof``
reaches, pinned, so that any growth of what a user must trust is a reviewed
change to ``TRUSTED_BASE``."""

import importlib
import pkgutil
import sys
import types
from pathlib import Path

import graphcanon
from graphcanon import Graph, emit_post, unit_coloring, verify_proof
from graphcanon.checker import DECODE, SIDE_CONDITION
from graphcanon.emitter import emit_during
from graphcanon.proof import (
    RULE_CODE,
    Equitable,
    InvariantAxiom,
    InvariantsEqual,
    InvariantsEqualSym,
    PruneLeaf,
    decode_proof,
    encode_proof,
)
from oracle_utils import chang, spider

PACKAGE_DIR = Path(graphcanon.__file__).parent

# Every named function ``verify_proof`` reaches on the corpus below, as
# (module, qualname). Comprehensions, generator expressions and lambdas are
# not listed: Python 3.12 inlines comprehensions into their function.
TRUSTED_BASE = {
    ("checker", "CheckFailure.__init__"),
    ("checker", "FlatSetDatabase.__init__"),
    ("checker", "FlatSetDatabase.__len__"),
    ("checker", "FlatSetDatabase.contains"),
    ("checker", "FlatSetDatabase.insert"),
    ("checker", "FlatSetDatabase.take"),
    ("checker", "_fail"),
    ("checker", "_need_automorphism"),
    ("checker", "apply_rule"),
    ("checker", "premises"),
    ("checker", "verify_proof"),
    ("checker", "verify_proof.<locals>.reject"),
    ("core", "Coloring.__init__"),
    ("core", "Coloring._valid"),
    ("core", "Coloring.cells"),
    ("core", "Coloring.discrete"),
    ("core", "Coloring.m"),
    ("core", "Coloring.n"),
    ("core", "Coloring.perm"),
    ("core", "Graph.__eq__"),
    ("core", "Graph._valid"),
    ("core", "Graph.neighbors"),
    ("core", "_set_bits"),
    ("core", "act_coloring"),
    ("core", "graph_compare"),
    ("core", "is_automorphism"),
    ("core", "relabel_graph"),
    ("invariant", "_fnv1a"),
    ("invariant", "hash_colored"),
    ("proof", "OnPath"),
    ("proof", "OrbitSubset"),
    ("proof", "PhiEqual"),
    ("proof", "ProofDecodeError.__init__"),
    ("proof", "Pruned"),
    ("proof", "REqual"),
    ("proof", "RFiner"),
    ("proof", "TargetIs"),
    ("proof", "_Reader.__init__"),
    ("proof", "_Reader.read"),
    ("proof", "_Reader.read_many"),
    ("proof", "_decode_field"),
    ("proof", "_ints"),
    ("proof", "_or"),
    ("proof", "_read_rule"),
    ("proof", "decode_int"),
    ("proof", "iter_rules"),
    ("refine", "_split_round"),
    ("refine", "cell_mask"),
    ("refine", "individualize"),
    ("refine", "split"),
    ("refine", "splitting_cell"),
    ("refine", "target_cell"),
}


def _qualnames():
    """Each named function's code object in graphcanon, mapped to its
    ``(module, qualname)``: module-level functions, class members (methods,
    static and class methods, properties, cached properties) and the named
    functions nested in them. Read from the objects, since ``co_qualname``
    is Python 3.11+."""
    names = {}

    def walk(code, module, qualname):
        names[code] = (module, qualname)
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                walk(const, module, f"{qualname}.<locals>.{const.co_name}")

    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"graphcanon.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for member in vars(obj).values() if isinstance(obj, type) else [obj]:
                for attr in ("__func__", "fget", "func"):
                    member = getattr(member, attr, member)
                if isinstance(member, types.FunctionType):
                    walk(member.__code__, info.name, member.__qualname__)
    return names


def _corpus():
    """``(graph, pi0, stream)`` triples that together apply all 18 rule kinds.

    Each graph is rebuilt from its edges, as a parsed input is, so the
    checker builds its neighbor lists itself.
    """
    g = chang(1)
    post = decode_proof(emit_post(g).data)[1]
    i = next(i for i, r in enumerate(post) if isinstance(r, InvariantsEqual))
    post.insert(i + 1, InvariantsEqualSym(post[i].nu1, post[i].nu2))
    # A PruneLeaf in an accepted stream needs a 64-bit hash collision: two
    # leaves tie only when their graphs are equal. This one reaches the
    # leaves' graph comparison on a spider, whose root is discrete, and is
    # rejected there. The spider has 277 vertices, so its colorings take the
    # decoder's two-plane path.
    s = spider(range(1, 24))
    root = decode_proof(emit_post(s).data)[1]
    j = next(j for j, r in enumerate(root) if isinstance(r, Equitable))
    leaf = root[j].pi
    assert leaf.discrete
    leaf_rules = [*root[: j + 1], InvariantAxiom(()), PruneLeaf((), leaf, (), leaf)]
    streams = [
        (g, encode_proof(g.n, post)),
        (g, emit_during(g).data),
        (s, encode_proof(s.n, leaf_rules)),
        (g, emit_post(g).data[:-1]),  # truncated: a decode failure
    ]
    return [(Graph.from_edges(h.n, h.edges), unit_coloring(h.n), d) for h, d in streams]


def test_checker_reaches_only_its_pinned_functions():
    corpus = _corpus()
    kinds = {type(r) for _, _, d in corpus[:3] for r in decode_proof(d)[1]}
    assert kinds == set(RULE_CODE)

    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        verdicts = [verify_proof(g, pi0, data) for g, pi0, data in corpus]
    finally:
        sys.setprofile(previous)

    assert [v.accepted for v in verdicts] == [True, True, False, False]
    assert verdicts[2].error_kind == SIDE_CONDITION
    assert verdicts[2].error_message.startswith("PruneLeaf: first leaf graph")
    assert verdicts[3].error_kind == DECODE

    names = _qualnames()
    ours = {
        names.get(code, ("?", f"{Path(code.co_filename).name}:{code.co_name}"))
        for code in reached
        if Path(code.co_filename).parent == PACKAGE_DIR
        and not code.co_name.startswith("<")
    }
    assert sorted(ours - TRUSTED_BASE) == [], "joined the trusted base"
    assert sorted(TRUSTED_BASE - ours) == [], "left the trusted base"
