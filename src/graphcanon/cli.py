"""Command-line front end: canonical forms, proof checking, isomorphism.

Three subcommands over DIMACS ``p edge`` files (vertices 1-based on disk,
0-based in JSON output, which mirrors the library API):

* ``canon`` prints the canonical form of a graph and can emit a proof of it;
* ``check`` replays a proof against a graph with the independent checker;
* ``iso`` decides isomorphism of two graphs via canonical forms and always
  verifies an explicit vertex mapping before claiming a positive answer.

Exit status: 0 on success (accepted proof / isomorphic pair), 1 for a
rejected proof or a non-isomorphic pair, 2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .checker import verify_proof
from .core import (
    DimacsError,
    Graph,
    compose,
    format_dimacs,
    invert,
    parse_dimacs,
    relabel_graph,
    unit_coloring,
)
from .emitter import EmitError, emit_post
from .proof import ProofError
from .search import SearchError, canonical_form


def _load_graph(path: str) -> Graph:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise DimacsError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return parse_dimacs(text)


def _edge_list(g: Graph) -> list[list[int]]:
    return [[u, v] for u, v in g.edges]


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_canon(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    times: dict[str, float] = {}
    payload: dict = {"n": g.n, "m": g.edge_count}

    proving = args.prove or args.proof_out is not None
    if proving:
        out_path = args.proof_out
        if out_path is None:
            if args.graph == "-":
                print("error: --proof-out is required with stdin input", file=sys.stderr)
                return 2
            out_path = args.graph + ".proof"
        t0 = time.perf_counter()
        proof = emit_post(g)
        times["solve_and_emit"] = (time.perf_counter() - t0) * 1000.0
        result = proof.result
        Path(out_path).write_bytes(proof.data)
        t0 = time.perf_counter()
        verdict = verify_proof(g, unit_coloring(g.n), proof.data)
        times["verify"] = (time.perf_counter() - t0) * 1000.0
        if not verdict.accepted or verdict.canonical_graph != result.graph:
            print("error: emitted proof failed self-check", file=sys.stderr)
            return 2
        payload.update(
            proof_out=out_path,
            proof_bytes=len(proof.data),
            proof_rules=proof.rule_count,
            verdict="accepted",
        )
    else:
        t0 = time.perf_counter()
        result = canonical_form(g)
        times["solve"] = (time.perf_counter() - t0) * 1000.0

    payload["canonical_edges"] = _edge_list(result.graph)
    payload["labelling"] = list(result.labelling)
    payload["times_ms"] = times

    if args.stats:
        print(f"n={g.n} m={g.edge_count}", file=sys.stderr)
        print(
            f"visited={result.visited} generators={len(result.generators)}",
            file=sys.stderr,
        )
        if proving:
            print(
                f"proof: {payload['proof_out']} ({payload['proof_bytes']} bytes, "
                f"{payload['proof_rules']} rules)",
                file=sys.stderr,
            )
        for name, ms in times.items():
            print(f"{name}: {ms:.2f} ms", file=sys.stderr)

    if args.json:
        _print_json(payload)
    else:
        sys.stdout.write(format_dimacs(result.graph))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    data = (
        sys.stdin.buffer.read() if args.proof == "-" else Path(args.proof).read_bytes()
    )
    t0 = time.perf_counter()
    verdict = verify_proof(g, unit_coloring(g.n), data)
    elapsed = (time.perf_counter() - t0) * 1000.0

    if args.json:
        payload: dict = {
            "accepted": verdict.accepted,
            "rules_applied": verdict.rules_applied,
            "facts": verdict.facts,
            "times_ms": {"check": elapsed},
        }
        if verdict.accepted:
            assert verdict.canonical_graph is not None
            payload["canonical_edges"] = _edge_list(verdict.canonical_graph)
        else:
            payload["reason"] = verdict.reason
        _print_json(payload)
    elif verdict.accepted:
        assert verdict.canonical_graph is not None
        sys.stdout.write(format_dimacs(verdict.canonical_graph))
    else:
        print(f"rejected: {verdict.reason}", file=sys.stderr)
    return 0 if verdict.accepted else 1


def _cmd_iso(args: argparse.Namespace) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)

    if args.certify:
        p1 = emit_post(g1)
        p2 = emit_post(g2)
        v1 = verify_proof(g1, unit_coloring(g1.n), p1.data)
        v2 = verify_proof(g2, unit_coloring(g2.n), p2.data)
        if not (v1.accepted and v2.accepted):
            print("error: certification self-check failed", file=sys.stderr)
            return 2
        c1, c2 = v1.canonical_graph, v2.canonical_graph
        r1, r2 = p1.result, p2.result
    else:
        r1 = canonical_form(g1)
        r2 = canonical_form(g2)
        c1, c2 = r1.graph, r2.graph

    if g1.n == g2.n and c1 == c2:
        # Map through the shared canonical form, then verify explicitly:
        # canonical equality is evidence, the checked mapping is the answer.
        sigma = compose(r1.labelling, invert(r2.labelling))
        if relabel_graph(g1, sigma) != g2:
            print("error: canonical forms agree but no mapping exists", file=sys.stderr)
            return 2
        if args.json:
            _print_json(
                {"isomorphic": True, "mapping": list(sigma), "certified": args.certify}
            )
        else:
            print("isomorphic")
            for u, v in enumerate(sigma):
                print(f"{u + 1} -> {v + 1}")
        return 0

    if args.json:
        _print_json({"isomorphic": False, "certified": args.certify})
    else:
        print("not isomorphic")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcanon",
        description="Certified graph canonical forms: solve, prove, check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    canon = sub.add_parser(
        "canon", help="print the canonical form of a graph, optionally with a proof"
    )
    canon.add_argument("graph", help="DIMACS edge file ('-' reads stdin)")
    canon.add_argument("--prove", action="store_true", help="emit a proof")
    canon.add_argument(
        "--proof-out",
        metavar="PATH",
        help="proof output path (default: <graph>.proof; implies --prove)",
    )
    canon.add_argument("--stats", action="store_true", help="print statistics to stderr")
    canon.add_argument("--json", action="store_true", help="JSON output")
    canon.set_defaults(func=_cmd_canon)

    check = sub.add_parser("check", help="verify a proof against a graph")
    check.add_argument("graph", help="DIMACS edge file ('-' reads stdin)")
    check.add_argument("proof", help="binary proof file ('-' reads stdin)")
    check.add_argument("--json", action="store_true", help="JSON output")
    check.set_defaults(func=_cmd_check)

    iso = sub.add_parser("iso", help="decide whether two graphs are isomorphic")
    iso.add_argument("graph1")
    iso.add_argument("graph2")
    iso.add_argument(
        "--certify",
        action="store_true",
        help="emit and check proofs for both canonical forms first",
    )
    iso.add_argument("--json", action="store_true", help="JSON output")
    iso.set_defaults(func=_cmd_iso)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DimacsError, ProofError, EmitError, SearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
