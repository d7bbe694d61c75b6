"""Command-line front end: canonical forms, proof checking, isomorphism.

Three subcommands over DIMACS ``p edge`` files (vertices 1-based on disk,
0-based in JSON output, which mirrors the library API):

* ``canon`` prints the canonical form of a graph and can emit a proof of it;
* ``check`` replays a proof against a graph with the independent checker;
* ``iso`` decides isomorphism of two graphs via canonical forms and always
  verifies an explicit vertex mapping before claiming a positive answer.
  With ``--certify`` that checked mapping certifies "isomorphic", and
  "not isomorphic" by differing vertex or edge counts, read from the inputs,
  or else by a checker-accepted proof for each graph.

Exit status: 0 on success (accepted proof / isomorphic pair), 1 for a
rejected proof or a non-isomorphic pair, 2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .checker import verify_proof
from .core import (
    DimacsError,
    Graph,
    compose,
    edge_text,
    format_dimacs,
    invert,
    parse_dimacs,
    relabel_graph,
    unit_coloring,
)
from .emitter import EmitError, Prover, emit_post
from .proof import ProofError
from .search import SearchError, canonical_form


def _load_graph(path: str) -> Graph:
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:  # CRLF as LF keeps parse_dimacs on its bulk path
        text = data.decode("utf-8").replace("\r\n", "\n")
    except UnicodeDecodeError as exc:
        raise DimacsError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return parse_dimacs(text)


def _print_json(payload: dict, canonical: Graph | None) -> None:
    """Print ``payload`` as one compact JSON line, ``canonical_edges`` last."""
    text = json.dumps(payload)
    if canonical is not None:
        edges = edge_text(canonical, "[{}, {}]", ", ")
        text = f'{text[:-1]}, "canonical_edges": [{edges}]}}'
    print(text)


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
        elif out_path == "-":
            print("error: --proof-out needs a file path, not '-'", file=sys.stderr)
            return 2
        elif (
            args.graph != "-"
            and Path(out_path).exists()
            and Path(out_path).samefile(args.graph)
        ):
            print("error: --proof-out would overwrite the input graph", file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        proof = emit_post(g)
        times["solve_and_emit"] = (time.perf_counter() - t0) * 1000.0
        result = proof.result
        t0 = time.perf_counter()
        verdict = verify_proof(g, unit_coloring(g.n), proof.data)
        times["verify"] = (time.perf_counter() - t0) * 1000.0
        canonical = verdict.canonical_graph
        if not verdict.accepted or canonical != result.graph:
            print("error: emitted proof failed self-check", file=sys.stderr)
            return 2
        Path(out_path).write_bytes(proof.data)
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
        canonical = result.graph
    assert canonical is not None

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
        _print_json(payload, canonical)
    else:
        sys.stdout.write(format_dimacs(canonical))
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
        if not verdict.accepted:
            payload["reason"] = verdict.reason
        _print_json(payload, verdict.canonical_graph)
    elif verdict.accepted:
        assert verdict.canonical_graph is not None
        sys.stdout.write(format_dimacs(verdict.canonical_graph))
    else:
        print(f"rejected: {verdict.reason}", file=sys.stderr)
    return 0 if verdict.accepted else 1


def _cmd_iso(args: argparse.Namespace) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    if (g1.n, g1.edge_count) != (g2.n, g2.edge_count):
        # Read from the inputs, as the mapping below is checked: no search.
        return _not_isomorphic(args)

    if args.certify:
        provers = (Prover(g1), Prover(g2))
        r1, r2 = (p.result for p in provers)
    else:
        r1 = canonical_form(g1)
        r2 = canonical_form(g2)

    if r1.graph == r2.graph:
        # Map through the shared canonical form, then verify explicitly:
        # canonical equality is evidence, the checked mapping is the answer
        # and, under --certify, its whole certificate.
        sigma = compose(r1.labelling, invert(r2.labelling))
        if relabel_graph(g1, sigma) != g2:
            print("error: canonical forms agree but no mapping exists", file=sys.stderr)
            return 2
        if args.json:
            payload = {"isomorphic": True, "mapping": sigma, "certified": args.certify}
            print(json.dumps(payload))
        else:
            print("isomorphic")
            for u, v in enumerate(sigma):
                print(f"{u + 1} -> {v + 1}")
        return 0

    if args.certify:
        # "Not isomorphic" is certified by two proofs that the checker
        # accepts, each concluding the canonical form its search found.
        for g, p in zip((g1, g2), provers):
            verdict = verify_proof(g, unit_coloring(g.n), p.finish().data)
            if not (verdict.accepted and verdict.canonical_graph == p.result.graph):
                print("error: certification self-check failed", file=sys.stderr)
                return 2
    return _not_isomorphic(args)


def _not_isomorphic(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps({"isomorphic": False, "certified": args.certify}))
    else:
        print("not isomorphic")
    return 1


@functools.cache
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
        help="certify by a checked mapping, or if not isomorphic by differing vertex"
        " or edge counts or else by two checked proofs",
    )
    iso.add_argument("--json", action="store_true", help="JSON output")
    iso.set_defaults(func=_cmd_iso)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    operands = [vars(args).get(k) for k in ("graph", "proof", "graph1", "graph2")]
    if operands.count("-") > 1:
        print("error: stdin can be read once: one '-' operand only", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (DimacsError, ProofError, EmitError, SearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # e.g. a vertex count near the wire cap
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
