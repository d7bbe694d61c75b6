"""End-to-end tests of the command-line interface."""

import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from graphcanon import (
    Graph,
    Prover,
    canonical_form,
    emit_post,
    format_dimacs,
    parse_dimacs,
    relabel_graph,
    unit_coloring,
    verify_proof,
)
import graphcanon.cli
import graphcanon.emitter
from graphcanon.cli import _build_parser, main
from oracle_utils import (
    brute_isomorphic,
    cycle,
    path_graph,
    petersen,
    random_graph,
    random_perm,
)


def run_cli(argv, monkeypatch=None, stdin_text=None, stdin_bytes=None):
    # Stdin is fed as bytes, as a shell pipes them, behind the lenient text
    # layer Python gives stdin under the C locale.
    if stdin_text is not None:
        stdin_bytes = stdin_text.encode()
    if stdin_bytes is not None:
        fake = io.TextIOWrapper(
            io.BytesIO(stdin_bytes), encoding="utf-8", errors="surrogateescape"
        )
        monkeypatch.setattr(sys, "stdin", fake)
    return main(argv)


def write_graph(tmp_path, g, name="g.col"):
    p = tmp_path / name
    p.write_text(format_dimacs(g))
    return p


# ---------------------------------------------------------------------------
# canon
# ---------------------------------------------------------------------------


def test_canon_prints_canonical_dimacs(tmp_path, capsys):
    p = write_graph(tmp_path, cycle(4))
    assert main(["canon", str(p)]) == 0
    out = capsys.readouterr().out
    assert parse_dimacs(out) == canonical_form(cycle(4)).graph


def test_canon_emits_verifiable_proof(tmp_path, capsys):
    g = petersen()
    p = write_graph(tmp_path, g)
    assert main(["canon", str(p), "--prove"]) == 0
    capsys.readouterr()
    proof_path = tmp_path / "g.col.proof"
    assert proof_path.exists()
    verdict = verify_proof(g, unit_coloring(g.n), proof_path.read_bytes())
    assert verdict.accepted
    assert verdict.canonical_graph == canonical_form(g).graph


def test_canon_prove_json(tmp_path, capsys):
    g = cycle(6)
    p = write_graph(tmp_path, g)
    out_path = tmp_path / "c6.proof"
    code = main(["canon", str(p), "--prove", "--proof-out", str(out_path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "proof_strategy" not in payload
    assert verify_proof(g, unit_coloring(g.n), out_path.read_bytes()).accepted
    assert payload["verdict"] == "accepted"
    assert payload["proof_bytes"] == out_path.stat().st_size
    assert payload["n"] == 6 and payload["m"] == 6
    got = Graph.from_edges(payload["n"], [tuple(e) for e in payload["canonical_edges"]])
    assert got == canonical_form(g).graph
    assert relabel_graph(g, tuple(payload["labelling"])) == got
    assert "solve_and_emit" in payload["times_ms"]


@pytest.mark.parametrize("value", ["during", "post"])
def test_canon_prove_takes_no_strategy(tmp_path, capsys, value):
    p = write_graph(tmp_path, cycle(6))
    with pytest.raises(SystemExit) as exc:
        main(["canon", str(p), "--prove", value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_canon_stats_go_to_stderr(tmp_path, capsys):
    p = write_graph(tmp_path, cycle(5))
    assert main(["canon", str(p), "--stats"]) == 0
    captured = capsys.readouterr()
    assert "visited=" in captured.err
    assert "visited=" not in captured.out


def test_canon_prove_stats_name_the_proof(tmp_path, capsys):
    p = write_graph(tmp_path, cycle(5))
    out_path = tmp_path / "c5.proof"
    assert main(["canon", str(p), "--proof-out", str(out_path), "--stats"]) == 0
    err = capsys.readouterr().err
    size = out_path.stat().st_size
    assert f"proof: {out_path} ({size} bytes, " in err


def test_canon_reads_stdin(monkeypatch, capsys):
    g = path_graph(4)
    code = run_cli(["canon", "-"], monkeypatch, stdin_text=format_dimacs(g))
    assert code == 0
    assert parse_dimacs(capsys.readouterr().out) == canonical_form(g).graph


def test_canon_stdin_with_prove_needs_proof_out(monkeypatch, capsys):
    g = path_graph(3)
    code = run_cli(["canon", "-", "--prove"], monkeypatch, stdin_text=format_dimacs(g))
    assert code == 2
    assert "--proof-out" in capsys.readouterr().err


def test_canon_proof_out_dash_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    g = path_graph(3)
    code = run_cli(
        ["canon", "-", "--proof-out", "-"], monkeypatch, stdin_text=format_dimacs(g)
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--proof-out" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("spelling", ["same", "dotdot", "symlink", "hardlink"])
def test_canon_proof_out_onto_the_graph_is_rejected(
    tmp_path, monkeypatch, capsys, spelling
):
    p = write_graph(tmp_path, cycle(5))
    before = p.read_bytes()
    (tmp_path / "sub").mkdir()
    (tmp_path / "symlink.col").symlink_to(p)
    os.link(p, tmp_path / "hardlink.col")
    out_path = {
        "same": p,
        "dotdot": tmp_path / "sub" / ".." / p.name,
        "symlink": tmp_path / "symlink.col",
        "hardlink": tmp_path / "hardlink.col",
    }[spelling]
    # Refused before any search: a solve here fails the test.
    monkeypatch.setattr(graphcanon.cli, "emit_post", None)
    assert main(["canon", str(p), "--proof-out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--proof-out" in captured.err
    assert captured.out == ""
    assert p.read_bytes() == before


def test_canon_proof_out_implies_prove(tmp_path, capsys):
    g = cycle(5)
    p = write_graph(tmp_path, g)
    out_path = tmp_path / "c5.proof"
    assert main(["canon", str(p), "--proof-out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.exists()
    assert verify_proof(g, unit_coloring(5), out_path.read_bytes()).accepted


def test_canon_missing_file_is_exit_2(capsys):
    assert main(["canon", "/nonexistent/graph.col"]) == 2
    assert "error:" in capsys.readouterr().err


def test_canon_bad_dimacs_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.col"
    p.write_text("p edge 3 1\ne 1 1\n")
    assert main(["canon", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture()
def binary_file(tmp_path):
    p = tmp_path / "bin.col"
    p.write_bytes(b"\xff\n")
    return p


def test_canon_non_utf8_file_is_exit_2(binary_file, capsys):
    assert main(["canon", str(binary_file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_canon_non_utf8_stdin_is_exit_2_like_a_file(tmp_path, monkeypatch, capsys):
    data = b"c caf\xe9\np edge 2 1\ne 1 2\n"
    assert run_cli(["canon", "-"], monkeypatch, stdin_bytes=data) == 2
    assert capsys.readouterr().err == "error: -: not UTF-8 text (byte 5)\n"
    p = tmp_path / "latin1.col"
    p.write_bytes(data)
    assert main(["canon", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {p}: not UTF-8 text (byte 5)\n"


def test_canon_rejects_vertex_count_beyond_wire_range(monkeypatch, capsys):
    # 2^31 vertices cannot be encoded in a proof; the header is refused
    # before any per-vertex storage is allocated.
    code = run_cli(["canon", "-"], monkeypatch, stdin_text="p edge 2147483648 0\n")
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@pytest.fixture()
def proved_instance(tmp_path):
    g = cycle(8)
    gpath = write_graph(tmp_path, g)
    assert main(["canon", str(gpath), "--prove"]) == 0
    return g, gpath, tmp_path / "g.col.proof"


def test_check_accepts(proved_instance, capsys):
    g, gpath, proof_path = proved_instance
    capsys.readouterr()
    assert main(["check", str(gpath), str(proof_path)]) == 0
    out = capsys.readouterr().out
    assert parse_dimacs(out) == canonical_form(g).graph


def test_check_json_payload(proved_instance, capsys):
    g, gpath, proof_path = proved_instance
    capsys.readouterr()
    assert main(["check", str(gpath), str(proof_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accepted"] is True
    assert payload["rules_applied"] > 0
    assert payload["facts"] > 0
    edges = [tuple(e) for e in payload["canonical_edges"]]
    assert Graph.from_edges(g.n, edges) == canonical_form(g).graph


def test_check_rejects_truncated_proof(proved_instance, capsys):
    g, gpath, proof_path = proved_instance
    capsys.readouterr()
    clipped = proof_path.with_suffix(".clipped")
    data = proof_path.read_bytes()
    clipped.write_bytes(data[:-3])
    assert main(["check", str(gpath), str(clipped)]) == 1
    err = capsys.readouterr().err
    assert "rejected: decode" in err
    assert f"truncated integer at byte {len(data) - 6}" in err


def test_check_rejects_proof_for_other_graph(proved_instance, tmp_path, capsys):
    g, gpath, proof_path = proved_instance
    other = write_graph(tmp_path, path_graph(8), "other.col")
    capsys.readouterr()
    assert main(["check", str(other), str(proof_path)]) == 1
    assert "rejected:" in capsys.readouterr().err


def test_check_reads_proof_from_stdin(proved_instance, monkeypatch, capsys):
    g, gpath, proof_path = proved_instance
    capsys.readouterr()
    code = run_cli(
        ["check", str(gpath), "-"], monkeypatch, stdin_bytes=proof_path.read_bytes()
    )
    assert code == 0
    assert parse_dimacs(capsys.readouterr().out) == canonical_form(g).graph


def test_check_reads_stdin_once(proved_instance, monkeypatch, capsys):
    g, gpath, proof_path = proved_instance
    capsys.readouterr()
    data = gpath.read_bytes() + proof_path.read_bytes()
    assert run_cli(["check", "-", "-"], monkeypatch, stdin_bytes=data) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stdin can be read once: one '-' operand only\n"


def test_check_non_utf8_graph_is_exit_2(binary_file, proved_instance, capsys):
    _, _, proof_path = proved_instance
    capsys.readouterr()
    assert main(["check", str(binary_file), str(proof_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_rejection_in_json(proved_instance, capsys):
    g, gpath, proof_path = proved_instance
    clipped = proof_path.with_suffix(".clip2")
    clipped.write_bytes(proof_path.read_bytes()[:7])
    capsys.readouterr()
    assert main(["check", str(gpath), str(clipped), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["accepted"] is False
    assert "reason" in payload


# ---------------------------------------------------------------------------
# iso
# ---------------------------------------------------------------------------


def test_iso_isomorphic_pair(tmp_path, capsys):
    g1 = petersen()
    g2 = relabel_graph(g1, (3, 1, 4, 0, 9, 2, 6, 8, 7, 5))
    p1 = write_graph(tmp_path, g1, "a.col")
    p2 = write_graph(tmp_path, g2, "b.col")
    assert main(["iso", str(p1), str(p2)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("isomorphic")
    # the printed mapping is 1-based and must transport g1 onto g2
    sigma = [0] * g1.n
    for line in out.splitlines()[1:]:
        u, _, v = line.partition(" -> ")
        sigma[int(u) - 1] = int(v) - 1
    assert relabel_graph(g1, tuple(sigma)) == g2


def test_iso_non_isomorphic_pair(tmp_path, capsys):
    p1 = write_graph(tmp_path, cycle(6), "a.col")
    p2 = write_graph(tmp_path, path_graph(6), "b.col")
    assert main(["iso", str(p1), str(p2)]) == 1
    assert "not isomorphic" in capsys.readouterr().out


def test_iso_different_sizes(tmp_path, capsys):
    p1 = write_graph(tmp_path, cycle(5), "a.col")
    p2 = write_graph(tmp_path, cycle(6), "b.col")
    assert main(["iso", str(p1), str(p2)]) == 1


def test_iso_certify_json(tmp_path, capsys):
    g1 = cycle(9)
    g2 = relabel_graph(g1, (4, 7, 1, 0, 8, 2, 3, 6, 5))
    p1 = write_graph(tmp_path, g1, "a.col")
    p2 = write_graph(tmp_path, g2, "b.col")
    assert main(["iso", str(p1), str(p2), "--certify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["isomorphic"] is True
    assert payload["certified"] is True
    assert relabel_graph(g1, tuple(payload["mapping"])) == g2


# Same order, size and degrees, different graphs.
TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def pentagonal_prism():
    """Cubic on 10 vertices like the Petersen graph, but with 4-cycles."""
    rims = [(i + k, (i + 1) % 5 + k) for k in (0, 5) for i in range(5)]
    return Graph.from_edges(10, rims + [(i, i + 5) for i in range(5)])


def test_iso_certify_non_isomorphic(tmp_path, capsys):
    p1 = write_graph(tmp_path, cycle(6), "a.col")
    p2 = write_graph(tmp_path, TWO_TRIANGLES, "b.col")
    assert main(["iso", str(p1), str(p2), "--certify"]) == 1
    assert "not isomorphic" in capsys.readouterr().out


def _rejecting_verifier(g, pi0, data):
    return verify_proof(g, pi0, b"")


def test_canon_self_check_failure_is_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(graphcanon.cli, "verify_proof", _rejecting_verifier)
    p = write_graph(tmp_path, cycle(5))
    assert main(["canon", str(p), "--prove"]) == 2
    assert "emitted proof failed self-check" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.proof"))


def test_iso_certify_self_check_failure_is_exit_2(tmp_path, monkeypatch, capsys):
    # Only a non-isomorphic pair is certified by proofs.
    monkeypatch.setattr(graphcanon.cli, "verify_proof", _rejecting_verifier)
    p1 = write_graph(tmp_path, cycle(6), "a.col")
    p2 = write_graph(tmp_path, TWO_TRIANGLES, "b.col")
    assert main(["iso", str(p1), str(p2), "--certify"]) == 2
    assert "certification self-check failed" in capsys.readouterr().err


def test_iso_certify_fails_closed_on_a_verdict_graph_that_differs(
    tmp_path, monkeypatch, capsys
):
    # The first side's verdict is accepted but names another graph than the
    # one its proof certifies: that is a failed self-check, not "not
    # isomorphic".
    calls = []

    def forging_verifier(g, pi0, data):
        verdict = verify_proof(g, pi0, data)
        calls.append(g)
        if len(calls) == 1:
            sigma = random_perm(random.Random(5), g.n)
            other = relabel_graph(verdict.canonical_graph, sigma)
            assert other != verdict.canonical_graph
            verdict = verdict._replace(canonical_graph=other)
        return verdict

    monkeypatch.setattr(graphcanon.cli, "verify_proof", forging_verifier)
    p1 = write_graph(tmp_path, petersen(), "a.col")
    p2 = write_graph(tmp_path, pentagonal_prism(), "b.col")
    assert main(["iso", str(p1), str(p2), "--certify", "--json"]) == 2
    captured = capsys.readouterr()
    assert "certification self-check failed" in captured.err
    assert captured.out == ""


def test_iso_unverified_mapping_is_exit_2(tmp_path, monkeypatch, capsys):
    # The mapping through the canonical forms is checked, not trusted.
    monkeypatch.setattr(graphcanon.cli, "relabel_graph", lambda g, sigma: None)
    p1 = write_graph(tmp_path, cycle(5), "a.col")
    p2 = write_graph(tmp_path, cycle(5), "b.col")
    assert main(["iso", str(p1), str(p2)]) == 2
    assert "canonical forms agree but no mapping exists" in capsys.readouterr().err


def test_iso_certify_unverified_mapping_is_exit_2(tmp_path, monkeypatch, capsys):
    # Under --certify the checked mapping is the certificate of "isomorphic".
    monkeypatch.setattr(graphcanon.cli, "relabel_graph", lambda g, sigma: None)
    p1 = write_graph(tmp_path, cycle(5), "a.col")
    p2 = write_graph(tmp_path, cycle(5), "b.col")
    assert main(["iso", str(p1), str(p2), "--certify"]) == 2
    captured = capsys.readouterr()
    assert "canonical forms agree but no mapping exists" in captured.err
    assert captured.out == ""


def _must_not_run(*args):
    raise AssertionError("called on a path that must not call it")


def test_iso_certify_isomorphic_pair_writes_no_proof(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(graphcanon.cli, "verify_proof", _must_not_run)
    monkeypatch.setattr(Prover, "finish", _must_not_run)
    g = petersen()
    h = relabel_graph(g, random_perm(random.Random(2), g.n))
    p1 = write_graph(tmp_path, g, "a.col")
    p2 = write_graph(tmp_path, h, "b.col")
    assert main(["iso", str(p1), str(p2), "--certify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["isomorphic"] is True
    assert payload["certified"] is True
    assert relabel_graph(g, tuple(payload["mapping"])) == h


def test_iso_certify_non_isomorphic_pair_searches_each_graph_once(
    tmp_path, monkeypatch, capsys
):
    # Each graph's proof comes from the search that decided the answer: the
    # run makes exactly the searches of emit_post on the two graphs, and
    # the checker reads emit_post's bytes.
    graphs = (petersen(), pentagonal_prism())
    searches = []

    def counting_search(g, pi0):
        searches.append(g)
        return canonical_form(g, pi0)

    monkeypatch.setattr(graphcanon.emitter, "canonical_form", counting_search)
    want = [emit_post(g).data for g in graphs]
    emit_post_searches = len(searches)
    searches.clear()
    checked = []

    def recording_verifier(g, pi0, data):
        checked.append(data)
        return verify_proof(g, pi0, data)

    monkeypatch.setattr(graphcanon.cli, "verify_proof", recording_verifier)
    monkeypatch.setattr(graphcanon.cli, "canonical_form", _must_not_run)
    p1 = write_graph(tmp_path, graphs[0], "a.col")
    p2 = write_graph(tmp_path, graphs[1], "b.col")
    assert main(["iso", str(p1), str(p2), "--certify"]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"
    assert checked == want
    assert len(searches) == emit_post_searches


@pytest.mark.parametrize(
    "g1, g2",
    [
        pytest.param(cycle(5), cycle(6), id="order"),
        pytest.param(cycle(6), path_graph(6), id="size"),
    ],
)
@pytest.mark.parametrize("certify", [[], ["--certify"]], ids=["plain", "certify"])
def test_iso_tells_different_counts_apart_without_searching(
    tmp_path, monkeypatch, capsys, g1, g2, certify
):
    # Differing vertex or edge counts are read from the inputs: no search,
    # no proof and no check runs.
    for name in ("Prover", "canonical_form", "verify_proof"):
        monkeypatch.setattr(graphcanon.cli, name, _must_not_run)
    p1 = write_graph(tmp_path, g1, "a.col")
    p2 = write_graph(tmp_path, g2, "b.col")
    assert main(["iso", str(p1), str(p2), *certify, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"isomorphic": False, "certified": bool(certify)}
    assert main(["iso", str(p1), str(p2), *certify]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"


def _edge_switch(rng, g):
    """``g`` with one degree-preserving switch ab, cd -> ad, cb, or None."""
    edges = set(g.edges)
    pairs = list(itertools.permutations(sorted(edges), 2))
    rng.shuffle(pairs)
    for (a, b), (c, d) in pairs:
        if len({a, b, c, d}) == 4 and not (g.adj[a] >> d & 1 or g.adj[c] >> b & 1):
            return Graph.from_edges(g.n, [*(edges - {(a, b), (c, d)}), (a, d), (c, b)])
    return None


def test_iso_and_iso_certify_give_the_same_answers(tmp_path, capsys):
    # Seeded small pairs, alternately a relabelled copy and a copy one edge
    # switch away; the brute-force oracle decides which are isomorphic.
    rng = random.Random(27)
    answered = []
    for i in range(60):
        h = None
        while h is None:
            g = random_graph(rng, rng.randint(6, 7), rng.uniform(0.3, 0.7))
            h = _edge_switch(rng, g) if i % 2 else g
        h = relabel_graph(h, random_perm(rng, g.n))
        p1 = write_graph(tmp_path, g, "a.col")
        p2 = write_graph(tmp_path, h, "b.col")
        answers = []
        for flags in ([], ["--certify"]):
            code = main(["iso", str(p1), str(p2), "--json", *flags])
            payload = json.loads(capsys.readouterr().out)
            assert payload.pop("certified") is bool(flags)
            answers.append((code, payload))
        assert answers[0] == answers[1]
        code, payload = answers[0]
        isomorphic = brute_isomorphic(g, h)
        assert payload["isomorphic"] is isomorphic
        assert code == (0 if isomorphic else 1)
        if isomorphic:
            assert relabel_graph(g, tuple(payload["mapping"])) == h
        answered.append(isomorphic)
    # The switches give both answers: 15 of the 30 are not isomorphic.
    assert answered.count(False) >= 10


def test_iso_reads_stdin_once(monkeypatch, capsys):
    data = format_dimacs(cycle(4)).encode()
    assert run_cli(["iso", "-", "-"], monkeypatch, stdin_bytes=data) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stdin can be read once: one '-' operand only\n"


@pytest.mark.parametrize("first", [True, False])
def test_iso_non_utf8_file_is_exit_2(binary_file, tmp_path, capsys, first):
    other = str(write_graph(tmp_path, cycle(4)))
    pair = [str(binary_file), other] if first else [other, str(binary_file)]
    assert main(["iso", *pair]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------


def test_json_output_is_one_compact_line(tmp_path, capsys):
    g = cycle(9)
    a = str(write_graph(tmp_path, g, "a.col"))
    h = relabel_graph(g, (4, 7, 1, 0, 8, 2, 3, 6, 5))
    b = str(write_graph(tmp_path, h, "b.col"))
    c = str(write_graph(tmp_path, path_graph(9), "c.col"))
    proof = str(tmp_path / "a.proof")
    commands = [
        (["canon", a, "--json"], 0),
        (["canon", a, "--prove", "--proof-out", proof, "--json"], 0),
        (["check", a, proof, "--json"], 0),
        (["check", c, proof, "--json"], 1),
        (["iso", a, b, "--json"], 0),
        (["iso", a, c, "--certify", "--json"], 1),
    ]
    for argv, code in commands:
        assert main(argv) == code
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out)) + "\n", argv


# ---------------------------------------------------------------------------
# entry point wiring
# ---------------------------------------------------------------------------


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # The parser is built once per process. A usage error ends in
    # SystemExit inside argparse; every command after it must print what a
    # freshly built parser gives.
    g = petersen()
    a = write_graph(tmp_path, g, "a.col")
    h = relabel_graph(g, random_perm(random.Random(5), g.n))
    b = write_graph(tmp_path, h, "b.col")
    proof = tmp_path / "a.proof"
    calls = [
        ["canon", str(a), "--bogus"],
        ["canon", str(a), "--proof-out", str(proof)],
        ["check", str(a), str(proof)],
        ["iso", str(a), str(b), "--json"],
    ]

    def run(fresh):
        _build_parser.cache_clear()
        outputs = []
        for argv in calls:
            if fresh:
                _build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        return outputs

    cached = run(fresh=False)
    assert _build_parser.cache_info().misses == 1
    assert [code for code, _, _ in cached] == [2, 0, 0, 0]
    assert cached == run(fresh=True)


@pytest.mark.skipif(
    shutil.which("graphcanon") is None, reason="console script not on PATH"
)
def test_console_script_smoke(tmp_path):
    p = write_graph(tmp_path, cycle(4))
    proc = subprocess.run(
        ["graphcanon", "canon", str(p)], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert parse_dimacs(proc.stdout) == canonical_form(cycle(4)).graph


def test_python_dash_m_runs_the_cli(tmp_path):
    p = write_graph(tmp_path, cycle(4))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "graphcanon", "canon", str(p)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_dimacs(proc.stdout) == canonical_form(cycle(4)).graph
