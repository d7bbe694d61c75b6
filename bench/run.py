"""Certify-and-check benchmark of the graphcanon command line.

    python3 bench/run.py --workload symmetric --seed 1 --seconds 30 --trace 0

Run from the repository root. One client drives ``graphcanon.cli.main``
in-process, one command at a time (a closed loop), over DIMACS files made
from the seed: ``canon``, ``canon --prove``, ``check`` on every graph and
``iso --certify`` on every pair. Commands run in whole rounds over the
workload until ``--seconds`` have passed; each timing metric is the sum,
over the workload's commands, of each command's median time over the
rounds. Times are scaled to a reference speed by a fixed probe run next to
each command (see ``probe``). Every output is checked against computations
made apart from graphcanon (see ``oracle.py``).

With ``--trace 1`` the run reports per-layer metrics instead: it calls each
layer's public functions one graph at a time with the wrappers of
``tracing.py`` installed, and compares a wrapped CLI round with a plain one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5

# The machine runs in phases of speed about 1.6x apart, for both wall and
# CPU time, that last from 50 ms to over 15 s. A fixed piece of work, timed
# right before and right after each timed command, measures the phase the
# command ran in, and each command's time is scaled to the speed at which
# the probe takes REFERENCE_PROBE_S.
REFERENCE_PROBE_S = 1e-3
_PROBE_N, _PROBE_EDGES = corpus.gnp(random.Random("probe"), 48, 0.3)
_PROBE_PERM = random.Random("probe").sample(range(_PROBE_N), _PROBE_N)


def probe() -> float:
    """Seconds taken by the same plain-Python graph work every time."""
    t0 = time.perf_counter()
    edges = oracle.relabel(_PROBE_EDGES, _PROBE_PERM)
    oracle.triangles(_PROBE_N, edges)
    sorted(edges, key=lambda e: (e[1], e[0]))
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled by the probes taken before and after them."""
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)


RULE_KINDS = (
    "ColoringAxiom",
    "Individualize",
    "SplitColoring",
    "Equitable",
    "TargetCell",
    "InvariantAxiom",
    "InvariantsEqual",
    "InvariantsEqualSym",
    "OrbitsAxiom",
    "MergeOrbits",
    "PruneInvariant",
    "PruneLeaf",
    "PruneAutomorphism",
    "PruneParent",
    "PruneOrbits",
    "PathAxiom",
    "ExtendPath",
    "CanonicalLeaf",
)

END_TO_END = {
    "setup_s": "s",
    "canon_s": "s",
    "prove_s": "s",
    "check_s": "s",
    "iso_s": "s",
    "proof_bytes": "bytes",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "search.visited": "count",
    "search.generators": "count",
    "search.s": "s",
    "refine.calls.search": "count",
    "refine.calls.emitter": "count",
    "refine.s": "s",
    "invariant.calls.search": "count",
    "invariant.calls.emitter": "count",
    "invariant.calls.checker": "count",
    "invariant.s": "s",
    "core.relabel_calls": "count",
    "core.relabel_s": "s",
    "emitter.s": "s",
    "emitter.rules": "count",
    "emitter.during_s": "s",
    "emitter.during_bytes": "bytes",
    "proof.encode_s": "s",
    "proof.decode_s": "s",
    **{f"proof.bytes.{k}": "bytes" for k in RULE_KINDS},
    **{f"proof.rules.{k}": "count" for k in RULE_KINDS},
    **{f"checker.s.{k}": "s" for k in RULE_KINDS},
    "checker.automorphism_checks": "count",
    "checker.distinct_automorphisms": "count",
    "checker.split_calls": "count",
    "checker.rules": "count",
    "checker.facts": "count",
    "checker.peak_kib": "KiB",
    "cli.parse_s": "s",
    "trace.overhead_s": "s",
}


def import_graphcanon():
    """Import graphcanon afresh from this checkout's ``src``.

    Dropping the cached modules makes every set-up pay the import again.
    """
    for name in [m for m in sys.modules if m.split(".")[0] == "graphcanon"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("graphcanon.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"graphcanon was imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path):
    cli = import_graphcanon()
    wl = corpus.build(workload, seed)
    paths = {}
    for g in wl.graphs:
        path = workdir / f"{g.name}.col"
        path.write_text(g.dimacs())
        paths[g.name] = str(path)
    return cli, wl, paths


class Session:
    """One closed-loop client of the CLI, with the checks of its outputs."""

    def __init__(self, main, wl: corpus.Workload, paths: dict[str, str]):
        self.main = main
        self.wl = wl
        self.paths = paths
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.canonical: dict[str, frozenset] = {}
        self.overhead: float | None = None
        self.degrees = {g.name: oracle.degree_sequence(g.n, g.edges) for g in wl.graphs}

    def error(self, message: str) -> None:
        self.errors.append(message)

    def _invoke(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc()
            seconds = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), seconds

    def command(self, argv: list[str], expect: set[int]):
        """Run one CLI command; returns ``(exit code, JSON payload)`` or
        None when it failed, and the seconds it took at reference speed.

        While ``overhead`` is a number, the command also runs once more
        with the tracer's wrappers installed, in alternating order, and the
        difference is added to ``overhead``; the wrapped run's output is
        the one checked.
        """
        self.attempted += 1
        if self.overhead is None:
            before = probe()
            rc, out, err, seconds = self._invoke(argv)
            seconds = at_reference_speed(seconds, before, probe())
        else:
            wrapped_first = self.attempted % 2 == 0
            if not wrapped_first:
                plain = self._invoke(argv)[3]
            with Tracer():
                rc, out, err, seconds = self._invoke(argv)
            if wrapped_first:
                plain = self._invoke(argv)[3]
            self.overhead += seconds - plain
        payload = None
        if rc in expect:
            try:
                payload = json.loads(out)
            except ValueError:
                pass
        if payload is None:
            self.failed += 1
            tail = err.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{' '.join(argv)}: exit {rc}: {tail[0]}")
            return None, seconds
        return (rc, payload), seconds

    def agree(self, name: str, edges: frozenset, what: str) -> None:
        first = self.canonical.setdefault(name, edges)
        if edges != first:
            self.error(f"{what} {name}: canonical graph differs from the first one printed")

    def check_canon(self, g: corpus.Graph, payload: dict, what: str) -> None:
        lab = payload["labelling"]
        listed = [tuple(e) for e in payload["canonical_edges"]]
        edges = oracle.edge_set(listed)
        if payload["n"] != g.n or payload["m"] != len(g.edges):
            self.error(f"{what} {g.name}: reports n={payload['n']} m={payload['m']}")
        elif not oracle.is_permutation(lab, g.n):
            self.error(f"{what} {g.name}: labelling is not a permutation")
        elif len(listed) != len(edges) or oracle.relabel(g.edges, lab) != edges:
            self.error(f"{what} {g.name}: labelling does not give the canonical edges")
        elif oracle.degree_sequence(g.n, edges) != self.degrees[g.name]:
            self.error(f"{what} {g.name}: degree sequence changed")
        self.agree(g.name, edges, what)

    def check_iso(self, pair: corpus.Pair, payload: dict) -> None:
        g1, g2 = self.wl.graph(pair.first), self.wl.graph(pair.second)
        label = f"iso {pair.first} {pair.second}"
        if payload["isomorphic"] != pair.isomorphic or not payload["certified"]:
            self.error(f"{label}: answered {payload['isomorphic']} ({pair.why})")
        elif pair.isomorphic:
            mapping = payload["mapping"]
            if not oracle.is_permutation(mapping, g1.n) or (
                oracle.relabel(g1.edges, mapping) != g2.edges
            ):
                self.error(f"{label}: mapping does not carry the edges across")

    def cli_round(self) -> tuple[dict[tuple[str, str], float], int]:
        """Every command once over the whole workload. Returns the seconds
        of each timed command, keyed by its metric and its graph or pair,
        and the total size of the proofs written."""
        times: dict[tuple[str, str], float] = {}
        proof_bytes = 0
        for g in self.wl.graphs:
            path = self.paths[g.name]
            proof = path + ".proof"
            res, s = self.command(["canon", path, "--json"], {0})
            times["canon_s", g.name] = s
            if res:
                self.check_canon(g, res[1], "canon")
            argv = ["canon", path, "--prove", "--proof-out", proof, "--json"]
            res, s = self.command(argv, {0})
            times["prove_s", g.name] = s
            if res:
                self.check_canon(g, res[1], "canon --prove")
                size = Path(proof).stat().st_size
                if res[1]["proof_bytes"] != size:
                    self.error(f"canon --prove {g.name}: reports a wrong proof size")
                proof_bytes += size
            res, s = self.command(["check", path, proof, "--json"], {0})
            times["check_s", g.name] = s
            if res:
                if not res[1]["accepted"]:
                    self.error(f"check {g.name}: own proof rejected")
                else:
                    edges = oracle.edge_set(tuple(e) for e in res[1]["canonical_edges"])
                    self.agree(g.name, edges, "check")
        for pair in self.wl.pairs:
            p1, p2 = self.paths[pair.first], self.paths[pair.second]
            res, s = self.command(["iso", p1, p2, "--certify", "--json"], {0, 1})
            times["iso_s", f"{pair.first} {pair.second}"] = s
            if res:
                self.check_iso(pair, res[1])
            if not pair.isomorphic:
                self.crossed_checks(pair)
        return times, proof_bytes

    def crossed_checks(self, pair: corpus.Pair) -> None:
        """Each graph of a non-isomorphic pair against the other's proof:
        rejected, or accepted with the checked graph's own canonical form."""
        for graph, other in ((pair.first, pair.second), (pair.second, pair.first)):
            argv = ["check", self.paths[graph], self.paths[other] + ".proof", "--json"]
            res, _ = self.command(argv, {0, 1})
            if res and res[1]["accepted"]:
                edges = oracle.edge_set(tuple(e) for e in res[1]["canonical_edges"])
                if edges != self.canonical.get(graph):
                    self.error(f"check {graph} with the proof of {other}: accepted wrongly")

    def check_pairs(self) -> None:
        """Canonical forms of a pair are equal exactly when it is isomorphic."""
        for pair in self.wl.pairs:
            same = self.canonical.get(pair.first) == self.canonical.get(pair.second)
            if same != pair.isomorphic:
                self.error(f"{pair.first} {pair.second}: canonical forms say {same}")


class Layers:
    """The traced run's direct calls into each layer, one graph at a time."""

    def __init__(self, session: Session):
        from graphcanon import checker, cli, core, emitter, proof

        self.checker, self.cli, self.core = checker, cli, core
        self.emitter, self.proof = emitter, proof
        self.session = session

    def run(self) -> dict[str, float]:
        session = self.session
        tracer = Tracer()
        m = dict.fromkeys(PER_LAYER, 0)
        for g in session.wl.graphs:
            session.attempted += 1
            try:
                self.graph(g, tracer, m)
            except Exception as exc:  # a raising layer fails this graph only
                session.failed += 1
                session.failures.append(f"layers {g.name}: {type(exc).__name__}: {exc}")
        sec, calls = tracer.seconds, tracer.calls
        solve = sec["emitter.canonical_form"]
        m["search.s"] = solve - sec["refine.search"] - sec["invariant.search"]
        m["emitter.s"] -= solve
        m["refine.calls.search"] = calls["refine.search"]
        m["refine.calls.emitter"] = calls["refine.emitter"]
        m["refine.s"] = tracer.seconds_under("refine.")
        for caller in ("search", "emitter", "checker"):
            m[f"invariant.calls.{caller}"] = calls[f"invariant.{caller}"]
        m["invariant.s"] = tracer.seconds_under("invariant.")
        m["core.relabel_calls"] = tracer.calls_under("relabel.")
        m["core.relabel_s"] = tracer.seconds_under("relabel.")
        m["checker.automorphism_checks"] = calls["checker.is_automorphism"]
        m["checker.split_calls"] = calls["checker.split"]
        return m

    def graph(self, g: corpus.Graph, tracer: Tracer, m: dict[str, float]) -> None:
        checker, proof = self.checker, self.proof
        error = self.session.error
        text = Path(self.session.paths[g.name]).read_text()
        with tracer:
            t0 = time.perf_counter()
            graph = self.cli.parse_dimacs(text)
            t1 = time.perf_counter()
            post = self.emitter.emit_post(graph)
            t2 = time.perf_counter()
            data = post.data
            n, rules = proof.decode_proof(data)
            t3 = time.perf_counter()
            encoded = proof.encode_proof(n, rules)
            t4 = time.perf_counter()
            # verify_proof's loop, through the public apply_rule.
            tracer.automorphisms.clear()
            db = checker.FlatSetDatabase()
            pi0 = self.core.unit_coloring(n)
            canonical = None
            for rule in rules:
                t = time.perf_counter()
                fact = checker.apply_rule(graph, pi0, rule, db)
                m[f"checker.s.{type(rule).__name__}"] += time.perf_counter() - t
                db.insert(proof.fact_key(fact))
                if canonical is None and isinstance(fact, proof.Canonical):
                    canonical = fact
        m["cli.parse_s"] += t1 - t0
        m["emitter.s"] += t2 - t1
        m["proof.decode_s"] += t3 - t2
        m["proof.encode_s"] += t4 - t3
        m["search.visited"] += post.result.visited
        m["search.generators"] += len(post.result.generators)
        m["emitter.rules"] += post.rule_count
        m["checker.rules"] += len(rules)
        m["checker.facts"] += len(db)
        m["checker.distinct_automorphisms"] += len(tracer.automorphisms)
        if encoded != data:
            error(f"layers {g.name}: encode_proof(decode_proof(data)) != data")
        if canonical is None or canonical.graph != post.result.graph:
            error(f"layers {g.name}: replayed proof does not give the solver's graph")

        pos = proof.decode_int(data, 0)[1]
        while pos < len(data):
            rule, end = proof.decode_rule(data, pos, n)
            kind = type(rule).__name__
            if kind not in RULE_KINDS:
                raise ValueError(f"unknown rule kind {kind}")
            m[f"proof.bytes.{kind}"] += end - pos
            m[f"proof.rules.{kind}"] += 1
            pos = end

        t0 = time.perf_counter()
        during = self.emitter.emit_during(graph)
        m["emitter.during_s"] += time.perf_counter() - t0
        m["emitter.during_bytes"] += len(during.data)

        tracemalloc.start()
        try:
            verdict = checker.verify_proof(graph, pi0, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if not verdict.accepted:
            error(f"layers {g.name}: verify_proof rejects: {verdict.reason}")
        m["checker.peak_kib"] = max(m["checker.peak_kib"], peak / 1024)


def measure(session: Session, seconds: float, trace: bool) -> dict:
    """Whole rounds until ``seconds`` have passed, or until less than half
    a typical round is left. Without tracing, each timing metric sums the
    median time of each of its commands over the rounds, so that a command
    whose probes missed a change of the machine's speed is one outlier
    among its samples. Traced metrics are medians of their round values."""
    samples = []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace:
            session.overhead = 0.0
            session.cli_round()
            m = Layers(session).run()
            m["trace.overhead_s"] = session.overhead
            session.overhead = None
            samples.append(m)
        else:
            samples.append(session.cli_round())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        print(f"round {len(samples)}: {elapsed:.1f} s", file=sys.stderr)
        if elapsed + statistics.median(durations) / 2 >= seconds:
            break
    session.check_pairs()
    if trace:
        return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics = dict.fromkeys(("canon_s", "prove_s", "check_s", "iso_s"), 0.0)
    for key in samples[0][0]:
        metrics[key[0]] += statistics.median(times[key] for times, _ in samples)
    metrics["proof_bytes"] = statistics.median(size for _, size in samples)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Fails fast outside a checkout, and byte-compiles graphcanon before the
    # timed set-ups, which then load it the way an installed copy would.
    try:
        import_graphcanon()
    except ImportError as exc:
        print(f"error: cannot import graphcanon from {SRC}: {exc}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = probe()
            t0 = time.perf_counter()
            cli, wl, paths = set_up(args.workload, args.seed, workdir)
            seconds = time.perf_counter() - t0
            setup_times.append(at_reference_speed(seconds, before, probe()))
        session = Session(cli.main, wl, paths)
        metrics = measure(session, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in (session.failures + session.errors)[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
