"""The calls each workload makes into ``uct``, with a span around each.

Every call goes through a public function of the layer it times; nothing in
the program is patched.  Untraced samples run the same code under
``NullTracer``, so the traced and untraced runs cannot drift apart.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import numpy as np

from uct import cli
from uct.constructors import (antipodal_hamming_direct, complete_graph,
                              diagonal_quotient, hamming_graph,
                              semistrong_product, unitary_cayley)
from uct.finite_field import make_field
from uct.graph_core import (ISO_ORACLE_CAP, Graph, all_pairs_distances,
                            antipodal, connected_components, iso_check,
                            labeled_equal, max_clique, triametral_triple,
                            two_coloring)
from uct.graphio import read_edge_list, to_edge_list
from uct.theorem_checker import run_check
from uct.tri_ring import (RingSpec, diagonal_slots, entry_digit_matrix,
                          enumerate_ring, strict_upper_slots)

from spans import Tracer, self_time_by_name, self_times
from workloads import (CLAIMS, LIBRARY_HAMMING, LIBRARY_ROUND_TRIP,
                       check_computed, check_report, checks_for, graph_counts,
                       is_prime, parse_spec, tri_degree, workload_specs)


class NullTracer:
    """Stands in for Tracer in untraced samples: no spans, no counts."""

    @contextlib.contextmanager
    def span(self, name):
        yield None

    def add(self, name, value):
        pass


def count_graph(tr, g, dist=None):
    """Add a built graph, and its distance matrix if any, to the counts.
    Untraced samples skip this, so counting adds no work to their time."""
    if isinstance(tr, NullTracer):
        return
    c = graph_counts(g)
    tr.add("graph.vertices", c["vertices"])
    tr.add("graph.edges", c["edges"])
    tr.add("graph.dense_bytes",
           g.adjacency.nbytes + (0 if dist is None else dist.nbytes))


def run_verify(specs, seed, threads=None):
    """``uct verify`` through the CLI entry point, checked by the oracle:
    (operations attempted, failure messages, report)."""
    argv = ["verify", "--seed", str(seed)]
    argv += [a for s in specs for a in ("--spec", s)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    attempted, failures = check_report(report, specs)
    if code != 0:
        failures.append(f"uct verify exited with {code}")
    return attempted, failures, report


def _outcome(checks):
    """(operations attempted, failure messages) from (ok, message) pairs."""
    return len(checks), [message for ok, message in checks if not ok]


def run_library(tr, seed):
    """The library workload: (operations attempted, failure messages)."""
    checks = []
    for n, q in LIBRARY_HAMMING:
        with tr.span(f"input:H({n},{q})"):
            with tr.span("constructors.hamming_graph"):
                h = hamming_graph(n, q)
            with tr.span("graph_core.all_pairs_distances"):
                dist = all_pairs_distances(h)
            with tr.span("graph_core.antipodal"):
                anti = antipodal(h)
            with tr.span("constructors.antipodal_hamming_direct"):
                direct = antipodal_hamming_direct(n, q)
            with tr.span("graph_core.labeled_equal"):
                equal = labeled_equal(anti, direct)
        count_graph(tr, h, dist)
        checks.append((equal and int(dist.max()) == n
                       and direct.edge_count() == q ** n * (q - 1) ** n // 2,
                       f"antipodal(H({n},{q})) != direct builder"))

    # The seed relabels the round-trip graph, so each seed exports a
    # different edge list of the same size.
    s = parse_spec(LIBRARY_ROUND_TRIP)
    v = s["order"]
    perm = list(range(v))
    random.Random(seed).shuffle(perm)
    with tr.span(f"input:{LIBRARY_ROUND_TRIP}"):
        with tr.span("constructors.unitary_cayley"):
            g = unitary_cayley(RingSpec.parse(LIBRARY_ROUND_TRIP))
        with tr.span("bench.relabel"):
            permuted = g.adjacency[np.ix_(perm, perm)]
        with tr.span("graph_core.Graph"):
            relabeled = Graph(permuted)
        with tr.span("graphio.to_edge_list"):
            text = to_edge_list(relabeled)
        with tr.span("graphio.read_edge_list"):
            back = read_edge_list(text, v)
        with tr.span("graph_core.labeled_equal"):
            equal = labeled_equal(back, relabeled)
    count_graph(tr, g)
    tr.add("graphio.bytes", len(text.encode()))
    checks.append((equal and back.edge_count()
                   == v * tri_degree(s["n"], s["q"]) // 2,
                   f"edge-list round trip of {LIBRARY_ROUND_TRIP} differs"))
    return _outcome(checks)


def replay_tri(tr, text):
    """Each layer a triangular spec's checks need, called once."""
    s = parse_spec(text)
    n, q = s["n"], s["q"]
    spec = RingSpec.parse(text)
    checks = []
    with tr.span("finite_field.make_field"):
        make_field(s["p"], s["k"])
    with tr.span("tri_ring.entry_digit_matrix"):
        digits = entry_digit_matrix(spec)
    with tr.span("tri_ring.enumerate_ring"):
        enumerate_ring(spec)
    with tr.span("constructors.unitary_cayley"):
        g = unitary_cayley(spec)
    with tr.span("graph_core.Graph"):
        fresh = Graph(g.adjacency, labels=g.labels)
    with tr.span("graph_core.connected_components"):
        comps = connected_components(fresh)
    dist = None
    if q == 2:
        with tr.span("graph_core.two_coloring"):
            color = two_coloring(fresh)
        checks.append((len(comps) == 2 ** (n - 1) and color is not None,
                       f"{text}: {len(comps)} components, bipartite "
                       f"{color is not None}"))
    else:
        with tr.span("graph_core.all_pairs_distances"):
            dist = all_pairs_distances(fresh)
        with tr.span("graph_core.triametral_triple"):
            value, _ = triametral_triple(fresh)
        checks.append((len(comps) == 1 and dist.max() == 2 and value == 6,
                       f"{text}: diameter {dist.max()}, triameter {value}"))
        with tr.span("constructors.complete_graph"):
            k_m = complete_graph(q ** (n * (n - 1) // 2))
        with tr.span("constructors.antipodal_hamming_direct"):
            a_h = antipodal_hamming_direct(n, q)
        with tr.span("constructors.semistrong_product"):
            product = semistrong_product(k_m, a_h)
        with tr.span("bench.relabel"):
            up = digits[:, list(strict_upper_slots(n))].astype(np.int64)
            dg = digits[:, list(diagonal_slots(n))].astype(np.int64)
            phi = (up @ q ** np.arange(up.shape[1], dtype=np.int64) * q ** n
                   + dg @ q ** np.arange(n, dtype=np.int64))
            relabeled = Graph(product.adjacency[np.ix_(phi, phi)])
        with tr.span("graph_core.labeled_equal"):
            equal = labeled_equal(g, relabeled)
        checks.append((equal, f"{text}: not the semistrong product"))
        if g.vertex_count <= ISO_ORACLE_CAP:
            with tr.span("graph_core.iso_check"):
                iso = iso_check(g, product)
            checks.append((iso is not None,
                           f"{text}: iso oracle found no mapping"))
    with tr.span("graph_core.max_clique"):
        clique = max_clique(fresh)
    checks.append((len(clique) == q, f"{text}: clique number {len(clique)}"))
    with tr.span("constructors.diagonal_quotient"):
        quotient = diagonal_quotient(spec)
    with tr.span("constructors.antipodal_hamming_direct"):
        direct = antipodal_hamming_direct(n, q)
    with tr.span("graph_core.labeled_equal"):
        equal = labeled_equal(quotient, direct)
    checks.append((equal, f"{text}: quotient differs"))
    count_graph(tr, g, dist)
    return _outcome(checks)


def replay_zn(tr, text):
    """Each layer a Z_m spec's oracle check needs, called once."""
    m = parse_spec(text)["m"]
    checks = []
    with tr.span("constructors.unitary_cayley"):
        g = unitary_cayley(RingSpec.parse(text))
    with tr.span("graph_core.Graph"):
        fresh = Graph(g.adjacency, labels=g.labels)
    if is_prime(m):
        with tr.span("constructors.complete_graph"):
            k_m = complete_graph(m)
        with tr.span("graph_core.labeled_equal"):
            equal = labeled_equal(fresh, k_m)
        checks.append((equal, f"{text}: not K_{m}"))
    if m & (m - 1) == 0:
        with tr.span("graph_core.connected_components"):
            comps = connected_components(fresh)
        checks.append((len(comps) == 1, f"{text}: {len(comps)} components"))
    if m % 2 == 0:
        with tr.span("graph_core.two_coloring"):
            color = two_coloring(fresh)
        checks.append((color is not None and 2 * int(color.sum()) == m,
                       f"{text}: no 2-coloring with equal halves"))
    count_graph(tr, g)
    return _outcome(checks)


def _layer_spans(spans):
    """Spans of uct layers called directly under a replay group."""
    groups = {s["id"] for s in spans if s["name"].startswith("layers:")}
    return [s for s in spans if s["parent"] in groups
            and not s["name"].startswith("bench.")
            and s["name"] != "graph_core.Graph"]


def trace_workload(workload, seed, run_id):
    """The traced run: (tracer, operations attempted, failure messages).

    A verify-style workload runs the CLI once at one thread, then each
    applicable check through ``run_check``, then each layer the spec needs
    once; the library workload runs its calls once.
    """
    tr = Tracer(run_id)
    with tr.span(f"workload:{workload}"):
        if workload == "library":
            attempted, failures = run_library(tr, seed)
        else:
            specs = workload_specs(workload)
            with tr.span("cli.main"):
                attempted, failures, report = run_verify(specs, seed,
                                                         threads=1)
            tr.add("theorem_checker.verdicts", len(report["verdicts"]))
            for text in specs:
                spec = RingSpec.parse(text)
                with tr.span(f"checks:{text}"):
                    for check in checks_for(text):
                        with tr.span(f"theorem_checker.{check}"):
                            verdict = run_check(check, spec, seed=seed)
                        attempted += 1
                        failures += check_computed(CLAIMS[check], text,
                                                   verdict.computed)[:1]
                replay = replay_tri if spec.kind == "tri" else replay_zn
                with tr.span(f"layers:{text}"):
                    a, f = replay(tr, text)
                attempted += a
                failures += f
                v = spec.order
                tr.add("theorem_checker.pairs_checked", v * (v - 1) // 2)
    return tr, attempted, failures


def layer_metrics(tr, names):
    """Per-layer values for the given metric names, 0 for layers the
    workload never called."""
    by_name = self_time_by_name(tr.spans)
    own = self_times(tr.spans)
    checks = sum(by_name[k] for k in by_name
                 if k.startswith("theorem_checker."))
    once = sum(own[s["id"]] for s in _layer_spans(tr.spans))
    metrics = {}
    for name in names:
        if name == "theorem_checker.dup_work_ratio":
            metrics[name] = checks / once if checks else 0.0
        elif name.endswith("_s"):
            metrics[name] = by_name.get(name[:-2], 0.0)
        else:
            metrics[name] = tr.counts.get(name, 0)
    return metrics
