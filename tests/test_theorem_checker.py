"""Checks of the verification layer itself: verdict content, gating,
suite orchestration, and offline re-verification of certificates."""

import inspect
import json
import random
import tracemalloc

import numpy as np
import pytest

import uct.cli as cli
import uct.constructors as constructors
import uct.graph_core as graph_core
import uct.theorem_checker as tc
import uct.tri_ring as tri_ring
from test_tri_ring import ALL_TRI_SPECS
from uct import (RingSpec, WrongField, all_pairs_distances, antipodal,
                 antipodal_hamming_direct, check_clique,
                 check_connectivity_and_diameter, check_prop0, check_prop1,
                 check_quotient, check_theorem1, check_theorem3,
                 check_triameter, check_zn_oracles, complete_graph,
                 connected_components, hamming_graph, labeled_equal,
                 run_check, run_suite, semistrong_product, unitary_cayley)
from uct.graph_core import Graph
from uct.theorem_checker import (DEFAULT_SUITE_SPECS, checks_for, report_json,
                                 theorem3_relabeling)

T23 = RingSpec.triangular(2, 3, 1)
T22 = RingSpec.triangular(2, 2, 1)
T32 = RingSpec.triangular(3, 2, 1)
T42 = RingSpec.triangular(4, 2, 1)
T24 = RingSpec.triangular(2, 2, 2)
T25 = RingSpec.triangular(2, 5, 1)
T33 = RingSpec.triangular(3, 3, 1)


@pytest.mark.parametrize("spec,degree", [(T22, 2), (T23, 12), (T32, 8)])
def test_prop0_degrees(spec, degree):
    v = check_prop0(spec)
    assert v.passed
    assert v.computed["degree_min"] == degree == v.computed["degree_max"]
    assert v.computed["unit_count"] == degree


@pytest.mark.parametrize("spec,pairs", [(T22, 28), (T23, 351)])
def test_prop1_checks_every_pair(spec, pairs):
    v = check_prop1(spec)
    assert v.passed
    assert v.certificate["pairs_checked"] == pairs


@pytest.mark.parametrize("spec,comps,m", [(T22, 2, 2), (T32, 4, 8), (T42, 8, 64)])
def test_theorem1_component_structure(spec, comps, m):
    v = check_theorem1(spec)
    assert v.passed
    assert v.computed["components"] == comps
    assert v.computed["m"] == m
    for entry in v.certificate["components"]:
        assert entry["part_sizes"] == [m, m]
        da, db = entry["diagonals"]
        assert all(x != y for x, y in zip(da, db))


def test_theorem1_requires_q2():
    with pytest.raises(WrongField):
        check_theorem1(T23)


@pytest.mark.parametrize("spec", [T23, T33, T24])
def test_connectivity_and_diameter(spec):
    v = check_connectivity_and_diameter(spec)
    assert v.passed
    assert v.computed == {"components": 1, "diameter": 2, "midpoint_ok": True}


def test_connectivity_midpoint_certificate_re_verifies():
    v = check_connectivity_and_diameter(T23)
    g = unitary_cayley(T23)
    a, b = v.certificate["nonadjacent_pair"]
    mid = v.certificate["midpoint"]
    assert not g.adjacency[a, b]
    assert g.adjacency[mid, a] and g.adjacency[mid, b]


@pytest.mark.parametrize("text", [t for t in ALL_TRI_SPECS
                                  if RingSpec.parse(t).q > 2] + ["tri:2,11,1"])
def test_connectivity_witness_is_the_first_nonadjacent_pair(text):
    """The pair read from row 0 is the one a scan of every row u for a
    non-neighbour above u finds first."""
    spec = RingSpec.parse(text)
    adj = unitary_cayley(spec).adjacency
    first = next((u, int(w)) for u in range(len(adj))
                 for w in np.flatnonzero(~adj[u]) if w > u)
    v = check_connectivity_and_diameter(spec)
    assert v.passed and v.certificate["nonadjacent_pair"] == list(first)


def test_connectivity_requires_q_above_2():
    with pytest.raises(WrongField):
        check_connectivity_and_diameter(T22)


@pytest.mark.parametrize("spec", [T23, T24, T25])
def test_triameter_is_six(spec):
    v = check_triameter(spec)
    assert v.passed
    assert v.computed["triameter"] == 6
    assert v.computed["diagonal_witness_sum"] == 6


def test_triameter_certificate_re_measures():
    v = check_triameter(T23)
    g = unitary_cayley(T23)
    d = all_pairs_distances(g)
    u, vv, w = v.certificate["triametral_triple"]
    assert int(d[u, vv] + d[u, w] + d[vv, w]) == 6
    d1, d2, d3 = v.certificate["diagonal_witness"]
    assert int(d[d1, d2] + d[d1, d3] + d[d2, d3]) == 6


@pytest.mark.parametrize("spec,omega", [(T23, 3), (T32, 2), (T25, 5)])
def test_clique_number_is_field_size(spec, omega):
    v = check_clique(spec)
    assert v.passed
    assert v.computed["clique_number"] == omega
    g = unitary_cayley(spec)
    scalars = v.certificate["scalar_clique"]
    assert len(scalars) == omega
    for i, x in enumerate(scalars):
        for y in scalars[i + 1:]:
            assert g.adjacency[x, y]


def test_ring_clique_check_runs_no_clique_search(monkeypatch):
    """The scalar clique and the first-diagonal-entry classes certify
    omega = q: the suite never calls max_clique or builds bitset masks."""
    def refuse(*args):
        raise AssertionError("clique search on a ring graph")
    monkeypatch.setattr(tc, "max_clique", refuse)
    monkeypatch.setattr(Graph, "neighbor_masks", refuse)
    verdicts = run_suite([T32, T33, RingSpec.parse("tri:3,2,2")])
    assert len(verdicts) == 19 and all(v.passed for v in verdicts)


@pytest.mark.parametrize("spec", [T23, T33])
@pytest.mark.parametrize("mutation", ["edge_inside_a_class", "scalar_edge_dropped"])
def test_clique_check_falls_back_to_exact_search(monkeypatch, spec, mutation):
    """An edge from 0 to the first other vertex of its first-diagonal-entry
    class, or no edge between the scalars diag(1, ...) and diag(2, ...):
    one witness fails, so max_clique runs once and its clique is reported."""
    ring = tc.RingInstance(spec)
    adj = ring.graph.adjacency.copy()
    if mutation == "edge_inside_a_class":
        u, w = 0, int(np.flatnonzero(ring.diagonal[:, 0] == 0)[1])
    else:
        u, w = (tc._diagonal_matrix_encoding(spec, [a] * spec.n) for a in (1, 2))
    adj[u, w] = adj[w, u] = mutation == "edge_inside_a_class"
    mutated, calls = Graph(adj), []

    def counted(g):
        calls.append(g)
        return graph_core.max_clique(g)
    monkeypatch.setattr(tc, "unitary_cayley", lambda spec, cap: mutated)
    monkeypatch.setattr(tc, "max_clique", counted)
    v = check_clique(spec)
    assert calls == [mutated]
    expected = graph_core.max_clique(mutated)
    assert v.computed["clique_number"] == len(expected)
    assert v.certificate["found_clique"] == expected


@pytest.mark.parametrize("spec,m,vertices", [(T23, 3, 27), (T24, 4, 64),
                                             (T33, 27, 729)])
def test_theorem3_labeled_equality(spec, m, vertices):
    v = check_theorem3(spec)
    assert v.passed
    assert v.certificate["m"] == m
    assert v.certificate["pairs_checked"] == vertices * (vertices - 1) // 2
    assert v.computed["pairwise_equal"]
    assert v.computed["degree_sequences_equal"]
    assert v.computed["edge_counts_equal"]
    assert v.computed["component_counts_equal"]


def test_theorem3_small_instances_confirmed_by_iso_oracle():
    assert check_theorem3(T23).computed["iso_oracle"] is True
    assert check_theorem3(T33).computed["iso_oracle"] is None  # above oracle cap


def test_theorem3_requires_q_above_2():
    with pytest.raises(WrongField):
        check_theorem3(T22)


def test_theorem3_phi_re_verifies_from_certificate():
    """Offline re-check: rebuild both graphs, re-apply the exported bijection
    to 100 seeded random vertex pairs."""
    v = check_theorem3(T23, seed=0)
    phi = v.certificate["phi"]
    g = unitary_cayley(T23)
    prod = semistrong_product(complete_graph(v.certificate["m"]),
                              antipodal_hamming_direct(2, 3))
    rng = random.Random(v.seed)
    for _ in range(100):
        x, y = rng.randrange(27), rng.randrange(27)
        assert bool(g.adjacency[x, y]) == bool(prod.adjacency[phi[x], phi[y]])


def test_theorem3_relabeling_is_bijection():
    phi = theorem3_relabeling(T33)
    assert sorted(phi) == list(range(729))


@pytest.mark.parametrize("spec", [T23, T32, T25, T33])
def test_quotient(spec):
    assert check_quotient(spec).passed


def test_zn_prime_and_power_of_two_and_even():
    v7 = check_zn_oracles(7)
    assert v7.passed and v7.computed["complete"] is True
    v8 = check_zn_oracles(8)
    assert v8.passed
    assert v8.computed["bipartition_sizes"] == [4, 4]
    v6 = check_zn_oracles(6)
    assert v6.passed
    assert v6.computed["bipartite"] is True
    assert v6.computed["degree"] == 2


@pytest.mark.parametrize("p", [3, 7, 31])
def test_zn_complete_reads_every_degree(p):
    """For prime p, K_p passes and K_p minus one edge is reported incomplete."""
    ring = tc.RingInstance(p)
    ring.graph = complete_graph(p)
    assert tc._measure("zn", ring).passed
    adj = ~np.eye(p, dtype=bool)
    adj[0, 1] = adj[1, 0] = False
    ring = tc.RingInstance(p)
    ring.graph = Graph(adj)
    verdict = tc._measure("zn", ring)
    assert verdict.computed["complete"] is False and not verdict.passed


def test_zn_oracles_build_no_second_graph():
    """check_zn_oracles(4093) holds its ring graph and one row block: the
    completeness test reads the degrees, with no complete_graph beside it."""
    v = 4093
    tracemalloc.start()
    try:
        verdict = check_zn_oracles(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and verdict.computed["complete"] is True
    assert peak < 1.6 * v * v, peak / (v * v)


def test_zn_rejects_tri_spec():
    with pytest.raises(ValueError):
        check_zn_oracles(T23)


# -- suite ---------------------------------------------------------------------

def test_checks_for_selects_by_field_size():
    assert "theorem1" in checks_for(T22)
    assert "theorem3" not in checks_for(T22)
    assert "theorem3" in checks_for(T23)
    assert "theorem1" not in checks_for(T23)
    assert checks_for(RingSpec.integers_mod(8)) == ["zn"]


def test_default_suite_all_pass():
    verdicts = run_suite()
    assert len(verdicts) == 5 * 3 + 7 * 4  # q=2 specs get 5 checks, q>2 get 7
    assert all(v.passed for v in verdicts)
    specs = [v.spec for v in verdicts]
    assert specs == sorted(specs, key=lambda s: [str(x) for x in DEFAULT_SUITE_SPECS].index(s))


def test_empty_suite():
    assert run_suite([]) == []


def test_over_cap_spec_becomes_single_failed_verdict():
    verdicts = run_suite([RingSpec.triangular(9, 2, 1)])
    assert len(verdicts) == 1
    assert not verdicts[0].passed
    assert verdicts[0].certificate["error"] == "RingTooLarge"


def test_run_check_turns_errors_into_failed_verdicts():
    v = run_check("theorem3", T22)
    assert not v.passed
    assert "WrongField" in str(v.computed)


def test_suite_deterministic_modulo_timing():
    def strip(vs):
        out = []
        for v in vs:
            d = v.to_json()
            d.pop("millis")
            out.append(d)
        return out
    a = strip(run_suite([T23, RingSpec.integers_mod(8)], seed=5))
    b = strip(run_suite([T23, RingSpec.integers_mod(8)], seed=5))
    assert a == b


def test_suite_keeps_spec_order_then_check_order():
    """Specs run one after another: each spec's checks in checks_for
    order, the specs in the order given, whatever their sizes."""
    specs = [T33, T22, RingSpec.integers_mod(8), T23, T32]
    verdicts = run_suite(specs)
    assert [(v.claim_id, v.spec) for v in verdicts] == [
        (tc.CLAIM_IDS[name], str(spec)) for spec in specs for name in checks_for(spec)]


def test_report_json_stable_fields():
    verdicts = run_suite([T22])
    payload = json.loads(report_json(verdicts))
    assert set(payload) == {"verdicts"}
    for entry in payload["verdicts"]:
        assert list(entry) == ["claim_id", "spec", "expected", "computed",
                               "pass", "certificate", "seed", "millis"]


def test_theorem1_certificate_bipartitions_re_verify():
    """Offline recheck of the exported component structure, edge by edge."""
    v = check_theorem1(T32)
    g = unitary_cayley(T32)
    comps = connected_components(g)
    assert len(comps) == len(v.certificate["components"])
    for comp, entry in zip(comps, v.certificate["components"]):
        sub = g.induced_subgraph(comp)
        da, db = (tuple(x) for x in entry["diagonals"])
        # partition the component by its two diagonals and re-test all pairs
        part_a = [i for i in range(len(comp))
                  if _diag_of_label(sub.labels[i]) == da]
        part_b = [i for i in range(len(comp))
                  if _diag_of_label(sub.labels[i]) == db]
        assert sorted(part_a + part_b) == list(range(len(comp)))
        for x in part_a:
            for y in part_b:
                assert sub.adjacency[x, y]
        for part in (part_a, part_b):
            for x in part:
                for y in part:
                    assert not sub.adjacency[x, y]


def _diag_of_label(label):
    # labels hold the canonical entry digits; diagonal slots of n=3 are 0,3,5
    digits = [int(c) for c in label.split(",")]
    return digits[0], digits[3], digits[5]


# -- one instance per spec -----------------------------------------------------

def test_suite_builds_each_graph_once_and_difference_rows_by_block(monkeypatch):
    """Each spec's graph is built once, each of its tables read at x - y
    gets one group_reader, so one window table, and every x - y row the
    suite forms comes one row block at a time: no read asks for more
    entries than _ROW_BLOCK_ENTRIES (3 rows of T23's 27 vertices here).
    Every reader is counted: the distances', through
    graph_core.distance_rows, and the Cayley builds', which include
    A(H(n, q)), shared by theorem3 and the quotient check."""
    graphs, tables, entries = [], [], []

    def counting_graphs(spec, cap):
        graphs.append(str(spec))
        return real_graph(spec, cap)

    def counting_reader(group, of=None):
        read = real_reader(group, of)
        tables.append((group, of.dtype.name))

        def counted(rows):
            block = read(rows)
            entries.append(block.size)
            return block
        return counted

    real_graph, real_reader = tc.unitary_cayley, tri_ring.group_reader
    monkeypatch.setattr(graph_core, "_ROW_BLOCK_ENTRIES", 3 * 27)
    monkeypatch.setattr(tc, "unitary_cayley", counting_graphs)
    monkeypatch.setattr(tri_ring, "group_reader", counting_reader)
    monkeypatch.setattr(graph_core, "group_reader", counting_reader)
    verdicts = run_suite([T23, T22])
    assert all(v.passed for v in verdicts)
    assert graphs == ["tri:2,3,1", "tri:2,2,1"]
    # T23's unit mask; d0 for triametral_triple's search and again, after
    # that reader is gone, for the triameter check's witness reads; then
    # A(H(2, 3)) over Z_3^2, built once for theorem3 and the quotient check;
    # T22's unit mask and A(H(2, 2)) for the quotient check.  Adjacency row
    # 0 is not read: a ring graph is Cayley by construction.
    assert tables == [((3, 3), "bool"), ((3, 3), "uint8"), ((3, 3), "uint8"),
                      ((3, 2), "bool"), ((2, 3), "bool"), ((2, 2), "bool")]
    assert len(entries) > 2 * 27 // 3 and max(entries) <= 3 * 27


def test_ring_path_runs_no_dense_symmetry_or_invariance_pass(monkeypatch,
                                                            capsys):
    """The ring graph is proved simple from its unit mask and its distances
    are read off the BFS forest at x - y: the suite on a q = 2 and a q > 2
    spec and `uct invariants` on the q > 2 one run no symmetry check of a
    ring-sized adjacency, never enter either generic all-pairs route, and
    leave no V x V distance array cached on a ring graph.  all_pairs_distances
    of H(12, 2), a Cayley graph too, enters neither generic route either.
    (Of the comparison graphs of theorem3 and the quotient check,
    A(H(n, q)) is a Cayley graph too, and K_m and the quotient, of m and
    q^n vertices, keep their symmetry check; T33's 729 vertices are above
    the isomorphism oracle's cap, so no product graph of the ring's size
    is built.)"""
    real_symmetric = graph_core._is_symmetric
    real_graph = constructors.unitary_cayley
    ring_graphs = []

    def refuse_ring_sized(adj):
        if len(adj) in (T32.order, T33.order):
            raise AssertionError("symmetry check of a ring-sized adjacency")
        return real_symmetric(adj)

    def refuse(*args):
        raise AssertionError("generic all-pairs distances")

    def kept_graphs(spec, cap):
        ring_graphs.append(real_graph(spec, cap))
        return ring_graphs[-1]
    monkeypatch.setattr(graph_core, "_is_symmetric", refuse_ring_sized)
    monkeypatch.setattr(graph_core, "_all_sources_bfs", refuse)
    monkeypatch.setattr(graph_core, "_per_source_distances", refuse)
    monkeypatch.setattr(tc, "unitary_cayley", kept_graphs)
    monkeypatch.setattr(cli, "unitary_cayley", kept_graphs)
    verdicts = run_suite([T32, T33])
    assert len(verdicts) == 12 and all(v.passed for v in verdicts)
    assert cli.main(["invariants", "--spec", str(T33)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["diameter"] == 2 and result["triameter"] == 6
    assert len(ring_graphs) == 3
    assert not any("dist" in g._cache for g in ring_graphs)
    assert all_pairs_distances(hamming_graph(12, 2)).max() == 12


T232 = RingSpec.triangular(2, 3, 2)  # 729 vertices: above the oracle's cap


def count_ring_fills(monkeypatch):
    """The list of the groups of the Cayley graphs whose adjacency is filled
    from now on; a ring graph's group is its spec's, A(H(n, q))'s is
    (q, n)."""
    fills, real = [], Graph.adjacency.fget

    def counted(g):
        if g._adj is None and g._group is not None:
            fills.append(g._group)
        return real(g)
    monkeypatch.setattr(Graph, "adjacency", property(counted))
    return fills


def test_a_suite_fills_each_ring_graph_once(monkeypatch, tmp_path):
    """A suite fills each triangular spec's graph once, where its checks run
    several; it fills no zn graph (one check), and a lone check, `uct
    invariants` and `uct build` fill none (above the oracle's cap, where
    theorem3 runs no iso_check on the whole graph)."""
    fills = count_ring_fills(monkeypatch)
    zn = RingSpec.parse("zn:4096")
    verdicts = run_suite([T32, T23, zn, T42])
    assert all(v.passed for v in verdicts)
    assert [g for g in fills if g != (3, 2)] == [T32.group, T23.group, T42.group]
    del fills[:]
    for spec in (T42, T232, zn):
        for name in checks_for(spec):
            assert run_check(name, spec).passed, name
    out = str(tmp_path / "out")
    for argv in (["invariants", "--spec", str(T232)],
                 ["build", "--spec", str(T232), "--format", "dot"]):
        assert cli.main(argv + ["--out", out]) == 0
    assert [g for g in fills if g in (T42.group, T232.group, zn.group)] == []


def test_ring_checks_read_no_adjacency(monkeypatch):
    """No check body reads Graph.adjacency on its ring graph, filled or
    not: every row is read through g.rows (specs above the oracle's cap,
    whose iso_check reads whole matrices)."""
    rings = [tc.RingInstance(spec, stored=stored) for spec in (T42, T232)
             for stored in (False, True)]
    graphs = {id(ring.graph) for ring in rings}  # the stored ones fill here
    assert sum(ring.graph._adj is not None for ring in rings) == 2
    real = Graph.adjacency.fget

    def refused(g):
        if id(g) in graphs:
            raise AssertionError("a check read the ring graph's adjacency")
        return real(g)
    monkeypatch.setattr(Graph, "adjacency", property(refused))
    for ring in rings:
        for name in checks_for(ring.spec):
            assert tc._measure(name, ring).passed, name


def refuse_4096_symmetry_checks(monkeypatch):
    real_symmetric = graph_core._is_symmetric

    def refuse_4096(adj):
        if len(adj) == 4096:
            raise AssertionError("symmetry check of a 4096-vertex adjacency")
        return real_symmetric(adj)
    monkeypatch.setattr(graph_core, "_is_symmetric", refuse_4096)


def test_hamming_builders_run_no_dense_symmetry_pass(monkeypatch):
    """H(12, 2), A(H(6, 4)) and antipodal of H(6, 4) are Cayley graphs of
    Z_2^12 and Z_4^6, proved simple from their masks: no symmetry check of
    their 4096-vertex adjacency, built or filled."""
    refuse_4096_symmetry_checks(monkeypatch)
    for g in (hamming_graph(12, 2), antipodal_hamming_direct(6, 4),
              antipodal(hamming_graph(6, 4))):
        assert g.vertex_count == 4096 and g.adjacency.shape == (4096, 4096)


def test_antipodal_hamming_cross_check_fills_neither_side(monkeypatch):
    """antipodal(H(12, 2)) against A(H(12, 2)), as the library benchmark
    checks it: labeled_equal compares the two masks, edge_count is
    V * |S| / 2 and the BFS forest behind d0 reads H(12, 2)'s rows through
    its reader, so no adjacency is filled and no symmetry check runs."""
    refuse_4096_symmetry_checks(monkeypatch)
    real_filled, fills = graph_core._filled, []

    def counted_filled(v, rows):
        fills.append(v)
        return real_filled(v, rows)
    monkeypatch.setattr(graph_core, "_filled", counted_filled)
    h = hamming_graph(12, 2)
    anti, direct = antipodal(h), antipodal_hamming_direct(12, 2)
    assert labeled_equal(anti, direct)
    assert anti.edge_count() == direct.edge_count() == 4096 // 2
    assert fills == []


@pytest.mark.parametrize("text", ["zn:4093", "zn:4096"])
def test_zn_check_fills_no_adjacency(text):
    """The zn check counts the degrees on every row of g.rows and reads
    the forest and the bipartite parts through it: no adjacency is filled."""
    ring = tc.RingInstance(RingSpec.parse(text))
    assert tc._measure("zn", ring).passed
    assert ring.graph._adj is None


def test_zn_check_counts_every_row():
    """A reader fault away from row 0 (edge 5-7 of the complete graph
    zn:4093 dropped from row 5 alone) fails the zn check: its degrees are
    counted row by row, not read off the mask as g.degrees() is."""
    ring = tc.RingInstance(RingSpec.parse("zn:4093"))
    g = ring.graph
    read = g.rows

    def faulty(s):
        block = read(s)
        block[np.arange(g.vertex_count)[s] == 5, 7] = False
        return block
    g.rows = faulty
    v = tc._measure("zn", ring)
    assert not v.passed
    assert v.computed["degree"] == [4091, 4092] and v.computed["complete"] is False
    assert g.degrees().min() == 4092  # the mask itself is sound


def test_suite_reads_no_all_pairs_distances(monkeypatch):
    """Ring distances are d0 plus the difference table: a q > 2 spec never
    enters the generic all-pairs search, whatever the check order."""
    def refuse(g):
        raise AssertionError("all_pairs_distances called")
    monkeypatch.setattr(graph_core, "all_pairs_distances", refuse)
    verdicts = run_suite([T23])
    assert len(verdicts) == 7 and all(v.passed for v in verdicts)
    assert check_triameter(T23).passed


def test_prop1_checks_the_graph_the_other_checks_use(monkeypatch):
    real = tc.unitary_cayley

    def one_edge_missing(spec, cap):
        adj = real(spec, cap).adjacency.copy()
        u, v = np.argwhere(adj)[0]
        adj[u, v] = adj[v, u] = False
        return Graph(adj)

    assert check_prop1(T23).passed
    monkeypatch.setattr(tc, "unitary_cayley", one_edge_missing)
    v = check_prop1(T23)
    assert not v.passed
    assert v.computed == {"rules_agree": False}


@pytest.mark.parametrize("mutation", ["drop_cross_edge", "add_edge_inside_a_part"])
def test_theorem1_checks_every_pair_of_each_component(monkeypatch, mutation):
    """One edge dropped between the parts of vertex 0's component, or added
    between 0 and a vertex of its own part: that component, and only it,
    is reported as not complete bipartite."""
    real = tc.unitary_cayley

    def one_pair_flipped(spec, cap):
        adj = real(spec, cap).adjacency.copy()
        v = int(np.flatnonzero(adj[0])[0])  # in the other part of 0's component
        w = v if mutation == "drop_cross_edge" else int(np.flatnonzero(adj[v])[1])
        adj[0, w] = adj[w, 0] = not adj[0, w]
        return Graph(adj)

    assert check_theorem1(T32).passed
    monkeypatch.setattr(tc, "unitary_cayley", one_pair_flipped)
    v = check_theorem1(T32)
    assert not v.passed
    assert v.computed["components"] == 4 and v.computed["all_components_k_mm"] is False
    first, *rest = v.certificate["components"]
    assert first == {"size": 16, "complete_bipartite": False}
    assert all(e["parts_are_complementary_diagonal_classes"] for e in rest)


def test_theorem1_builds_no_graph_once_the_ring_graph_exists(monkeypatch):
    ring = tc.RingInstance(T42)
    assert ring.graph.vertex_count == 1024
    fills = []
    real_fill = Graph._fill

    def counted_fill(self, v, *args):
        fills.append(v)
        return real_fill(self, v, *args)
    monkeypatch.setattr(Graph, "_fill", counted_fill)
    assert tc._measure("theorem1", ring).passed
    assert fills == []


def test_registry_declares_each_check_once():
    assert list(tc.CHECKS) == list(tc.CLAIM_IDS)
    assert tc.CLAIM_IDS["connectivity"] == "theorem2.connectivity_diameter"
    for name, check in tc.CHECKS.items():
        params = list(inspect.signature(check).parameters)
        assert params == (["spec", "cap", "seed"] if name == "theorem3"
                          else ["spec", "cap"])
    assert check_theorem3(T23).seed == 0
    assert check_prop0(T23).seed is None
    with pytest.raises(TypeError):
        check_prop0(T23, seed=1)


def test_ring_checks_hold_one_row_block_at_a_time(monkeypatch):
    """With blocks of 16 rows and the graph, its adjacency, d0 and diagonal
    digits built, prop1, connectivity, the triameter and theorem3 each
    hold less than a quarter of a V x V bool array: theorem3 reads the
    product through its row rule and builds no product graph above the
    oracle's cap.  The clique check holds less than a sixteenth, where
    bitset masks of every row would take an eighth."""
    monkeypatch.setattr(graph_core, "_ROW_BLOCK_ENTRIES", 1 << 16)
    ring = tc.RingInstance(RingSpec.parse("tri:3,2,2"))
    v = ring.graph.adjacency.shape[0]  # the suite's one fill, before tracing
    d0 = graph_core.distances_from_0(ring.graph)
    assert d0.shape == (v,) and ring.diagonal.shape == (v, 3)
    for name, bound in (("prop1", v * v / 4), ("connectivity", v * v / 4),
                        ("triameter", v * v / 4), ("theorem3", v * v / 4),
                        ("clique", v * v / 16)):
        tracemalloc.start()
        try:
            verdict = tc._measure(name, ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.passed, name
        assert peak < bound, (name, peak / (v * v))
