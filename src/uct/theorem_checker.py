"""Structured verification of the structural claims about unitary Cayley
graphs of upper-triangular matrix rings, with re-checkable certificates.

Every check takes a RingSpec, measures the built graph, compares against
the claimed value, and returns a Verdict; the checks of one spec share one
RingInstance, and a suite runs its specs one after another.  A ring graph
is Cayley by construction (unitary_cayley checks U = -U and 0 not in U on
its unit mask) and keeps its group, so its distances are the depths d0 of
the components' BFS forest read at x - y (graph_core.distance_rows), with
no V x V distance array, and theorem3's relabeled graph is phi(U) read at
x - y (phi permutes digit slots: it is additive).  Every check reads the
graph's rows through g.rows alone, so a lone check fills no adjacency; a
suite that runs several checks on a spec (every triangular one) fills it
once, when the first check builds the graph, and the rest read stored
rows.  Claims conditional on the field size are gated: the
two-element-field claims raise WrongField for q > 2 and vice versa.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constructors import (antipodal_hamming_direct, complete_graph,
                           diagonal_quotient, semistrong_product,
                           semistrong_rows, unitary_cayley)
from .errors import UctError, WrongField
from .finite_field import is_prime
from .graph_core import (ISO_ORACLE_CAP, bfs_forest, complete_bipartite_parts,
                         connected_components, distance_rows, distances_from_0,
                         is_bipartite, is_complete_bipartite, iso_check,
                         labeled_equal, largest_finite_distance, max_clique,
                         row_blocks, row_counts, triametral_triple)
from .tri_ring import (DEFAULT_VERTEX_CAP, RingSpec, diagonal_slots, encode,
                       entry_digit_matrix, from_parts, group_reader,
                       strict_upper_slots, unit_mask)


@dataclass
class Verdict:
    """Outcome of one claim check on one ring."""

    claim_id: str
    spec: str
    expected: object
    computed: object
    passed: bool
    certificate: dict
    millis: float
    seed: object = None

    def to_json(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "spec": self.spec,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
            "certificate": self.certificate,
            "seed": self.seed,
            "millis": round(self.millis, 3),
        }


class RingInstance:
    """One spec's unitary Cayley graph and the data derived from it, each
    built on first use and shared by the spec's checks.  An int spec is
    the modulus of Z_n.  The graph keeps its group, so graph_core reads
    its distances as d(x, y) = d0[x - y] (see graph_core.distance_rows).
    The checks read its rows through g.rows only; `stored` (a suite
    running several checks on the spec) fills its adjacency once, where
    the graph is built, so every later row read is a stored row."""

    def __init__(self, spec, cap: int = DEFAULT_VERTEX_CAP, stored: bool = False):
        self.spec = RingSpec.integers_mod(spec) if isinstance(spec, int) else spec
        self.cap = cap
        self.stored = stored

    @cached_property
    def graph(self):
        g = unitary_cayley(self.spec, self.cap)
        if self.stored:
            g.adjacency  # the suite's one fill
        return g

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Diagonal entry digits, one row per vertex (triangular rings)."""
        slots = list(diagonal_slots(self.spec.n))
        return entry_digit_matrix(self.spec, self.cap)[:, slots]

    @cached_property
    def antipodal_hamming(self):
        """A(H(n, q)): theorem3's second factor and the quotient's reference."""
        return antipodal_hamming_direct(self.spec.n, self.spec.q, self.cap)


CHECKS = {}
CLAIM_IDS = {}
_REGISTRY = {}  # name -> (ring kind, gf2 gate, seeded, body)


def _check(name: str, claim_id: str, kind: str = "tri", gf2=None,
           seeded: bool = False):
    """Declare a check under its CLI name and claim id, for rings of `kind`;
    `gf2` limits a triangular claim to q = 2 (True) or q > 2 (False).  The
    body reads a RingInstance (and the seed, when `seeded`) and returns
    (expected, computed, certificate); the declared function takes a
    RingSpec and returns the Verdict."""
    def register(body):
        if seeded:
            def check(spec, cap: int = DEFAULT_VERTEX_CAP, seed: int = 0):
                return _measure(name, RingInstance(spec, cap), seed)
        else:
            def check(spec, cap: int = DEFAULT_VERTEX_CAP):
                return _measure(name, RingInstance(spec, cap))
        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        CHECKS[name], CLAIM_IDS[name] = check, claim_id
        _REGISTRY[name] = kind, gf2, seeded, body
        return check
    return register


def _measure(name: str, ring: RingInstance, seed: int = 0) -> Verdict:
    started = time.perf_counter()
    kind, gf2, seeded, body = _REGISTRY[name]
    spec = ring.spec
    if spec.kind != kind:
        raise ValueError(f"check {name!r} needs a {kind} ring, got {spec}")
    if gf2 is not None and gf2 != (spec.q == 2):
        raise WrongField(f"check {name!r} needs q {'=' if gf2 else '>'} 2, "
                         f"got q = {spec.q}")
    expected, computed, certificate = body(ring, seed) if seeded else body(ring)
    return Verdict(claim_id=CLAIM_IDS[name], spec=str(spec), expected=expected,
                   computed=computed, passed=expected == computed,
                   certificate=certificate,
                   millis=(time.perf_counter() - started) * 1000.0,
                   seed=seed if seeded else None)


def _diagonal_matrix_encoding(spec: RingSpec, diagonal) -> int:
    zeros = (0,) * (spec.n * (spec.n - 1) // 2)
    return encode(from_parts(spec.field(), spec.n, zeros, tuple(diagonal)))


@_check("prop0", "prop0.regularity")
def check_prop0(ring: RingInstance):
    """Regularity: every vertex degree equals (q-1)^n * q^((n^2-n)/2), the
    number of units, which is also counted exhaustively: is_unit's rule
    (every diagonal entry nonzero) on every element's diagonal digits."""
    spec, g = ring.spec, ring.graph
    q, n = spec.q, spec.n
    formula = (q - 1) ** n * q ** ((n * n - n) // 2)
    degrees = g.degrees()
    unit_count = int(np.count_nonzero((ring.diagonal != 0).all(axis=1)))
    expected = {"degree_min": formula, "degree_max": formula, "unit_count": formula}
    computed = {"degree_min": int(degrees.min()), "degree_max": int(degrees.max()),
                "unit_count": unit_count}
    return expected, computed, {"vertices": g.vertex_count}


@_check("prop1", "prop1.diagonal_rule")
def check_prop1(ring: RingInstance):
    """Adjacency criterion: the graph, built by the unit-difference rule,
    has an edge exactly where all diagonal entries differ, on every pair."""
    g = ring.graph
    agree = True
    for rows in row_blocks(g.vertex_count):
        block = g.rows(rows)
        differs_everywhere = np.ones_like(block)
        for col in ring.diagonal.T:
            differs_everywhere &= col[rows, None] != col
        agree &= np.array_equal(block, differs_everywhere)
    pairs = ring.spec.order * (ring.spec.order - 1) // 2
    return {"rules_agree": True}, {"rules_agree": agree}, {"pairs_checked": pairs}


@_check("theorem1", "theorem1.gf2_components", gf2=True)
def check_theorem1(ring: RingInstance):
    """Two-element field: 2^(n-1) components, each complete bipartite
    K_{m,m} with m = 2^(n(n-1)/2), the parts being two diagonal classes
    whose diagonals are complementary."""
    n = ring.spec.n
    g, diag = ring.graph, ring.diagonal
    comps = connected_components(g)
    m = 2 ** (n * (n - 1) // 2)

    certificate_comps = []
    for comp, parts in zip(comps, complete_bipartite_parts(g)):
        entry = {"size": len(comp)}
        if parts is None:
            entry["complete_bipartite"] = False
        else:
            diag_a, diag_b = (diag[part] for part in parts)
            entry["part_sizes"] = sorted(len(part) for part in parts)
            single_class = (diag_a == diag_a[0]).all() and (diag_b == diag_b[0]).all()
            if single_class:
                entry["diagonals"] = [diag_a[0].tolist(), diag_b[0].tolist()]
            entry["parts_are_complementary_diagonal_classes"] = bool(
                single_class and (diag_a[0] != diag_b[0]).all()
                and len(diag_a) == len(diag_b) == m)
        certificate_comps.append(entry)
    components_ok = all(entry.get("parts_are_complementary_diagonal_classes", False)
                        for entry in certificate_comps)

    expected = {"components": 2 ** (n - 1), "all_components_k_mm": True, "m": m}
    computed = {"components": len(comps), "all_components_k_mm": components_ok, "m": m}
    return expected, computed, {"components": certificate_comps}


@_check("connectivity", "theorem2.connectivity_diameter", gf2=False)
def check_connectivity_and_diameter(ring: RingInstance):
    """q > 2: the graph is connected with diameter exactly 2.  The
    certificate carries one non-adjacent pair and an explicit midpoint
    (diagonal avoiding both, zero off-diagonal) adjacent to both: 0 and its
    first non-neighbour, the first such pair of a vertex-transitive graph."""
    spec, g = ring.spec, ring.graph
    comps = connected_components(g)
    diam = largest_finite_distance(distances_from_0(g))

    certificate = {}
    row0 = g.rows(slice(0, 1))[0]
    if not row0[1:].all():
        w = int(np.argmin(row0[1:])) + 1
        da, db = ring.diagonal[0], ring.diagonal[w]
        free = [next(e for e in range(spec.q) if e not in xy) for xy in zip(da, db)]
        mid = _diagonal_matrix_encoding(spec, free)
        certificate = {
            "nonadjacent_pair": [0, w],
            "midpoint": mid,
            "midpoint_adjacent_to_both": bool(g.rows([mid])[0, [0, w]].all()),
        }
    expected = {"components": 1, "diameter": 2, "midpoint_ok": True}
    computed = {"components": len(comps), "diameter": diam,
                "midpoint_ok": certificate.get("midpoint_adjacent_to_both", False)}
    return expected, computed, certificate


@_check("triameter", "triameter.value", gf2=False)
def check_triameter(ring: RingInstance):
    """q > 2: the triameter is exactly 6.  Also verifies the diagonal-matrix
    witness triple diag(a,a,...), diag(a,b,...), diag(a,c,...) attains
    2+2+2."""
    spec, g = ring.spec, ring.graph
    value, triple = triametral_triple(g)
    # built after the search's own reader is gone, so one window table at a time
    distances = distance_rows(g)  # distances([x])[0, y] = d(x, y)

    a, b, c = 0, 1, 2
    d1 = _diagonal_matrix_encoding(spec, [a] * spec.n)
    d2 = _diagonal_matrix_encoding(spec, [a] + [b] * (spec.n - 1))
    d3 = _diagonal_matrix_encoding(spec, [a] + [c] * (spec.n - 1))
    witness_sum = sum(int(distances([x])[0, y])
                      for x, y in ((d1, d2), (d1, d3), (d2, d3)))

    expected = {"triameter": 6, "diagonal_witness_sum": 6}
    computed = {"triameter": value, "diagonal_witness_sum": witness_sum}
    certificate = {
        "triametral_triple": list(triple),
        "pairwise": [int(distances([triple[i]])[0, triple[j]])
                     for i, j in ((0, 1), (0, 2), (1, 2))],
        "diagonal_witness": [d1, d2, d3],
    }
    return expected, computed, certificate


@_check("clique", "clique.value")
def check_clique(ring: RingInstance):
    """The clique number equals q: the q scalar matrices diag(a,...,a) are
    pairwise adjacent, and no edge joins two vertices with the same first
    diagonal entry (every pair checked), so those q classes cap omega at q.
    Only if either fails does exact search (max_clique) decide."""
    spec, g = ring.spec, ring.graph
    q = spec.q
    scalars = [_diagonal_matrix_encoding(spec, [a] * spec.n) for a in range(q)]
    among = g.rows(scalars)[:, scalars]
    scalars_adjacent = bool(among[np.triu_indices(q, 1)].all())
    d1, independent = ring.diagonal[:, 0], True
    for s in row_blocks(g.vertex_count):
        eq = d1[s, None] == d1
        eq &= g.rows(s)
        independent &= not eq.any()
    found = scalars if scalars_adjacent and independent else max_clique(g)
    expected = {"clique_number": q, "scalar_clique_ok": True}
    computed = {"clique_number": len(found), "scalar_clique_ok": scalars_adjacent}
    return expected, computed, {"scalar_clique": scalars, "found_clique": found}


def theorem3_relabeling(spec: RingSpec, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """The structural bijection phi, as a read-only int64 array indexed by
    vertex: matrix -> (strict-upper encoding) * q^n + (diagonal encoding),
    the base-q number whose low n digits are the diagonal.  Maps
    Cayley-graph vertices onto vertices of K_m (bullet) A(H(n, q)) in
    product order.  It only reorders the entry slots, so it permutes the
    digit slots of (R, +) = Z_p**(k n(n+1)/2) and is additive."""
    q, n = spec.q, spec.n
    slots = list(diagonal_slots(n) + strict_upper_slots(n))
    digits = entry_digit_matrix(spec, cap)[:, slots]
    perm = digits @ q ** np.arange(len(slots), dtype=np.int64)
    perm.flags.writeable = False
    return perm


@_check("theorem3", "theorem3.semistrong_product", gf2=False, seeded=True)
def check_theorem3(ring: RingInstance, seed: int):
    """q > 2: the Cayley graph equals K_m (bullet) A(H(n,q)) as a labeled
    graph after the structural relabeling phi, m = q^(n(n-1)/2), on every
    vertex pair of the product's row rule (semistrong_rows).  phi permutes
    digit slots, so it is additive and maps Cay(R, U) onto Cay(R, phi(U)):
    the relabeled rows, in product order, are one group_reader of phi(U), U
    being row 0 (the unit mask; see Graph._cayley).  Row sums and a BFS
    forest of the product cross-check degrees, edges and components; 100
    seeded pairs are read off g.rows at phi; the isomorphism oracle
    confirms small instances."""
    spec, g, cap = ring.spec, ring.graph, ring.cap
    q, n = spec.q, spec.n
    m = q ** (n * (n - 1) // 2)
    factors = complete_graph(m, cap), ring.antipodal_hamming
    rows = semistrong_rows(*factors)
    perm = theorem3_relabeling(spec, cap)
    v = g.vertex_count
    if v != m * q ** n or not (np.bincount(perm, minlength=v) == 1).all():
        raise AssertionError("relabeling is not onto the product vertex set")
    u = np.empty(v, dtype=bool)
    u[perm] = g.rows(slice(0, 1))[0]
    relabeled = group_reader(spec.group, u)
    degrees = np.empty(v, dtype=np.intp)  # of the product, in its vertex order
    pairwise_equal = True
    for s in row_blocks(v):
        block = rows(s)
        degrees[s] = row_counts(block)
        pairwise_equal &= np.array_equal(block, relabeled(s))

    edges = g.edge_count()
    degrees_equal = np.array_equal(np.sort(g.degrees()), np.sort(degrees))
    edges_equal = edges == int(degrees.sum()) // 2
    components_equal = len(connected_components(g)) == bfs_forest(rows, degrees > 0)[0]

    iso_confirmed = None
    if v <= ISO_ORACLE_CAP:
        iso_confirmed = iso_check(g, semistrong_product(*factors, cap)) is not None

    rng = random.Random(seed)
    x, y = np.array([(rng.randrange(v), rng.randrange(v)) for _ in range(100)]).T
    spot_ok = np.array_equal(g.rows(x)[np.arange(100), y],
                             rows(perm[x])[np.arange(100), perm[y]])

    expected = {"pairwise_equal": True, "degree_sequences_equal": True,
                "edge_counts_equal": True, "component_counts_equal": True,
                "spot_pairs_ok": True,
                "iso_oracle": True if iso_confirmed is not None else None}
    computed = {"pairwise_equal": pairwise_equal,
                "degree_sequences_equal": bool(degrees_equal),
                "edge_counts_equal": bool(edges_equal),
                "component_counts_equal": bool(components_equal),
                "spot_pairs_ok": bool(spot_ok),
                "iso_oracle": iso_confirmed}
    certificate = {"m": m, "hamming_vertices": q ** n,
                   "pairs_checked": v * (v - 1) // 2,
                   "edge_count": edges,
                   "phi": perm.tolist()}
    return expected, computed, certificate


@_check("quotient", "quotient.antipodal_hamming")
def check_quotient(ring: RingInstance):
    """The diagonal-class quotient equals the direct all-coordinates-differ
    Hamming companion, vertex for vertex (any q, including q = 2, where
    both are perfect matchings)."""
    quotient = diagonal_quotient(ring.spec, ring.cap)
    direct = ring.antipodal_hamming
    equal = labeled_equal(quotient, direct) and quotient.labels == direct.labels
    return ({"labeled_equal": True}, {"labeled_equal": bool(equal)},
            {"vertices": quotient.vertex_count})


@_check("zn", "zn.baselines", kind="zn")
def check_zn_oracles(ring: RingInstance):
    """Known facts about C_{Z_n} used as independent regressions: complete
    for prime n, complete bipartite with equal parts for n = 2^s, bipartite
    for even n, and always regular of degree |units|, counted on every row
    of g.rows a block at a time (g.degrees() reads the mask): no fill."""
    m, g = ring.spec.modulus, ring.graph
    units = int(unit_mask(ring.spec, ring.cap).sum())
    degrees = np.concatenate([row_counts(g.rows(s)) for s in row_blocks(m)])

    expected = {"degree": units}
    computed = {"degree": int(degrees.min()) if int(degrees.min()) == int(degrees.max())
                else sorted(set(int(d) for d in degrees))}
    certificate = {"units": units}
    if is_prime(m):
        expected["complete"] = True
        # A Graph is symmetric and loop-free, so degree m - 1 everywhere is K_m.
        computed["complete"] = bool((degrees == m - 1).all())
    if m & (m - 1) == 0:  # power of two
        expected["bipartition_sizes"] = [m // 2, m // 2]
        parts = is_complete_bipartite(g)
        computed["bipartition_sizes"] = None if parts is None else sorted(map(len, parts))
        if parts is not None:
            certificate["parts"] = list(parts)
    if m % 2 == 0:
        expected["bipartite"] = True
        computed["bipartite"] = is_bipartite(g)
    return expected, computed, certificate


# -- suite orchestration ---------------------------------------------------

DEFAULT_SUITE_SPECS = (
    RingSpec.triangular(2, 2, 1),
    RingSpec.triangular(3, 2, 1),
    RingSpec.triangular(4, 2, 1),
    RingSpec.triangular(2, 3, 1),
    RingSpec.triangular(3, 3, 1),
    RingSpec.triangular(2, 2, 2),
    RingSpec.triangular(2, 5, 1),
)


def checks_for(spec: RingSpec) -> list:
    """Names of the checks applicable to a spec, in declaration order."""
    return [name for name, (kind, gf2, _, _) in _REGISTRY.items()
            if kind == spec.kind and (gf2 is None or gf2 == (spec.q == 2))]


def run_check(name: str, spec: RingSpec, cap: int = DEFAULT_VERTEX_CAP,
              seed: int = 0) -> Verdict:
    """Run one named check; errors become failed Verdicts, not exceptions."""
    return _run(name, RingInstance(spec, cap), seed)


def _run(name: str, ring: RingInstance, seed: int) -> Verdict:
    started = time.perf_counter()
    try:
        return _measure(name, ring, seed)
    except UctError as exc:
        return Verdict(claim_id=CLAIM_IDS[name], spec=str(ring.spec),
                       expected="no error", computed=f"{type(exc).__name__}: {exc}",
                       passed=False, certificate={"error": str(exc)},
                       millis=(time.perf_counter() - started) * 1000.0)


def _run_spec(spec: RingSpec, cap: int, seed: int) -> list:
    if spec.order > cap:
        return [Verdict(claim_id="build.cayley_graph", spec=str(spec),
                        expected=f"at most {cap} vertices",
                        computed=f"RingTooLarge: {spec.order} elements",
                        passed=False,
                        certificate={"error": "RingTooLarge", "order": spec.order},
                        millis=0.0)]
    names = checks_for(spec)
    ring = RingInstance(spec, cap, stored=len(names) > 1)
    return [_run(name, ring, seed) for name in names]


def run_suite(specs=None, cap: int = DEFAULT_VERTEX_CAP, seed: int = 0) -> list:
    """Run every applicable check for each spec, one spec after another;
    the verdict list keeps spec order, then check order."""
    if specs is None:
        specs = DEFAULT_SUITE_SPECS
    return [v for spec in specs for v in _run_spec(spec, cap, seed)]


def report_json(verdicts) -> str:
    """Stable JSON report; `millis` is the only timing field, every other
    field is byte-stable for fixed (spec, seed)."""
    return json.dumps({"verdicts": [v.to_json() for v in verdicts]}, indent=2) + "\n"
