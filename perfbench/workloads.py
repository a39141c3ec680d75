"""Workload definitions and the benchmark's independent correctness oracle.

This module imports nothing from ``uct``: the expected value of every claim
is recomputed here from the paper's closed forms, so a defect in the
program cannot also hide in its own ``expected`` field.
"""

from __future__ import annotations

import hashlib
import json
import math

# The seven specs of the built-in default suite, written out so that a change
# to the program's defaults does not silently change the workload.
DEFAULT_SUITE = ("tri:2,2,1", "tri:3,2,1", "tri:4,2,1", "tri:2,3,1",
                 "tri:3,3,1", "tri:2,2,2", "tri:2,5,1")

VERIFY_SPECS = DEFAULT_SUITE + ("tri:2,3,2", "tri:2,2,3", "tri:2,7,1")
SPARSE_ORACLE_SPECS = ("tri:4,2,1", "zn:2048", "zn:3000", "zn:4093")
LIBRARY_HAMMING = ((12, 2), (6, 4))
LIBRARY_ROUND_TRIP = "tri:2,3,2"

WORKLOADS = ("verify", "sparse-oracle", "library")

# CLI check name -> claim id of the verdict it produces, in report order.
CLAIMS = {
    "prop0": "prop0.regularity",
    "prop1": "prop1.diagonal_rule",
    "theorem1": "theorem1.gf2_components",
    "connectivity": "theorem2.connectivity_diameter",
    "triameter": "triameter.value",
    "clique": "clique.value",
    "theorem3": "theorem3.semistrong_product",
    "quotient": "quotient.antipodal_hamming",
    "zn": "zn.baselines",
}


def workload_specs(workload: str) -> tuple:
    """Ring specs a verify-style workload passes to ``uct verify``."""
    return {"verify": VERIFY_SPECS,
            "sparse-oracle": SPARSE_ORACLE_SPECS}.get(workload, ())


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def parse_spec(text: str) -> dict:
    """``tri:N,P,K`` or ``zn:M`` as a dict with the derived sizes."""
    kind, _, rest = text.partition(":")
    if kind == "tri":
        n, p, k = (int(x) for x in rest.split(","))
        q = p ** k
        return {"kind": "tri", "n": n, "p": p, "k": k, "q": q,
                "order": q ** (n * (n + 1) // 2)}
    if kind == "zn":
        m = int(rest)
        return {"kind": "zn", "m": m, "order": m}
    raise ValueError(f"bad spec {text!r}")


def tri_degree(n: int, q: int) -> int:
    """Number of units of T_n(GF(q)): every vertex degree."""
    return (q - 1) ** n * q ** (n * (n - 1) // 2)


def zn_unit_count(m: int) -> int:
    return sum(1 for x in range(m) if math.gcd(x, m) == 1)


def paper_values(text: str) -> dict:
    """claim id -> the ``computed`` entries the paper fixes for this spec."""
    s = parse_spec(text)
    if s["kind"] == "zn":
        m = s["m"]
        zn = {"degree": zn_unit_count(m)}
        if is_prime(m):
            zn["complete"] = True                        # K_p
        if m & (m - 1) == 0:
            zn["bipartition_sizes"] = [m // 2, m // 2]   # equal halves
        return {CLAIMS["zn"]: zn}
    n, q = s["n"], s["q"]
    deg = tri_degree(n, q)
    values = {
        CLAIMS["prop0"]: {"degree_min": deg, "degree_max": deg,
                          "unit_count": deg},
        CLAIMS["prop1"]: {"rules_agree": True},
        CLAIMS["clique"]: {"clique_number": q, "scalar_clique_ok": True},
        CLAIMS["quotient"]: {"labeled_equal": True},
    }
    if q == 2:
        values[CLAIMS["theorem1"]] = {"components": 2 ** (n - 1),
                                      "all_components_k_mm": True,
                                      "m": 2 ** (n * (n - 1) // 2)}
    else:
        values[CLAIMS["connectivity"]] = {"components": 1, "diameter": 2,
                                          "midpoint_ok": True}
        values[CLAIMS["triameter"]] = {"triameter": 6,
                                       "diagonal_witness_sum": 6}
        values[CLAIMS["theorem3"]] = {"pairwise_equal": True}
    return values


def checks_for(text: str) -> list:
    """CLI check names the program must run on a spec, in report order."""
    claims = paper_values(text)
    return [check for check, claim_id in CLAIMS.items() if claim_id in claims]


def check_computed(claim_id: str, spec: str, computed) -> list:
    """Failures of one verdict's ``computed`` against the closed forms.

    Every closed-form entry must be present and equal.  Any further boolean
    entry is a cross-check of the program's own and must not be False; an
    entry it drops or adds is allowed, so a deliberate report change shows
    in the digest without failing the run.
    """
    want = paper_values(spec)[claim_id]
    if not isinstance(computed, dict):
        return [f"{claim_id} @ {spec}: computed is {computed!r}"]
    failures = [f"{claim_id} @ {spec}: {key} = {computed.get(key)!r}, "
                f"paper says {value!r}"
                for key, value in want.items() if computed.get(key) != value]
    failures += [f"{claim_id} @ {spec}: cross-check {key} is False"
                 for key, value in computed.items()
                 if key not in want and value is False]
    return failures


def check_report(report: dict, specs) -> tuple:
    """(operations attempted, failure messages) for a verify report.

    One operation is one (claim, spec) verdict the paper fixes.  The
    report's ``expected`` and ``pass`` fields are never read.
    """
    found = {}
    for v in report.get("verdicts", []):
        found.setdefault((v.get("claim_id"), v.get("spec")), v.get("computed"))
    attempted, failures = 0, []
    for spec in specs:
        for claim_id in paper_values(spec):
            attempted += 1
            if (claim_id, spec) not in found:
                failures.append(f"{claim_id} @ {spec}: verdict missing")
            else:
                failures += check_computed(claim_id, spec,
                                           found[(claim_id, spec)])[:1]
    return attempted, failures


def report_digest(report: dict) -> str:
    """sha256 of the report with every ``millis`` field removed.  Recorded
    as information only: a deliberate report change shows without failing."""
    stripped = dict(report, verdicts=[
        {k: v for k, v in verdict.items() if k != "millis"}
        for verdict in report.get("verdicts", [])])
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()
                          ).hexdigest()


def operations_per_sample(workload: str) -> int:
    """Operations one sample of the workload attempts."""
    if workload == "library":
        return len(LIBRARY_HAMMING) + 1
    return sum(len(paper_values(s)) for s in workload_specs(workload))


def graph_counts(g) -> dict:
    """Exact vertex, edge and vertex-pair counts of a built graph."""
    v = g.vertex_count
    return {"vertices": v, "edges": g.edge_count(), "pairs": v * (v - 1) // 2}
