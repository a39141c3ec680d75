"""Self-tests of the benchmark: exact counts, the oracle, span arithmetic
and the names it reports.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from uct.constructors import unitary_cayley  # noqa: E402
from uct.tri_ring import RingSpec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


@pytest.mark.parametrize("spec, vertices, edges, pairs", [
    ("tri:3,3,1", 729, 78732, 265356),
    ("tri:4,2,1", 1024, 32768, 1024 * 1023 // 2),
    ("zn:2048", 2048, 1048576, 2048 * 2047 // 2),
])
def test_exact_counts(spec, vertices, edges, pairs):
    counts = workloads.graph_counts(unitary_cayley(RingSpec.parse(spec)))
    assert counts == {"vertices": vertices, "edges": edges, "pairs": pairs}


def test_closed_forms_match_counts():
    s = workloads.parse_spec("tri:3,3,1")
    assert s["order"] * workloads.tri_degree(s["n"], s["q"]) // 2 == 78732
    assert workloads.zn_unit_count(2048) == 1024
    assert workloads.zn_unit_count(4093) == 4092


SMALL_SPECS = ("tri:2,2,1", "tri:2,3,1", "zn:8", "zn:7", "zn:12")


@pytest.fixture(scope="module")
def report():
    return layers.run_verify(SMALL_SPECS, seed=0, threads=1)[2]


def _verdict(rep, claim_id, spec):
    return next(v for v in rep["verdicts"]
                if v["claim_id"] == claim_id and v["spec"] == spec)


def test_oracle_accepts_the_real_report(report):
    attempted, failures = workloads.check_report(report, SMALL_SPECS)
    assert failures == []
    assert attempted == sum(len(workloads.paper_values(s)) for s in SMALL_SPECS)


def test_oracle_flags_a_doctored_value(report):
    doctored = copy.deepcopy(report)
    _verdict(doctored, "clique.value", "tri:2,3,1")["computed"]["clique_number"] = 4
    _, failures = workloads.check_report(doctored, SMALL_SPECS)
    assert len(failures) == 1 and "clique_number" in failures[0]


def test_oracle_flags_a_missing_verdict(report):
    doctored = copy.deepcopy(report)
    doctored["verdicts"].remove(_verdict(doctored, "zn.baselines", "zn:7"))
    _, failures = workloads.check_report(doctored, SMALL_SPECS)
    assert failures == ["zn.baselines @ zn:7: verdict missing"]


def test_oracle_flags_a_failed_cross_check(report):
    doctored = copy.deepcopy(report)
    _verdict(doctored, "theorem3.semistrong_product",
             "tri:2,3,1")["computed"]["degree_sequences_equal"] = False
    _, failures = workloads.check_report(doctored, SMALL_SPECS)
    assert len(failures) == 1 and "degree_sequences_equal" in failures[0]


def test_oracle_ignores_expected_and_dropped_cross_checks(report):
    doctored = copy.deepcopy(report)
    for v in doctored["verdicts"]:
        v["expected"] = "anything"
        v["pass"] = False
    del _verdict(doctored, "theorem3.semistrong_product",
                 "tri:2,3,1")["computed"]["spot_pairs_ok"]
    assert workloads.check_report(doctored, SMALL_SPECS)[1] == []
    assert workloads.report_digest(doctored) != workloads.report_digest(report)


def test_digest_ignores_millis(report):
    doctored = copy.deepcopy(report)
    for v in doctored["verdicts"]:
        v["millis"] += 1.0
    assert workloads.report_digest(doctored) == workloads.report_digest(report)


def test_self_time_subtracts_covered_children():
    recorded = [
        {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "a", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert spans.self_times(recorded) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert spans.self_time_by_name(recorded) == {"root": 6.0, "a": 3.0,
                                                 "b": 1.0}


def test_tracer_records_nesting_and_run_id():
    tr = spans.Tracer("run-1")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert {s["run_id"] for s in tr.spans} == {"run-1"}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_replay_emits_every_per_layer_metric():
    tr = spans.Tracer("test")
    for text in ("tri:2,2,1", "tri:2,3,1", "zn:8", "zn:7"):
        replay = layers.replay_tri if text.startswith("tri") else layers.replay_zn
        with tr.span(f"layers:{text}"):
            attempted, failures = replay(tr, text)
        assert attempted > 0 and failures == []
    names = [m["name"] for m in BENCH["per_layer"]]
    metrics = layers.layer_metrics(tr, names)
    assert list(metrics) == names
    assert metrics["graph_core.all_pairs_distances_s"] > 0
    assert metrics["graph.vertices"] == 8 + 27 + 8 + 7


def test_high_percentile_leaves_ten_samples_beyond():
    assert run.high_percentile(list(range(10))) is None
    for n in (11, 20, 40, 57):
        p, value = run.high_percentile(list(range(n)))
        assert sum(1 for x in range(n) if x > value) >= 10
        assert p == 100 * (n - 10) // n


def test_names_are_well_formed():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(
        workloads.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
