"""End-to-end CLI behavior: flags, formats, exit codes, report schema."""

import json
import os
import resource
import subprocess
import sys

import pytest

import uct
from uct.cli import main
from uct.graphio import from_json_envelope, read_edge_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field", "info", "--p", "2", "--k", "2")
    assert code == 0
    assert "q=4" in out
    assert "modulus=1,1,1" in out


def test_field_info_table(capsys):
    code, out, _ = run_cli(capsys, "field", "info", "--p", "3", "--k", "1",
                           "--table")
    assert code == 0
    rows = [line for line in out.splitlines() if "," in line and "=" not in line]
    assert rows == ["0,0,0", "0,1,2", "0,2,1"]


def test_build_edges_counts(capsys, tmp_path):
    out_file = tmp_path / "g.edges"
    code, _, err = run_cli(capsys, "build", "--spec", "tri:2,3,1",
                           "--format", "edges", "--out", str(out_file))
    assert code == 0
    assert "27 vertices, 162 edges" in err
    lines = out_file.read_text().splitlines()
    assert len(lines) == 162
    u, v = lines[0].split()
    assert int(u) < int(v)


def test_build_dot_k5(capsys):
    code, out, err = run_cli(capsys, "build", "--spec", "zn:5", "--format", "dot")
    assert code == 0
    assert "5 vertices, 10 edges" in err
    assert out.count(" -- ") == 10
    assert out.startswith("graph G {") and out.endswith("}\n")


@pytest.mark.parametrize("argv", [["--spec", "zn:12"], ["--spec", "tri:2,3,1"],
                                  ["--spec", "tri:2,2,2"], ["--spec", "zn:8"]])
def test_build_stdout_round_trips(capsys, argv):
    """Without --out, stdout holds the graph alone: the edge list reads back
    through read_edge_list and the JSON through from_json_envelope, each
    equal to unitary_cayley vertex for vertex."""
    g = uct.unitary_cayley(uct.RingSpec.parse(argv[1]))
    code, out, err = run_cli(capsys, "build", *argv, "--format", "edges")
    assert code == 0
    assert err == f"{g.vertex_count} vertices, {g.edge_count()} edges\n"
    assert uct.labeled_equal(read_edge_list(out, g.vertex_count), g)
    code, out, _ = run_cli(capsys, "build", *argv, "--format", "json")
    assert code == 0
    back = from_json_envelope(json.loads(out))
    assert uct.labeled_equal(back, g) and back.labels == g.labels


def test_build_json(capsys, tmp_path):
    out_file = tmp_path / "g.json"
    code, _, _ = run_cli(capsys, "build", "--spec", "zn:6", "--format", "json",
                         "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["vertex_count"] == 6
    assert len(payload["edges"]) == 6


@pytest.mark.parametrize("command", ["build", "invariants"])
def test_over_cap_spec_exits_3(capsys, command):
    code, out, err = run_cli(capsys, command, "--spec", "tri:9,2,1")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["build"],
    ["invariants"],
    ["build", "--ring", "tri", "--n", "2", "--p", "3"],
    ["invariants", "--ring", "zn", "--modulus", "8"],
    ["build", "--spec", "tri:2,3,1", "--modulus", "7"],
    ["invariants", "--spec", "zn:8", "--n", "5", "--k", "9"],
])
def test_ring_flags_are_gone_and_spec_is_required(capsys, argv):
    """build and invariants name a ring by --spec alone: a missing --spec
    and any of the old --ring/--n/--p/--k/--modulus flags are usage errors."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("spec", ["tri:2,3,1", "tri:2,2,2", "zn:8", "zn:12"])
def test_invariants_spec_matches_the_generic_path(capsys, spec):
    """invariants --spec reads RingInstance's d0 and the triples through 0;
    the generic all-pairs invariants of unitary_cayley give the same values
    on connected rings."""
    g = uct.unitary_cayley(uct.RingSpec.parse(spec))
    code, out, _ = run_cli(capsys, "invariants", "--spec", spec)
    assert code == 0
    assert json.loads(out) == {"degree": int(g.degrees().max()),
                               "components": 1,
                               "diameter": uct.diameter(g),
                               "triameter": uct.triameter(g),
                               "clique": uct.clique_number(g)}


def test_invariants_connected(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--spec", "tri:2,3,1")
    assert code == 0
    assert json.loads(out) == {"degree": 12, "components": 1, "diameter": 2,
                               "triameter": 6, "clique": 3}


def test_invariants_read_no_all_pairs_distances(capsys, monkeypatch):
    """The diameter and triameter of a q > 2 ring come from d0 and the
    difference table, never from the generic all-pairs search."""
    import uct.graph_core as graph_core

    def refuse(g):
        raise AssertionError("all_pairs_distances called")
    monkeypatch.setattr(graph_core, "all_pairs_distances", refuse)
    code, out, _ = run_cli(capsys, "invariants", "--spec", "tri:3,3,1")
    assert code == 0
    assert json.loads(out) == {"degree": 216, "components": 1, "diameter": 2,
                               "triameter": 6, "clique": 3}


def test_invariants_disconnected(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--spec", "tri:3,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 8
    assert payload["components"] == 4
    assert payload["diameter"] == "undefined: disconnected"
    assert payload["triameter"] == "undefined: disconnected"
    assert payload["clique"] == 2


def test_invariants_zn(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--spec", "zn:8")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"degree": 4, "components": 1, "diameter": 2,
                       "triameter": 6, "clique": 2}


def test_invariants_text_format(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--spec", "zn:5",
                           "--format", "text")
    assert code == 0
    assert "degree 4" in out
    assert "clique 5" in out


def test_verify_single_spec(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--spec", "tri:2,3,1",
                           "--out", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert len(payload["verdicts"]) == 7
    assert all(v["pass"] for v in payload["verdicts"])
    assert err.count("PASS") == 7


def test_verify_default_suite(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--out", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    specs = {v["spec"] for v in payload["verdicts"]}
    assert specs == {"tri:2,2,1", "tri:3,2,1", "tri:4,2,1", "tri:2,3,1",
                     "tri:3,3,1", "tri:2,2,2", "tri:2,5,1"}
    assert all(v["pass"] for v in payload["verdicts"])


def test_verify_inapplicable_check_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--spec", "tri:2,2,1",
                           "--check", "theorem3")
    assert code == 2
    assert "not applicable" in err


def test_verify_named_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--spec", "tri:2,3,1",
                           "--check", "triameter")
    assert code == 0
    payload = json.loads(out)
    assert [v["claim_id"] for v in payload["verdicts"]] == ["triameter.value"]


def test_verify_bad_spec_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "--spec", "tri:banana")
    assert code == 2


def test_verify_over_cap_spec_exits_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--spec", "tri:9,2,1")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdicts"][0]["certificate"]["error"] == "RingTooLarge"


def test_verify_zn_spec(capsys):
    code, out, _ = run_cli(capsys, "verify", "--spec", "zn:8")
    assert code == 0
    payload = json.loads(out)
    assert [v["claim_id"] for v in payload["verdicts"]] == ["zn.baselines"]


def test_verify_output_is_stable_modulo_millis(capsys, tmp_path):
    reports = []
    for name in ["a.json", "b.json"]:
        path = tmp_path / name
        assert run_cli(capsys, "verify", "--spec", "tri:2,3,1", "--seed", "3",
                       "--out", str(path))[0] == 0
        payload = json.loads(path.read_text())
        for v in payload["verdicts"]:
            v.pop("millis")
        reports.append(json.dumps(payload, sort_keys=True))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("threads", ["2", "0", "-1"])
def test_verify_threads_other_than_1_exits_2(capsys, threads):
    """Specs run one after another: --threads stays only as --threads 1,
    and any other value is a usage error, with no report written."""
    code, out, err = run_cli(capsys, "verify", "--spec", "tri:2,3,1",
                             "--threads", threads)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_threads_1_is_the_default_run(capsys):
    def report(*extra):
        code, out, _ = run_cli(capsys, "verify", "--spec", "tri:2,3,1", *extra)
        verdicts = json.loads(out)["verdicts"]
        for v in verdicts:
            v.pop("millis")
        return code, verdicts
    assert report("--threads", "1") == report() and report()[0] == 0


def test_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("UCT_VERTEX_CAP", "10")
    code, _, _ = run_cli(capsys, "build", "--spec", "zn:12")
    assert code == 3
    monkeypatch.setenv("UCT_VERTEX_CAP", "12")
    code, _, _ = run_cli(capsys, "build", "--spec", "zn:12")
    assert code == 0


def test_cap_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("UCT_VERTEX_CAP", "10")
    code, _, _ = run_cli(capsys, "build", "--spec", "zn:12", "--cap", "20")
    assert code == 0


def test_cap_above_hard_ceiling_exits_2(capsys):
    code, _, _ = run_cli(capsys, "build", "--spec", "zn:5", "--cap", str(2 ** 21))
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_failed_verdicts_exit_1(capsys, monkeypatch):
    import uct.cli as cli_mod

    def fake_suite(specs, cap, seed):
        from uct.theorem_checker import Verdict
        return [Verdict(claim_id="x", spec="tri:2,3,1", expected=1, computed=2,
                        passed=False, certificate={}, millis=0.0)]

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    code, _, err = run_cli(capsys, "verify", "--spec", "tri:2,3,1")
    assert code == 1
    assert "FAIL" in err


RESOURCE_ERRORS = {"RingTooLarge", "GraphTooLarge", "FieldTooLarge",
                   "GraphTooLargeForOracle", "MemoryError"}
ERROR_TYPES = [cls for cls in vars(uct.errors).values()
               if isinstance(cls, type) and issubclass(cls, uct.errors.UctError)]


@pytest.mark.parametrize("error", ERROR_TYPES + [MemoryError, ValueError],
                         ids=lambda cls: cls.__name__)
def test_error_exit_codes(capsys, monkeypatch, error):
    """Every package error, MemoryError and ValueError ends in one error
    line: exit 3 for a resource limit, 2 for everything else."""
    import uct.cli as cli_mod

    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli_mod, "cmd_field_info", fail)
    code, out, err = run_cli(capsys, "field", "info", "--p", "2")
    assert code == (3 if error.__name__ in RESOURCE_ERRORS else 2)
    assert out == ""
    assert err == "error: boom\n"



def test_import_does_not_load_scipy():
    """scipy is imported on first use by the per-source distance search, its
    one caller, so importing uct leaves scipy.sparse unloaded."""
    src = os.path.dirname(os.path.dirname(uct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, uct; sys.exit('scipy.sparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["build", "--spec", "tri:2,4,1"],
    ["verify", "--spec", "tri:2,4,1"],
    ["field", "info", "--p", "4"],
    ["invariants", "--spec", "tri:2,4,1"],
])
def test_non_prime_p_is_a_usage_error(argv):
    src = os.path.dirname(os.path.dirname(uct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "uct", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error:") and "not prime" in proc.stderr


def test_verify_field_over_cap_exits_3():
    """A field above the cap is a resource limit, as for build and
    invariants: no verdicts, one error line."""
    src = os.path.dirname(os.path.dirname(uct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "uct", "verify", "--spec",
                           "tri:2,67,1", "--cap", str(2 ** 20)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error:") and "field cap" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["field", "info", "--p", "1000000000000000003"],
    ["verify", "--spec", "tri:2,1000000000000000003,1"],
    ["field", "info", "--p", "2", "--k", "1000000000"],
    ["verify", "--spec", "tri:3000,2,1"],
    ["build", "--spec", "tri:3000,2,1"],
    ["verify", "--spec", "tri:100000,2,1"],
    ["invariants", "--spec", "tri:3000,2,1"],
    ["build", "--spec", "tri:2,1000000000000000003,1"],
    ["invariants", "--spec", "tri:2,1000000000000000003,1"],
])
def test_huge_sizes_exit_3_without_arithmetic_on_them(argv):
    """Caps are checked before primality tests and before any power is
    formed: a huge prime p, p**k or ring order is one error line at once,
    not a trial division, a power with a billion digits or its printing."""
    src = os.path.dirname(os.path.dirname(uct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "uct", *argv], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error:")


def run_tri_3_7_1_capped(argv):
    """`uct ARGV --spec tri:3,7,1 --cap 1048576` in a subprocess whose
    address space is limited to 1.5 GB.  T_3(GF(7)) has 117649 elements,
    so its bool adjacency alone needs 13.8 GB."""
    limit = 1_500_000_000

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(uct.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "uct", *argv, "--spec",
                           "tri:3,7,1", "--cap", "1048576"], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=cap_address_space)


@pytest.mark.parametrize("argv", [["verify"], ["invariants"]])
def test_out_of_memory_exits_3(argv):
    """An allocation the address-space limit refuses is a resource error:
    exit 3 with one error line, not a traceback under exit 1.  The suite
    fills the ring graph's adjacency once, before its checks read rows,
    and the invariants' clique search packs every row into bitsets."""
    proc = run_tri_3_7_1_capped(argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert "allocate" in proc.stderr or "out of memory" in proc.stderr


def test_text_build_counts_edges_without_the_adjacency():
    """`uct build --format text` prints the edge count, V * |U| / 2 off the
    unit mask, under the same 1.5 GB limit: the 13.8 GB adjacency is
    never filled."""
    proc = run_tri_3_7_1_capped(["build", "--format", "text"])
    assert proc.returncode == 0
    assert proc.stdout == "ring tri:3,7,1\nvertices 117649\nedges 4358189556\n"
    assert proc.stderr == "117649 vertices, 4358189556 edges\n"


def test_prop0_reads_the_degrees_off_the_mask():
    """`uct verify --check prop0` passes under the same 1.5 GB limit: a
    Cayley graph's degrees are |U| at every vertex, so the 13.8 GB
    adjacency is never filled."""
    proc = run_tri_3_7_1_capped(["verify", "--check", "prop0"])
    assert proc.returncode == 0
    assert proc.stderr == "PASS prop0.regularity @ tri:3,7,1\n"
    (verdict,) = json.loads(proc.stdout)["verdicts"]
    assert verdict["computed"]["degree_min"] == 6 ** 3 * 7 ** 3


def test_lone_check_reads_rows_without_the_adjacency():
    """`uct verify --check prop1 --spec tri:5,2,1` compares every pair
    through the graph's row reader: the process peaks far below the
    32768-vertex adjacency's 1 GB, which a lone check never fills."""
    src = os.path.dirname(os.path.dirname(uct.__file__))
    code = ("import resource, sys\n"
            "from uct import cli\n"
            "code = cli.main(['verify', '--check', 'prop1', '--spec', 'tri:5,2,1'])\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
            "print(f'peak {peak:.0f} MB', file=sys.stderr)\n"
            "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, peak = proc.stderr.splitlines()
    assert status == "PASS prop1.diagonal_rule @ tri:5,2,1"
    assert float(peak.split()[1]) < 256, peak
