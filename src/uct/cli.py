"""Command-line front end.

Subcommands: ``field info``, ``build``, ``invariants``, ``verify``.
Ring-taking commands (build, invariants, verify) name a ring one way,
``--spec tri:N,P,K`` or ``--spec zn:M``, parsed by RingSpec.parse inside
the command, so a cap error raised while parsing exits 3 like any other.
Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error (a ValueError or any package error not listed under 3), 3 resource
limit (ring, graph, or field over the configured cap, a graph too large
for the isomorphism oracle, or an allocation the machine cannot hold).
Each error ends in one ``error:`` line on stderr; ERROR_EXITS is the one
table from error type to exit code.
The vertex cap comes from ``--cap`` or the UCT_VERTEX_CAP environment
variable, hard ceiling 2^20.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (FieldTooLarge, GraphTooLarge, GraphTooLargeForOracle,
                     RingTooLarge, UctError, WrongField)
from .finite_field import make_field
from .graph_core import (clique_number, connected_components, diameter,
                         triameter)
from .graphio import dot_chunks, edge_list_chunks, json_chunks
from .constructors import unitary_cayley
from .theorem_checker import CHECKS, checks_for, report_json, run_check, run_suite
from .tri_ring import DEFAULT_VERTEX_CAP, HARD_VERTEX_CAP, RingSpec

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# Error type -> exit code; the first entry the error is an instance of wins.
ERROR_EXITS = (
    ((RingTooLarge, GraphTooLarge, FieldTooLarge, GraphTooLargeForOracle,
      MemoryError), EXIT_RESOURCE),
    ((ValueError, UctError), EXIT_USAGE),
)


def _resolve_cap(args) -> int:
    cap = args.cap
    if cap is None:
        env = os.environ.get("UCT_VERTEX_CAP")
        cap = int(env) if env else DEFAULT_VERTEX_CAP
    if not 1 <= cap <= HARD_VERTEX_CAP:
        raise ValueError(f"cap must be between 1 and {HARD_VERTEX_CAP}")
    return cap


def _write_output(chunks, out):
    """Write the strings `chunks`, in order, to the file `out` or stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _add_common_flags(parser):
    parser.add_argument("--cap", type=int, default=None,
                        help=f"vertex cap (default {DEFAULT_VERTEX_CAP}, "
                             f"env UCT_VERTEX_CAP, ceiling {HARD_VERTEX_CAP})")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uct",
        description="Build unitary Cayley graphs of upper-triangular matrix "
                    "rings and Z_n, compute exact invariants, and verify "
                    "their structural identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="finite field utilities")
    field_sub = p_field.add_subparsers(dest="field_command", required=True)
    p_info = field_sub.add_parser("info", help="print field parameters")
    p_info.add_argument("--p", type=int, required=True)
    p_info.add_argument("--k", type=int, default=1)
    p_info.add_argument("--table", action="store_true",
                        help="also print the multiplication table as CSV")

    p_build = sub.add_parser("build", help="build a unitary Cayley graph")
    p_build.add_argument("--spec", required=True, metavar="SPEC",
                         help="ring spec tri:N,P,K or zn:M")
    p_build.add_argument("--format", choices=["json", "dot", "edges", "text"],
                         default="edges")
    _add_common_flags(p_build)

    p_inv = sub.add_parser("invariants", help="exact invariants of the graph")
    p_inv.add_argument("--spec", required=True, metavar="SPEC",
                       help="ring spec tri:N,P,K or zn:M")
    p_inv.add_argument("--format", choices=["json", "text"], default="json")
    _add_common_flags(p_inv)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--spec", action="append", default=None,
                          metavar="SPEC", help="ring spec tri:N,P,K or zn:M "
                          "(repeatable; default: the built-in suite)")
    p_verify.add_argument("--check", choices=sorted(CHECKS), default=None,
                          help="run only this check")
    p_verify.add_argument("--threads", type=int, default=None,
                          help="only 1 is accepted: specs run one after another")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized spot checks")
    _add_common_flags(p_verify)
    return parser


def cmd_field_info(args) -> int:
    f = make_field(args.p, args.k)
    print(f"q={f.q}")
    print("modulus=" + ",".join(str(c) for c in f.modulus))
    if args.table:
        for row in f.mul_table:
            print(",".join(str(int(x)) for x in row))
    return EXIT_OK


def cmd_build(args) -> int:
    cap = _resolve_cap(args)
    spec = RingSpec.parse(args.spec)
    g = unitary_cayley(spec, cap)
    print(f"{g.vertex_count} vertices, {g.edge_count()} edges", file=sys.stderr)
    if args.format == "edges":
        chunks = edge_list_chunks(g)
    elif args.format == "dot":
        chunks = dot_chunks(g)
    elif args.format == "json":
        chunks = json_chunks(g)
    else:
        chunks = [f"ring {spec}\nvertices {g.vertex_count}\nedges {g.edge_count()}\n"]
    _write_output(chunks, args.out)  # one row block's text at a time
    return EXIT_OK


def cmd_invariants(args) -> int:
    cap = _resolve_cap(args)
    g = unitary_cayley(RingSpec.parse(args.spec), cap)
    comps = connected_components(g)
    if len(comps) == 1:
        diam = diameter(g)
        triam = (triameter(g) if g.vertex_count >= 3
                 else "undefined: fewer than 3 vertices")
    else:
        diam = triam = "undefined: disconnected"
    result = {
        "degree": int(g.degrees().max()),
        "components": len(comps),
        "diameter": diam,
        "triameter": triam,
        "clique": clique_number(g),
    }
    if args.format == "json":
        text = json.dumps(result, indent=2) + "\n"
    else:
        text = "".join(f"{k} {v}\n" for k, v in result.items())
    _write_output([text], args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    cap = _resolve_cap(args)
    if args.threads not in (None, 1):
        raise ValueError(f"--threads {args.threads}: specs run one after "
                         "another, so only --threads 1 is accepted")
    specs = None
    if args.spec:
        specs = [RingSpec.parse(s) for s in args.spec]
    if args.check is not None:
        if specs is None:
            raise ValueError("--check needs explicit --spec arguments")
        for spec in specs:
            if args.check not in checks_for(spec):
                raise WrongField(
                    f"check {args.check!r} is not applicable to {spec}")
        verdicts = [run_check(args.check, spec, cap, args.seed) for spec in specs]
    else:
        verdicts = run_suite(specs, cap=cap, seed=args.seed)
    _write_output([report_json(verdicts)], args.out)
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"{status} {v.claim_id} @ {v.spec}", file=sys.stderr)
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "field":
            return cmd_field_info(args)
        if args.command == "build":
            return cmd_build(args)
        if args.command == "invariants":
            return cmd_invariants(args)
        return cmd_verify(args)
    except (UctError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for types, code in ERROR_EXITS if isinstance(exc, types))


def _entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    _entry()
