#!/usr/bin/env python3
"""Run every workload for several seeds and report how steady each metric is.

    python3 perfbench/sweep.py --rounds 10

Round r runs each workload once, with seed ``--first-seed + r``, through
run.py exactly as a single run would.  Workloads are interleaved round-robin,
so slow drift of the host lands on every workload alike instead of on
whichever ran last.  For each workload and end-to-end metric it prints the
median of the per-run values, their quartile spread as a share of the median
(statistics.quantiles, n=4) beside the metric's bound, and the pooled
per-sample median and high percentile with the sample count.  Exits 1 if any
run failed or reported an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from run import high_percentile, records_path  # noqa: E402

SAMPLE_FIELDS = ("wall_s", "setup_s", "peak_rss_mb")


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    with open(records_path(workload, seed, 0)) as fh:
        records = json.load(fh)["records"]
    return json.loads(lines[-1]), records


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: [] for w in workloads}
    samples = {w: {name: [] for name in SAMPLE_FIELDS} for w in workloads}
    ok = True
    for r in range(args.rounds):
        seed = args.first_seed + r
        for w in workloads:
            outcome = one_run(w, seed, seconds)
            if outcome is None:
                print(f"{w:<14} seed {seed:<4} FAILED")
                ok = False
                continue
            result, records = outcome
            ok &= result["correct"]
            runs[w].append(result)
            for rec in records:
                for name in SAMPLE_FIELDS:
                    if name in rec and (name == "setup_s"
                                        or rec["mode"] == "sample"):
                        samples[w][name].append(rec[name])
            values = "  ".join(f"{k} {v['value']:.4f}"
                               for k, v in result["metrics"].items())
            print(f"{w:<14} seed {seed:<4} {values}  "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)

    print()
    print(f"{'workload':<14}{'metric':<13}{'unit':<6}{'median':>10}"
          f"{'spread':>8}{'bound':>7}  {'pooled median':>13}  "
          f"{'high pct':<16}n")
    for w in workloads:
        if not runs[w]:
            continue
        for m in bench["end_to_end"]:
            vals = [res["metrics"][m["name"]]["value"] for res in runs[w]]
            sp = f"{spread(vals):8.4f}" if len(vals) >= 2 else f"{'-':>8}"
            pooled = samples[w][m["name"]]
            hp = high_percentile(pooled)
            hp_text = "n/a (n < 11)" if hp is None else f"p{hp[0]} {hp[1]:.4f}"
            print(f"{w:<14}{m['name']:<13}{m['unit']:<6}"
                  f"{statistics.median(vals):>10.4f}{sp}{m['bound']:>7}  "
                  f"{statistics.median(pooled):>13.4f}  {hp_text:<16}"
                  f"{len(pooled)}")
        attempted = sum(res["attempted"] for res in runs[w])
        failed = sum(res["failed"] for res in runs[w])
        print(f"{w:<14}{'failed_ratio':<13}{'ratio':<6}"
              f"{failed / attempted:>10.4f}{'':>15}  "
              f"{f'{failed}/{attempted} ops':>13}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
