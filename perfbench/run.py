#!/usr/bin/env python3
"""uct benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; uct is imported from its ``src``.  With
``--trace 0`` the run is a closed loop of one client: each sample is a fresh
process that imports uct and runs the whole workload, and samples follow one
another while the next should end within ``--seconds``.  The end-to-end metrics are
medians over the run's samples.  With ``--trace 1`` one fresh process
replays the workload's public calls with a span around each and reports the
per-layer metrics.  Either way the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-sample
records and the spans go to ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, whatever the samples do
SETUP_PERIOD_S = 2.5    # one setup_s value per this much run time ...
MIN_SETUPS = 12         # ... and at least this many in a run

sys.path.insert(0, HERE)
from workloads import WORKLOADS, operations_per_sample  # noqa: E402


def high_percentile(values):
    """(p, value): the highest percentile with at least ten samples beyond
    it, by nearest rank, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)
    return p, sorted(values)[rank - 1]


class Run:
    """Spawns sample processes for one run and keeps what they report."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.records = []

    def remaining(self):
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, mode, **extra):
        job = dict(mode=mode, workload=self.args.workload,
                   seed=self.args.seed, **extra)
        job["spawned"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sample.py"), json.dumps(job)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"mode": mode, "error": "timed out"}
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"mode": mode, "error": f"exit {proc.returncode}: "
                                           f"{err.strip()[-2000:]}"}
        record = json.loads(lines[-1])
        record["mode"] = mode
        return record

    def sample_loop(self):
        """Closed loop: the next sample starts when the previous one has
        ended, if it should end within --seconds at the pace of the last.
        Import-only spawns are interleaved between samples, so that the run
        holds one setup_s value per SETUP_PERIOD_S of its time, taken across
        the whole run rather than in one stretch of it."""
        self.spawn("setup")  # warms the file cache; not counted
        limit = min(self.args.seconds, RUN_DEADLINE_S)
        while True:
            t = time.monotonic()
            self.records.append(self.spawn("sample"))
            if "error" in self.records[-1]:
                return
            took = time.monotonic() - t
            self.spawn_setups(
                (time.monotonic() - self.started) / SETUP_PERIOD_S)
            if time.monotonic() - self.started + took > limit:
                break
        self.spawn_setups(MIN_SETUPS)

    def spawn_setups(self, target):
        """Spawns import-only processes until the run holds ``target``
        setup_s values (samples report theirs too)."""
        while len(self.setups()) < target and self.remaining() > 0:
            self.records.append(self.spawn("setup"))
            if "error" in self.records[-1]:
                return

    def setups(self):
        return [r["setup_s"] for r in self.records if "setup_s" in r]

    def tally(self):
        attempted = failed = 0
        for r in self.records:
            if r["mode"] == "setup":
                continue
            ops = r.get("attempted", operations_per_sample(self.args.workload))
            attempted += ops
            failed += r.get("failed", ops)
        return attempted, failed


def records_path(workload, seed, trace):
    return os.path.join(OUT_DIR, f"run-{workload}-seed{seed}-trace{trace}.json")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def print_failures(records):
    for r in records:
        for message in ([r["error"]] if "error" in r else r.get("failures", [])):
            print(f"FAILED ({r['mode']}): {message}", file=sys.stderr)


def end_to_end(run, bench):
    run.sample_loop()
    samples = [r for r in run.records if r["mode"] == "sample" and "error" not in r]
    values = {"wall_s": [r["wall_s"] for r in samples],
              "setup_s": run.setups(),
              "peak_rss_mb": [r["peak_rss_mb"] for r in samples]}
    attempted, failed = run.tally()
    print(f"workload {run.args.workload}  seed {run.args.seed}  "
          f"closed loop, 1 client, {len(samples)} samples")
    print(f"{'metric':<14}{'unit':<7}{'median':>10}  {'high pct':<18}n")
    metrics = {}
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        if not vals:
            continue
        med = statistics.median(vals)
        hp = high_percentile(vals)
        hp_text = "n/a (n < 11)" if hp is None else f"p{hp[0]} {hp[1]:.4f}"
        print(f"{m['name']:<14}{m['unit']:<7}{med:>10.4f}  {hp_text:<18}"
              f"{len(vals)}")
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    ratio = failed / attempted if attempted else 1.0
    print(f"{'failed_ratio':<14}{'ratio':<7}{ratio:>10.4f}  "
          f"{f'{failed}/{attempted} ops':<18}{len(samples)}")
    for r in samples:
        h = r["host"]
        print(f"sample wall_s {r['wall_s']:.4f} setup_s {r['setup_s']:.4f} "
              f"host.ref_loop_s {h['ref_loop_s']:.4f} "
              f"loadavg {h['loadavg'][0]:.2f} nproc {h['nproc']} "
              f"python {h['python']} numpy {h['numpy']} scipy {h['scipy']} "
              f"report {r['report_sha256'] or '-'}")
    complete = len(metrics) == len(bench["end_to_end"])
    return metrics, attempted, failed, complete


def per_layer(run, bench):
    names = [m["name"] for m in bench["per_layer"]]
    spans_file = os.path.join(
        OUT_DIR, f"spans-{run.args.workload}-seed{run.args.seed}.json")
    record = run.spawn("trace", metrics=names, spans_file=spans_file)
    run.records.append(record)
    attempted, failed = run.tally()
    if "error" in record:
        return {}, attempted, failed, False
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print(f"workload {run.args.workload}  seed {run.args.seed}  traced, "
          f"--threads 1, spans in {os.path.relpath(spans_file, ROOT)}")
    metrics = {}
    for name in names:
        value = record["metrics"][name]
        print(f"{name:<44}{units[name]:<7}{value:>14.4f}")
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics, attempted, failed, True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "uct", "__init__.py")):
        print(f"error: no uct sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    run = Run(args)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, complete = measure(run, bench)
    print_failures(run.records)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(records_path(args.workload, args.seed, args.trace), "w") as fh:
        json.dump({"args": vars(args), "records": run.records}, fh, indent=1)
    if not complete or attempted == 0:
        print("error: no complete sample; see the messages above",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
