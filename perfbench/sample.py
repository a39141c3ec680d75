"""One benchmark sample, run as a fresh process by run.py.

    python3 perfbench/sample.py '<json job>'

The job names a mode (``setup``, ``sample`` or ``trace``), the workload,
the seed and the monotonic time at which the parent spawned this process.
The result is one JSON object on the last line of standard output.
"""

import time  # first, so nothing else delays the clock the parent shares

import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REF_LOOP_ITERATIONS = 4_000_000


def ref_loop_s() -> float:
    """A fixed pure-Python loop: a gauge of how fast the host runs now."""
    started = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERATIONS):
        acc ^= i
    return time.perf_counter() - started


def host_info(np, scipy) -> dict:
    return {"ref_loop_s": ref_loop_s(), "loadavg": list(os.getloadavg()),
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(job) -> dict:
    import numpy as np
    import scipy
    import scipy.sparse.csgraph  # noqa: F401  (part of what uct needs ready)
    import uct
    import uct.cli  # noqa: F401
    ready = time.monotonic()
    result = {"setup_s": ready - job["spawned"]}
    if not os.path.realpath(uct.__file__).startswith(os.path.realpath(SRC)):
        raise RuntimeError(f"uct imported from {uct.__file__}, not {SRC}")
    if job["mode"] == "setup":
        return result

    import layers
    import workloads
    workload, seed = job["workload"], job["seed"]
    attempted = workloads.operations_per_sample(workload)
    digest = None
    if job["mode"] == "trace":
        run_id = f"{workload}-seed{seed}-pid{os.getpid()}"
        tr, attempted, failures = layers.trace_workload(workload, seed, run_id)
        result["metrics"] = layers.layer_metrics(tr, job["metrics"])
        os.makedirs(os.path.dirname(job["spans_file"]), exist_ok=True)
        with open(job["spans_file"], "w") as fh:
            json.dump({"run_id": run_id, "spans": tr.spans}, fh)
    else:
        started = time.monotonic()
        try:
            if workload == "library":
                attempted, failures = layers.run_library(layers.NullTracer(),
                                                         seed)
            else:
                attempted, failures, report = layers.run_verify(
                    workloads.workload_specs(workload), seed)
                digest = workloads.report_digest(report)
        except Exception:
            failures = [traceback.format_exc()] * attempted
        result["wall_s"] = time.monotonic() - started
    result.update(attempted=attempted, failed=min(attempted, len(failures)),
                  failures=failures[:5], report_sha256=digest,
                  peak_rss_mb=peak_rss_mb(), host=host_info(np, scipy))
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    outcome = main(job)
    sys.stdout.write(json.dumps(outcome) + "\n")
