"""One pipeline run in a fresh process; prints one JSON line of results.

Usage (from the checkout root, as run.py spawns it):
    python3 perfbench/child.py --workload NAME --seed N --data DIR
        --spawned T [--trace SPANS.jsonl]

`--spawned` is the parent's time.perf_counter() just before it started this
process; perf_counter reads the system-wide monotonic clock on Linux, so
set-up time is measured from process start to the first pipeline call.
Set-up and run times are reported in reference seconds (see hostspeed.py):
set-up is rescaled by reference samples taken right after it, the run by
samples taken every 50 ms while it runs, with their own time taken out.
The raw wall times are reported next to them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from sentprofile import experiment  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 40


def report_bytes(workload, report) -> tuple[bytes, float, int]:
    """Canonical bytes, best mean accuracy (over all cells of a grid) and
    the count of malformed report columns."""
    reports = report if workload.grid else [(None, report)]
    text = "".join((f"{cell}\n" if cell else "") + r.to_json()
                   for cell, r in reports)
    bad = sum(1 for _, r in reports for col in r.columns
              if len(col.fold_accuracies) != r.config["folds"]
              or not all(0.0 <= a <= 1.0 for a in col.fold_accuracies))
    if workload.grid and len(reports) != 12:
        bad += 1
    best = max(r.best_mean() for _, r in reports)
    return text.encode("utf-8"), best, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with open(os.path.join(args.data, "paths.json"), encoding="utf-8") as fh:
        files = json.load(fh)
    paths = experiment.DataPaths(users=files["users"], reviews=files["reviews"],
                                 stopwords=files["stopwords"],
                                 manual=files["manual"])
    config = workload.experiment_config(args.seed)

    setup_wall_s = time.perf_counter() - args.spawned
    setup_speed = HostSpeed()
    setup_speed.probe(SETUP_SAMPLES)
    run_speed = HostSpeed()

    started = time.perf_counter()
    run_speed.start()
    if workload.grid:
        report = experiment.run_grid(config, paths)
    else:
        report = experiment.run_experiment(config, paths)
    run_speed.stop()
    run_wall_s = time.perf_counter() - started - run_speed.spent()

    data, accuracy, bad_columns = report_bytes(workload, report)
    result = {"setup_s": setup_speed.rescale(setup_wall_s),
              "setup_wall_s": setup_wall_s,
              "run_s": run_speed.rescale(run_wall_s), "run_wall_s": run_wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "report_sha256": hashlib.sha256(data).hexdigest(),
              "accuracy": accuracy, "bad_columns": bad_columns}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.trace, started)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
