"""sentprofile benchmark: end-to-end timings, a traced per-layer breakdown
and fixed-shape kernel runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

`--trace 0` generates the workload's inputs from the seed, then starts one
fresh, single-threaded process per pipeline run until `--seconds` are used
(at least three runs), and reports the medians of the end-to-end metrics.
Run and set-up times are in reference seconds: wall time rescaled by the
host's speed on a fixed reference chunk sampled during the run (see
hostspeed.py), so that drift in the speed of a shared host does not read as
a change in the program. Raw wall times are printed next to them.
`--trace 1` makes one untraced run, one traced run that wraps each layer's
entry points, and one run of the fixed-shape kernels, and reports the
per-layer metrics. `all` does both for every workload. Every run checks the
report: its bytes must not drift between runs of one workload and seed
(traced runs included), and its best accuracy must reach the workload's
floor. The last line of output is one JSON object with the results.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_SAMPLES = 3
# every child is stopped, and no new one started, past this many seconds
# after a workload's measurement begins, so an invocation ends within three
# minutes even if the program hangs
INVOCATION_LIMIT_S = 165


class Invocation:
    """Attempted and failed runs of one workload's measurement."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.deadline = time.perf_counter() + INVOCATION_LIMIT_S

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}")


def spawn(inv: Invocation, script: str, args: list[str]):
    """Run one child process to completion; returns (result, wall_s, error)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned = time.perf_counter()
    timeout = max(1.0, inv.deadline - spawned)
    command = [sys.executable, str(HERE / script), *args]
    if script == "child.py":
        command += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - spawned, f"{script} timed out"
    wall = time.perf_counter() - spawned
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, wall, f"{script} exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall, None
    except (IndexError, json.JSONDecodeError):
        return None, wall, f"{script} printed no result"


def check_run(inv: Invocation, workload, result, error, reference):
    """Count one pipeline run; returns its report hash when it passed."""
    inv.attempted += 1
    if error:
        inv.fail(error)
        return None
    if result["bad_columns"]:
        inv.fail(f"{result['bad_columns']} malformed report columns")
        return None
    if result["accuracy"] < workload.accuracy_floor:
        inv.fail(f"accuracy {result['accuracy']:.4f} below floor "
                 f"{workload.accuracy_floor}")
        return None
    if reference is not None and result["report_sha256"] != reference:
        inv.fail(f"report bytes drifted: {result['report_sha256']} != {reference}")
        return None
    return result["report_sha256"]


def prepare(workload, seed: int) -> Path:
    from workloads import generate_inputs

    data = WORK / f"{workload.name}-{seed}"
    data.mkdir(parents=True, exist_ok=True)
    paths = generate_inputs(workload, seed, data)
    (data / "paths.json").write_text(json.dumps(paths), encoding="utf-8")
    return data


def child_args(workload, seed, data):
    return ["--workload", workload.name, "--seed", str(seed), "--data", str(data)]


def measure(inv: Invocation, workload, seed: int, seconds: float, data) -> dict:
    """Untraced runs in fresh processes for `seconds`; end-to-end medians."""
    runs, walls = [], []
    reference = None
    begin = time.perf_counter()
    tries = 0
    while True:
        elapsed = time.perf_counter() - begin
        if tries >= MIN_SAMPLES and (
                not walls or elapsed + statistics.median(walls) > seconds):
            break
        if time.perf_counter() + statistics.median(walls or [0.0]) > inv.deadline:
            print("stopping early: time limit reached")
            break
        tries += 1
        result, wall, error = spawn(inv, "child.py",
                                    child_args(workload, seed, data))
        passed = check_run(inv, workload, result, error, reference)
        if passed:
            reference = reference or passed
            runs.append(result)
            walls.append(wall)
    if not runs:
        return {}
    run_s = [r["run_s"] for r in runs]
    quartiles = (statistics.quantiles(run_s, n=4) if len(run_s) > 1
                 else [run_s[0]] * 3)
    print(f"{workload.name}: run_s median {quartiles[1]:.4f} s, quartiles "
          f"{quartiles[0]:.4f} / {quartiles[2]:.4f} s, {len(run_s)} samples "
          "(reference seconds)")
    print(f"{workload.name}: wall time median run "
          f"{statistics.median(r['run_wall_s'] for r in runs):.4f} s, set-up "
          f"{statistics.median(r['setup_wall_s'] for r in runs):.4f} s")
    print(f"{workload.name}: report sha256 {reference}")
    print(f"{workload.name}: accuracy = {runs[0]['accuracy']!r} fraction "
          "(best mean cross-validation accuracy)")
    return {"run_s": statistics.median(run_s),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}


def trace(inv: Invocation, workload, seed: int, data) -> dict:
    """One untraced and one traced run plus the kernels; per-layer values."""
    base, _, error = spawn(inv, "child.py", child_args(workload, seed, data))
    reference = check_run(inv, workload, base, error, None)
    spans = data / "spans.jsonl"
    traced, _, error = spawn(inv, "child.py", child_args(workload, seed, data)
                             + ["--trace", str(spans)])
    if check_run(inv, workload, traced, error, reference) is None:
        return {}
    if reference is None:
        return {}
    layers = dict(traced["layers"])
    if workload.config.get("smote") and layers["resample.synthetic_rows"] <= 0:
        inv.fail("SMOTE is on but synthesized no rows")
    layers["trace.overhead_s"] = traced["run_s"] - base["run_s"]
    print(f"{workload.name}: domainsel.kept_ratio base: "
          f"{layers['domainsel.kept']} kept of {layers['domainsel.total']} "
          "source items, summed over selection calls")
    print(f"{workload.name}: nn.lstm_useful_step_ratio base: "
          f"{layers['nn.lstm_useful_steps']} useful of "
          f"{layers['nn.lstm_padded_steps']} padded (B*T) steps")
    print(f"{workload.name}: traced report bytes equal untraced "
          f"({reference}); {traced['spans']} spans written to "
          f"{spans.relative_to(ROOT)}")
    print(f"{workload.name}: untraced run_s {base['run_s']:.4f} s, traced "
          f"run_s {traced['run_s']:.4f} s")

    inv.attempted += 1
    kernels, _, error = spawn(inv, "kernels.py", ["--seed", str(seed)])
    if error:
        inv.fail(error)
        return layers
    layers.update(kernels["metrics"])
    for name, counts in kernels["computed"].items():
        print(f"computed {name}: {json.dumps(counts)}")
    return layers


def environment() -> None:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"environment: nproc {os.cpu_count()}, affinity "
          f"{len(os.sched_getaffinity(0))} cores, python "
          f"{platform.python_version()}, numpy {np.__version__}, blas "
          f"{blas.get('name')} {blas.get('version')} "
          f"({blas.get('openblas configuration', 'no config string')}), "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
          f"OMP_NUM_THREADS={os.environ['OMP_NUM_THREADS']}, "
          "one single-threaded process per run")


def run_one(workload, seed, seconds, traced, units):
    inv = Invocation()
    data = prepare(workload, seed)
    wanted = units["per_layer" if traced else "end_to_end"]
    if traced:
        metrics = trace(inv, workload, seed, data)
    else:
        metrics = measure(inv, workload, seed, seconds, data)
    missing = [name for name in wanted if name not in metrics]
    if metrics and missing:
        inv.fail(f"metrics missing: {', '.join(missing)}")
    print(f"{workload.name}: error_rate {inv.failed / max(inv.attempted, 1):.4f} "
          f"fraction ({inv.failed} failed of {inv.attempted} attempted; "
          f"accuracy floor {workload.accuracy_floor})")
    out = {}
    for name, unit in wanted.items():
        if name in metrics:
            out[name] = {"value": metrics[name], "unit": unit}
            print(f"{workload.name}: {name} = {metrics[name]!r} {unit}")
    return inv, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sentprofile" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a sentprofile checkout; {SRC / 'sentprofile'} "
              f"or {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        plan = [(w, traced) for traced in (False, True) for w in WORKLOADS.values()]
    elif args.workload in WORKLOADS:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    environment()
    attempted = failed = 0
    metrics = {}
    for workload, traced in plan:
        inv, out = run_one(workload, args.seed, args.seconds, traced, units)
        attempted += inv.attempted
        failed += inv.failed
        prefix = f"{workload.name}:" if len(plan) > 1 else ""
        metrics.update({prefix + name: value for name, value in out.items()})
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
