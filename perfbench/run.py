"""fedbeam benchmark: time `fedbeam train` on generated beam data.

    python3 perfbench/run.py --workload kan_protocol --seed 7 --seconds 25 --trace 0

Closed loop: one child process at a time, each a full train invocation,
the next started when the previous has exited, until --seconds have
passed.  Every run's report is checked.  --trace 0 prints the end-to-end
metrics; --trace 1 runs the workload once untraced and once traced and
prints the per-layer metrics.  --workload all runs every workload.  The
last line of standard output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# BLAS and OpenMP pools are pinned to one thread: clients train serially,
# and the machine the figures were taken on has two cores.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Children that stop at round 1, run before the timed loop so that setup_s
# is a median of several set-ups even when only a few full runs fit.
SETUP_RUNS = 5
# Two full runs at least: their reports must match byte for byte.
MIN_FULL_RUNS = 2
# A whole benchmark run must end well inside three minutes.
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "round_s_p50": "s",
    "train_samples_per_s": "1/s",
    "final_test_loss": "mse",
    "peak_rss_mb": "MB",
}
# Printed beside the end-to-end metrics: the same times unscaled by the
# speed probe (see child.py), and the probe itself.
WALL_UNITS = {
    "run_wall_s": "s",
    "setup_wall_s": "s",
    "round_wall_s_p50": "s",
    "train_samples_per_wall_s": "1/s",
    "probe_s": "s",
}
TRACE_UNITS = {
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.absent": "count",
    "trace.spans": "count",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_VARS)
    env.update({"PYTHONHASHSEED": "0", "FEDBEAM_LOG": "WARNING"})
    return env


def environment(seed: int, workload) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": THREAD_VARS,
        "seed": seed,
        "shape": workload.shape(),
    }


class Runner:
    """Spawns and checks the child runs of one workload and seed."""

    def __init__(self, workload, seed: int, deadline: float):
        from workloads import load_reference, oracle, write_inputs

        self.workload = workload
        self.deadline = deadline
        self.dir = WORK / f"{workload.name}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = write_inputs(workload, seed, self.dir)
        self.digest, self.ceiling = oracle(self.config)
        self.reference = load_reference().get(workload.name, {}).get(str(seed))
        self.runs: list[dict] = []
        self.first_sha: str | None = None

    def spawn(self, setup_only: bool = False, traced: bool = False) -> dict:
        index = len(self.runs)
        out_dir = self.dir / f"out-{index}"
        result_path = self.dir / f"result-{index}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(self.config),
               str(out_dir), str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--spans", str(self.dir / f"spans-{index}.npz")]
        run = {"setup_only": setup_only, "problems": []}
        try:
            proc = subprocess.run(
                cmd, env=child_env(), cwd=self.dir, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            run["problems"].append("timed out")
            self.runs.append(run)
            return run
        if proc.returncode != 0 or not result_path.exists():
            run["problems"].append(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        else:
            run.update(json.loads(result_path.read_text(encoding="utf-8")))
            if run["exit_code"] != 0:
                run["problems"].append(f"fedbeam train exited {run['exit_code']}")
            elif not setup_only:
                self.check(run, out_dir / f"report_{self.workload.kind}.csv")
        self.runs.append(run)
        return run

    def check(self, run: dict, report_path: Path) -> None:
        from workloads import check_report

        try:
            text = report_path.read_text(encoding="utf-8")
        except OSError as exc:
            run["problems"].append(f"no report: {exc}")
            return
        run["final_test_loss"], problems = check_report(
            text, self.digest, self.ceiling, self.workload, self.reference
        )
        run["problems"] += problems
        run["report_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        # Same inputs, same report: every run must reproduce the first one.
        if self.first_sha is None:
            self.first_sha = run["report_sha256"]
        elif run["report_sha256"] != self.first_sha:
            run["problems"].append("report differs from the first run's report")

    def full_runs(self) -> list[dict]:
        return [r for r in self.runs if not r["setup_only"] and not r["problems"]]

    def summary(self) -> dict:
        sha = self.first_sha
        return {
            "attempted": len(self.runs),
            "failed": sum(1 for r in self.runs if r["problems"]),
            "report_sha256": sha,
            # Informational: a change that openly re-baselines summation
            # order loses the bitwise match but still passes.
            "bitwise_match_reference": (
                None if self.reference is None or sha is None
                else sha == self.reference["report_sha256"]
            ),
            "problems": [p for r in self.runs for p in r["problems"]],
        }


def measure(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Untraced: set-ups first, then full runs for about `seconds`.

    At least MIN_FULL_RUNS run, so every run checks reproducibility; another
    starts only if it is expected to end within `seconds`.
    """
    for _ in range(SETUP_RUNS):
        runner.spawn(setup_only=True)
    start = time.monotonic()
    durations: list[float] = []
    while len(durations) < MIN_FULL_RUNS or (
        time.monotonic() - start + statistics.mean(durations) <= seconds
    ):
        if durations and time.monotonic() + max(durations) > runner.deadline:
            break
        t0 = time.monotonic()
        runner.spawn()
        durations.append(time.monotonic() - t0)
    full = runner.full_runs()
    passed = [r for r in runner.runs if not r["problems"]]
    return {
        "run_s": [r["run_s"] for r in full],
        "setup_s": [r["setup_s"] for r in passed],
        "round_s_p50": [t for r in full for t in r["round_s"]],
        "train_samples_per_s": [r["train_samples"] / sum(r["round_s"]) for r in full],
        "final_test_loss": [r["final_test_loss"] for r in full],
        "peak_rss_mb": [r["peak_rss_mb"] for r in full],
        "run_wall_s": [r["run_wall_s"] for r in full],
        "setup_wall_s": [r["setup_wall_s"] for r in passed],
        "round_wall_s_p50": [t for r in full for t in r["round_wall_s"]],
        "train_samples_per_wall_s": [r["train_samples"] / sum(r["round_wall_s"]) for r in full],
        "probe_s": [p for r in passed for p in r["probe_s"]],
    }


def measure_traced(runner: Runner) -> tuple[dict[str, list[float]], dict]:
    """One untraced and one traced full run; per-layer metrics from the latter."""
    untraced = runner.spawn()
    traced = runner.spawn(traced=True)
    if untraced["problems"] or traced["problems"]:
        return {}, {}
    trace = traced["trace"]
    samples = {name: [value] for name, value in trace["metrics"].items()}
    samples.update({
        # Unscaled, like the span times they are compared with.
        "trace.run_s": [traced["run_wall_s"]],
        "trace.untraced_run_s": [untraced["run_wall_s"]],
        "trace.overhead_s": [traced["run_wall_s"] - untraced["run_wall_s"]],
        "trace.absent": [float(len(trace["absent"]))],
        "trace.spans": [float(trace["spans"])],
    })
    return samples, trace


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def table(samples: dict[str, list[float]], units: dict[str, str], absent=()) -> list[str]:
    lines = [f"{'metric':44} {'unit':9} {'median':>14} {'IQR/med':>8} {'n':>5}"]
    for name, unit in units.items():
        values = samples.get(name, [])
        if name in absent:
            lines.append(f"{name:44} {unit:9} {'absent':>14}")
            continue
        if not values:
            lines.append(f"{name:44} {unit:9} {'missing':>14}")
            continue
        s = spread(values)
        lines.append(
            f"{name:44} {unit:9} {statistics.median(values):14.6g} "
            f"{'-' if s is None else f'{100 * s:7.2f}%':>8} {len(values):5d}"
        )
    return lines


def run_workload(workload, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    from tracer import metric_units

    runner = Runner(workload, seed, deadline)
    if trace:
        samples, detail = measure_traced(runner)
        units = {**metric_units(), **TRACE_UNITS}
        absent = detail.get("absent", [])
    else:
        samples, detail = measure(runner, seconds), {}
        units = END_TO_END_UNITS
        absent = []
    summary = runner.summary()
    result = {
        "workload": workload.name,
        "trace": trace,
        "environment": environment(seed, workload),
        **summary,
        "absent": absent,
        "absent_functions": detail.get("absent_functions", []),
        "samples": samples,
    }
    (runner.dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"== {workload.name} seed={seed} trace={int(trace)}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for line in table(samples, units, absent):
        print(line)
    if not trace:
        print("unscaled wall clock and speed probe:")
        for line in table(samples, WALL_UNITS)[1:]:
            print(line)
    print(f"runs attempted {summary['attempted']}, failed {summary['failed']}; "
          f"report_sha256 {summary['report_sha256']}; "
          f"bitwise_match_reference {summary['bitwise_match_reference']}")
    for problem in summary["problems"]:
        print(f"FAILED: {problem}")
    complete = all(samples.get(m) for m in units)
    result["metrics"] = {
        m: {"value": statistics.median(samples[m]), "unit": u} for m, u in units.items()
    } if complete else {}
    result["correct"] = complete and summary["failed"] == 0
    return result


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"data seed; {DEFAULT_SEED} is the README data, {HOLDOUT_SEED} the holdout seed",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fedbeam" / "__init__.py").is_file():
        print(f"error: no fedbeam package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        # `all` is for people, not for the time limit of a single run.
        deadline = time.monotonic() + TIME_LIMIT_S
        results.append(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
