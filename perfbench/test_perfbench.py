"""Smoke tests of the benchmark itself, on tiny variants of its workloads.

    python3 -m pytest perfbench
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, check_report, tiny  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _deadline() -> float:
    return time.monotonic() + 120.0


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    result = run.run_workload(tiny(WORKLOADS[name]), 7, 0.0, trace, _deadline())
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        calls = result["metrics"]["splines.basis_and_derivative.calls"]["value"]
        assert (calls > 0) == (WORKLOADS[name].kind == "fed_kan")
        assert result["absent"] == []


def test_tampered_report_counts_as_a_failed_run():
    workload = tiny(WORKLOADS["mlp_protocol"])
    runner = run.Runner(workload, 7, _deadline())
    first = runner.spawn()
    assert first["problems"] == []
    report = runner.dir / "out-0" / "report_fed_mlp.csv"
    tampered = report.with_name("tampered.csv")
    tampered.write_text(report.read_text(encoding="utf-8").replace(",0.", ",1.", 1), encoding="utf-8")

    record = {"setup_only": False, "problems": []}
    runner.check(record, tampered)
    runner.runs.append(record)
    summary = runner.summary()
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert "report differs from the first run's report" in record["problems"]


def test_report_check_rejects_each_kind_of_bad_output():
    workload = tiny(WORKLOADS["mlp_protocol"])
    runner = run.Runner(workload, 7, _deadline())
    assert runner.spawn()["problems"] == []
    text = (runner.dir / "out-0" / "report_fed_mlp.csv").read_text(encoding="utf-8")
    loss = runner.full_runs()[0]["final_test_loss"]

    def problems(report=text, digest=runner.digest, reference=None):
        return check_report(report, digest, runner.ceiling, workload, reference)[1]

    assert problems() == []
    assert problems(report="not a report")
    assert problems(digest="0" * 64)
    assert problems(report=text.rsplit("\n", 2)[0] + "\n")
    assert problems(reference={"final_test_loss": loss * 1.01, "report_sha256": ""})
    assert problems(reference={"final_test_loss": loss, "report_sha256": ""}) == []


def test_a_removed_function_is_reported_absent(work_dir):
    script = f"""
import json, sys
sys.path[:0] = [{str(HERE.parent / "src")!r}, {str(HERE)!r}]
import fedbeam, fedbeam.model
from fedbeam.data import default_profiles, generate_synthetic
from tracer import Tracer
del fedbeam.model.gradient_vector
tracer = Tracer()
tracer.install()
beams = [generate_synthetic(7, 60, p) for p in default_profiles(2)]
fedbeam.run_experiment(fedbeam.ModelConfig.fed_mlp(), fedbeam.FederationConfig(rounds=1, local_epochs=1), beams)
print(json.dumps(tracer.finish({str(work_dir / "spans.npz")!r})))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout.splitlines()[-1])
    assert trace["absent_functions"] == ["model.gradient_vector"]
    assert {"model.gradient_vector.calls", "model.gradient_vector.s"} <= set(trace["absent"])
    assert trace["metrics"]["model.gradient_vector.calls"] == 0.0
    assert trace["metrics"]["optim.adam_step.calls"] > 0


def test_a_checkout_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "mlp_protocol", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
