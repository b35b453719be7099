"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import ctypes
import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import platform
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedbeam
import fedbeam.cli
import fedbeam.federation
from fedbeam.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from fedbeam.data import default_profiles, generate_synthetic, render_csv
from fedbeam.errors import IngestionError, NumericsError
from fedbeam.report import loss_reduction_percent, parse_experiment_csv

from helpers import has_no_child, parse_comparison_csv, run_python

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")


def write_config(path, **overrides):
    config = {
        "model": {"kind": "fed_kan"},
        "federation": {"rounds": 2, "local_epochs": 2, "seed": 5},
        "data": {"synthetic": {"seed": 3, "hours": 90, "beams": 2}},
        "out_dir": str(path.parent / "out"),
    }
    for key, value in overrides.items():
        if value is None:
            config.pop(key, None)
        else:
            config[key] = value
    path.write_text(json.dumps(config), encoding="utf-8")
    return config


def test_generate_writes_deterministic_files(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["generate", "--seed", "7", "--hours", "743", "--beams", "4", "--out", str(out_a)]) == EXIT_OK
    assert main(["generate", "--seed", "7", "--hours", "743", "--beams", "4", "--out", str(out_b)]) == EXIT_OK
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == ["beam-01.csv", "beam-02.csv", "beam-03.csv", "beam-04.csv"]
    for name in files_a:
        text = (out_a / name).read_text(encoding="utf-8")
        assert text == (out_b / name).read_text(encoding="utf-8")
        assert len(text.splitlines()) == 744


def test_generate_rejects_bad_counts(tmp_path, capsys):
    assert main(["generate", "--hours", "0", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "hours" in capsys.readouterr().err


def test_train_writes_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "final average test loss (fed_kan)" in out
    report_path = tmp_path / "out" / "report_fed_kan.csv"
    parsed = parse_experiment_csv(report_path.read_text(encoding="utf-8"))
    assert parsed["rows"].shape[0] == 2
    assert parsed["meta"]["model"]["kind"] == "fed_kan"
    assert parsed["meta"]["federation"]["rounds"] == 2


def test_train_single_round_has_one_row(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, federation={"rounds": 1, "local_epochs": 1, "seed": 5})
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    parsed = parse_experiment_csv(
        (tmp_path / "out" / "report_fed_kan.csv").read_text(encoding="utf-8")
    )
    assert parsed["rows"].shape[0] == 1


def test_train_rejects_zero_batch_size(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, federation={"rounds": 1, "batch_size": 0})
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "batch_size" in capsys.readouterr().err


def test_train_requires_model_kind(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={})
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "kind" in capsys.readouterr().err


def test_train_rejects_bad_json(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for raw in (b"{not json", b'{"out_dir": "\xff"}'):
        cfg_path.write_bytes(raw)
        assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    ["[" * 200_000 + "]" * 200_000, '{"federation": {"rounds": 1' + "0" * 5_000 + "}}"],
    ids=["nested-too-deep", "integer-past-the-digit-limit"],
)
def test_a_config_json_cannot_hold_exits_2_with_one_error_line(tmp_path, capsys, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(raw, encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith(f"error: config {str(cfg_path)!r} is not valid JSON: ")


@pytest.mark.parametrize("key", ["out_dir", "beam_files"])
def test_a_path_with_a_nul_character_exits_3_with_one_error_line(tmp_path, capsys, key):
    cfg_path = tmp_path / "cfg.json"
    bad = str(tmp_path / "a\0b")
    if key == "out_dir":
        write_config(cfg_path, out_dir=bad)
        expected = f"error: cannot write to {bad!r}: embedded null byte"
    else:
        write_config(cfg_path, data={"beam_files": [bad]})
        expected = f"error: cannot read {bad!r}: embedded null byte"
    assert main(["train", "--config", str(cfg_path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [expected]


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_experiment_csv,
         "# fedbeam-report 1\nround,avg_train_loss,avg_test_loss\n1,0.5,0.25\n1,x,2\n"),
        (parse_comparison_csv, "# fedbeam-comparison 1\nround,kan,mlp\n1,x,2\n"),
    ],
    ids=["experiment", "comparison"],
)
def test_report_parsers_name_a_non_numeric_row(parse, text):
    with pytest.raises(IngestionError, match="row '1,x,2' has a non-numeric cell"):
        parse(text)


@pytest.mark.parametrize("kind", ["fed_kan", "fed_mlp"])
def test_diverging_run_exits_4_with_one_error_line(tmp_path, capsys, recwarn, kind):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        model={"kind": kind},
        federation={"rounds": 1, "local_epochs": 1, "seed": 5, "learning_rate": 1e308},
        data={"synthetic": {"seed": 3, "hours": 60, "beams": 2}},
    )
    assert main(["train", "--config", str(cfg_path)]) == EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "non-finite loss" in err[0]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@needs_fork
def test_a_failure_in_a_helper_exits_4_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: 2)
    build_client = fedbeam.federation.build_client

    def build_client_poisoned(series, *args):
        client = build_client(series, *args)
        if series.beam_id != "beam-02":
            return client
        targets = client.train_targets.copy()
        targets[3, 0] = np.inf
        return dataclasses.replace(client, train_targets=targets)

    monkeypatch.setattr(fedbeam.federation, "build_client", build_client_poisoned)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    # Two equal beams: beam-02 is dealt to the helper.
    assert main(["train", "--config", str(cfg_path)]) == EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: client 'beam-02' produced a non-finite loss"]
    assert has_no_child()


def test_train_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == EXIT_IO


def test_train_missing_beam_file_is_io_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, data={"beam_files": [str(tmp_path / "nope.csv")]})
    assert main(["train", "--config", str(cfg_path)]) == EXIT_IO


def test_data_section_needs_exactly_one_source(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        data={
            "beam_files": ["x.csv"],
            "synthetic": {"seed": 1, "hours": 50, "beams": 1},
        },
    )
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "beam_files" in err and "synthetic" in err

    write_config(cfg_path, data={})
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG


def test_short_series_fails_with_clear_windowing_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, data={"synthetic": {"seed": 1, "hours": 5, "beams": 1}})
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "windowing needs at least 6" in capsys.readouterr().err


def test_train_on_generated_csv_files(tmp_path):
    gen_dir = tmp_path / "beams"
    assert main(["generate", "--seed", "3", "--hours", "90", "--beams", "2", "--out", str(gen_dir)]) == EXIT_OK
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        data={"beam_files": [str(gen_dir / "beam-01.csv"), str(gen_dir / "beam-02.csv")]},
    )
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    data = (tmp_path / "out" / "report_fed_kan.csv").read_bytes()
    report = parse_experiment_csv(data.decode("utf-8"))
    assert report["meta"]["data"]["beam_ids"] == ["beam-01", "beam-02"]
    # SHA-256 of the report on the CSV route: ingest, window, split, scale.
    # Rule: a change that moves bits updates this constant in the same commit
    # and records the old and new digests in CHANGES.md.  It depends on the
    # BLAS build; a mismatch on another machine is a finding to report, not a
    # reason to turn the pin into a tolerance.
    # It is no kernel oracle.  Its 2 rounds x 2 epochs of fed_kan need not
    # carry a last-bit kernel change into a reported repr: spline powers by
    # repeated multiplication plus a one-branch sigmoid left these bytes
    # unchanged, though either change alone moved them, while
    # PROTOCOL_DIGESTS, QUICK_START_DIGESTS and FLEET_DIGESTS all moved.
    # Summing each input's gradient over its sparse derivative terms, and
    # later clipping by each row's flat norm, moved these bytes with the
    # other pins.
    assert hashlib.sha256(data).hexdigest() == (
        "ab9b8f6c53c1f1e157679304fd2897e12eb563ed167684b50b7588591fa5cdcf"
    )


# SHA-256 of the files a fleet-shaped compare writes: uneven beams read from
# CSV, one local epoch, ragged lockstep, partial rounds and sample-weighted
# aggregation.
# Rule: a change that moves bits updates these constants in the same commit
# and records the old and new digests in CHANGES.md.  They depend on the
# BLAS build; a mismatch on another machine is a finding to report, not a
# reason to turn the pin into a tolerance.
FLEET_DIGESTS = {
    "comparison.csv": "2dfa09d03e34c5a570ac075a19b9d04dce086ef6b30972977c900c5d09c06028",
    "report_fed_kan.csv": "44d4b1847dd038420cf6b2abb6d41eddbcd20dfeb535345118a688b3feb74f80",
    "report_fed_mlp.csv": "ccf58de48bc1fe1f9a9fe7cb7b1727798b9ea380b0c1acd1851a647f5021e308",
}


def fleet_beam_files(tmp_path, lengths=(120, 97, 81)) -> list[str]:
    """Uneven beams as CSV files: beam-0k comes from a set generated at its
    own length, ``lengths[k - 1]`` hours.  By default the clients train 92,
    73 and 60 windows, with last batches of 12, 9 and 12."""
    files = []
    for k, hours in enumerate(lengths, start=1):
        out = tmp_path / f"h{hours}"
        argv = [
            "generate", "--seed", "3", "--hours", str(hours), "--beams", str(len(lengths)),
            "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        files.append(str(out / f"beam-{k:02d}.csv"))
    return files


FLEET_FEDERATION = {
    "rounds": 3,
    "local_epochs": 1,
    "batch_size": 16,
    "availability_prob": 0.75,
    "aggregation": "sample_weighted",
    "seed": 5,
}


def test_fleet_shaped_compare_matches_its_pinned_digests(tmp_path, monkeypatch):
    first_rounds = []
    render_comparison_csv = fedbeam.cli.render_comparison_csv

    def recording_render(kan_report, mlp_report):
        # Both reports reach this process, whichever process trained them.
        first_rounds.extend(report.rounds[0].participants for report in (kan_report, mlp_report))
        return render_comparison_csv(kan_report, mlp_report)

    monkeypatch.setattr(fedbeam.cli, "render_comparison_csv", recording_render)
    cfg_path = tmp_path / "cfg.json"
    files = fleet_beam_files(tmp_path)
    write_config(cfg_path, model=None, federation=FLEET_FEDERATION, data={"beam_files": files})
    assert main(["compare", "--config", str(cfg_path)]) == EXIT_OK
    # Round 1 of each model trains only two of the three clients.
    assert first_rounds == [("beam-02", "beam-03")] * 2
    for name, digest in FLEET_DIGESTS.items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_a_train_run_calls_run_round_here_with_arguments_bound_by_name(tmp_path, monkeypatch):
    participants = []
    run_round = fedbeam.federation.run_round
    signature = inspect.signature(run_round)

    def recording_run_round(*args, **kwargs):
        # Bound by name, as perfbench's timed round binds them.
        bound = signature.bind(*args, **kwargs).arguments
        assert all(isinstance(c, fedbeam.federation.ClientState) for c in bound["clients"])
        assert isinstance(bound["fed_config"], fedbeam.federation.FederationConfig)
        assert bound["fed_config"].local_epochs == 1
        new_weights, report = run_round(*args, **kwargs)
        participants.append(report.participants)
        return new_weights, report

    monkeypatch.setattr(fedbeam.federation, "run_round", recording_run_round)
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        model={"kind": "fed_mlp"},
        federation=FLEET_FEDERATION,
        data={"beam_files": fleet_beam_files(tmp_path)},
    )
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    assert len(participants) == 3 and participants[0] == ("beam-02", "beam-03")


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("cpus", [1, pytest.param(3, marks=needs_fork)])
def test_a_train_run_lets_the_raw_series_go_before_round_1(tmp_path, monkeypatch, cpus, command):
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: cpus)
    series: list[weakref.ref] = []
    alive = []
    load_beams = fedbeam.cli._load_beams
    run_round = fedbeam.federation.run_round

    def watched_load_beams(config):
        # Every series the run receives, parsed here or in a loader process.
        beams = load_beams(config)
        for beam in beams:
            series.extend(weakref.ref(x) for x in (beam, beam.hourly_volumes, beam.hourly_shares))
        return beams

    def watched_run_round(*args, **kwargs):
        if not alive:
            alive.append(sum(ref() is not None for ref in series))
        return run_round(*args, **kwargs)

    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        model={"kind": "fed_mlp"},
        federation=FLEET_FEDERATION,
        data={"beam_files": fleet_beam_files(tmp_path)},
    )
    monkeypatch.setattr(fedbeam.cli, "_load_beams", watched_load_beams)
    monkeypatch.setattr(fedbeam.federation, "run_round", watched_run_round)
    # A compare run reads its beams once, for both models.
    assert main([command, "--config", str(cfg_path)]) == EXIT_OK
    assert len(series) == 9 and alive == [0]


@needs_fork
def test_compare_is_byte_identical_on_any_number_of_cpus(tmp_path, monkeypatch):
    # Every process evaluates a share of every round, and logs its pid and model.
    log = tmp_path / "shares.log"
    evaluate_global = fedbeam.federation.evaluate_global

    def logging_evaluate_global(weights, clients, template):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {template.config.kind}\n")
        return evaluate_global(weights, clients, template)

    monkeypatch.setattr(fedbeam.federation, "evaluate_global", logging_evaluate_global)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={})
    names = ("report_fed_kan.csv", "report_fed_mlp.csv", "comparison.csv")
    outputs = set()
    # Processes per model: the models first, then the clients of each, fed_kan first.
    for cpus, processes in ((1, [1, 1]), (2, [1, 1]), (3, [2, 1])):
        monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda cpus=cpus: cpus)
        log.unlink(missing_ok=True)
        out = tmp_path / f"cpus-{cpus}"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert has_no_child()
        outputs.add(tuple((out / name).read_bytes() for name in names))
        pids: dict[str, set[int]] = {"fed_kan": set(), "fed_mlp": set()}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, kind = line.split()
            pids[kind].add(int(pid))
        assert [len(pids["fed_kan"]), len(pids["fed_mlp"])] == processes
        assert os.getpid() in pids["fed_kan"]
        assert len(pids["fed_kan"] | pids["fed_mlp"]) == cpus
    assert len(outputs) == 1


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "failing, code, message",
    [
        # fed_kan's error wins, as when fed_mlp never starts after it.
        ({"fed_kan", "fed_mlp"}, EXIT_NUMERIC, "error: fed_kan diverged"),
        ({"fed_mlp"}, EXIT_IO, "error: fed_mlp lost its beams"),
    ],
)
def test_a_failed_model_fails_compare_as_the_sequential_run(
    tmp_path, capsys, monkeypatch, cpus, failing, code, message
):
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: cpus)
    run_experiment = fedbeam.cli.run_experiment
    errors = {
        "fed_kan": NumericsError("fed_kan diverged"),
        "fed_mlp": IngestionError("fed_mlp lost its beams"),
    }

    def failing_run(model_config, *args, **kwargs):
        report = run_experiment(model_config, *args, **kwargs)
        if model_config.kind in failing:
            raise errors[model_config.kind]
        return report

    monkeypatch.setattr(fedbeam.cli, "run_experiment", failing_run)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={})
    assert main(["compare", "--config", str(cfg_path)]) == code
    assert capsys.readouterr().err.splitlines() == [message]
    assert has_no_child()
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["train", "compare"])
def test_an_out_dir_that_names_a_file_exits_3_before_any_beam_is_read(
    tmp_path, capsys, monkeypatch, command
):
    calls = []
    monkeypatch.setattr(fedbeam.cli, "run_experiment", lambda *args, **kwargs: calls.append(args))
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    # Reading the missing beam file would exit 3 too, naming it.
    write_config(cfg_path, data={"beam_files": [str(tmp_path / "missing.csv")]}, out_dir=str(taken))
    assert main([command, "--config", str(cfg_path)]) == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(taken) in err[0]
    assert "missing.csv" not in err[0] and calls == []
    assert taken.read_text(encoding="utf-8") == "not a directory"


@needs_fork
@pytest.mark.parametrize("source, forks", [("synthetic", 1), ("beam_files", 2)])
def test_a_train_run_with_a_helper_never_imports_multiprocessing(tmp_path, source, forks):
    cfg_path = tmp_path / "cfg.json"
    if source == "beam_files":
        write_config(cfg_path, data={"beam_files": fleet_beam_files(tmp_path)[:2]})
    else:
        write_config(cfg_path)
    result = run_python(
        "import os, sys\n"
        "import fedbeam.cli, fedbeam.federation\n"
        "fedbeam.federation._usable_cpus = lambda: 2\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        f"code = fedbeam.cli.main(['train', '--config', {str(cfg_path)!r}])\n"
        "print(code, len(forks), 'multiprocessing' in sys.modules)\n"
    )
    assert result.returncode == 0, result.stderr
    # Two clients on two CPUs: one helper; and two beam files: one loader.
    assert result.stdout.splitlines()[-1] == f"0 {forks} False"


# Five beams of uneven length, and the runs of files each number of CPUs
# parses them in.  Cut by file count, they would be 1-3 and 4-5 on two CPUs.
FIVE_UNEVEN_LENGTHS = (200, 160, 81, 90, 97)
FIVE_UNEVEN_RUNS = {1: [[1, 2, 3, 4, 5]], 2: [[1, 2], [3, 4, 5]], 3: [[1, 2], [3], [4, 5]]}


@needs_fork
@pytest.mark.parametrize("command", ["train", "compare"])
def test_reports_from_beam_files_are_byte_identical_on_any_number_of_cpus(
    tmp_path, monkeypatch, command
):
    # Every process logs each beam it parses.
    log = tmp_path / "loads.log"
    load_csv = fedbeam.cli.load_csv

    def logging_load_csv(path, beam_id):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {beam_id}\n")
        return load_csv(path, beam_id=beam_id)

    monkeypatch.setattr(fedbeam.cli, "load_csv", logging_load_csv)
    cfg_path = tmp_path / "cfg.json"
    files = fleet_beam_files(tmp_path, FIVE_UNEVEN_LENGTHS)
    model = {"kind": "fed_kan"} if command == "train" else None
    write_config(cfg_path, model=model, federation=FLEET_FEDERATION, data={"beam_files": files})
    outputs = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda cpus=cpus: cpus)
        log.unlink(missing_ok=True)
        out = tmp_path / f"cpus-{cpus}"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert has_no_child()
        outputs.add(tuple(sorted((p.name, p.read_bytes()) for p in out.iterdir())))
        runs: dict[int, list[int]] = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, beam_id = line.split()
            runs.setdefault(int(pid), []).append(int(beam_id.removeprefix("beam-")))
        # One run of files per CPU, the first parsed here.
        assert sorted(runs.values()) == FIVE_UNEVEN_RUNS[cpus]
        assert runs[os.getpid()][0] == 1
    assert len(outputs) == 1


def spoil_keeping_size(path: str) -> None:
    """Turn the hour of the file's third data row into a letter."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    lines[3] = "x" + lines[3][1:]
    Path(path).write_text("\n".join(lines), encoding="utf-8")


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("spoiled", [["first"], ["last"], ["first", "last"]])
def test_a_bad_beam_file_fails_the_run_as_the_one_cpu_load(
    tmp_path, capsys, monkeypatch, cpus, spoiled
):
    files = fleet_beam_files(tmp_path, FIVE_UNEVEN_LENGTHS)
    runs = fedbeam.cli._balanced_runs([os.path.getsize(f) for f in files], cpus)
    assert len(runs) == cpus
    # The last file of each spoiled run, so the first run's error comes after
    # a file it parsed.
    bad = [{"first": runs[0], "last": runs[-1]}[where][-1] for where in spoiled]
    for i in bad:
        spoil_keeping_size(files[i])
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, federation=FLEET_FEDERATION, data={"beam_files": files})
    outcomes = []
    for n in (1, cpus):
        monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda n=n: n)
        outcomes.append((main(["train", "--config", str(cfg_path)]), capsys.readouterr().err))
        assert has_no_child()
    code, err = outcomes[0]
    assert code == EXIT_IO and len(err.splitlines()) == 1 and files[bad[0]] in err
    assert outcomes[1] == outcomes[0]
    assert list((tmp_path / "out").iterdir()) == []


@needs_fork
def test_a_missing_beam_file_exits_3_and_names_it_on_any_number_of_cpus(
    tmp_path, capsys, monkeypatch
):
    files = fleet_beam_files(tmp_path, FIVE_UNEVEN_LENGTHS)
    missing = str(tmp_path / "missing.csv")
    files.insert(3, missing)
    assert fedbeam.cli._file_size(missing) == 0
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, federation=FLEET_FEDERATION, data={"beam_files": files})
    for cpus in (1, 2, 3):
        monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda cpus=cpus: cpus)
        assert main(["train", "--config", str(cfg_path)]) == EXIT_IO
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot read {missing!r}: ")
        assert has_no_child()


def test_beam_files_are_cut_into_runs_by_size():
    runs = fedbeam.cli._balanced_runs
    assert runs([5] * 16, 2) == [range(0, 8), range(8, 16)]
    # By bytes, not by count: four small files weigh as much as the large one.
    assert runs([1, 1, 1, 1, 4], 2) == [range(0, 4), range(4, 5)]
    assert runs([7, 0, 3], 1) == [range(0, 3)]
    assert runs([0, 0, 0], 2) == [range(0, 1), range(1, 3)]
    # Cut only where the sizes first reach j / k, these give 3 runs on 4 CPUs and 4 on 5.
    uneven = [16640, 9616, 14235, 11505, 19002]
    assert runs(uneven, 4) == [range(0, 2), range(2, 3), range(3, 4), range(4, 5)]
    assert runs(uneven, 5) == [range(i, i + 1) for i in range(5)]


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40), st.integers(1, 8))
def test_runs_of_beam_files_are_contiguous_non_empty_and_balanced(sizes, count):
    runs = fedbeam.cli._balanced_runs(sizes, count)
    assert [i for run in runs for i in run] == list(range(len(sizes)))
    k = min(count, len(sizes))
    assert len(runs) == k and all(len(run) > 0 for run in runs)
    # No run holds more than total / k bytes plus the largest file.
    for run in runs:
        assert sum(sizes[i] for i in run) * k <= sum(sizes) + max(sizes) * k


def test_compare_outputs_and_summary(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={})
    assert main(["compare", "--config", str(cfg_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1244" in out
    assert "648" in out
    assert "test-loss reduction" in out

    out_dir = tmp_path / "out"
    kan = parse_experiment_csv((out_dir / "report_fed_kan.csv").read_text(encoding="utf-8"))
    mlp = parse_experiment_csv((out_dir / "report_fed_mlp.csv").read_text(encoding="utf-8"))
    comparison = parse_comparison_csv((out_dir / "comparison.csv").read_text(encoding="utf-8"))
    # Fairness: both models saw byte-identical data.
    assert kan["meta"]["dataset_digest"] == mlp["meta"]["dataset_digest"]
    assert comparison["meta"]["params_fed_mlp"] == 1244
    assert comparison["meta"]["params_fed_kan"] == 648
    assert comparison["rows"].shape[0] == 2


def test_compare_is_byte_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={})
    for out_name in ("r1", "r2"):
        assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / out_name)]) == EXIT_OK
    for name in ("report_fed_kan.csv", "report_fed_mlp.csv", "comparison.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_seed_override_changes_results(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "s5")]) == EXIT_OK
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "s6"), "--seed", "6"]) == EXIT_OK
    a = (tmp_path / "s5" / "report_fed_kan.csv").read_text(encoding="utf-8")
    b = (tmp_path / "s6" / "report_fed_kan.csv").read_text(encoding="utf-8")
    assert a != b
    assert parse_experiment_csv(b)["meta"]["federation"]["seed"] == 6


def test_reduction_formula_matches_published_rounding():
    value = loss_reduction_percent(0.2583, 1.1433)
    assert value == pytest.approx((1 - 0.2583 / 1.1433) * 100, abs=1e-12)
    assert f"{value:.2f}" == "77.41"


def test_unknown_config_section_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    config = write_config(cfg_path)
    config["experiment"] = {}
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "experiment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key, value, extra",
    [
        ("train", "federation", "rounds", '"2"', []),
        ("train", "federation", "rounds", "1.5", []),
        ("train", "federation", "rounds", "true", []),
        ("train", "federation", "batch_size", "1e400", []),
        ("train", "federation", "learning_rate", "NaN", []),
        ("train", "federation", "seed", "-1", []),
        ("train", "model", "kan_hidden_widths", "5", []),
        ("train", "model", "kan_hidden_widths", "[2.7, 4]", []),
        ("train", "model", "dropout_p", '"0.5"', []),
        ("train", "model", "input_width", "10.0", []),
        ("train", "data", "window_hours", '"x"', []),
        ("train", "data", "train_fraction", '"a"', []),
        ("train", "data", "synthetic", "5", []),
        ("train", "data", "synthetic", '{"seed": -3, "hours": 90, "beams": 2}', []),
        ("train", "data", "beam_files", "[5]", []),
        ("train", None, "out_dir", '["x"]', []),
        ("train", None, "seed", None, ["--seed", "-1"]),
        ("generate", None, "seed", None, ["--seed", "-1"]),
        ("train", "model", "spline_order", "171", []),
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, command, section, key, value, extra):
    cfg_path = tmp_path / "cfg.json"
    config = write_config(cfg_path)
    if value is not None:
        # Spliced in as raw JSON text, so values like 1e400 and NaN arrive as json.load reads them.
        target = config if section is None else config[section]
        if key == "beam_files":
            del target["synthetic"]  # a config names exactly one data source
        target[key] = "@VALUE@"
        cfg_path.write_text(json.dumps(config).replace('"@VALUE@"', value), encoding="utf-8")
    if command == "generate":
        argv = ["generate", "--out", str(tmp_path / "beams")]
    else:
        argv = [command, "--config", str(cfg_path)]
    assert main(argv + extra) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert key in err


@pytest.mark.parametrize(
    "model, data, message",
    [
        pytest.param(
            {"output_width": 3, "fc_head_widths": [8, 3]}, {}, "output_width 3", id="width3"
        ),
        *(
            pytest.param(
                {}, {"train_fraction": f}, f"in (0, 1), got {float(f)}", id=f"fraction{f}"
            )
            for f in (0, 1, 1.5)
        ),
    ],
)
@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("kind", ["fed_kan", "fed_mlp"])
def test_an_output_width_other_than_the_four_shares_exits_2_before_loading(
    tmp_path, capsys, command, kind, model, data, message
):
    # The beam file does not exist: loading it would exit 3.  A width other
    # than the four shares and a train_fraction outside (0, 1) are config
    # errors, found before any beam is read.
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        model={"kind": kind, **model},
        data={"beam_files": [str(tmp_path / "missing.csv")], **data},
    )
    assert main([command, "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "missing.csv" not in err


@pytest.mark.parametrize("command", ["train", "compare"])
def test_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    def oversized(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.9 GiB")

    monkeypatch.setattr("fedbeam.cli.run_experiment", oversized)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main([command, "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "14.9 GiB" in err


def test_a_failed_write_leaves_the_earlier_outputs_whole(tmp_path):
    resource = pytest.importorskip("resource")
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={})
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path)]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    # Under a 1 KiB cap on file size both reports can be written, and
    # comparison.csv cannot.
    cap = 1024
    assert max(len(before["report_fed_kan.csv"]), len(before["report_fed_mlp.csv"])) < cap
    assert len(before["comparison.csv"]) > cap
    src = str(Path(fedbeam.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "fedbeam", "compare", "--config", str(cfg_path), "--seed", "6"],
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (cap, cap)),
    )
    assert result.returncode == EXIT_IO
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    # Nothing was replaced, and no temporary file is left.
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    # Without the cap the same run replaces every file.
    assert main(["compare", "--config", str(cfg_path), "--seed", "6"]) == EXIT_OK
    after = {path.name: path.read_bytes() for path in out.iterdir()}
    assert after.keys() == before.keys()
    assert all(after[name] != before[name] for name in before)


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(fedbeam.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "fedbeam", *args], env=env, capture_output=True, text=True
        )

    assert run("--help").returncode == EXIT_OK
    rejected = run("generate", "--beams", "0", "--out", str(tmp_path / "beams"))
    assert rejected.returncode == EXIT_CONFIG
    assert rejected.stderr.startswith("error:")
    # An unknown flag is argparse's usage error, also exit 2.
    for command in ("train", "compare"):
        rejected = run(command, "--config", str(tmp_path / "cfg.json"), "--parallel-clients")
        assert rejected.returncode == EXIT_CONFIG
        assert "unrecognized arguments: --parallel-clients" in rejected.stderr


@pytest.mark.parametrize("level", ["bogus", "info", ""])
def test_an_unknown_log_level_exits_2_with_one_error_line(tmp_path, level):
    # A subprocess, because under pytest the root logger already has
    # handlers and basicConfig would not read the level at all.
    src = str(Path(fedbeam.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        "FEDBEAM_LOG": level,
    }
    result = subprocess.run(
        [sys.executable, "-m", "fedbeam", "generate", "--out", str(tmp_path / "g")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_CONFIG
    assert result.stderr == f"error: FEDBEAM_LOG must name a logging level, got {level!r}\n"
    assert not (tmp_path / "g").exists()


def test_main_keeps_freed_pages_once_before_the_subcommand(tmp_path, monkeypatch):
    events = []
    monkeypatch.setattr(fedbeam.cli, "_keep_freed_pages", lambda: events.append("allocator"))
    monkeypatch.setattr(fedbeam.cli, "cmd_generate", lambda args: events.append("generate") or 0)
    assert main(["generate", "--out", str(tmp_path)]) == EXIT_OK
    assert events == ["allocator", "generate"]


def test_importing_the_cli_leaves_the_allocator_alone(monkeypatch):
    loads = []

    def recording_cdll(*args, **kwargs):
        loads.append(args)
        raise OSError("not loaded")

    monkeypatch.setattr(ctypes, "CDLL", recording_cdll)
    # A fresh module object; monkeypatch puts the imported one back afterwards.
    imported = fedbeam.cli
    monkeypatch.delitem(sys.modules, "fedbeam.cli")
    monkeypatch.setattr(fedbeam, "cli", imported)
    fresh = importlib.import_module("fedbeam.cli")
    assert fresh is not imported and loads == []
    assert fresh._keep_freed_pages() is None and len(loads) == 1


def test_keeping_freed_pages_is_a_no_op_without_mallopt(monkeypatch):
    def unloadable(*args, **kwargs):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert fedbeam.cli._keep_freed_pages() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
    assert fedbeam.cli._keep_freed_pages() is None


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_glibc_accepts_both_thresholds():
    assert fedbeam.cli._keep_freed_pages() == (1, 1)


# --- Any train config or beam file ends in a documented exit --------------

# Wrong types, non-finite numbers and a few out-of-range ones.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from([[], {}, [1, "x"], -1, 1.5, float("nan"), float("inf"), float("-inf")]),
)
# Keys no section knows: every known key is plain lower-case letters and "_".
unknown_keys = st.text("xyz-0", min_size=1, max_size=3).map(lambda s: "-" + s)


def widths(hi, max_size):
    return st.lists(st.integers(1, hi), max_size=max_size)


def spoil(draw, sections):
    """Replace a field with junk, omit it, or add an unknown key, at most
    twice over the whole config."""
    paths = [(name, key) for name, fields in sections.items() for key in sorted(fields)]
    for (name, key), how in draw(st.lists(
        st.tuples(st.sampled_from(paths), st.sampled_from(["junk", "omit", "unknown"])),
        max_size=2,
    )):
        section = sections[name]
        if how == "junk":
            section[key] = draw(junk)
        elif how == "omit":
            section.pop(key, None)
        else:
            section[draw(unknown_keys)] = draw(junk)


@st.composite
def train_cases(draw):
    """A train config of tiny sizes, and the bytes of its beam file if it
    names one."""
    window = draw(st.integers(1, 6))
    schema = {
        "model": {
            "kind": st.sampled_from(["fed_kan", "fed_mlp"]),
            "input_width": st.just(2 * window),
            "kan_hidden_widths": widths(4, 3),
            "mlp_hidden_widths": widths(8, 3),
            # The targets are the four category shares; any other
            # output_width exits 2 before the data is read.
            "fc_head_widths": widths(6, 1).map(lambda head: [*head, 4]),
            "output_width": st.one_of(st.just(4), st.integers(1, 8)),
            "grid_intervals": st.integers(1, 6),
            "spline_order": st.integers(0, 3),
            "dropout_p": st.floats(0.0, 0.9),
        },
        "federation": {
            "rounds": st.integers(1, 2),
            "local_epochs": st.integers(1, 2),
            "batch_size": st.integers(1, 32),
            "aggregation": st.sampled_from(["uniform", "sample_weighted"]),
            "availability_prob": st.floats(0.05, 1.0),
            "seed": st.integers(0, 1000),
            # 1e308 overflows the first step: exit 4.
            "learning_rate": st.one_of(st.floats(0.0, 0.1), st.just(1e308)),
            "weight_decay": st.floats(0.0, 1e-2),
            "max_grad_norm": st.floats(1e-3, 10.0),
        },
        "data": {
            "window_hours": st.just(window),
            "train_fraction": st.floats(0.05, 0.95),
        },
        "synthetic": {
            "seed": st.integers(0, 1000),
            "hours": st.integers(20, 40),
            "beams": st.integers(1, 3),
        },
    }
    sections = {name: {k: draw(v) for k, v in fields.items()} for name, fields in schema.items()}
    synthetic = sections.pop("synthetic")
    beam_bytes = None
    if draw(st.booleans()):
        sections["data"]["synthetic"] = synthetic
    else:
        text = render_csv(generate_synthetic(
            synthetic["seed"], synthetic["hours"], default_profiles(1)[0]
        )).encode("utf-8")
        cut = draw(st.integers(0, len(text)))
        beam_bytes = draw(st.one_of(
            st.just(text),
            st.binary(max_size=200),
            st.binary(min_size=1, max_size=8).map(lambda b: text[:cut] + b + text[cut:]),
        ))
        sections["data"]["beam_files"] = ["@BEAM@"] * draw(st.integers(1, 2))
    spoil(draw, {**sections, "synthetic": synthetic})
    # Omitted, these would default to 20 rounds of 5 epochs over 743 hours.
    sections["federation"].setdefault("rounds", 1)
    sections["federation"].setdefault("local_epochs", 1)
    synthetic.setdefault("hours", 40)
    return sections, beam_bytes


def test_any_train_config_or_beam_file_exits_with_a_documented_code(tmp_path, capsys):
    """Every config and beam file ends in exit 0, 2, 3 or 4, and a failure
    prints exactly one ``error:`` line and no traceback."""
    beam_path = tmp_path / "beam.csv"
    cfg_path = tmp_path / "cfg.json"
    seen = Counter()

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(train_cases())
    def check(case):
        config, beam_bytes = case
        if beam_bytes is not None:
            beam_path.write_bytes(beam_bytes)
        config["out_dir"] = str(tmp_path / "out")
        text = json.dumps(config).replace('"@BEAM@"', json.dumps(str(beam_path)))
        cfg_path.write_text(text, encoding="utf-8")
        code = main(["train", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == (code != EXIT_OK), err
        seen[code] += 1

    check()
    # The sample reaches every exit code.
    assert all(seen[code] for code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)), dict(seen)
