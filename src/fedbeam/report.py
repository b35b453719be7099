"""Report CSVs: per-experiment loss curves and the two-model comparison.

Both formats start with a '# '-prefixed metadata block (version, configs as
sorted-key JSON, dataset digest) followed by a plain CSV table.  Floats are
written with repr() so identical runs produce identical bytes; execution
details like output paths or command-line flags never enter the content.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__
from .errors import IngestionError
from .federation import ExperimentReport
from .model import count_parameters

_REPORT_MAGIC = "# fedbeam-report 1"
_COMPARISON_MAGIC = "# fedbeam-comparison 1"


def _meta_line(key: str, value) -> str:
    if isinstance(value, str):
        return f"# {key} {value}"
    return f"# {key} {json.dumps(value, sort_keys=True)}"


def loss_reduction_percent(loss_a: float, loss_b: float) -> float:
    """Percentage reduction of loss_a relative to loss_b: (1 - a/b) * 100."""
    if loss_b == 0.0:
        raise IngestionError("reference loss is zero; reduction undefined")
    return (1.0 - loss_a / loss_b) * 100.0


def render_experiment_csv(report: ExperimentReport) -> str:
    client_ids = sorted(report.rounds[0].per_client_test_loss)
    lines = [
        _REPORT_MAGIC,
        _meta_line("version", f"fedbeam-{__version__}"),
        _meta_line("model", report.model_config.to_dict()),
        _meta_line("federation", report.federation_config.to_dict()),
        _meta_line("data", report.data_config),
        _meta_line("dataset_digest", report.dataset_digest),
        _meta_line("final_avg_test_loss", repr(report.final_avg_test_loss)),
    ]
    header = ["round", "avg_train_loss", "avg_test_loss"]
    header.extend(f"{cid}:test_loss" for cid in client_ids)
    lines.append(",".join(header))
    for rnd in report.rounds:
        row = [str(rnd.round_index), repr(rnd.avg_train_loss), repr(rnd.avg_test_loss)]
        row.extend(repr(rnd.per_client_test_loss[cid]) for cid in client_ids)
        lines.append(",".join(row))
    lines.append("")
    return "\n".join(lines)


def _parse_report(text: str, magic: str, name: str, row_name: str, leading: list[str]) -> dict:
    """Shared reader: the magic line, '# key value' metadata, then the table.

    The header must start with the ``leading`` columns and every row must
    have as many cells as the header.
    """
    lines = text.splitlines()
    if not lines or lines[0] != magic:
        article = "an" if name[0] in "aeiou" else "a"
        raise IngestionError(f"not {article} {name} (missing {magic!r})")
    meta: dict = {}
    i = 1
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(" ")
        try:
            meta[key] = json.loads(value)
        except json.JSONDecodeError:
            meta[key] = value
        i += 1
    if i >= len(lines):
        raise IngestionError(f"{name} has no table")
    columns = lines[i].split(",")
    if columns[: len(leading)] != leading:
        raise IngestionError(f"unexpected report columns: {columns}")
    rows = []
    for line in lines[i + 1 :]:
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise IngestionError(
                f"{row_name} row has {len(cells)} cells, expected {len(columns)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise IngestionError(f"{row_name} row {line!r} has a non-numeric cell") from None
    return {"meta": meta, "columns": columns, "rows": np.array(rows, dtype=np.float64)}


def parse_experiment_csv(text: str) -> dict:
    """Round-trip reader; returns metadata plus the numeric table."""
    return _parse_report(
        text,
        _REPORT_MAGIC,
        "experiment report",
        "report",
        ["round", "avg_train_loss", "avg_test_loss"],
    )


def render_comparison_csv(
    kan_report: ExperimentReport, mlp_report: ExperimentReport
) -> str:
    if kan_report.dataset_digest != mlp_report.dataset_digest:
        raise IngestionError(
            "comparison requires both models trained on identical data; "
            f"digests {kan_report.dataset_digest[:12]} != {mlp_report.dataset_digest[:12]}"
        )
    if len(kan_report.rounds) != len(mlp_report.rounds):
        raise IngestionError("comparison requires equal round counts")
    kan_params = count_parameters(kan_report.model_config)
    mlp_params = count_parameters(mlp_report.model_config)
    reduction = loss_reduction_percent(
        kan_report.final_avg_test_loss, mlp_report.final_avg_test_loss
    )
    lines = [
        _COMPARISON_MAGIC,
        _meta_line("version", f"fedbeam-{__version__}"),
        _meta_line("model_fed_kan", kan_report.model_config.to_dict()),
        _meta_line("model_fed_mlp", mlp_report.model_config.to_dict()),
        _meta_line("federation", kan_report.federation_config.to_dict()),
        _meta_line("data", kan_report.data_config),
        _meta_line("dataset_digest", kan_report.dataset_digest),
        _meta_line("params_fed_kan", str(kan_params)),
        _meta_line("params_fed_mlp", str(mlp_params)),
        _meta_line("final_avg_test_loss_fed_kan", repr(kan_report.final_avg_test_loss)),
        _meta_line("final_avg_test_loss_fed_mlp", repr(mlp_report.final_avg_test_loss)),
        _meta_line("test_loss_reduction_percent", repr(reduction)),
    ]
    lines.append(
        "round,fed_kan:avg_train_loss,fed_mlp:avg_train_loss,"
        "fed_kan:avg_test_loss,fed_mlp:avg_test_loss"
    )
    for kan_round, mlp_round in zip(kan_report.rounds, mlp_report.rounds):
        lines.append(
            ",".join(
                [
                    str(kan_round.round_index),
                    repr(kan_round.avg_train_loss),
                    repr(mlp_round.avg_train_loss),
                    repr(kan_round.avg_test_loss),
                    repr(mlp_round.avg_test_loss),
                ]
            )
        )
    lines.append("")
    return "\n".join(lines)


def summary_table(kan_report: ExperimentReport, mlp_report: ExperimentReport) -> str:
    """Human-readable comparison block printed by the CLI."""
    kan_params = count_parameters(kan_report.model_config)
    mlp_params = count_parameters(mlp_report.model_config)
    reduction = loss_reduction_percent(
        kan_report.final_avg_test_loss, mlp_report.final_avg_test_loss
    )
    rows = [
        ("model", "parameters", "final_avg_test_loss"),
        ("fed_kan", str(kan_params), f"{kan_report.final_avg_test_loss:.6f}"),
        ("fed_mlp", str(mlp_params), f"{mlp_report.final_avg_test_loss:.6f}"),
    ]
    widths = [max(len(r[c]) for r in rows) for c in range(3)]
    out = []
    for r in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    out.append(f"test-loss reduction (fed_kan vs fed_mlp): {reduction:.2f}%")
    return "\n".join(out)
