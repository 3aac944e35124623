"""Sweep-record CSV emission and parsing.

Fixed column order, floats at 12 significant digits, empty fields for
whatever does not apply to a row's noise axis or mode.  Files are
written to a temporary sibling and renamed into place so readers never
observe a partial file.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path
from typing import Iterable

from .sweep import SweepRecord

COLUMNS = (
    "state_id",
    "theta1",
    "theta2",
    "phi1",
    "phi2",
    "noise_type",
    "p_readout",
    "p_depol1",
    "p_depol2",
    "t1_ns",
    "t2_ns",
    "mode",
    "shots",
    "repeats",
    "kappa",
    "kappa_ci_lo",
    "kappa_ci_hi",
    "f",
    "f_ci_lo",
    "f_ci_hi",
    "g01",
    "g12",
    "g20",
    "gamma_undefined",
    "seed",
)

FLOAT_COLUMNS = frozenset(
    {
        "theta1",
        "theta2",
        "phi1",
        "phi2",
        "p_readout",
        "p_depol1",
        "p_depol2",
        "t1_ns",
        "t2_ns",
        "kappa",
        "kappa_ci_lo",
        "kappa_ci_hi",
        "f",
        "f_ci_lo",
        "f_ci_hi",
        "g01",
        "g12",
        "g20",
    }
)

INT_COLUMNS = frozenset({"state_id", "shots", "repeats", "seed"})


def format_float(value: float) -> str:
    return f"{value:.12g}"


def record_to_row(record: SweepRecord) -> list[str]:
    point = record.point
    raw = {
        "state_id": record.state_id,
        "theta1": record.params.theta1,
        "theta2": record.params.theta2,
        "phi1": record.params.phi1,
        "phi2": record.params.phi2,
        "noise_type": point.noise_type,
        "p_readout": point.p_readout,
        "p_depol1": point.p_depol1,
        "p_depol2": point.p_depol2,
        "t1_ns": point.t1_ns,
        "t2_ns": point.t2_ns,
        "mode": record.mode,
        "shots": record.shots,
        "repeats": record.repeats,
        "kappa": record.kappa,
        "kappa_ci_lo": record.kappa_ci_lo,
        "kappa_ci_hi": record.kappa_ci_hi,
        "f": record.f,
        "f_ci_lo": record.f_ci_lo,
        "f_ci_hi": record.f_ci_hi,
        "g01": record.g01,
        "g12": record.g12,
        "g20": record.g20,
        "gamma_undefined": "true" if record.gamma_undefined else "false",
        "seed": record.seed,
    }
    row = []
    for column in COLUMNS:
        value = raw[column]
        if value is None:
            row.append("")
        elif column in FLOAT_COLUMNS:
            row.append(format_float(float(value)))
        else:
            row.append(str(value))
    return row


def write_records_csv(path: str | Path, records: Iterable[SweepRecord]) -> None:
    """Format every record before opening the output, then write atomically."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(record_to_row(r) for r in records)
    write_text_atomic(path, buffer.getvalue())


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to a temporary sibling, then rename it over path."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_records_csv(path: str | Path) -> list[dict[str, object]]:
    """Parse a sweep CSV back into typed dicts ('' stays None)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != COLUMNS:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        out = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(COLUMNS):
                raise ValueError(f"{path}:{line_no}: expected {len(COLUMNS)} fields, got {len(row)}")
            parsed: dict[str, object] = {}
            for column, text in zip(COLUMNS, row):
                if text == "":
                    parsed[column] = None
                elif column in FLOAT_COLUMNS:
                    parsed[column] = float(text)
                elif column in INT_COLUMNS:
                    parsed[column] = int(text)
                elif column == "gamma_undefined":
                    if text not in ("true", "false"):
                        raise ValueError(f"{path}:{line_no}: bad boolean {text!r}")
                    parsed[column] = text == "true"
                else:
                    parsed[column] = text
            out.append(parsed)
    return out
