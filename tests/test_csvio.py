"""CSV round-trip, formatting and atomic replacement."""

import csv

import pytest

from qbench import csvio
from qbench.sweep import NoisePoint, StateSource, SweepConfig, default_grid, run_sweep


def sample_records(mode="exact"):
    config = SweepConfig(
        grid=default_grid("readout", steps=3),
        state_source=StateSource.random(2, seed=3),
        mode=mode,
        shots=500,
        repeats=3,
        seed=11,
    )
    return run_sweep(config)


def test_format_float_significant_digits():
    assert csvio.format_float(0.1) == "0.1"
    assert csvio.format_float(1.0) == "1"
    assert csvio.format_float(1.0 / 3.0) == "0.333333333333"
    assert csvio.format_float(1.23456789012345e-7) == "1.23456789012e-07"


def test_record_to_row_layout():
    records = sample_records()
    row = csvio.record_to_row(records[0])
    assert len(row) == len(csvio.COLUMNS)
    by_name = dict(zip(csvio.COLUMNS, row))
    assert by_name["noise_type"] == "readout"
    assert by_name["mode"] == "exact"
    assert by_name["p_readout"] == "0"
    # exact mode leaves shot fields and intervals empty
    for column in ("shots", "repeats", "kappa_ci_lo", "f_ci_hi", "t1_ns"):
        assert by_name[column] == ""
    assert by_name["gamma_undefined"] in ("true", "false")


def test_write_and_read_round_trip(tmp_path):
    records = sample_records()
    path = tmp_path / "sweep.csv"
    csvio.write_records_csv(path, records)
    rows = csvio.read_records_csv(path)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert row["state_id"] == record.state_id
        assert row["kappa"] == pytest.approx(record.kappa, rel=1e-11)
        assert row["shots"] is None
        assert row["gamma_undefined"] == record.gamma_undefined
        assert row["seed"] == record.seed
        assert row["theta1"] == pytest.approx(record.params.theta1, rel=1e-11)


def test_round_trip_shot_mode_intervals(tmp_path):
    records = sample_records(mode="shots")
    path = tmp_path / "shots.csv"
    csvio.write_records_csv(path, records)
    rows = csvio.read_records_csv(path)
    for row, record in zip(rows, records):
        assert row["shots"] == 500 and row["repeats"] == 3
        if not record.gamma_undefined:
            assert row["f_ci_lo"] == pytest.approx(record.f_ci_lo, rel=1e-11)
        else:
            assert row["f"] is None and row["f_ci_lo"] is None


def test_written_bytes_are_deterministic(tmp_path):
    records = sample_records()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    csvio.write_records_csv(a, records)
    csvio.write_records_csv(b, records)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"state_id,theta1,")


def test_write_replaces_existing_file_without_leftovers(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("stale")
    csvio.write_records_csv(path, sample_records())
    assert "stale" not in path.read_text()
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind


def test_write_text_atomic_keeps_old_file_when_replace_fails(tmp_path, monkeypatch):
    # the CSV and the CLI's SVG output share this writer
    path = tmp_path / "plot.svg"
    csvio.write_text_atomic(path, "old\n")
    assert path.read_bytes() == b"old\n"

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(csvio.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        csvio.write_text_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]  # the temporary sibling is removed


def test_read_rejects_malformed_files(tmp_path):
    records = sample_records()
    good = tmp_path / "good.csv"
    csvio.write_records_csv(good, records)
    lines = good.read_text().splitlines()

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("\n".join(["nope," + lines[0].split(",", 1)[1]] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="header"):
        csvio.read_records_csv(bad_header)

    short_row = tmp_path / "short.csv"
    short_row.write_text("\n".join([lines[0], lines[1].rsplit(",", 1)[0]]) + "\n")
    with pytest.raises(ValueError, match="expected"):
        csvio.read_records_csv(short_row)

    with open(good, newline="") as handle:
        parsed = list(csv.reader(handle))
    flag_column = csvio.COLUMNS.index("gamma_undefined")
    parsed[1][flag_column] = "maybe"
    bad_flag = tmp_path / "flag.csv"
    with open(bad_flag, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(parsed)
    with pytest.raises(ValueError, match="boolean"):
        csvio.read_records_csv(bad_flag)
