"""Command-line interface: exit codes, config handling, seed precedence."""

import json

import pytest

from qbench import cli, csvio
from qbench.cli import ConfigError, EXIT_CONFIG, EXIT_OK, SEED_ENV_VAR, _resolve_seed, main


def run_cli(*argv):
    return main(list(argv))


def sweep_args(tmp_path, *extra):
    out = tmp_path / "out.csv"
    return out, ("sweep", "--steps", "3", "--out", str(out), *extra)


def test_sweep_writes_csv(tmp_path, capsys):
    out, argv = sweep_args(tmp_path, "--seed", "4")
    assert run_cli(*argv) == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    rows = csvio.read_records_csv(out)
    assert len(rows) == 3  # specific state, three grid points
    assert [row["p_readout"] for row in rows] == [0.0, 0.5, 1.0]


def test_sweep_exit_codes(tmp_path):
    with pytest.raises(SystemExit):  # argparse rejects unknown axis values
        run_cli("sweep", "--noise", "bogus")
    with pytest.raises(SystemExit) as exc:  # sweeps run in one thread; there is no --threads
        run_cli("sweep", "--threads", "2", "--steps", "2", "--out", str(tmp_path / "x.csv"))
    assert exc.value.code == EXIT_CONFIG
    assert run_cli("sweep", "--config", str(tmp_path / "missing.json")) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("sweep", "--config", str(bad)) == EXIT_CONFIG
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"nois": "readout"}))
    assert run_cli("sweep", "--config", str(unknown)) == EXIT_CONFIG


def test_sweep_rejects_bad_values_as_configuration_errors(tmp_path, monkeypatch, capsys):
    # every bad value is a configuration error found before any record is computed
    ran = []
    monkeypatch.setattr(cli, "run_sweep", lambda config: ran.append(config) or [])
    out = tmp_path / "never.csv"
    assert run_cli("sweep", "--steps", "1", "--out", str(out)) == EXIT_CONFIG
    assert run_cli("sweep", "--state", "random", "--n-states", "-1", "--out", str(out)) == EXIT_CONFIG
    path = tmp_path / "config.json"
    for document, named in (
        ({"thermal": {"deterministic": "false"}}, "false"),
        ({"seed": 1.7}, "1.7"),
        ({"steps": 2.5}, "2.5"),
        ({"state": "random", "n_states": 1, "state_seed": 1.5}, "1.5"),
        ({"grid": ["a"]}, "a"),
        ({"threads": 1}, "threads"),
        ({"noise": "readout", "grid": [0.1, 1.5]}, "1.5"),
        ({"noise": "depolarizing", "grid": [-0.2]}, "-0.2"),
        ({"noise": "thermal", "grid": [-5]}, "-5"),
        ({"noise": "thermal", "grid": [[100, 500]]}, "500"),
        ({"thermal": []}, "thermal"),
        ({"durations": []}, "durations"),
    ):
        path.write_text(json.dumps({"steps": 2, **document}))
        capsys.readouterr()
        assert run_cli("sweep", "--config", str(path), "--out", str(out)) == EXIT_CONFIG, document
        assert named in capsys.readouterr().err, document
        # `validate --config` rejects the same file
        assert not cli._check_config(str(path))[0], document
    path.write_text(json.dumps({"steps": 2, "out": 5}))
    assert run_cli("sweep", "--config", str(path)) == EXIT_CONFIG
    assert "out=5" in capsys.readouterr().err
    assert not cli._check_config(str(path))[0]
    assert ran == []
    assert not out.exists()


def test_sweep_checks_out_path_before_running(tmp_path, monkeypatch, capsys):
    # a bad --out is a configuration error found before any record is computed
    ran = []
    monkeypatch.setattr(cli, "run_sweep", lambda config: ran.append(config) or [])
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for out in (tmp_path / "no_such_dir" / "x.csv", a_file / "x.csv", tmp_path):
        assert run_cli("sweep", "--steps", "2", "--out", str(out)) == EXIT_CONFIG, out
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err
    assert ran == []
    assert run_cli("sweep", "--steps", "2", "--out", str(tmp_path / "ok.csv")) == EXIT_OK
    assert len(ran) == 1


def test_validate_config_parses_like_sweep(tmp_path, monkeypatch):
    # the config check must see exactly the namespace `sweep --config` gets
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"noise": "readout", "steps": 3}))
    seen = []
    build = cli._build_sweep
    monkeypatch.setattr(cli, "_build_sweep", lambda args: seen.append(args) or build(args))
    ok, detail = cli._check_config(str(path))
    assert ok, detail
    assert seen == [cli.build_parser().parse_args(["sweep", "--config", str(path)])]


def test_sweep_config_document(tmp_path):
    out = tmp_path / "cfg.csv"
    config = {
        "noise": "depolarizing",
        "grid": [0.0, 0.1],
        "state": "explicit",
        "states": [[0.5, 0.5, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]],
        "seed": 9,
        "out": str(out),
        "durations": {"single_u_ns": 50.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(path)) == EXIT_OK
    rows = csvio.read_records_csv(out)
    assert len(rows) == 4
    assert {row["noise_type"] for row in rows} == {"depolarizing"}
    assert [row["p_depol1"] for row in rows[:2]] == [0.0, 0.1]
    assert rows[0]["theta1"] == pytest.approx(0.5)


def test_sweep_flag_overrides_config(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"noise": "readout", "steps": 5}))
    assert run_cli("sweep", "--config", str(path), "--steps", "3", "--out", str(out_a)) == EXIT_OK
    assert run_cli("sweep", "--steps", "3", "--out", str(out_b)) == EXIT_OK
    assert len(csvio.read_records_csv(out_a)) == 3
    # flag-only run with the same effective settings is byte-identical
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_resolution_precedence(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert _resolve_seed(None, {}) == 0
    assert _resolve_seed(None, {"seed": 5}) == 5
    assert _resolve_seed(7, {"seed": 5}) == 7
    monkeypatch.setenv(SEED_ENV_VAR, "12")
    assert _resolve_seed(None, {}) == 12
    assert _resolve_seed(None, {"seed": 5}) == 5
    monkeypatch.setenv(SEED_ENV_VAR, "garbage")
    with pytest.raises(ConfigError, match="not an integer"):
        _resolve_seed(None, {})


def test_seed_sources_produce_identical_output(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out_flag, argv = sweep_args(tmp_path, "--seed", "21", "--mode", "shots",
                                "--shots", "200", "--repeats", "2")
    assert run_cli(*argv) == EXIT_OK

    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": 21}))
    out_cfg = tmp_path / "cfg.csv"
    assert run_cli("sweep", "--steps", "3", "--mode", "shots", "--shots", "200",
                   "--repeats", "2", "--config", str(config), "--out", str(out_cfg)) == EXIT_OK

    monkeypatch.setenv(SEED_ENV_VAR, "21")
    out_env = tmp_path / "env.csv"
    assert run_cli("sweep", "--steps", "3", "--mode", "shots", "--shots", "200",
                   "--repeats", "2", "--out", str(out_env)) == EXIT_OK

    assert out_flag.read_bytes() == out_cfg.read_bytes() == out_env.read_bytes()


def test_kappa_n_command(capsys, tmp_path):
    assert run_cli("kappa-n", "1", "0,1", "-1") == EXIT_OK
    out = capsys.readouterr().out
    assert "n = 3" in out
    form_line = next(line for line in out.splitlines() if "programming form" in line)
    assert abs(float(form_line.split(":")[1])) < 1e-12

    listing = tmp_path / "amps.txt"
    listing.write_text("# two amplitudes\n1,2\n-0.5\n")
    assert run_cli("kappa-n", "--file", str(listing)) == EXIT_OK
    assert "n = 2" in capsys.readouterr().out

    assert run_cli("kappa-n", "not-a-number") == EXIT_CONFIG
    assert run_cli("kappa-n") == EXIT_CONFIG
    assert run_cli("kappa-n", "--file", str(tmp_path / "absent.txt")) == EXIT_CONFIG


def test_validate_command(capsys, tmp_path, monkeypatch):
    assert run_cli("validate", "--seed", "1") == EXIT_OK
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert all(line.startswith("PASS ") for line in lines)

    config = tmp_path / "ok.json"
    config.write_text(json.dumps({"noise": "thermal", "steps": 4}))
    assert run_cli("validate", "--seed", "1", "--config", str(config)) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS config" in out

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"noise": "thermal", "t2_ratio": 9.0}))
    assert run_cli("validate", "--seed", "1", "--config", str(broken)) != EXIT_OK
    assert "FAIL config" in capsys.readouterr().out

    # a negative seed is a configuration error, as it is for sweep, found before any check runs
    assert run_cli("validate", "--seed", "-1") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "-1" in captured.err and captured.out == ""
    monkeypatch.setenv(SEED_ENV_VAR, "-3")
    assert run_cli("validate") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{SEED_ENV_VAR}=-3" in captured.err and captured.out == ""


def test_plot_command(tmp_path, capsys):
    out, argv = sweep_args(tmp_path, "--seed", "2")
    assert run_cli(*argv) == EXIT_OK
    svg = tmp_path / "plot.svg"
    assert run_cli("plot", str(out), "--y", "kappa", "--out", str(svg)) == EXIT_OK
    text = svg.read_text()
    assert text.startswith('<?xml') and "</svg>" in text
    assert ">p_readout</text>" in text  # x column auto-detected

    assert run_cli("plot", str(out), "--y", "volume", "--out", str(svg)) == EXIT_CONFIG
    assert run_cli("plot", str(out), "--x", "no_such", "--out", str(svg)) == EXIT_CONFIG
    assert run_cli("plot", str(tmp_path / "none.csv"), "--out", str(svg)) != EXIT_OK
    capsys.readouterr()


def test_plot_skips_undefined_metric_rows(tmp_path):
    out, argv = sweep_args(tmp_path, "--seed", "2")
    assert run_cli(*argv) == EXIT_OK
    svg = tmp_path / "f.svg"
    # p=1.0 row has no F value; the plot must simply drop it
    assert run_cli("plot", str(out), "--y", "f", "--out", str(svg)) == EXIT_OK
    assert svg.exists()
