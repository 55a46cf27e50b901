"""Command-line interface: subcommands, outputs, exit codes."""

import json

import pytest

import perfgan
from perfgan.cli import main


def write_config(tmp_path, **overrides):
    base = {
        "space": [
            {"name": "big_cpus", "levels": [0, 2, 4]},
            {"name": "big_freq", "levels": [500, 1000, 2000]},
            {"name": "big_util", "levels": [0.25, 0.5, 1.0]},
            {"name": "little_cpus", "levels": [0, 2, 4]},
            {"name": "little_freq", "levels": [400, 800, 1500]},
            {"name": "little_util", "levels": [0.25, 0.5, 1.0]},
        ],
        "sut": {"p_idle": 0.5, "kappa_big": 1.0, "kappa_little": 0.15, "gain": 2.0},
        "fitness": {"p_m": 6.0},
        "algorithms": [
            {"kind": "random", "budget": 16, "warmup": 6},
            {"kind": "dn", "budget": 16, "warmup": 6, "batchsize": 4,
             "gan": {"disc_epochs": 2, "gen_epochs": 2}},
            {"kind": "ogan", "budget": 16, "warmup": 6,
             "gan": {"disc_epochs": 2, "gen_epochs": 2}},
        ],
        "runs": 2,
        "master_seed": 5,
        "sma_window": 4,
        "histogram_bins": 10,
    }
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == perfgan.__version__


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_compare_writes_outputs(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    for name in ("tests.csv", "summary.json", "histogram.csv", "sma.csv"):
        assert (out / name).exists()


def test_compare_overrides(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = main([
        "compare", "--config", str(config), "--out", str(out),
        "--runs", "1", "--master-seed", "99",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["runs"] == 1
    assert summary["config"]["master_seed"] == 99
    assert len(summary["algorithms"]["random"]["positive_counts"]) == 1


def test_run_single_algorithm(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "single"
    code = main([
        "run", "--algorithm", "ogan", "--config", str(config),
        "--seed", "123", "--out", str(out),
    ])
    assert code == 0
    rows = (out / "tests.csv").read_text().splitlines()
    assert len(rows) == 1 + 16
    assert rows[1].split(",")[1] == "ogan"
    assert rows[1].split(",")[2] == "123"


def test_run_missing_kind_is_config_error(tmp_path):
    config = write_config(tmp_path, algorithms=[{"kind": "random", "budget": 16,
                                                 "warmup": 6}])
    code = main([
        "run", "--algorithm", "ogan", "--config", str(config),
        "--seed", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 1


def test_oracle_prints_facts(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["oracle", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert lines["cardinality"] == "729"
    assert int(lines["positives"]) > 0
    assert 0.0 < float(lines["density"]) < 1.0
    assert float(lines["gain"]) == 2.0


def test_bad_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["oracle", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_master_seed_is_config_error(tmp_path, capsys, where):
    config = write_config(tmp_path, **({"master_seed": -1} if where == "config" else {}))
    argv = ["compare", "--config", str(config), "--out", str(tmp_path / "out")]
    if where == "flag":
        argv += ["--master-seed", "-1"]
    assert main(argv) == 1
    assert "config error: master_seed" in capsys.readouterr().err


def test_negative_run_seed_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main([
        "run", "--algorithm", "random", "--config", str(config),
        "--seed", "-1", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "config error: --seed" in capsys.readouterr().err


def test_target_density_out_of_range_is_config_error(tmp_path, capsys):
    config = write_config(
        tmp_path, sut={"p_idle": 0.5, "kappa_big": 1.0, "kappa_little": 0.15,
                       "target_density": 1.5},
    )
    assert main(["oracle", "--config", str(config)]) == 1
    assert "config error: sut.target_density" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_non_finite_number_is_config_error(tmp_path, capsys, command):
    config = write_config(
        tmp_path, sut={"p_idle": 0.5, "kappa_big": 1.0, "kappa_little": 0.15,
                       "gain": float("inf")},
    )
    out = tmp_path / "out"
    argv = [command, "--config", str(config)]
    assert main(argv + (["--out", str(out)] if command == "compare" else [])) == 1
    assert "config error: sut.gain" in capsys.readouterr().err
    assert not out.exists()


SPACE_FAULTS = {
    # a negative CPU count makes power negative
    "negative_level": ({0: [-4, -2, 0]}, "levels must be nonnegative"),
    # cpus x utilization overflows to an infinite power
    "infinite_power": ({0: [0, 1e200], 2: [0.1, 1e200]}, "power at the top level"),
}


@pytest.mark.parametrize("fault", sorted(SPACE_FAULTS))
@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_space_with_bad_power_is_config_error(tmp_path, capsys, command, fault):
    levels, message = SPACE_FAULTS[fault]
    space = json.loads(write_config(tmp_path).read_text())["space"]
    for j, values in levels.items():
        space[j]["levels"] = values
    config = write_config(tmp_path, space=space)
    out = tmp_path / "out"
    argv = [command, "--config", str(config)]
    assert main(argv + (["--out", str(out)] if command == "compare" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_repeated_key_is_config_error(tmp_path, capsys, command):
    config = write_config(tmp_path)
    text = config.read_text()
    config.write_text(text.replace('"runs": 2', '"runs": 10, "runs": 2', 1))
    out = tmp_path / "out"
    argv = [command, "--config", str(config)]
    assert main(argv + (["--out", str(out)] if command == "compare" else [])) == 1
    assert "config error: runs: repeated key" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_one(tmp_path):
    assert main(["oracle", "--config", str(tmp_path / "absent.json")]) == 1


def _assert_config_error_everywhere(tmp_path, capsys, config):
    argvs = [
        ["oracle", "--config", str(config)],
        ["compare", "--config", str(config), "--out", str(tmp_path / "out")],
        ["run", "--algorithm", "dn", "--config", str(config), "--seed", "1",
         "--out", str(tmp_path / "single")],
    ]
    for argv in argvs:
        assert main(argv) == 1
        assert f"config error: {config}" in capsys.readouterr().err


def test_undecodable_config_is_config_error(tmp_path, capsys):
    config = tmp_path / "utf16.json"
    config.write_bytes(b"\xff\xfe{\x00}\x00")
    _assert_config_error_everywhere(tmp_path, capsys, config)


def test_directory_as_config_is_config_error(tmp_path, capsys):
    config = tmp_path / "a_directory"
    config.mkdir()
    _assert_config_error_everywhere(tmp_path, capsys, config)


def test_unwritable_output_exits_two(tmp_path):
    config = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["compare", "--config", str(config), "--out", str(blocker)])
    assert code == 2
