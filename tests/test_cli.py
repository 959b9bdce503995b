"""Command-line interface: schema validation, exit codes, and artifacts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from symodes import __version__
from symodes import cli
from symodes.bench import BenchConfig, _config_snapshot
from symodes.cli import config_hash, main, validate_config
from symodes.discover import DiscoveryConfig, GpConfig


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# -- config validation -----------------------------------------------------------


def test_validate_config_accepts_minimal():
    validate_config({"system": "oscillator"})


def test_validate_config_reports_offending_path():
    with pytest.raises(Exception) as exc:
        validate_config({"system": "oscillator",
                         "discovery": {"lambda_sym": 0.1}})
    assert "discovery" in str(exc.value)
    with pytest.raises(Exception) as exc:
        validate_config({"system": "oscillator", "data": {"dt": -1.0}})
    assert "data.dt" in str(exc.value)


def test_discovery_schema_keys_are_the_config_fields():
    # A field added to only one of the dataclass and the schema fails here.
    section = cli.CONFIG_SCHEMA["properties"]["discovery"]["properties"]
    assert set(section) == set(DiscoveryConfig.__dataclass_fields__) - {"seed"}
    assert set(section["gp"]["properties"]) == \
        set(GpConfig.__dataclass_fields__)


def test_benchmark_schema_keys_are_the_bench_config_fields():
    # cmd_benchmark passes the benchmark section to BenchConfig as keywords,
    # so a key without a field would raise TypeError there (exit 2); the
    # other fields come from other sections or flags.
    section = cli.CONFIG_SCHEMA["properties"]["benchmark"]["properties"]
    elsewhere = {"system", "seed", "noise", "discovery", "generators", "data",
                 "jobs"}
    assert set(section) == set(BenchConfig.__dataclass_fields__) - elsewhere


def test_config_hash_ignores_out_and_jobs():
    base = {"system": "oscillator", "seeds": {"master": 3}}
    assert config_hash({**base, "out": "a", "jobs": 1}) == \
        config_hash({**base, "out": "b", "jobs": 8})
    assert config_hash(base) != config_hash({**base, "seeds": {"master": 4}})


def flag_sample(flag):
    """(argv tail, value expected at the flag's config path)."""
    if flag.type is bool:
        return [], True
    if flag.choices:
        return [flag.choices[0]], flag.choices[0]
    if flag.path == ("system",):
        return ["oscillator"], "oscillator"
    if flag.path == ("benchmark", "methods"):
        return ["sindy, equiv-c"], ["sindy", "equiv-c"]
    if flag.type in (int, float):
        return ["2"], flag.type("2")
    return ["somewhere"], "somewhere"


def test_every_flag_writes_a_schema_valid_config_path():
    parser = cli.build_parser()
    seen = set()
    for command, (_, _, flags) in cli.COMMANDS.items():
        for name in cli._COMMON_FLAGS + flags:
            flag = cli.FLAGS[name]
            tail, want = flag_sample(flag)
            cfg = cli.merge_config(parser.parse_args([command, name] + tail))
            validate_config(cfg)
            node = cfg
            for key in flag.path:
                node = node[key]
            assert node == want, (command, name)
            seen.add(name)
    assert seen == set(cli.FLAGS)


# -- exit codes ------------------------------------------------------------------


def test_unknown_system_exits_1(capsys):
    assert run_cli("nullspace", "--system", "wobbler") == 1
    err = capsys.readouterr().err
    assert "wobbler" in err


def test_bad_config_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": "oscillator",
                                  "benchmark": {"runz": 3}})
    assert run_cli("benchmark", "--config", cfg) == 1
    assert "benchmark" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "abc"],
    ["generate", "--bogus", "1"],
    ["discover", "--method", "nope"],
    [],
])
def test_usage_errors_exit_1(argv, capsys):
    # A mistake on the command line is a config error, like the same
    # mistake in a config file, not argparse's own status 2.
    assert run_cli(*argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_and_version_still_exit_0(capsys):
    for flag in ("--help", "--version"):
        with pytest.raises(SystemExit) as exc:
            run_cli(flag)
        assert exc.value.code == 0
    res = subprocess.run([sys.executable, "-m", "symodes.cli"],
                         capture_output=True, text=True)
    assert res.returncode == 1


@pytest.mark.parametrize("discovery, path", [
    ({"lambda_symm": -1.0}, "discovery.lambda_symm"),
    # the removed lambda grid is an unknown key
    ({"lambda_grid": [0.01, 0.1, 1.0]}, "discovery"),
    ({"gp": {"population": 0}}, "discovery.gp.population"),
    ({"gp": {"generations": -1}}, "discovery.gp.generations"),
    # fixed settings, not config keys
    ({"optimizer": {"max_iters": 5}}, "'optimizer'"),
    ({"gp": {"tournament": 5}}, "'tournament'"),
    ({"max_rounds": 3}, "'max_rounds'"),
    ({"flow_steps": 8}, "'flow_steps'"),
    ({"batch": 8}, "'batch'"),
])
def test_bad_discovery_values_exit_1(tmp_path, capsys, discovery, path):
    cfg = write_config(tmp_path, {"system": "oscillator",
                                  "method": "equiv-gp-r",
                                  "discovery": discovery})
    assert run_cli("discover", "--config", cfg) == 1
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("argv, path", [
    (["discover", "--method", "equiv-r", "--lambda", "-1"],
     "discovery.lambda_symm"),
    (["benchmark", "--methods", "sindy", "--runs", "1", "--horizon", "-1"],
     "benchmark.horizon"),
])
def test_bad_flag_values_exit_1(tmp_path, capsys, argv, path):
    # Refused by the schema before any data is generated.
    out = tmp_path / "out"
    assert run_cli(*argv, "--system", "oscillator", "--out", str(out)) == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, user", [
    (["benchmark", "--methods", "sindy,equiv-gp-r"], "equiv-gp-r"),
    (["benchmark", "--methods", "gp,equiv-r"], "equiv-r"),
    (["discover", "--method", "equiv-c"], "equiv-c"),
    (["nullspace"], "nullspace"),
    (["check-symmetry"], "check-symmetry"),
])
def test_a_user_of_generators_without_any_exits_1(tmp_path, capsys, argv,
                                                  user):
    # glycolytic registers no generator; nothing may run in their place.
    out = tmp_path / "out"
    assert run_cli(*argv, "--system", "glycolytic", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "config error at generators" in err and user in err
    assert not out.exists()


def test_missing_dataset_exits_2(tmp_path):
    assert run_cli("discover", "--dataset", str(tmp_path / "nope"),
                   "--method", "sindy") == 2


@pytest.mark.parametrize("change", [{"drop": "dim"},
                                    {"set": ("system", "wobbler")}])
def test_bad_dataset_manifest_exits_2(tmp_path, capsys, change):
    # A fault in the data is a runtime or data error, not a config error,
    # even when it surfaces as a missing key.
    manifest = {"format": "symodes-dataset", "system": "oscillator",
                "dim": 2, "seed": 0, "dt": 0.2, "threshold": 0.05,
                "noise": {"kind": "none", "sigma": 0.0}, "splits": {}}
    if "drop" in change:
        del manifest[change["drop"]]
    else:
        key, value = change["set"]
        manifest[key] = value
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("discover", "--dataset", str(data), "--method", "sindy",
                   "--out", str(tmp_path / "m")) == 2
    assert "error:" in capsys.readouterr().err


def test_broken_symmetry_pair_exits_3(tmp_path, capsys):
    # Claiming a scaling symmetry for the rotationally symmetric oscillator
    # must fail the consistency check.
    cfg = write_config(tmp_path, {
        "system": "oscillator",
        "generators": [{"kind": "linear",
                        "matrix": [[1.0, 0.0], [0.0, 0.0]],
                        "label": "bogus"}],
        "out": str(tmp_path / "chk")})
    assert run_cli("check-symmetry", "--config", cfg) == 3
    out = capsys.readouterr().out
    assert "NOT" in out


def test_check_symmetry_exact_pair_exits_0(tmp_path, capsys):
    assert run_cli("check-symmetry", "--system", "oscillator",
                   "--out", str(tmp_path / "chk")) == 0
    payload = json.loads((tmp_path / "chk" / "check_symmetry.json")
                         .read_text())
    assert payload["report"]["consistent"] is True
    assert payload["report"]["max"] <= 1e-10
    assert payload["provenance"]["tool_version"] == __version__


def test_check_symmetry_points_and_tol_are_part_of_the_config(tmp_path):
    hashes = []
    for points in (10, 20):
        out = tmp_path / str(points)
        assert run_cli("check-symmetry", "--system", "oscillator",
                       "--points", str(points), "--out", str(out)) == 0
        payload = json.loads((out / "check_symmetry.json").read_text())
        assert payload["n_points"] == points
        hashes.append(payload["provenance"]["config_hash"])
    assert hashes[0] != hashes[1]
    # A config file can set them too, and a flag wins over the file.
    cfg = write_config(tmp_path, {"system": "oscillator",
                                  "check": {"points": 10, "tol": 1e-6},
                                  "out": str(tmp_path / "file")})
    assert run_cli("check-symmetry", "--config", cfg, "--tol", "1e-7") == 0
    payload = json.loads((tmp_path / "file" / "check_symmetry.json")
                         .read_text())
    assert payload["n_points"] == 10
    assert payload["report"]["tol"] == 1e-7
    assert run_cli("check-symmetry", "--config", cfg, "--points", "0") == 1


# -- nullspace -------------------------------------------------------------------


def test_nullspace_prints_dimension_and_writes_artifact(tmp_path, capsys):
    assert run_cli("nullspace", "--system", "oscillator",
                   "--out", str(tmp_path / "ns")) == 0
    out = capsys.readouterr().out
    assert "r = 2" in out
    payload = json.loads((tmp_path / "ns" / "nullspace.json").read_text())
    assert payload["r"] == 2
    assert len(payload["singular_values"]) > 0
    prov = payload["provenance"]
    assert set(prov) == {"tool_version", "config_hash", "master_seed"}


def test_nullspace_growth_and_seir(tmp_path, capsys):
    assert run_cli("nullspace", "--system", "growth",
                   "--out", str(tmp_path / "g")) == 0
    assert "r = 3" in capsys.readouterr().out
    assert run_cli("nullspace", "--system", "seir",
                   "--out", str(tmp_path / "s")) == 0
    assert "r = 34" in capsys.readouterr().out


# -- generate / discover round trip ------------------------------------------------


def test_generate_then_discover_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    assert run_cli("generate", "--system", "oscillator", "--noise", "0",
                   "--samples", "40", "--train", "4", "--val", "1",
                   "--test", "1", "--seed", "7", "--out", str(data)) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["system"] == "oscillator"
    assert manifest["provenance"]["master_seed"] == 7

    model_dir = tmp_path / "model"
    assert run_cli("discover", "--dataset", str(data), "--method", "equiv-c",
                   "--out", str(model_dir)) == 0
    out = capsys.readouterr().out
    assert "x1' =" in out
    payload = json.loads((model_dir / "model.json").read_text())
    coeffs = payload["coefficients"]
    assert coeffs[0]["x2"] == pytest.approx(-1.0, abs=1e-2)
    assert coeffs[1]["x1"] == pytest.approx(1.0, abs=1e-2)


def test_discover_rejects_data_keys_with_a_saved_dataset(tmp_path, capsys):
    # A saved dataset is used as written: a data flag next to --dataset
    # would change the config hash and nothing else, so it is a config error.
    data = tmp_path / "data"
    assert run_cli("generate", "--system", "oscillator", "--noise", "0",
                   "--samples", "30", "--train", "2", "--val", "0",
                   "--test", "0", "--seed", "7", "--out", str(data)) == 0
    capsys.readouterr()
    model_dir = tmp_path / "model"
    assert run_cli("discover", "--dataset", str(data), "--method", "sindy",
                   "--noise", "0.5", "--out", str(model_dir)) == 1
    assert "data" in capsys.readouterr().err
    assert not (model_dir / "model.json").exists()
    cfg = write_config(tmp_path, {"dataset": str(data),
                                  "data": {"n_samples": 20},
                                  "out": str(model_dir)})
    assert run_cli("discover", "--config", cfg, "--method", "sindy") == 1
    assert "data" in capsys.readouterr().err
    assert run_cli("discover", "--dataset", str(data), "--method", "sindy",
                   "--out", str(model_dir)) == 0


def test_discover_refuses_a_system_other_than_the_datasets(tmp_path,
                                                          capsys):
    # The fit would use the dataset's system while the config hash records
    # the other one; naming the dataset's own system stays allowed.
    data = tmp_path / "data"
    assert run_cli("generate", "--system", "oscillator", "--noise", "0",
                   "--samples", "30", "--train", "2", "--val", "0",
                   "--test", "0", "--out", str(data)) == 0
    capsys.readouterr()
    model_dir = tmp_path / "model"
    assert run_cli("discover", "--dataset", str(data), "--system", "growth",
                   "--method", "sindy", "--out", str(model_dir)) == 1
    err = capsys.readouterr().err
    assert "config error at system" in err and "oscillator" in err
    assert not model_dir.exists()
    assert run_cli("discover", "--dataset", str(data), "--system",
                   "oscillator", "--method", "sindy",
                   "--out", str(model_dir)) == 0


def test_discover_derives_a_saved_datasets_targets_again(tmp_path, capsys):
    # A saved dataset holds observations only, and discover --dataset fits
    # the W of discover --system on the same seed and data section.  The
    # smoothed and derivative columns of a format 1 file are ignored: here
    # they hold wrong values, and the W stays that of the dataset.
    data = tmp_path / "data"
    cfg = write_config(tmp_path, {
        "system": "oscillator", "seeds": {"master": 7},
        "data": {"n_samples": 40, "n_train": 4, "n_val": 1, "n_test": 1}})
    assert run_cli("generate", "--config", cfg, "--out", str(data)) == 0

    def fitted(*source):
        out = tmp_path / "model"
        assert run_cli("discover", *source, "--method", "sindy",
                       "--out", str(out)) == 0
        return json.loads((out / "model.json").read_text())["W"]

    want = fitted("--config", cfg)
    assert (data / "train_000.csv").read_text().startswith("t,x1,x2\n")
    assert fitted("--dataset", str(data)) == want
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["format_version"] = 1
    del manifest["meta"]["smooth_splits"]
    (data / "manifest.json").write_text(json.dumps(manifest))
    for path in data.glob("*.csv"):
        header, *rows = path.read_text().splitlines()
        x = np.array([row.split(",") for row in rows], dtype=float)[:, 1:]
        bad = np.hstack([3.0 * x, np.zeros_like(x)])     # xs*, dx*
        path.write_text(header + ",xs1,xs2,dx1,dx2\n" + "".join(
            row + "".join("," + repr(v) for v in extra) + "\n"
            for row, extra in zip(rows, bad.tolist())))
    assert fitted("--dataset", str(data)) == want
    capsys.readouterr()


@pytest.mark.parametrize("method", ["sindy", "equiv-c", "equiv-r", "gp"])
def test_an_empty_training_split_exits_2_and_names_it(tmp_path, capsys,
                                                      method):
    cfg = write_config(tmp_path, {"system": "oscillator",
                                  "data": {"n_train": 0},
                                  "out": str(tmp_path / "m")})
    assert run_cli("discover", "--config", cfg, "--method", method) == 2
    assert "ValueError: the training split is empty" in \
        capsys.readouterr().err


def test_equiv_r_non_finite_objective_is_a_public_error(tmp_path, capsys):
    # On growth the fgfe flow of an L-BFGS-B iterate overflows, and the
    # failure reaches the user by its public name, with the lambda it hit.
    with np.errstate(all="ignore"):
        assert run_cli("discover", "--system", "growth", "--method",
                       "equiv-r", "--loss", "fgfe",
                       "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "error: FloatingPointError:" in err and "lambda" in err
    assert "_NonFiniteLoss" not in err


def test_flag_overrides_config_file(tmp_path):
    # The config file asks for noisy data; the command line wins.
    data = tmp_path / "d"
    cfg = write_config(tmp_path, {
        "system": "oscillator",
        "data": {"noise": 0.2, "n_samples": 30, "n_train": 2, "n_val": 0,
                 "n_test": 0},
        "seeds": {"master": 5},
        "out": str(data)})
    assert run_cli("generate", "--config", cfg, "--noise", "0") == 0
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["noise"]["kind"] == "none"


# -- benchmark -------------------------------------------------------------------


def test_benchmark_artifacts_and_provenance(tmp_path, capsys):
    out = tmp_path / "bench"
    cfg = write_config(tmp_path, {
        "system": "oscillator",
        "benchmark": {"methods": ["sindy", "equiv-c"], "runs": 1},
        "data": {"noise": 0.0, "n_samples": 30, "n_train": 2, "n_val": 1,
                 "n_test": 1},
        "seeds": {"master": 1},
        "out": str(out)})
    assert run_cli("benchmark", "--config", cfg) == 0
    report = json.loads((out / "report.json").read_text())
    prov = report["provenance"]
    assert prov["tool_version"] == __version__
    assert prov["master_seed"] == 1
    for fname in ("tables.csv", "ltp.csv"):
        head = (out / fname).read_text().splitlines()[:3]
        assert any(line.startswith("# config_hash=") for line in head)
        assert any(line.startswith("# master_seed=") for line in head)
    agg = report["aggregates"]
    assert agg["equiv-c"]["success"]["all"] == 1.0


def test_explicit_generators_make_a_symmetric_benchmark_valid(tmp_path):
    out = tmp_path / "bench"
    cfg = write_config(tmp_path, {
        "system": "glycolytic",
        "generators": [{"kind": "linear", "matrix": [[1.0, 0.0],
                                                      [0.0, 1.0]]}],
        "benchmark": {"methods": ["sindy", "equiv-gp-r"], "runs": 1,
                      "n_checkpoints": 2, "ltp_ics": 1},
        "data": {"n_samples": 40, "n_train": 2, "n_val": 0, "n_test": 1},
        "discovery": {"gp": {"population": 8, "generations": 1}},
        "out": str(out)})
    assert run_cli("benchmark", "--config", cfg) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["error"] for r in report["records"]] == ["", ""]
    assert len(report["config"]["generators"]) == 1


def test_benchmark_refuses_a_library_section(tmp_path, capsys):
    # Every method is scored in the system's registry library.
    out = tmp_path / "bench"
    cfg = write_config(tmp_path, {
        "system": "oscillator", "library": {"degree": 3},
        "benchmark": {"methods": ["sindy"], "runs": 1, "n_checkpoints": 1,
                      "ltp_ics": 1},
        "data": {"n_samples": 30, "n_train": 2, "n_val": 0, "n_test": 1},
        "out": str(out)})
    assert run_cli("benchmark", "--config", cfg) == 1
    assert "config error at library" in capsys.readouterr().err
    assert not out.exists()


class _Stop(Exception):
    pass


@pytest.mark.parametrize("section, given", [
    ({}, {}),
    ({"runs": 3}, {"runs": 3}),
    ({"methods": ["gp", "sindy"], "horizon": None, "ltp_ics": 2},
     {"methods": ("gp", "sindy"), "ltp_ics": 2}),
    ({"horizon": 4.5, "n_checkpoints": 3}, {"horizon": 4.5,
                                            "n_checkpoints": 3}),
])
def test_benchmark_section_fills_bench_config(monkeypatch, section, given):
    # Keys the section leaves out keep these defaults, and the report's
    # config snapshot has the same bytes as for the fully spelled-out config.
    seen = []

    def capture(bc):
        seen.append(bc)
        raise _Stop

    monkeypatch.setattr(cli, "run_benchmark", capture)
    with pytest.raises(_Stop):
        cli.cmd_benchmark({"system": "oscillator", "benchmark": section})
    fields = {"methods": ("sindy", "equiv-c"), "runs": 20, "horizon": None,
              "n_checkpoints": 10, "ltp_ics": 5, **given}
    want = BenchConfig(system="oscillator", seed=0, **fields)
    assert seen == [want]
    assert (json.dumps(_config_snapshot(seen[0]))
            == json.dumps(_config_snapshot(want)))


def test_console_entry_point_reports_version():
    res = subprocess.run([sys.executable, "-m", "symodes.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert __version__ in res.stdout + res.stderr
