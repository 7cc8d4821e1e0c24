"""Command-line entry points, exercised in process via main(argv)."""

import json
from pathlib import Path

import pytest

from spanlab import cli
from spanlab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DOMAIN = {
    "outer": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
    "holes": [{"kind": "circle", "center": [0.0, 0.0], "radius": 0.5}],
    "anchors": [[0.0, 0.0]],
}


@pytest.fixture
def domain_file(tmp_path):
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(DOMAIN))
    return str(path)


@pytest.fixture
def run_file(tmp_path):
    config = {
        "experiment": "metric-distance",
        "domain": {"outer": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}},
        "base_point": [1.0, 0.0],
        "steps": [0.1, 0.05, 0.025, 0.0125],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_oracle_all(capsys):
    assert main(["oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # three depths on the disk and on annulus(0.5) toward 1 and 0.5, two on
    # the dense route
    assert len(lines) == 11
    assert all(line.startswith("[PASS]") and line.endswith("<= 1e-08") for line in lines)
    assert sum("route=dense, converged=True" in line for line in lines) == 2


def test_oracle_fails_a_model_that_misses_its_oracle(monkeypatch, capsys):
    exact = cli._exact

    def off_by_a_millionth(reference, phi, z):
        metric, kappas = exact(reference, phi, z)
        return metric * (1.0 + 1e-6), kappas

    monkeypatch.setattr(cli, "_exact", off_by_a_millionth)
    assert main(["oracle"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("[FAIL]") for line in lines)
    assert "max relative gap 1.0e-06 <= 1e-08" in lines[0]


def test_oracle_fails_a_model_that_did_not_converge(monkeypatch, capsys):
    build = cli.build_model

    def unconverged(*args, **kwargs):
        model = build(*args, **kwargs)
        model.meta["converged"] = False
        return model

    monkeypatch.setattr(cli, "build_model", unconverged)
    assert main(["oracle"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("[FAIL]") and "converged=False" in line for line in lines)


def test_oracle_unknown_name(capsys):
    # the oracle command takes no name: it runs its whole table
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "astrology"])
    assert exc.value.code == 2
    assert "unrecognized arguments: astrology" in capsys.readouterr().err


def test_validate_domain(domain_file, capsys):
    assert main(["validate", domain_file]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "route=diagonal" in out and "nodes=None" in out


def test_validate_prints_the_gram_nodes(tmp_path, capsys):
    # |z| < 1 minus B(0.2, 0.4) builds at degree 256: 512 functions, and
    # 2 * 257 + 64 = 578 nodes from the highest power, not 2 * 512 + 64,
    # rounded up to 640, a multiple of 64.
    path = tmp_path / "eccentric.json"
    hole = {"kind": "circle", "center": [0.2, 0.0], "radius": 0.4}
    path.write_text(json.dumps({"outer": DOMAIN["outer"], "holes": [hole], "anchors": [[0.2, 0.0]]}))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "model: route=dense degree=256 size=512 " in out and " nodes=640\n" in out


def test_validate_run_config(run_file, capsys):
    assert main(["validate", run_file]) == 0
    out = capsys.readouterr().out
    assert "metric-distance" in out


@pytest.mark.parametrize("command", ["run", "validate"])
def test_unknown_experiment_is_rejected(run_file, command, capsys):
    path = Path(run_file)
    config = json.loads(path.read_text())
    config["experiment"] = "metric-distanse"
    path.write_text(json.dumps(config))
    assert main([command, run_file]) == 2
    out, err = capsys.readouterr()
    assert "unknown experiment 'metric-distanse'" in err
    assert "[PASS]" not in out


def test_run_writes_outputs(run_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["run", run_file, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert (out_dir / "metric_distance.csv").exists()
    assert (out_dir / "metric_distance.svg").exists()


def test_run_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": "metric-distance", "domain": {}, "base_point": [1, 0], "bogus": 1}))
    assert main(["run", str(path)]) == 2
    assert "unknown keys" in capsys.readouterr().err
    # known keys with malformed values are rejected the same way
    disk = {"outer": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}}
    for key, value in (
        ("base_point", ["a", 0]),
        ("steps", ["x", 0.1]),
        ("steps", 0.1),
        ("orders", ["one"]),
        ("orders", None),
        ("orders", "12"),
        ("orders", [1.7]),
        ("steps", [True, 0.5]),
        ("base_point", [True, 0]),
        ("steps", [10**400, 0.1]),
    ):
        config = {"experiment": "metric-distance", "domain": disk, "base_point": [1, 0]}
        config[key] = value
        path.write_text(json.dumps(config))
        assert main(["run", str(path)]) == 2, (key, value)
        err = capsys.readouterr().err
        assert f"{key}: malformed value" in err and "Traceback" not in err
    # build tolerances and the clip radius are constants, not run-config keys
    for key in ("metric_tol", "curvature_tol", "clip_radius"):
        config = {"experiment": "metric-distance", "domain": disk, "base_point": [1, 0], key: 1e-8}
        path.write_text(json.dumps(config))
        assert main(["run", str(path)]) == 2, key
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
    # and so are malformed numbers inside the domain
    square = [[1, -1], [1, 1], [-1, 1], [-1, -1]]
    for outer, where in (
        ({"kind": "circle", "center": [0.0, 0.0], "radius": None}, "domain.outer.radius"),
        ({"kind": "polygon", "vertices": square, "smoothing": -5}, "domain.outer.smoothing"),
    ):
        config = {"experiment": "metric-distance", "domain": {"outer": outer}, "base_point": [1, 0]}
        path.write_text(json.dumps(config))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{where}: malformed value" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"steps": [0.1]}, "steps: need at least two depth steps"),
        ({"steps": [0.1, 0.2]}, "steps: depth steps must strictly decrease"),
        ({"orders": []}, "orders: curvature orders must be a nonempty list"),
        ({"domain": {"outer": {"kind": "polygon", "vertices": [[1, -1], [1, 1], [-1, 1]], "modes": 0}}},
         "domain.outer: curve has no nonconstant Fourier mode"),
        ({"domain": {"outer": {"kind": "polygon", "vertices": [[1, -1], [1, 1], [-1, 1]], "smoothing": 1e6}}},
         "domain.outer: curve has no nonconstant Fourier mode"),
        ({"domain": {**DOMAIN, "holes": [{"kind": "fourier", "coefficients": {"0": [0, 0]}}]}},
         "domain.holes[0]: curve has no nonconstant Fourier mode"),
    ],
    ids=["one-step", "increasing", "no-orders", "polygon-modes", "polygon-smoothing", "hole"],
)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_refused_values_name_where_they_are(run_file, command, change, message, capsys):
    path = Path(run_file)
    config = json.loads(path.read_text())
    config.update(change)
    path.write_text(json.dumps(config))
    assert main([command, run_file]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert "[PASS]" not in out


def test_run_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1e-6", "0", "inf"])
def test_validate_rejects_bad_tolerance(domain_file, tol, capsys):
    # validate builds at a fixed 1e-6; a tolerance on the command line is
    # a usage error, and the guard of build_model itself is tested in
    # test_dirichlet.py::test_build_model_rejects_bad_tolerances
    with pytest.raises(SystemExit) as exc:
        main(["validate", domain_file, f"--tol={tol}"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --tol={tol}" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_checked_in_configs_validate(path, capsys):
    assert main(["validate", str(path)]) == 0


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/no/such/file.json"]) == 2


@pytest.mark.parametrize("command", ["run", "validate"])
def test_directory_is_an_error_not_a_crash(tmp_path, command, capsys):
    assert main([command, str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_out_is_an_error_not_a_crash(run_file, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file where the output directory should go")
    assert main(["run", run_file, "--out", str(blocker)]) == 2
    assert "error: " in capsys.readouterr().err


def test_validate_rejects_malformed_domain(tmp_path, capsys):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"outer": {"kind": "circle", "radius": 1.0}}))
    assert main(["validate", str(path)]) == 2
    assert "center" in capsys.readouterr().err
