"""Smoke tests of the command-line scripts in ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_curvature_scan_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    csv = tmp_path / "scan.csv"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "curvature_scan.py"), "--count", "5", "--csv", str(csv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = csv.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    assert len(rows) == 5
    assert all(row["margin1"] > 0.0 for row in rows)


def test_output_digest_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    # 5 run configs x (stdout, one line per CSV column, SVG), then metric,
    # metric_matrix and kernel_matrix of a diagonal-route model, metric and
    # metric_matrix of a dense-route one, and three geometry outputs
    lines = done.stdout.splitlines()
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    names = [line.split("  ")[1] for line in lines]
    assert sum(name.endswith(".stdout") for name in names) == 5
    assert sum(name.endswith(".svg") for name in names) == 5
    assert not any(name.endswith(".csv") for name in names)
    csvs = {name.split(":")[0] for name in names if ".csv:" in name}
    assert len(csvs) == 5
    for csv in csvs:
        assert {f"{csv}:t", f"{csv}:degree", f"{csv}:eps_model"} <= set(names)
    assert names[-8:] == [
        "model.metric",
        "model.metric_matrix",
        "model.kernel_matrix",
        "dense.metric",
        "dense.metric_matrix",
        "geometry.scaled_nodes",
        "geometry.clip_samples",
        "geometry.ellipse_feet",
    ]
    assert len(lines) == 52
