"""Experiment drivers: schedules, gates, diagnostics, and result files."""

import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import spanlab as sl
from spanlab.lab import cauchy_decay, decay_order

SHORT = tuple(0.1 * 0.5**j for j in range(4))


@pytest.fixture(scope="module")
def metric_run(disk_domain):
    config = sl.ExperimentConfig(base_point=1.0 + 0.0j, steps=SHORT)
    return sl.run_experiment("metric-distance", disk_domain, config)


@pytest.fixture(scope="module")
def curvature_run(annulus_domain):
    config = sl.ExperimentConfig(base_point=1.0 + 0.0j, steps=SHORT, orders=(1,))
    return sl.run_experiment("curvature-limit", annulus_domain, config)


@pytest.fixture(scope="module")
def localization_run(annulus_domain):
    config = sl.ExperimentConfig(base_point=1.0 + 0.0j, steps=SHORT)
    return sl.run_experiment("localization", annulus_domain, config)


@pytest.fixture(scope="module")
def scaling_run(disk_domain):
    config = sl.ExperimentConfig(base_point=1.0 + 0.0j, steps=SHORT[:3])
    return sl.run_experiment("scaling-kernel", disk_domain, config)


def test_default_schedule():
    steps = sl.ExperimentConfig(base_point=1.0).steps
    assert len(steps) == 10
    assert steps[0] == 0.1
    assert all(b == a / 2 for a, b in zip(steps, steps[1:]))


def test_config_rejects_single_step():
    # too few steps, or no curvature order at all
    for kwargs in ({"steps": (0.1,)}, {"orders": ()}):
        with pytest.raises(sl.ConfigError):
            sl.ExperimentConfig(base_point=1.0, **kwargs)


def test_config_rejects_nonpositive_step():
    for kwargs in (
        {"steps": (0.1, 0.0)},
        {"steps": (float("nan"), 0.1)},
        {"orders": (0,)},
        {"orders": (1, -2)},
    ):
        with pytest.raises(sl.ConfigError):
            sl.ExperimentConfig(base_point=1.0, **kwargs)


def test_config_rejects_nondecreasing_steps():
    for steps in ((0.05, 0.1), (0.1, 0.1, 0.05)):
        with pytest.raises(sl.ConfigError):
            sl.ExperimentConfig(base_point=1.0, steps=steps)


def test_decay_order_recovers_power():
    t = np.array([0.1, 0.05, 0.025, 0.0125])
    assert decay_order(t, 3.0 * t**2) == pytest.approx(2.0)
    assert decay_order(t, 0.7 * t) == pytest.approx(1.0)


def test_decay_order_needs_two_positive_gaps():
    assert np.isnan(decay_order([0.1, 0.05], [0.0, 0.0]))


def test_cauchy_decay():
    assert cauchy_decay([1.0, 0.5, 0.25, 0.125])
    assert not cauchy_decay([1.0, 0.5])  # too short to judge
    assert not cauchy_decay([1.0, 1.1, 1.2, 1.6])  # growing increments


def test_unknown_experiment_rejected(disk_domain):
    config = sl.ExperimentConfig(base_point=1.0, steps=SHORT)
    with pytest.raises(sl.ConfigError, match="unknown experiment"):
        sl.run_experiment("frobnicate", disk_domain, config)


def test_metric_distance_run(metric_run):
    assert metric_run.passed, metric_run.gates
    for key in ("t", "metric", "dist", "product", "gap", "degree", "eps_model"):
        assert key in metric_run.columns
        assert len(metric_run.columns[key]) == len(SHORT)
    # on the unit disk s * dist^2 = 1/(2 - t)^2 exactly
    t = metric_run.columns["t"]
    assert np.allclose(metric_run.columns["product"], 1.0 / (2.0 - t) ** 2, atol=1e-8)
    assert metric_run.meta["order"] >= 0.9


def test_curvature_limit_run(curvature_run):
    assert curvature_run.passed, curvature_run.gates
    kappa = curvature_run.columns["kappa1"]
    # the hole keeps the curvature strictly below the disk value at any depth
    assert np.all(kappa < -4.0)
    # and the gap to -4 shrinks towards the boundary
    gap = curvature_run.columns["gap1"]
    assert np.all(np.diff(gap) < 0)


def test_localization_run(localization_run):
    assert localization_run.passed, localization_run.gates
    ratio = localization_run.columns["ratio"]
    assert np.all(ratio >= 1.0 - 1e-12)
    hd = localization_run.columns["halfdisk_ratio"]
    assert np.all((hd > 0) & (hd <= 1.0))
    assert localization_run.meta["u_radius"] == pytest.approx(0.25)


def test_localization_needs_room(annulus_domain):
    config = sl.ExperimentConfig(base_point=1.0, steps=(0.3, 0.15))
    with pytest.raises(sl.ConfigError, match="localization disk"):
        sl.run_experiment("localization", annulus_domain, config)


def test_localization_needs_circular_outer():
    domain = sl.ellipse(semi_axes=(1.0, 0.6))
    config = sl.ExperimentConfig(base_point=1.0, steps=(0.05, 0.025))
    with pytest.raises(sl.ConfigError, match="circular outer"):
        sl.run_experiment("localization", domain, config)


def test_scaling_run(scaling_run):
    assert scaling_run.passed, scaling_run.gates
    sup = scaling_run.columns["sup_kernel_gap"]
    assert sup[-1] < sup[0] / 4.0
    assert scaling_run.columns["dropped"].max() == 0  # disk grid sits inside
    assert abs(scaling_run.meta["omega"][0] - 1.0) < 1e-9  # normal at z=1 is +1


@pytest.mark.parametrize(
    "fixture, names",
    [
        ("metric_run", ["t", "metric", "dist", "product", "gap", "degree", "eps_model"]),
        ("curvature_run", ["t", "kappa1", "gap1", "degree", "eps_model"]),
        (
            "localization_run",
            ["t", "ratio", "gap", "sandwich", "halfdisk_ratio", "degree", "eps_model"],
        ),
        ("scaling_run", ["t", "sup_kernel_gap", "hausdorff", "dropped", "degree", "eps_model"]),
    ],
)
def test_columns_in_order(request, fixture, names):
    result = request.getfixturevalue(fixture)
    assert list(result.columns) == names
    steps = len(result.columns["t"])
    assert all(len(column) == steps for column in result.columns.values())
    assert result.meta["degrees"] == result.columns["degree"].astype(int).tolist()
    assert len(result.meta["eps_model"]) == len(result.meta["condition"]) == steps


# localization is left out: its depths stay inside the localization disk,
# which lies in the domain, so its schedule cannot leave the domain.
@pytest.mark.parametrize("name", ["metric-distance", "curvature-limit", "scaling-kernel"])
def test_schedule_leaving_domain_fails_before_any_build(name, disk_domain, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build_model called before the schedule was checked")

    monkeypatch.setattr("spanlab.lab.build_model", no_build)
    config = sl.ExperimentConfig(base_point=1.0, steps=(2.5, 0.1))
    with pytest.raises(sl.DomainError, match="step 2.5 leaves the domain"):
        sl.run_experiment(name, disk_domain, config)


def test_gate_lines_format(metric_run):
    lines = metric_run.gate_lines()
    assert lines and all(line.startswith("[PASS] metric_distance:") for line in lines)


def test_table_renders(metric_run):
    text = metric_run.table()
    rows = text.splitlines()
    assert rows[0].split() == list(metric_run.columns)
    assert len(rows) == 1 + len(SHORT)


def test_save_writes_csv_and_svg(metric_run, tmp_path):
    written = metric_run.save(str(tmp_path))
    assert [p.rsplit(".", 1)[1] for p in written] == ["csv", "svg"]
    with open(written[0], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(metric_run.columns)
    values = np.array(rows[1:], dtype=float)
    assert values.shape == (len(SHORT), len(metric_run.columns))
    assert np.allclose(values[:, 0], metric_run.columns["t"])
    root = ET.parse(written[1]).getroot()
    assert root.tag.endswith("svg")
    # saving again reproduces the files byte for byte
    first = [open(p, "rb").read() for p in written]
    metric_run.save(str(tmp_path))
    assert [open(p, "rb").read() for p in written] == first


def test_base_point_on_a_hole(annulus_domain):
    # On the hole |z| = 1/2 of annulus(0.5) the domain lies outside the circle.
    steps = (0.032, 0.016, 0.008)
    points = sl.inner_normal_sequence(annulus_domain, 0.5, steps)
    assert np.allclose(points, 0.5 + np.array(steps), rtol=0.0, atol=1e-15)
    for t, z in zip(steps, points):
        assert sl.signed_distance(annulus_domain, z) == pytest.approx(-t, abs=1e-12)
    assert sl.outward_normal(annulus_domain, 0.5) == pytest.approx(-1.0, abs=1e-12)
    config = sl.ExperimentConfig(base_point=0.5, steps=steps)
    result = sl.run_experiment("metric-distance", annulus_domain, config)
    assert result.gates["|s*dist^2 - 1/4| <= 1e-2 at t=0.008"]
    # gap/t = -0.352, -0.423, -0.461: toward kappa/4 = -1/2 for a hole of radius 1/2
    slope = result.columns["gap"] / result.columns["t"]
    assert np.all(slope > -0.5) and np.all(np.diff(slope) < 0.0)


@pytest.mark.parametrize("fixture", ["metric_run", "curvature_run", "localization_run", "scaling_run"])
def test_every_experiment_gates_on_convergence(request, fixture):
    result = request.getfixturevalue(fixture)
    assert result.gates["model converged at every step"] is True
    assert result.meta["converged"] == [True] * len(result.columns["t"])


def test_a_step_on_a_model_that_did_not_converge_fails(disk_domain, monkeypatch):
    def capped_at_second_step(*args, **kwargs):
        model = sl.build_model(*args, **kwargs)
        calls.append(model)
        model.meta["converged"] = len(calls) != 2
        return model

    calls = []
    monkeypatch.setattr("spanlab.lab.build_model", capped_at_second_step)
    config = sl.ExperimentConfig(base_point=1.0 + 0.0j, steps=SHORT)
    result = sl.run_experiment("metric-distance", disk_domain, config)
    assert result.meta["converged"] == [True, False, True, True]
    assert result.gates["model converged at every step"] is False
    assert not result.passed
