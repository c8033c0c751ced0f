import json
import os

import numpy as np
import pytest

from weylcurve.cli import main


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sl_cfg(tmp_path, out_name="out.json", **extra):
    cfg = {
        "problem": {"sturm_liouville": {"potential": {"kind": "zero"}}},
        "boundary_conditions": [
            {"mode": "functional", "label": "dirichlet",
             "rows": [[1, 0, 0, 0], [0, 0, 1, 0]]},
        ],
        "output": {"path": str(tmp_path / out_name), "format": "json"},
    }
    cfg.update(extra)
    return cfg


def exp_cfg(tmp_path, out_name="out.json", **extra):
    cfg = {
        "problem": {"builtin_curve": {"name": "exponential"}},
        "boundary_conditions": [
            {"mode": "chart", "label": "omega1", "rows": [[1.0]]},
        ],
        "output": {"path": str(tmp_path / out_name), "format": "json"},
    }
    cfg.update(extra)
    return cfg


def read_out(tmp_path, name="out.json"):
    return json.loads((tmp_path / name).read_text())


def test_eig_dirichlet(tmp_path):
    cfg = sl_cfg(tmp_path, command_params={"interval": [0.5, 10.0]})
    rc = main(["eig", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    doc = read_out(tmp_path)
    assert doc["schema_version"] == 1
    rep = doc["reports"][0]
    lams = sorted(e["lambda"][0] for e in rep["eigenvalues"])
    assert np.allclose(lams, [1.0, 4.0, 9.0], atol=1e-7)


def test_classify_bc(tmp_path):
    cfg = sl_cfg(tmp_path)
    rc = main(["classify-bc", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    rep = read_out(tmp_path)["reports"][0]
    assert rep["classification"] == "lagrangian"
    assert rep["selfadjoint"] is True


def test_curvature_csv(tmp_path):
    cfg = exp_cfg(tmp_path, out_name="out.csv",
                  command_params={"lambdas": [[0.0, 1.0], [1.0, 2.0]]})
    cfg["output"]["format"] = "csv"
    rc = main(["curvature", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    assert lines[0] == "re_lambda,im_lambda,c1,schwarz_pick_margin"
    assert len(lines) == 3


def test_scan_csv_paired_columns(tmp_path):
    cfg = exp_cfg(tmp_path, out_name="out.csv",
                  command_params={"start": 0.0, "stop": [2.0, 1.0], "num": 5,
                                  "quantities": ["B", "det_gap"]})
    cfg["output"]["format"] = "csv"
    rc = main(["scan", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["re_lambda", "im_lambda", "re_B_00", "im_B_00", "det_gap"]
    assert len(lines) == 6


def test_scan_curvature_and_monotone_columns(tmp_path):
    # B = e^{i lam} at lam = x + i v: r = 1 - 4 v^2 e^{-2v} / (1 - e^{-2v})^2,
    # which is both c1 and the Schwarz-Pick margin for n = 1, and the phase
    # speed at the real point x is 1
    cfg = exp_cfg(tmp_path, out_name="out.csv",
                  command_params={"start": [0.0, 0.5], "stop": [3.0, 2.0], "num": 4,
                                  "quantities": ["chern", "monotone_margin"]})
    cfg["output"]["format"] = "csv"
    rc = main(["scan", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == ["re_lambda", "im_lambda", "c1", "schwarz_pick_margin",
                                   "monotone_margin"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (4, 5)
    v = rows[:, 1]
    r = 1 - 4 * v ** 2 * np.exp(-2 * v) / (1 - np.exp(-2 * v)) ** 2
    assert np.allclose(rows[:, 2], r, rtol=0, atol=1e-8)
    assert np.allclose(rows[:, 3], r, rtol=0, atol=1e-8)
    assert np.allclose(rows[:, 4], 1.0, rtol=0, atol=1e-12)


def test_height_with_order(tmp_path):
    cfg = exp_cfg(tmp_path, command_params={"r_grid": [1.0, 10.0, 100.0]})
    rc = main(["height", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    doc = read_out(tmp_path)
    hs = [row["h"] for row in doc["table"]]
    assert hs[1] == pytest.approx(10.0 / np.pi, abs=1e-6)
    assert doc["order_estimate"] == pytest.approx(1.0, abs=0.02)


def test_fmt_csv_exponential(tmp_path):
    cfg = exp_cfg(tmp_path, out_name="out.csv", command_params={"r_grid": [5.0, 10.0, 20.0]})
    cfg["output"]["format"] = "csv"
    rc = main(["fmt", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    assert lines[0] == "bc,r,phase_plus,phase_minus,h,N,m,residual"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(row[1]) for row in rows] == [5.0, 10.0, 20.0]
    for row in rows:
        assert float(row[4]) == pytest.approx(float(row[1]) / np.pi, abs=1e-8)


def test_height_and_fmt_read_order_off_their_heights(tmp_path, monkeypatch):
    import weylcurve as wc
    from weylcurve import value_dist

    calls = []
    height_grid = value_dist.height_grid
    monkeypatch.setattr(value_dist, "height_grid",
                        lambda c, radii: calls.append(list(radii)) or height_grid(c, radii))
    # a ratio within 1e-9 of a hundred spans the two decades order_type needs
    for grid in ([1.0, 10.0, 100.0], [1.0, 10.0, 99.99999995]):
        ref = wc.order_type(wc.exponential(), grid)
        calls.clear()
        cfg = exp_cfg(tmp_path, command_params={"r_grid": grid})
        assert main(["height", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
        doc = read_out(tmp_path)
        assert (doc["order_estimate"], doc["type_estimate"]) == (ref["rho"], ref["tau"])
        assert calls == [grid]
        calls.clear()
        cfg["boundary_conditions"].append({"mode": "chart", "label": "omega2",
                                           "rows": [[-1.0]]})
        assert main(["fmt", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
        # one height computation for both conditions (inside fmt_report),
        # none for the order
        assert calls == [grid]
        assert [(sm["rho"], sm["tau"]) for sm in read_out(tmp_path)["summaries"]] \
            == [(ref["rho"], ref["tau"])] * 2


def test_eig_complex_exponential_chart(tmp_path):
    # e^{i lam} = 2 at lam = 2 pi k - i ln 2
    cfg = exp_cfg(tmp_path, command_params={"rectangle": [-10.0, 10.0, -2.5, 2.5]})
    cfg["boundary_conditions"] = [{"mode": "chart", "label": "two", "rows": [[2.0]]}]
    rc = main(["eig-complex", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    rep = read_out(tmp_path)["reports"][0]
    assert rep["rectangle"] == [-10.0, 10.0, -2.5, 2.5]
    lams = sorted((complex(*e["lambda"]) for e in rep["eigenvalues"]), key=lambda z: z.real)
    assert rep["count"] == 3
    assert np.allclose(lams, [2 * np.pi * k - 1j * np.log(2.0) for k in (-1, 0, 1)], atol=1e-8)


def test_phase_count(tmp_path):
    cfg = exp_cfg(tmp_path, command_params={"r": 10.0})
    rc = main(["phase-count", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    rep = read_out(tmp_path)["reports"][0]
    assert rep["n_T"] == 3
    assert rep["gap"] <= 1.0


def test_kernel_check(tmp_path):
    cfg = exp_cfg(tmp_path, command_params={"random": {"seed": 7, "count": 6}})
    rc = main(["kernel-check", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    doc = read_out(tmp_path)
    assert doc["num_points"] == 6
    assert doc["gram_min_eig"] >= -1e-8


def test_resolvent_check(tmp_path):
    cfg = sl_cfg(tmp_path, command_params={
        "lambda": 2.5, "f": {"kind": "trig", "coeffs_sin": [0, 1.0]}})
    rc = main(["resolvent-check", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    rep = read_out(tmp_path)["reports"][0]
    assert rep["residual"] < 1e-6


def test_malformed_bc_exits_2(tmp_path, capsys):
    cfg = sl_cfg(tmp_path, command_params={"interval": [0.5, 10.0]})
    cfg["boundary_conditions"][0]["rows"] = [[1, 0, 0, 0], [2, 0, 0, 0]]
    rc = main(["eig", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert "rank" in capsys.readouterr().err


def _set(path, value):
    """A config edit: value at the dotted path of the config."""
    def apply(cfg):
        *head, last = path.split(".")
        node = cfg
        for key in head:
            node = node.setdefault(key, {})
        node[last] = value
    return apply


SL = "problem.sturm_liouville"
TRIG = {"kind": "trig", "coeffs_sin": [1.0]}


@pytest.mark.parametrize("command, params, edit, key", [
    ("eig", {"interval": [0.5, 10.0]}, _set(f"{SL}.interval", [0, 3.14]), "interval"),
    ("eig", {"interval": [0.5, 10.0]}, _set(f"{SL}.rtol", "x"), "rtol"),
    ("eig", {"interval": [0.5, 10.0]}, _set(f"{SL}.potential", 5), "potential"),
    ("eig", {"interval": [0.5, 10.0]},
     _set(f"{SL}.potential", {"kind": "polynomial", "coeffs": "abc"}), "coeffs"),
    ("eig", {"interval": [0.5, 10.0]},  # not read digit by digit as the polynomial 3
     _set(f"{SL}.potential", {"kind": "polynomial", "coeffs": "30"}), "coeffs"),
    ("eig", {"interval": [0.5, 10.0]},
     _set(f"{SL}.potential", {"kind": "table", "x": [0, 1, 2, "z"], "q": [0, 0, 0, 0]}), "x"),
    ("eig", {"interval": ["a", 10.0]}, None, "interval"),
    ("eig-complex", {"rectangle": [0.3, 10.0, "b", 1.0]}, None, "rectangle"),
    ("height", {"r_grid": ["a", 2]}, None, "r_grid"),
    ("height", {"r_grid": 5}, None, "r_grid"),
    ("fmt", {"r_grid": [1.0, None]}, None, "r_grid"),
    ("scan", {"start": 0.5, "stop": 2.0, "num": "x"}, None, "num"),
    ("phase-count", {"r": "x"}, None, "command_params.r"),
    ("interlace", {"r": [1]}, None, "command_params.r"),
    ("kernel-check", {"random": {"seed": "x"}}, None, "random.seed"),
    ("kernel-check", {"random": {"count": "2.5"}}, None, "random.count"),
    ("resolvent-check", {"lambda": "x", "f": TRIG}, None, "lambda"),
    ("resolvent-check", {"f": {"kind": "trig", "coeffs_cos": ["a"]}}, None, "coeffs_cos"),
    ("resolvent-check", {"f": {"kind": "trig", "coeffs_sin": 3}}, None, "coeffs_sin"),
    ("height", {"r_grid": [1.0]}, _set("problem", {"builtin_curve": {
        "name": "shifted_identity", "params": {"a": "x"}}}), "params.a"),
    ("height", {"r_grid": [1.0]}, _set("problem", {"builtin_curve": {
        "name": "shifted_identity", "params": {"n": "2.5"}}}), "params.n"),
])
def test_malformed_numbers_exit_2(tmp_path, capsys, command, params, edit, key):
    cfg = sl_cfg(tmp_path, command_params=params)
    if edit is not None:
        edit(cfg)
    rc = main([command, "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "validation error" in err and key in err


@pytest.mark.parametrize("command, params, edit, key", [
    ("height", {"r_grid": [1.0]}, _set("problem", {"sturm_liouville": 5}), "sturm_liouville"),
    ("kernel-check", {"random": 5}, None, "random"),
    ("resolvent-check", {"f": 5}, None, "command_params.f"),
    ("height", {"r_grid": [1.0]}, _set("problem", {"builtin_curve": {
        "name": "shifted_identity", "params": 5}}), "params"),
    ("kernel-check", {"points": [5]}, None, "points"),
    ("kernel-check", {"points": 5}, None, "points"),
    ("height", {"r_grid": [1.0]}, _set("problem", {"builtin_curve": 5}), "builtin_curve"),
    ("height", {"r_grid": [1.0]}, _set("output", 5), "output"),
    ("eig", {"interval": [0.5, 10.0]}, _set("boundary_conditions", 5), "boundary_conditions"),
    ("eig", {"interval": [0.5, 10.0]}, _set("boundary_conditions", [5]), "boundary_conditions"),
])
def test_sections_that_are_not_objects_exit_2(tmp_path, capsys, command, params, edit, key):
    # a section read by key that is a number exits 2 naming it, not with a
    # traceback
    cfg = sl_cfg(tmp_path, command_params=params)
    if edit is not None:
        edit(cfg)
    rc = main([command, "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "validation error" in err and key in err


def test_numbers_as_strings_are_read(tmp_path):
    cfg = sl_cfg(tmp_path, command_params={"interval": ["0.5", "10"]})
    cfg["problem"]["sturm_liouville"].update(interval="3.141592653589793", rtol="1e-10")
    assert main(["eig", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
    assert read_out(tmp_path)["reports"][0]["count"] == 3


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["eig", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    # resolvent at an exact eigenvalue: singular boundary system
    cfg = sl_cfg(tmp_path, command_params={
        "lambda": 4.0, "f": {"kind": "trig", "coeffs_sin": [1.0]}})
    rc = main(["resolvent-check", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_set_override(tmp_path):
    cfg = sl_cfg(tmp_path, command_params={"interval": [0.5, 10.0]})
    path = write_cfg(tmp_path, "c.json", cfg)
    rc = main(["eig", "--config", path,
               "--set", "command_params.interval=[0.5, 5.0]"])
    assert rc == 0
    rep = read_out(tmp_path)["reports"][0]
    assert rep["count"] == 2


def test_deterministic_output_and_atomicity(tmp_path):
    cfg = exp_cfg(tmp_path, command_params={"r_grid": [2.0, 4.0, 8.0]})
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["height", "--config", path]) == 0
    first = (tmp_path / "out.json").read_bytes()
    assert main(["height", "--config", path]) == 0
    second = (tmp_path / "out.json").read_bytes()
    assert first == second
    # no stray temp files from the atomic-write dance
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def test_unknown_builtin_curve_exits_2(tmp_path, capsys):
    cfg = exp_cfg(tmp_path)
    cfg["problem"] = {"builtin_curve": {"name": "mystery"}}
    rc = main(["kernel-check", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 2


def test_interlace(tmp_path):
    cfg = sl_cfg(tmp_path, command_params={"r": 10.0})
    cfg["boundary_conditions"].append(
        {"mode": "functional", "label": "neumann",
         "rows": [[0, 1, 0, 0], [0, 0, 0, 1]]})
    rc = main(["interlace", "--config", write_cfg(tmp_path, "c.json", cfg)])
    assert rc == 0
    doc = read_out(tmp_path)
    assert abs(doc["n1"] - doc["n2"]) <= 2
