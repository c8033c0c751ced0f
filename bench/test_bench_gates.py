"""Tests of the benchmark's own gates, tracer and refusal to run without sources."""

import copy
import os
import shutil
import subprocess
import sys

import pytest

import oracles as o
import workloads as w

HERE = os.path.dirname(os.path.abspath(__file__))


def _eig_doc(spectra):
    """A CLI `eig` document holding exactly the given spectra."""
    return {"command": "eig", "reports": [
        {"bc": bc, "eigenvalues": [{"lambda": [complex(lam).real, complex(lam).imag],
                                    "mult": mult, "residual": 0.0} for lam, mult in spec]}
        for bc, spec in spectra.items()]}


@pytest.fixture(scope="module")
def real_case():
    refs = w.references("sl-real-spectrum")
    cmds = w.commands("sl-real-spectrum", seed=3)
    outputs = {name: _eig_doc(spectra) for name, spectra in refs.items()}
    return cmds, refs, outputs


def _run_checks(cmds, outputs, refs):
    checks = w.Checks()
    w.check_round(cmds, outputs, refs, checks)
    return checks


def test_exact_outputs_pass_at_the_floor(real_case):
    cmds, refs, outputs = real_case
    checks = _run_checks(cmds, outputs, refs)
    assert checks.failures == []
    assert checks.digits() == pytest.approx(12.0)


def test_gate_catches_a_dropped_eigenvalue(real_case):
    cmds, refs, outputs = real_case
    bad = copy.deepcopy(outputs)
    del bad["eig_q0"]["reports"][0]["eigenvalues"][3]
    assert _run_checks(cmds, bad, refs).failures


def test_gate_catches_a_changed_multiplicity(real_case):
    cmds, refs, outputs = real_case
    bad = copy.deepcopy(outputs)
    periodic = next(rep for rep in bad["eig_q0"]["reports"] if rep["bc"] == "periodic")
    periodic["eigenvalues"][2]["mult"] = 1
    assert _run_checks(cmds, bad, refs).failures


@pytest.mark.parametrize("index", [0, 5, -1])
def test_gate_catches_a_value_moved_by_1e_3(real_case, index):
    cmds, refs, outputs = real_case
    bad = copy.deepcopy(outputs)
    bad["eig_cos"]["reports"][1]["eigenvalues"][index]["lambda"][0] += 1e-3
    checks = _run_checks(cmds, bad, refs)
    assert checks.failures
    assert checks.digits() < 6


def test_gate_reports_a_condition_called_degenerate(real_case):
    # cli reports a degenerate condition without an eigenvalue list
    cmds, refs, outputs = real_case
    bad = copy.deepcopy(outputs)
    label = bad["eig_q0"]["reports"][0]["bc"]
    bad["eig_q0"]["reports"][0] = {"bc": label, "spectrum": "C", "degenerate": True}
    failures = _run_checks(cmds, bad, refs).failures
    assert any(f.startswith(f"eig_q0/{label} eigenvalues") for f in failures)


@pytest.mark.parametrize("spectrum, radii", [
    (o.exp_unitary_spectrum(w.EXP_THETA, -max(w.EXP_RADII) - 1, max(w.EXP_RADII) + 1),
     w.EXP_RADII),
    (o.q0_dirichlet(-1.0, max(w.VD_FMT_RADII) + 1), w.VD_FMT_RADII),
    (o.q0_neumann(-1.0, max(w.VD_FMT_RADII) + 1), w.VD_FMT_RADII)])
def test_counting_gate_sees_every_eigenvalue_inside_r(spectrum, radii):
    # dropping the eigenvalue of largest modulus inside r moves N(r) least
    for r in radii:
        outer = max((lam for lam, _ in spectrum if abs(lam) <= r), key=abs)
        dropped = [(lam, m) for lam, m in spectrum if lam != outer]
        checks = w.Checks()
        checks.close("N", o.counting(dropped, r), o.counting(spectrum, r), w.COUNTING_TOL)
        assert checks.failures, (r, outer)


def test_fmt_residual_and_phase_count_gates():
    rows = [{"bc": "U", "r": str(r), "h": str(h), "N": "0", "m": "0", "phase_plus": "0",
             "phase_minus": "0", "residual": str(res)}
            for r, h, res in ((1.0, 1.0, 0.0), (2.0, 2.0, 0.5))]
    ref = {"U": {"h": [1.0, 2.0], "N": [0.0, 0.0], "m": [0.0, 0.0], "phase": [(0, 0), (0, 0)]}}
    checks = w.Checks()
    w.CHECKERS["fmt"](checks, "fmt", rows, ref)
    assert any("FMT residual range" in f for f in checks.failures)
    checks = w.Checks()
    doc = {"reports": [{"bc": "U", "phase_integral": 10.0, "n_T": 8, "gap": 2.0}]}
    w.CHECKERS["phase-count"](checks, "pc", doc, {"U": {"phase_integral": 10.0, "n_T": 8}})
    assert any("gap <= n" in f for f in checks.failures)


def test_seed_permutes_order_but_not_the_work():
    a = w.commands("sl-real-spectrum", seed=1)
    b = w.commands("sl-real-spectrum", seed=2)
    for ca, cb in zip(a, b):
        la = [bc["label"] for bc in ca.config["boundary_conditions"]]
        lb = [bc["label"] for bc in cb.config["boundary_conditions"]]
        assert sorted(la) == sorted(lb)
    assert w.commands("exp-bookkeeping", seed=5) == w.commands("exp-bookkeeping", seed=5)


def test_tracer_counts_solves_and_restores_the_package(tmp_path):
    pytest.importorskip("weylcurve")
    from weylcurve import cli, curves, sturm

    import tracing

    cmd = w.Command("eig", "eig", w._sl(w.Q0, [("dirichlet", w.DIRICHLET)],
                                        {"interval": [0.5, 10.0]}), "json")
    (command, cfg, out), = w.write_configs([cmd], str(tmp_path))
    originals = (cli.main, sturm.fundamental, curves.CurveProvider.B, sturm.Potential.evaluator)
    rec = tracing.SpanRecorder()
    rec.install()
    try:
        assert cli.main([command, "--config", cfg]) == 0
    finally:
        rec.uninstall()
    assert (cli.main, sturm.fundamental, curves.CurveProvider.B,
            sturm.Potential.evaluator) == originals
    m = rec.layer_metrics()
    assert m["sturm.fundamental.solves"][0] > 0
    assert 0 < m["sturm.fundamental.hit_ratio"][0] < 1
    assert m["sturm.q_evals"][0] > 0
    assert m["spectral.b_calls_per_eigenvalue"][0] > 1
    assert [e["lambda"][0] for e in w.read_output(out, "json")["reports"][0]["eigenvalues"]] \
        == pytest.approx([1.0, 4.0, 9.0], abs=1e-6)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exp-bookkeeping",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
