"""The library loads numpy alone: scipy is imported only by the features
that need it (tabulated potentials, the Green's-function solves)."""

import json
import os
import subprocess
import sys
import textwrap

import weylcurve

SRC = os.path.dirname(os.path.dirname(os.path.abspath(weylcurve.__file__)))


def _run(code, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_commands_run_without_scipy(tmp_path):
    out = _run("""
        import json, os, sys
        import weylcurve
        from weylcurve import cli

        tmp = sys.argv[1]
        sl = {"sturm_liouville": {"potential": {"kind": "zero"}}}
        exp = {"builtin_curve": {"name": "exponential"}}
        dirichlet = {"mode": "functional", "label": "d", "rows": [[1, 0, 0, 0], [0, 0, 1, 0]]}
        unitary = {"mode": "unitary", "label": "u", "rows": [[[0.0, 1.0]]]}
        chart = {"mode": "chart", "label": "two", "rows": [[2.0]]}
        runs = [("eig", sl, [dirichlet], {"interval": [0.5, 10.0]}, "json"),
                ("fmt", sl, [dirichlet], {"r_grid": [5.37, 10.37]}, "csv"),
                ("height", sl, [], {"r_grid": [1.5, 5.0]}, "json"),
                ("eig-complex", exp, [chart], {"rectangle": [-10.0, 10.0, -2.5, 2.5]}, "json"),
                ("phase-count", exp, [unitary], {"r": 10.0}, "json")]
        rcs = []
        for i, (command, problem, bcs, params, fmt) in enumerate(runs):
            cfg = {"problem": problem, "boundary_conditions": bcs, "command_params": params,
                   "output": {"path": os.path.join(tmp, f"out{i}.{fmt}"), "format": fmt}}
            path = os.path.join(tmp, f"c{i}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            rcs.append(cli.main([command, "--config", path]))
        print(json.dumps({"rcs": rcs,
                          "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
        """, tmp_path)
    assert out == {"rcs": [0] * 5, "scipy": []}


def test_tabulated_potential_and_resolvent_import_scipy_when_used(tmp_path):
    out = _run("""
        import json, sys
        import numpy as np
        import weylcurve as wc

        loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
        before = loaded()
        xs = np.linspace(0.0, np.pi, 41)
        p = wc.SLProblem(potential=wc.Potential.table(xs, xs / 5.0))
        q = p.potential.evaluator(np.pi)(np.array([1.0]))[0]
        table = "scipy.interpolate" in loaded()
        p0 = wc.SLProblem(potential=wc.Potential.zero())
        bc = wc.bc_from_physical([[1, 0, 0, 0], [0, 0, 1, 0]], "functional")
        res = wc.resolvent_residual(p0, bc, 2.5, lambda x: np.sin(x))
        print(json.dumps({"before": before, "q": q, "table": table, "res": res,
                          "integrate": "scipy.integrate" in loaded()}))
        """, tmp_path)
    assert out["before"] == []
    assert out["table"] and abs(out["q"] - 0.2) < 1e-12
    assert out["integrate"] and out["res"] < 1e-6
