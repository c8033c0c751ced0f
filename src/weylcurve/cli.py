"""Batch command-line front-end.

Usage:  weylcurve <command> --config path [--set key=value]...

The JSON config declares one problem source (a Sturm-Liouville potential
or a built-in curve), a list of boundary conditions, command parameters,
and the output file.  Results are written atomically (temp file + rename).
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import curves, spectral, sturm, value_dist
from .errors import (DegenerateBCError, NumericalError, ValidationError,
                     WeylcurveError)

SCHEMA_VERSION = 1


def _cplx(v, where):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and \
            all(isinstance(t, (int, float)) for t in v):
        return complex(v[0], v[1])
    raise ValidationError(f"{where}: expected a number or [re, im] pair, got {v!r}")


def _num(v, where, kind=float):
    """v, a number or a string that parses as one, as a kind (float or int)."""
    try:
        return kind(v)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where}: expected a number, got {v!r}") from None


def _obj(v, where, kind=dict):
    """v, a config section read by key (or, kind list, a list of them), as
    what it must be."""
    if not isinstance(v, kind):
        raise ValidationError(f"{where}: expected {'an object' if kind is dict else 'a list'}, "
                              f"got {v!r}")
    return v


def _nums(v, where) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"{where}: expected a list of numbers, got {v!r}")
    return [_num(t, where) for t in v]


def _cmatrix(rows, where):
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"{where}: expected a list of rows")
    return np.array([[_cplx(v, where) for v in r] for r in rows])


def _json_default(x):
    """json.dumps's hook: complex values as [re, im], arrays and numpy scalars by tolist."""
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    return x.tolist()


def _atomic_write(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".weylcurve-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg, payload, csv_rows=None, csv_header=None):
    out = _obj(cfg.get("output", {}), "output")
    path = out.get("path")
    fmt = out.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ValidationError("output.format must be 'json' or 'csv'")
    if fmt == "csv":
        if csv_rows is None:
            raise ValidationError("this command has no CSV form")
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(csv_header)
        for row in csv_rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    else:
        doc = {"schema_version": SCHEMA_VERSION, **payload}
        text = json.dumps(doc, indent=2, default=_json_default) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


# -- config ------------------------------------------------------------------


def load_config(path: str, overrides) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ValidationError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    for kv in overrides or []:
        if "=" not in kv:
            raise ValidationError(f"--set needs key=value, got {kv!r}")
        key, _, raw = kv.partition("=")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ValidationError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = val
    if cfg.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValidationError("unsupported schema_version")
    return cfg


def build_problem(cfg):
    prob = cfg.get("problem")
    if not isinstance(prob, dict) or len(prob) != 1:
        raise ValidationError("config needs exactly one problem source under 'problem'")
    if "sturm_liouville" in prob:
        sl = _obj(prob["sturm_liouville"], "problem.sturm_liouville")
        pot = sturm.Potential.from_json(sl.get("potential", {"kind": "zero"}))
        p = sturm.SLProblem(potential=pot,
                            length=_num(sl.get("interval", np.pi), "sturm_liouville.interval"),
                            ode_rtol=_num(sl.get("rtol", 1e-10), "sturm_liouville.rtol"))
        return p, sturm.curve_provider(p)
    if "builtin_curve" in prob:
        b = _obj(prob["builtin_curve"], "problem.builtin_curve")
        name = b.get("name")
        params = _obj(b.get("params", {}), "builtin_curve.params")
        if name == "exponential":
            return None, curves.exponential()
        if name == "constant":
            return None, curves.constant(_cmatrix(params.get("B0", [[0.0]]),
                                                  "builtin_curve.params.B0"))
        if name == "shifted_identity":
            return None, curves.shifted_identity(
                a=_num(params.get("a", 1.0), "builtin_curve.params.a"),
                n=_num(params.get("n", 1), "builtin_curve.params.n", int))
        raise ValidationError(f"unknown builtin curve {name!r}")
    raise ValidationError("problem must be 'sturm_liouville' or 'builtin_curve'")


def build_bcs(cfg, p):
    out = []
    for i, item in enumerate(_obj(cfg.get("boundary_conditions", []), "boundary_conditions",
                                  list)):
        where = f"boundary_conditions[{i}]"
        mode = _obj(item, where).get("mode")
        label = item.get("label", f"bc{i}")
        rows = _cmatrix(item.get("rows"), f"{where}.rows")
        try:
            if mode == "unitary":
                bc = spectral.bc_from_unitary(rows, label=label)
            elif mode == "chart":
                bc = spectral.bc_from_chart(rows, label=label)
            elif mode in ("span", "functional"):
                if p is not None:
                    bc = sturm.bc_from_physical(rows, mode, label=label)
                else:
                    bc = spectral.bc_from_canonical(rows, mode, label=label)
            else:
                raise ValidationError("mode must be span|functional|unitary|chart")
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}")
        out.append(bc)
    return out


def _params(cfg):
    return _obj(cfg.get("command_params", {}), "command_params")


# -- command handlers ---------------------------------------------------------


# the region parameter of each spectrum command: key, length, shape
_REGIONS = {"eig": ("interval", 2, "[a, b]"),
            "eig-complex": ("rectangle", 4, "[re0, re1, im0, im1]")}


def cmd_eig(cfg, p, c, bcs, command="eig"):
    key, size, shape = _REGIONS[command]
    region = _params(cfg).get(key)
    if not (isinstance(region, list) and len(region) == size):
        raise ValidationError(f"command_params.{key} must be {shape}")
    bounds = _nums(region, f"command_params.{key}")
    find = spectral.eigenvalues_real if command == "eig" else spectral.eigenvalues_complex
    reports = []
    for bc in bcs:
        try:
            evs = find(c, bc, bounds)
            reports.append({"bc": bc.label, key: region,
                            "eigenvalues": [{"lambda": e.lam, "mult": e.multiplicity,
                                             "residual": e.residual} for e in evs],
                            "count": sum(e.multiplicity for e in evs)})
        except DegenerateBCError:
            reports.append({"bc": bc.label, "spectrum": "C", "degenerate": True})
    _emit(cfg, {"command": command, "reports": reports})


def cmd_curvature(cfg, p, c, bcs):
    cp = _params(cfg)
    lams = [_cplx(v, "command_params.lambdas") for v in cp.get("lambdas", [])]
    if not lams:
        raise ValidationError("command_params.lambdas must be a nonempty list")
    rows = []
    recs = []
    for lam in lams:
        res = curves.curvature(c, lam)
        recs.append({"lambda": lam, "chern": list(res.chern),
                     "schwarz_pick_margin": res.schwarz_pick_margin,
                     "r": res.r, "r_sym": res.r_sym})
        rows.append([lam.real, lam.imag, *[float(v) for v in res.chern],
                     float(res.schwarz_pick_margin)])
    header = ["re_lambda", "im_lambda"] + [f"c{i+1}" for i in range(c.n)] + \
        ["schwarz_pick_margin"]
    _emit(cfg, {"command": "curvature", "results": recs}, rows, header)


def cmd_scan(cfg, p, c, bcs):
    cp = _params(cfg)
    start = _cplx(cp.get("start"), "command_params.start")
    stop = _cplx(cp.get("stop"), "command_params.stop")
    num = _num(cp.get("num", 101), "command_params.num", int)
    if num < 2:
        raise ValidationError("command_params.num must be >= 2")
    quantities = cp.get("quantities", ["B"])
    U = bcs[0].chart_unitary if bcs else None
    header = ["re_lambda", "im_lambda"]
    want_B = "B" in quantities
    want_gap = "det_gap" in quantities
    want_chern = "chern" in quantities or "schwarz_pick_margin" in quantities
    want_mono = "monotone_margin" in quantities
    if want_B:
        header += [f"{part}_B_{i}{j}" for i in range(c.n) for j in range(c.n)
                   for part in ("re", "im")]
    if want_gap:
        header.append("det_gap")
    if want_chern:
        header += [f"c{i+1}" for i in range(c.n)] + ["schwarz_pick_margin"]
    if want_mono:
        header.append("monotone_margin")
    rows = []
    for t in np.linspace(0.0, 1.0, num):
        lam = start + (stop - start) * t
        row = [lam.real, lam.imag]
        B = c.B(lam)
        if want_B:  # row by row, each entry as (re, im)
            row += [float(part) for b in B.ravel() for part in (b.real, b.imag)]
        if want_gap:
            if U is None:
                raise ValidationError("det_gap scan needs a chart-unitary boundary condition")
            row.append(float(abs(np.linalg.det(U - B))))
        if want_chern:
            res = curves.curvature(c, lam)
            row += [float(v) for v in res.chern] + [float(res.schwarz_pick_margin)]
        if want_mono:
            row.append(float(spectral.monotone_margin(c, lam.real)))
        rows.append(row)
    _emit(cfg, {"command": "scan", "header": header, "rows": rows}, rows, header)


def cmd_height(cfg, p, c, bcs):
    cp = _params(cfg)
    r_grid = _nums(cp.get("r_grid", []), "command_params.r_grid")
    if not r_grid:
        raise ValidationError("command_params.r_grid must be a nonempty list")
    radii = sorted(r_grid)
    rows = []
    recs = []
    hs = value_dist.height_grid(c, radii)
    phases = value_dist.total_phase(c, radii + [-r for r in radii]).tolist()
    for r, hv, pp, pm in zip(radii, hs, phases, phases[len(radii):]):
        rows.append([float(r), pp, pm, float(hv)])
        recs.append({"r": r, "phase_plus": pp, "phase_minus": pm, "h": float(hv)})
    ot = value_dist.order_type_of_heights(radii, hs) \
        if value_dist.spans_two_decades(radii) else None
    payload = {"command": "height", "table": recs}
    if ot:
        payload["order_estimate"] = ot["rho"]
        payload["type_estimate"] = ot["tau"]
    _emit(cfg, payload, rows, ["r", "phase_plus", "phase_minus", "h"])


def cmd_fmt(cfg, p, c, bcs):
    cp = _params(cfg)
    r_grid = _nums(cp.get("r_grid", []), "command_params.r_grid")
    if len(r_grid) < 2:
        raise ValidationError("command_params.r_grid must list at least two radii")
    if not bcs:
        raise ValidationError("fmt needs at least one boundary condition")
    reps = value_dist.fmt_report(c, bcs, r_grid)
    # the heights do not depend on the condition
    radii, hs = reps[0].r_grid, reps[0].height
    ot = value_dist.order_type_of_heights(radii, hs) \
        if value_dist.spans_two_decades(radii) else None
    rows, summaries = [], []
    for bc, rep in zip(bcs, reps):
        rows += [[bc.label, *map(float, row)]
                 for row in zip(rep.r_grid, rep.phase_plus, rep.phase_minus, rep.height,
                                rep.counting, rep.proximity, rep.fmt_residual)]
        summaries.append({"bc": bc.label, "residual_range": rep.residual_range,
                          "residual_ratio": rep.residual_ratio,
                          "drift_slope": rep.drift_slope,
                          "delta": rep.delta, "Delta": rep.Delta, **(ot or {})})
    _emit(cfg, {"command": "fmt", "summaries": summaries},
          rows, ["bc", "r", "phase_plus", "phase_minus", "h", "N", "m", "residual"])


def _radius(cfg) -> float:
    r = _num(_params(cfg).get("r", 0), "command_params.r")
    if r <= 0:
        raise ValidationError("command_params.r must be positive")
    return r


def cmd_phase_count(cfg, p, c, bcs):
    r = _radius(cfg)
    reports = [dict(bc=bc.label, **spectral.phase_count(c, bc, r)) for bc in bcs]
    _emit(cfg, {"command": "phase-count", "reports": reports})


def cmd_interlace(cfg, p, c, bcs):
    r = _radius(cfg)
    if len(bcs) < 2:
        raise ValidationError("interlace needs two boundary conditions")
    res = spectral.interlace(c, bcs[0], bcs[1], r)
    _emit(cfg, {"command": "interlace", "bc1": bcs[0].label, "bc2": bcs[1].label, **res})


def cmd_kernel_check(cfg, p, c, bcs):
    cp = _params(cfg)
    pts = []
    if "points" in cp:
        for item in _obj(cp["points"], "command_params.points", list):
            item = _obj(item, "command_params.points item")
            lam = _cplx(item.get("lambda"), "kernel point lambda")
            vec = [_cplx(v, "kernel point vector") for v in item.get("vector", [])]
            if len(vec) != c.n:
                raise ValidationError("kernel vector length must equal n")
            pts.append((lam, np.array(vec)))
    else:
        rnd = _obj(cp.get("random", {}), "command_params.random")
        rng = np.random.default_rng(_num(rnd.get("seed", 0), "command_params.random.seed", int))
        for _ in range(_num(rnd.get("count", 8), "command_params.random.count", int)):
            lam = complex(rng.uniform(-5, 5), rng.uniform(0.3, 3) * rng.choice([-1, 1]))
            vec = rng.standard_normal(c.n) + 1j * rng.standard_normal(c.n)
            pts.append((lam, vec))
    g = curves.gram_min_eig(c, pts)
    _emit(cfg, {"command": "kernel-check", "num_points": len(pts), "gram_min_eig": g})


def cmd_classify_bc(cfg, p, c, bcs):
    from .symplectic import classify_subspace
    reports = []
    for bc in bcs:
        rep = {"bc": bc.label,
               "classification": classify_subspace(bc.point),
               "selfadjoint": bc.selfadjoint}
        if bc.chart_unitary is not None:
            rep["chart_unitary"] = bc.chart_unitary
        reports.append(rep)
    _emit(cfg, {"command": "classify-bc", "reports": reports})


def cmd_resolvent_check(cfg, p, c, bcs):
    if p is None:
        raise ValidationError("resolvent-check needs a Sturm-Liouville problem")
    cp = _params(cfg)
    lam = _num(cp.get("lambda", 0.5), "command_params.lambda")
    fdef = _obj(cp.get("f", {"kind": "trig", "coeffs_sin": [0, 0, 1.0]}), "command_params.f")
    if fdef.get("kind") != "trig":
        raise ValidationError("f.kind must be 'trig'")
    cs = _nums(fdef.get("coeffs_sin", []), "command_params.f.coeffs_sin")
    cc = _nums(fdef.get("coeffs_cos", []), "command_params.f.coeffs_cos")

    def f(x):
        return sum(a * np.sin((k + 1) * x) for k, a in enumerate(cs)) + \
            sum(a * np.cos(k * x) for k, a in enumerate(cc))

    reports = []
    for bc in bcs:
        res = sturm.resolvent_residual(p, bc, lam, f)
        reports.append({"bc": bc.label, "lambda": lam, "residual": res})
    _emit(cfg, {"command": "resolvent-check", "reports": reports})


HANDLERS = {
    "eig": cmd_eig,
    "eig-complex": functools.partial(cmd_eig, command="eig-complex"),
    "curvature": cmd_curvature,
    "scan": cmd_scan,
    "height": cmd_height,
    "fmt": cmd_fmt,
    "phase-count": cmd_phase_count,
    "interlace": cmd_interlace,
    "kernel-check": cmd_kernel_check,
    "classify-bc": cmd_classify_bc,
    "resolvent-check": cmd_resolvent_check,
}


def run(command: str, cfg: dict) -> int:
    p, c = build_problem(cfg)
    bcs = build_bcs(cfg, p)
    HANDLERS[command](cfg, p, c, bcs)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="weylcurve",
                                     description="Weyl-curve spectral toolkit")
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return run(args.command, cfg)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except (NumericalError, DegenerateBCError, WeylcurveError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
