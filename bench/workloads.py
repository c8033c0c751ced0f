"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of CLI commands.  Each command gets its own
config file, so each builds a fresh problem and starts with a cold
lambda-memo, as it does for a user.  The seed only permutes the order of the
boundary conditions (or chart values) inside a command; the set of
computations, and so every reference value, is the same for every seed.

Checks compare each output with the independent references in oracles.py
or test a property the method must have.  A gate catches a wrong answer
(a missing or extra eigenvalue, a wrong multiplicity, a value off by more
than its tolerance); accuracy_digits measures how many digits are right.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import random
from dataclasses import dataclass
from math import factorial

ACCURACY_FLOOR = 1e-12  # below the default ODE rtol 1e-10, so roundoff cannot move the metric

# Gate tolerances (absolute unless noted); the README gives the reasons.
EIG_TOL = 1e-4
HEIGHT_TOL = 0.1
PHASE_TOL = 1.0
COUNTING_TOL = 1e-6
PROXIMITY_RTOL = 1e-3
PHASE_INTEGRAL_RTOL = 1e-6
ORDER_TOL = 0.05
TYPE_RTOL = 0.05

DIRICHLET = [[1, 0, 0, 0], [0, 0, 1, 0]]
NEUMANN = [[0, 1, 0, 0], [0, 0, 0, 1]]
PERIODIC = [[1, 0, -1, 0], [0, 1, 0, -1]]
ROBIN_ALPHA = 0.5 + 1j
# y(0) = 0 and y'(pi) - alpha y(pi) = 0
ROBIN = [[1, 0, 0, 0], [0, 0, [-ROBIN_ALPHA.real, -ROBIN_ALPHA.imag], 1]]
EXP_THETA = 0.3
EXP_CHARTS = {"Y1": 0.5 + 0.2j, "Y2": 2.0, "Y3": 0.3 - 1.0j, "Y4": -0.8 + 0.4j}

Q0 = {"kind": "zero"}
QX = {"kind": "polynomial", "coeffs": [0.0, 1.0]}
# cos x on [0, pi] as its degree-24 Taylor polynomial (remainder < 2e-12)
COS24 = {"kind": "polynomial",
         "coeffs": [(-1) ** (j // 2) / factorial(j) if j % 2 == 0 else 0.0
                    for j in range(25)]}
PROBE_POTENTIALS = {"q0": Q0, "qx": QX, "cos24": COS24}

REAL_Q0_INTERVAL = [-0.5, 450.0]
REAL_COS_INTERVAL = [-2.0, 150.0]
VD_FMT_RADII = [10.37, 30.37, 50.37]
VD_ROBIN_RECT = [0.3, 30.0, -3.0, 3.0]
VD_HEIGHT_RADII = [0.5, 1.5, 5.0, 15.0, 50.0]
EXP_RADII = [100.0, 1000.0, 10000.0]
EXP_PHASE_R = 1e4
EXP_CHART_RECT = [-10.0, 10.0, -2.5, 2.5]

WORKLOADS = ("sl-real-spectrum", "sl-value-dist", "exp-bookkeeping")


@dataclass(frozen=True)
class Command:
    name: str       # a label unique within the workload
    command: str    # the CLI command
    config: dict    # without the output section
    fmt: str        # "json" or "csv"


def _sl(pot, bcs, params):
    return {"problem": {"sturm_liouville": {"potential": pot}},
            "boundary_conditions": [{"mode": "functional", "label": lab, "rows": rows}
                                    for lab, rows in bcs],
            "command_params": params}


def _exp(bcs, params):
    return {"problem": {"builtin_curve": {"name": "exponential"}},
            "boundary_conditions": bcs, "command_params": params}


def _unitary_bc():
    u = cmath.exp(1j * EXP_THETA)
    return {"mode": "unitary", "label": "U", "rows": [[[u.real, u.imag]]]}


def commands(workload: str, seed: int) -> list:
    """The workload's commands; the seed permutes condition order only."""
    rng = random.Random(seed)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    if workload == "sl-real-spectrum":
        return [
            Command("eig_q0", "eig", _sl(Q0, shuffled([("dirichlet", DIRICHLET),
                                                       ("neumann", NEUMANN),
                                                       ("periodic", PERIODIC)]),
                                         {"interval": REAL_Q0_INTERVAL}), "json"),
            Command("eig_cos", "eig", _sl(COS24, shuffled([("dirichlet", DIRICHLET),
                                                           ("neumann", NEUMANN)]),
                                          {"interval": REAL_COS_INTERVAL}), "json"),
        ]
    if workload == "sl-value-dist":
        return [
            Command("fmt_q0", "fmt", _sl(Q0, shuffled([("dirichlet", DIRICHLET),
                                                       ("neumann", NEUMANN)]),
                                         {"r_grid": VD_FMT_RADII}), "csv"),
            Command("robin_q0", "eig-complex", _sl(Q0, [("robin", ROBIN)],
                                                   {"rectangle": VD_ROBIN_RECT}), "json"),
            Command("height_q0", "height", _sl(Q0, [], {"r_grid": VD_HEIGHT_RADII}), "json"),
        ]
    if workload == "exp-bookkeeping":
        charts = [{"mode": "chart", "label": lab, "rows": [[[y.real, y.imag]]]}
                  for lab, y in shuffled(sorted((k, complex(v)) for k, v in EXP_CHARTS.items()))]
        return [
            Command("fmt_exp", "fmt", _exp([_unitary_bc()], {"r_grid": EXP_RADII}), "csv"),
            Command("phase_exp", "phase-count", _exp([_unitary_bc()], {"r": EXP_PHASE_R}), "json"),
            Command("height_exp", "height", _exp([], {"r_grid": EXP_RADII}), "json"),
            Command("charts_exp", "eig-complex", _exp(charts, {"rectangle": EXP_CHART_RECT}),
                    "json"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(cmds, outdir: str) -> list:
    """Write one config per command; returns [(command, cfg_path, out_path)]."""
    os.makedirs(outdir, exist_ok=True)
    out = []
    for c in cmds:
        out_path = os.path.join(outdir, f"{c.name}.{c.fmt}")
        cfg = dict(c.config, output={"path": out_path, "format": c.fmt})
        cfg_path = os.path.join(outdir, f"{c.name}.config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out.append((c.command, cfg_path, out_path))
    return out


def read_output(path: str, fmt: str):
    with open(path) as fh:
        if fmt == "json":
            return json.load(fh)
        return list(csv.DictReader(fh))


# -- references -------------------------------------------------------------------


def references(workload: str) -> dict:
    """Reference values for every checked output of the workload."""
    import oracles as o

    if workload == "sl-real-spectrum":
        a, b = REAL_Q0_INTERVAL
        ca, cb = REAL_COS_INTERVAL
        return {"eig_q0": {"dirichlet": o.q0_dirichlet(a, b), "neumann": o.q0_neumann(a, b),
                           "periodic": o.q0_periodic(a, b)},
                "eig_cos": {"dirichlet": o.cos_galerkin("dirichlet", ca, cb),
                            "neumann": o.cos_galerkin("neumann", ca, cb)}}
    if workload == "sl-value-dist":
        rmax = max(VD_FMT_RADII) + 1.0
        spectra = {"dirichlet": o.q0_dirichlet(-1.0, rmax), "neumann": o.q0_neumann(-1.0, rmax)}
        h_fmt = o.q0_height(VD_FMT_RADII)
        phase_fmt = o.q0_phase_at(VD_FMT_RADII)
        fmt = {kind: {"h": h_fmt, "phase": phase_fmt,
                      "N": [o.counting(spectra[kind], r) for r in VD_FMT_RADII],
                      "m": [o.q0_proximity(kind, r) for r in VD_FMT_RADII]}
               for kind in spectra}
        h = o.q0_height(VD_HEIGHT_RADII)
        return {"fmt_q0": fmt,
                "robin_q0": {"robin": o.robin_eigenvalues(ROBIN_ALPHA, VD_ROBIN_RECT)},
                "height_q0": {"h": h, "phase": o.q0_phase_at(VD_HEIGHT_RADII),
                              "order": o.order_estimate(VD_HEIGHT_RADII, h)}}
    if workload == "exp-bookkeeping":
        spec = o.exp_unitary_spectrum(EXP_THETA, -max(EXP_RADII) - 1, max(EXP_RADII) + 1)
        fmt = {"U": {"h": [o.exp_height(r) for r in EXP_RADII],
                     "N": [o.counting(spec, r) for r in EXP_RADII],
                     "m": [o.exp_proximity(EXP_THETA, r) for r in EXP_RADII],
                     "phase": [(r, -r) for r in EXP_RADII]}}
        r = EXP_PHASE_R
        n_T = len(o.exp_unitary_spectrum(EXP_THETA, -r, r))
        return {"fmt_exp": fmt,
                "phase_exp": {"U": {"phase_integral": r / math.pi, "n_T": n_T}},
                "height_exp": {"h": [o.exp_height(r) for r in EXP_RADII],
                               "phase": [(r, -r) for r in EXP_RADII],
                               "order": (1.0, 1.0 / math.pi)},
                "charts_exp": {lab: o.exp_chart_zeros(y, EXP_CHART_RECT)
                               for lab, y in EXP_CHARTS.items()}}
    raise ValueError(f"unknown workload {workload!r}")


# -- checks -------------------------------------------------------------------------


class Checks:
    """Collects gate failures and the relative errors behind accuracy_digits."""

    def __init__(self):
        self.failures = []
        self.worst = 0.0
        self.worst_label = ""
        self.count = 0

    def close(self, label, x, ref, tol, relative=False):
        """Gate |x - ref| <= tol (times 1 + |ref| if relative); record the error."""
        err = abs(complex(x) - complex(ref))
        e = err / (1.0 + abs(complex(ref)))
        self.count += 1
        if e > self.worst:
            self.worst, self.worst_label = e, label
        limit = tol * (1.0 + abs(complex(ref))) if relative else tol
        if not err <= limit:
            self.failures.append(f"{label}: {x!r} vs reference {ref!r} (|diff| {err:.3g} > {limit:.3g})")

    def holds(self, label, ok, detail=""):
        self.count += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def digits(self) -> float:
        return -math.log10(max(self.worst, ACCURACY_FLOOR))


def _lam(v):
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def check_spectrum(checks, label, found, ref):
    """found and ref: lists of (lambda, multiplicity).  Sorted pairing; a
    count mismatch is a failure and skips the value comparison."""
    def key(pair):
        lam = complex(pair[0])
        return round(lam.real, 6), lam.imag

    found = sorted(found, key=key)
    ref = sorted(ref, key=key)
    if len(found) != len(ref):
        checks.holds(label, False, f"{len(found)} eigenvalues, reference has {len(ref)}: "
                                   f"{[complex(z).real for z, _ in found]}")
        return
    for i, ((lam, mult), (rlam, rmult)) in enumerate(zip(found, ref)):
        checks.holds(f"{label}[{i}] multiplicity", mult == rmult,
                     f"multiplicity {mult} at {lam}, reference {rmult} at {rlam}")
        checks.close(f"{label}[{i}]", lam, rlam, EIG_TOL)


def _reports_by_bc(doc):
    return {rep["bc"]: rep for rep in doc["reports"]}


def _check_eig(checks, name, doc, refs):
    reps = _reports_by_bc(doc)
    checks.holds(f"{name} conditions", set(reps) == set(refs), f"got {sorted(reps)}")
    for bc, ref in refs.items():
        if bc not in reps:
            continue
        # a condition the program calls degenerate has no eigenvalue list
        checks.holds(f"{name}/{bc} eigenvalues", "eigenvalues" in reps[bc],
                     f"no eigenvalue list: {reps[bc]}")
        if "eigenvalues" in reps[bc]:
            found = [(_lam(e["lambda"]), int(e["mult"])) for e in reps[bc]["eigenvalues"]]
            check_spectrum(checks, f"{name}/{bc}", found, ref)


def _check_fmt(checks, name, rows, refs):
    by_bc = {}
    for row in rows:
        by_bc.setdefault(row["bc"], []).append(row)
    checks.holds(f"{name} conditions", set(by_bc) == set(refs), f"got {sorted(by_bc)}")
    for bc, ref in refs.items():
        table = sorted(by_bc.get(bc, []), key=lambda row: float(row["r"]))
        if len(table) != len(ref["h"]):
            checks.holds(f"{name}/{bc} rows", False, f"{len(table)} rows")
            continue
        for i, row in enumerate(table):
            r = float(row["r"])
            checks.close(f"{name}/{bc} h({r})", float(row["h"]), ref["h"][i], HEIGHT_TOL)
            checks.close(f"{name}/{bc} N({r})", float(row["N"]), ref["N"][i], COUNTING_TOL)
            checks.close(f"{name}/{bc} m({r})", float(row["m"]), ref["m"][i],
                         PROXIMITY_RTOL, relative=True)
            checks.close(f"{name}/{bc} phase(+{r})", float(row["phase_plus"]),
                         ref["phase"][i][0], PHASE_TOL)
            checks.close(f"{name}/{bc} phase(-{r})", float(row["phase_minus"]),
                         ref["phase"][i][1], PHASE_TOL)
        # First Main Theorem: h - m - N stays bounded, so its spread over
        # the grid must be small against the height itself
        resid = [float(row["residual"]) for row in table]
        h_max = float(table[-1]["h"])
        span = max(resid) - min(resid)
        checks.holds(f"{name}/{bc} FMT residual range", span <= 0.1 * h_max,
                     f"range {span:.4g} > 0.1 h(r_max) = {0.1 * h_max:.4g}")


def _check_height(checks, name, doc, ref):
    table = doc["table"]
    if len(table) != len(ref["h"]):
        checks.holds(f"{name} rows", False, f"{len(table)} rows")
        return
    for i, rec in enumerate(table):
        r = rec["r"]
        checks.close(f"{name} h({r})", rec["h"], ref["h"][i], HEIGHT_TOL)
        checks.close(f"{name} phase(+{r})", rec["phase_plus"], ref["phase"][i][0], PHASE_TOL)
        checks.close(f"{name} phase(-{r})", rec["phase_minus"], ref["phase"][i][1], PHASE_TOL)
    rho, tau = ref["order"]
    if "order_estimate" not in doc:
        checks.holds(f"{name} order", False, "no order estimate over two decades")
        return
    checks.close(f"{name} order", doc["order_estimate"], rho, ORDER_TOL)
    checks.close(f"{name} type", doc["type_estimate"], tau, TYPE_RTOL, relative=True)


def _check_phase_count(checks, name, doc, refs, n=1):
    reps = _reports_by_bc(doc)
    for bc, ref in refs.items():
        rep = reps.get(bc)
        if rep is None:
            checks.holds(f"{name}/{bc}", False, "missing report")
            continue
        checks.holds(f"{name}/{bc} n_T", rep["n_T"] == ref["n_T"],
                     f"n_T {rep['n_T']}, reference {ref['n_T']}")
        checks.close(f"{name}/{bc} phase integral", rep["phase_integral"],
                     ref["phase_integral"], PHASE_INTEGRAL_RTOL, relative=True)
        checks.holds(f"{name}/{bc} gap <= n", rep["gap"] <= n, f"gap {rep['gap']} > {n}")


CHECKERS = {"eig": _check_eig, "eig-complex": _check_eig, "fmt": _check_fmt,
            "height": _check_height, "phase-count": _check_phase_count}


def check_round(cmds, outputs: dict, refs: dict, checks: Checks):
    """Check one round's outputs ({command name: parsed output, or None for
    a command that failed: those count in `failed` and are not checked})."""
    for c in cmds:
        out = outputs[c.name]
        if out is not None:
            CHECKERS[c.command](checks, c.name, out, refs[c.name])
