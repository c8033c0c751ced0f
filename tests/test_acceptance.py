"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line to the real stdout so the
verdicts are visible even under pytest capture.
"""

import sys
import time

import numpy as np
import pytest
from scipy.integrate import simpson

import weylcurve as wc
from weylcurve.spectral import char_section
from weylcurve.sturm import (
    GAMMA_PLUS_ROWS_PHYS, TRIPLET_MAP, fundamental, gamma_plus_gram,
    solution_values,
)

from conftest import (
    DIRICHLET_ROWS, NEUMANN_ROWS, PERIODIC_ROWS, DEGENERATE_ROWS_SPAN,
    PICARD_Z2_SPAN, random_symmetric_unitary, random_pseudo_unitary,
)


RESULTS = []


def report(num, ok, desc):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


GRID_64 = [complex(a, b) for a in np.linspace(-50.0, 400.0, 8)
           for b in np.linspace(-5.0, 5.0, 8)]


def test_criterion_01_dirichlet_spectrum(c_q0, bc_dirichlet):
    t0 = time.perf_counter()
    evs = wc.eigenvalues_real(c_q0, bc_dirichlet, (0.5, 450.0))
    dt = time.perf_counter() - t0
    lams = sorted(e.lam.real for e in evs)
    err = max((abs(l - k * k) for k, l in zip(range(1, 22), lams)), default=np.inf)
    ok = len(lams) == 21 and err <= 1e-6 and dt < 10.0
    report(1, ok, f"21 Dirichlet eigenvalues k^2, max err {err:.2e}, {dt:.1f}s")


def test_criterion_02_periodic_multiplicities(c_q0, bc_periodic):
    evs = wc.eigenvalues_real(c_q0, bc_periodic, (-0.5, 101.0))
    got = sorted((round(e.lam.real, 6), e.multiplicity) for e in evs)
    want = [(0.0, 1)] + [(float((2 * k) ** 2), 2) for k in range(1, 6)]
    ok = got == want
    ranks_ok = True
    for lam0, mult in want:
        out = wc.multiplicity(c_q0, bc_periodic, lam0)
        ranks_ok &= out["analytic"] == mult and out["geometric"] == mult
    report(2, ok and ranks_ok,
           f"periodic lam=0 simple, (2k)^2 double, winding/geometric agree: {got}")


def test_criterion_03_degenerate_condition(c_q0):
    bad = wc.bc_from_physical(DEGENERATE_ROWS_SPAN, "span", label="cond-I")
    worst = max(abs(wc.char_function(c_q0, bad, lam)) /
                char_section(c_q0, bad, lam)[1] for lam in GRID_64)
    detects = wc.is_degenerate(c_q0, bad)
    raises = False
    try:
        wc.eigenvalues_complex(c_q0, bad, (-1.0, 1.0, -1.0, 1.0))
    except wc.DegenerateBCError:
        raises = True
    ok = worst <= 1e-9 and detects and raises
    report(3, ok, f"condition (I) F identically 0 (worst |F|/scale {worst:.1e}), "
                  "spectrum reported as C")


def test_criterion_04_picard_condition(c_q0, p_q0):
    bc = wc.bc_from_physical(PICARD_Z2_SPAN, "span", label="picard-z2")
    ref = wc.char_function(c_q0, bc, 5.0)
    dev = max(abs(wc.char_function(c_q0, bc, lam) - ref) / abs(ref)
              for lam in GRID_64)
    # oracle: in physical coordinates the frame factor is 1 and the
    # determinant is exactly -z^2 + z(s' - c) + 1 = -3
    det_err = 0.0
    for lam in (0.3, 2.0, 7.7, 30.0, 91.3):
        fd = fundamental(p_q0, lam)
        phys = np.array([[1, 0], [0, 1], [fd.c, fd.s], [fd.cp, fd.sp]],
                        dtype=complex)
        det = np.linalg.det(np.hstack([PICARD_Z2_SPAN.T, phys]))
        det_err = max(det_err, abs(det - (-3.0)) / 3.0)
    evs = wc.eigenvalues_complex(c_q0, bc, (-100.0, 400.0, -5.0, 5.0))
    ok = dev <= 1e-8 and det_err <= 1e-8 and len(evs) == 0
    report(4, ok, f"Picard (III) z=2: F constant (dev {dev:.1e}), physical "
                  f"det = -3 (err {det_err:.1e}), empty spectrum in [-100,400]")


def test_criterion_05_curvature_closed_forms():
    devs = []
    for lam in (1j, 0.5 + 0.3j, -2 + 2j):
        devs.append(np.linalg.norm(wc.curvature(wc.shifted_identity(a=0.0, n=2),
                                                lam).r, 2))
    devs.append(np.linalg.norm(
        wc.curvature(wc.shifted_identity(a=1.0, n=2), 1j).r_sym - 0.75 * np.eye(2), 2))
    B0 = np.diag([0.3, 0.5 + 0.2j])
    devs.append(np.linalg.norm(wc.curvature(wc.constant(B0), 1j).r - np.eye(2), 2))
    v = 1.0
    e = np.exp(-2 * v)
    expect = 1 - 4 * v * v * e / (1 - e) ** 2
    devs.append(abs(wc.curvature(wc.exponential(), 1j * v).r[0, 0] - expect))
    worst = float(max(devs))
    report(5, worst <= 1e-8, f"curvature closed forms, worst dev {worst:.1e}")


def test_criterion_06_schwarz_pick(c_q0):
    rng = np.random.default_rng(606)
    curves = [c_q0, wc.exponential(),
              wc.constant(np.diag([0.4, 0.1 + 0.5j])),
              wc.shifted_identity(a=1.3, n=2)]
    worst = np.inf
    for c in curves:
        for _ in range(100):
            lam = complex(rng.uniform(-20, 60), rng.uniform(0.1, 8.0))
            worst = min(worst, wc.curvature(c, lam).schwarz_pick_margin)
    report(6, worst >= -1e-8,
           f"schwarz_pick_margin >= -1e-8 at 100 random points per curve "
           f"(worst {worst:.1e})")


def test_criterion_07_real_line_structure(c_q0):
    us = np.linspace(-20.0, 400.0, 200)
    unit_dev = sym_dev = 0.0
    margin_min = np.inf
    for u in us:
        B = c_q0.B(u)
        unit_dev = max(unit_dev, np.linalg.norm(B @ B.conj().T - np.eye(2), 2))
        sym_dev = max(sym_dev, np.linalg.norm(B - B.T, 2))
        margin_min = min(margin_min, wc.monotone_margin(c_q0, float(u)))
    ok = unit_dev <= 1e-8 and sym_dev <= 1e-10 and margin_min > 0
    report(7, ok, f"real-line unitarity {unit_dev:.1e}, symmetry {sym_dev:.1e}, "
                  f"min monotone margin {margin_min:.2e}")


def test_criterion_08_phase_derivative(c_q0, p_q0):
    us = np.linspace(0.4, 380.0, 20) + 0.137
    worst = 0.0
    for u in us:
        B = c_q0.B(float(u))
        dB = c_q0.dB(float(u))
        t1 = complex(np.trace(-1j * np.linalg.solve(B, dB))).real
        t2 = float(np.trace(gamma_plus_gram(p_q0, float(u))).real)
        worst = max(worst, abs(t1 - t2) / max(abs(t1), abs(t2), 1e-12))
    report(8, worst <= 1e-6,
           f"trace(-i B^-1 B') vs gamma_+ Gram trace, worst rel dev {worst:.1e}")


def test_criterion_09_kernel_consistency(c_q0, p_q0, c_exp):
    rng = np.random.default_rng(909)
    xs = np.linspace(0.0, np.pi, 3001)

    def field(lam, sign, e):
        out = (wc.gamma_plus if sign > 0 else wc.gamma_minus)(p_q0, lam, e)
        cv, _, sv, _ = solution_values(p_q0, lam, xs)
        return out["coeffs"][0] * cv + out["coeffs"][1] * sv

    def gram(A, B):
        return np.array([[simpson(np.conj(B[i]) * A[j], x=xs)
                          for j in range(2)] for i in range(2)])

    basis = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
    worst = 0.0
    for _ in range(10):
        lam = complex(rng.uniform(-4, 6), rng.uniform(0.4, 2.2))
        mu = complex(rng.uniform(-4, 6), rng.uniform(0.4, 2.2))
        # cross-branch block at (lam, conj mu): pairs gamma_+(lam) with
        # gamma_-(conj mu); verified against independent quadrature
        K = wc.kernel_block(c_q0, lam, np.conj(mu))
        G = gram([field(lam, +1, e) for e in basis],
                 [field(np.conj(mu), -1, e) for e in basis])
        worst = max(worst, np.abs(K - G).max())
        K2 = wc.kernel_block(c_q0, np.conj(lam), mu)
        G2 = gram([field(np.conj(lam), -1, e) for e in basis],
                  [field(mu, +1, e) for e in basis])
        worst = max(worst, np.abs(K2 - G2).max())
    gmin = np.inf
    for c, n in ((c_q0, 2), (c_exp, 1)):
        pts = [(complex(rng.uniform(-4, 4),
                        rng.uniform(0.3, 2.0) * rng.choice([-1, 1])),
                rng.standard_normal(n) + 1j * rng.standard_normal(n))
               for _ in range(10)]
        gmin = min(gmin, wc.gram_min_eig(c, pts))
    ok = worst <= 1e-6 and gmin >= -1e-8
    report(9, ok, f"kernel blocks vs quadrature (worst {worst:.1e}), "
                  f"Gram min eig {gmin:.1e}")


def test_criterion_10_resolvent_identity(p_q0, bc_dirichlet):
    rng = np.random.default_rng(1010)
    lams = (0.7, 2.6, 5.5, 12.3, 30.2)
    worst = 0.0
    for _ in range(10):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)

        def f(x, a=a, b=b):
            return sum(ak * np.sin((k + 1) * x) for k, ak in enumerate(a)) + \
                sum(bk * np.cos(k * x) for k, bk in enumerate(b))

        for lam in lams:
            worst = max(worst, wc.resolvent_residual(p_q0, bc_dirichlet, lam, f))
    report(10, worst <= 1e-6,
           f"Krein resolvent identity, worst relative L2 residual {worst:.1e}")


def test_criterion_11_interlacing(c_q0, c_qcos):
    rng = np.random.default_rng(1111)
    worst = 0
    for c in (c_q0, c_qcos):
        for _ in range(50):
            b1 = wc.bc_from_unitary(random_symmetric_unitary(rng))
            b2 = wc.bc_from_unitary(random_symmetric_unitary(rng))
            out = wc.interlace(c, b1, b2, 400.0)
            worst = max(worst, abs(out["n1"] - out["n2"]))
    report(11, worst <= 2,
           f"interlacing |n1-n2| <= 2 for 50 random pairs x 2 potentials "
           f"(worst {worst})")


def test_criterion_12_phase_count(c_q0, c_exp, bc_dirichlet, bc_neumann):
    rng = np.random.default_rng(1212)
    bcs = [bc_dirichlet, bc_neumann] + \
        [wc.bc_from_unitary(random_symmetric_unitary(rng)) for _ in range(10)]
    worst = max(wc.phase_count(c_q0, bc, 400.0)["gap"] for bc in bcs)
    exp_gap = wc.phase_count(c_exp, wc.bc_from_unitary(np.array([[1.0]])),
                             10.0)["gap"]
    ok = worst <= 2.0 and exp_gap <= 1.0
    report(12, ok, f"phase-count gap <= 2 at r=400 (worst {worst:.3f}); "
                   f"exponential gap {exp_gap:.3f} <= 1")


def test_criterion_13_height_exactness(c_exp):
    errs = [abs(wc.height(c_exp, r) - r / np.pi) / r for r in (10.0, 100.0, 1000.0)]
    ot = wc.order_type(c_exp, np.geomspace(10.0, 1000.0, 12))
    ok = max(errs) <= 1e-6 and abs(ot["rho"] - 1.0) <= 0.02 and \
        abs(ot["tau"] - 1 / np.pi) <= 0.05 / np.pi
    report(13, ok, f"h(r)=r/pi (worst rel err {max(errs):.1e}), "
                   f"rho={ot['rho']:.4f}, tau={ot['tau']:.4f}")


def test_criterion_14_weyl_order_half():
    t0 = time.perf_counter()
    radii = np.geomspace(100.0, 1e4, 13)
    slopes = {}
    for name, pot in (("q0", wc.Potential.zero()),
                      ("cos", _cos_taylor())):
        p = wc.SLProblem(potential=pot, ode_rtol=1e-7)
        c = wc.curve_provider(p)
        h = wc.height_grid(c, radii)
        slopes[name] = float(np.polyfit(np.log(radii), np.log(h), 1)[0])
    dt = time.perf_counter() - t0
    ok = all(0.45 <= s <= 0.55 for s in slopes.values()) and dt < 300.0
    report(14, ok, f"ln h / ln r slopes {slopes} in [0.45, 0.55], {dt:.0f}s")


def _cos_taylor():
    from math import factorial
    coeffs = np.zeros(25)
    for k in range(13):
        coeffs[2 * k] = (-1) ** k / factorial(2 * k)
    return wc.Potential.polynomial(coeffs)


FMT_RADII = list(np.linspace(20.0, 400.0, 10) + 0.37)


def test_criterion_15_first_main_theorem(c_q0, bc_dirichlet):
    rng = np.random.default_rng(1515)
    bcs = [bc_dirichlet] + \
        [wc.bc_from_unitary(random_symmetric_unitary(rng), label=f"rand{i}")
         for i in range(5)]
    worst_range = worst_slope = 0.0
    h_max = wc.height(c_q0, FMT_RADII[-1])
    for rep in wc.fmt_report(c_q0, bcs, FMT_RADII):
        worst_range = max(worst_range, rep.residual_range)
        worst_slope = max(worst_slope, abs(rep.drift_slope))
    ok = worst_range <= 0.1 * h_max and worst_slope <= 0.05
    report(15, ok, f"FMT residual range {worst_range:.3f} <= {0.1 * h_max:.3f}, "
                   f"drift slope {worst_slope:.3f} <= 0.05")


def test_criterion_16_defects(c_exp, c_q0, bc_dirichlet):
    bc0 = wc.bc_from_chart(np.array([[0.0]]))
    d_exp = wc.defects(c_exp, bc0, np.geomspace(10.0, 400.0, 10))
    d_sl = wc.defects(c_q0, bc_dirichlet, FMT_RADII)
    ok = abs(d_exp["delta"] - 1.0) <= 1e-3 and abs(d_exp["Delta"] - 1.0) <= 1e-3 \
        and d_sl["Delta"] <= 0.2
    report(16, ok, f"exponential Omega=0 defects {d_exp}; "
                   f"q0 Dirichlet Delta {d_sl['Delta']:.3f} <= 0.2")


def test_criterion_17_congruence_invariance(c_q0, c_exp):
    rng = np.random.default_rng(1717)
    lams = [complex(rng.uniform(-5, 10), rng.uniform(0.3, 3.0)) for _ in range(20)]
    base = {lam: wc.curvature(c_q0, lam).chern for lam in lams}
    worst = 0.0
    for _ in range(5):
        g = random_pseudo_unitary(rng, 2)
        cg = wc.congruence(c_q0, g)
        for lam in lams:
            got = wc.curvature(cg, lam).chern
            worst = max(worst, float(np.abs(got - base[lam]).max()))
    g2 = np.array([[1.0, -2.0], [0.0, 1.0]])  # lambda -> lambda + 2
    cg2 = wc.reparameterize(c_exp, g2)
    exact = all(np.array_equal(cg2.B(lam), c_exp.B(lam + 2.0))
                for lam in (0.3 + 0.4j, 5.0, -1.0 + 2.0j))
    ok = worst <= 1e-7 and exact
    report(17, ok, f"Chern invariance under U(2,2) (worst dev {worst:.1e}); "
                   f"reparameterization exact: {exact}")


def test_criterion_18_integrator_invariants(p_q0, p_qcos, p_qx, p_qtable):
    lams = [1e4, -1e4, 2500.0, -2500.0, 100.0, -100.0, 1.0, -1.0, 0.5,
            1e4 * np.exp(0.25j * np.pi), 100 + 100j, -30 + 7j, 3 - 4j,
            1000 + 1j, -1000 - 3j]
    worst_w = worst_c = 0.0
    for p in (p_q0, p_qcos, p_qx, p_qtable):
        for lam in lams:
            lam = complex(lam)
            fd = fundamental(p, lam)
            scale = max(abs(fd.c * fd.sp), abs(fd.cp * fd.s), 1.0)
            worst_w = max(worst_w, abs(fd.wronskian - 1.0) / scale)
            fdc = fundamental(p, np.conj(lam))
            for a, b in ((fd.c, fdc.c), (fd.cp, fdc.cp),
                         (fd.s, fdc.s), (fd.sp, fdc.sp)):
                worst_c = max(worst_c, abs(np.conj(a) - b) / (1 + abs(a)))
    ok = worst_w <= 1e-9 and worst_c <= 1e-10
    report(18, ok, f"Wronskian dev {worst_w:.1e} <= 1e-9, conjugation "
                   f"symmetry {worst_c:.1e} <= 1e-10 over the corpus")
