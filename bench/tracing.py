"""In-memory span recorder for the benchmark's traced run.

Public functions of weylcurve are wrapped from here, where each name is
looked up, so src/ carries no tracing code: sturm.fundamental as the sturm
module global, CurveProvider methods on the class, and functions that one
module imports from another in both namespaces.  A span records its name,
start, end and parent; self time is a span's time minus its children's.
Time is read with time.perf_counter only.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "solves", "b_calls", "depth", "solves0", "b0")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0      # inclusive time of outermost spans of this name
        self.self_s = 0.0    # sum of self times
        self.solves = 0      # fundamental solves under outermost spans
        self.b_calls = 0     # CurveProvider.B calls under outermost spans
        self.depth = 0
        self.solves0 = 0
        self.b0 = 0


class SpanRecorder:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stats = {}
        self._stack = []        # [span index, start, child time, stat]
        self.solves = 0
        self.solve_time = 0.0
        self.q_evals = 0
        self.eigenvalues_real_found = 0
        # id(problem) -> (problem, set of lambda keys); holding the problem
        # keeps its id from being reused by a later command's problem
        self._seen = {}
        self._undo = []

    # -- spans -----------------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return st

    def _enter(self, name):
        st = self._stat(name)
        st.calls += 1
        if st.depth == 0:
            st.solves0 = self.solves
            st.b0 = self._b_calls()
        st.depth += 1
        idx = len(self.start)
        self.name_id.append(self._name_ids[name])
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        t = time.perf_counter()
        self.start.append(t)
        self.end.append(t)
        self._stack.append([idx, t, 0.0, st])

    def _exit(self):
        t = time.perf_counter()
        idx, t0, child, st = self._stack.pop()
        self.end[idx] = t
        dur = t - t0
        st.self_s += dur - child
        st.depth -= 1
        if st.depth == 0:
            st.incl += dur
            st.solves += self.solves - st.solves0
            st.b_calls += self._b_calls() - st.b0
        if self._stack:
            self._stack[-1][2] += dur

    def _b_calls(self):
        st = self.stats.get("curves.B")
        return st.calls if st is not None else 0

    def span(self, name, fn):
        """fn wrapped in a span called name."""
        def wrapped(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapped

    # -- installation -------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the layer boundaries of weylcurve; uninstall() undoes it."""
        from weylcurve import cli, curves, spectral, sturm, symplectic, value_dist

        for attr in ("load_config", "build_problem", "build_bcs"):
            self._patch(cli, attr, self.span(f"cli.{attr}", getattr(cli, attr)))
        # one span per CLI command: argument handling, the handler, the write
        self._patch(cli, "main", self.span("cli.run", cli.main))
        self._patch(sturm, "fundamental", self._fundamental(sturm.fundamental))
        self.install_q_counter()
        for attr in ("B", "phase_speed", "frame"):
            self._patch(curves.CurveProvider, attr,
                        self.span(f"curves.{attr}", getattr(curves.CurveProvider, attr)))
        schubert = self.span("symplectic.schubert_section", symplectic.schubert_section)
        for mod in (symplectic, spectral):
            self._patch(mod, "schubert_section", schubert)
        shared = {
            "char_function": (spectral, value_dist),
            "is_degenerate": (spectral, value_dist),
            "eigenvalues_real": (spectral, value_dist),
            "eigenvalues_complex": (spectral, value_dist),
            "phase_count": (spectral,),
        }
        for attr, mods in shared.items():
            fn = getattr(spectral, attr)
            wrapped = self.span(f"spectral.{attr}", fn)
            if attr == "eigenvalues_real":
                wrapped = self._count_eigenvalues(wrapped)
            for mod in mods:
                self._patch(mod, attr, wrapped)
        for attr in ("proximity", "height_grid", "fmt_report", "defects", "order_type"):
            self._patch(value_dist, attr, self.span(f"value_dist.{attr}",
                                                    getattr(value_dist, attr)))

    def install_q_counter(self):
        """Count calls to the potential's evaluators (two per RHS evaluation)."""
        from weylcurve import sturm

        def counting(factory):
            def make(pot, length):
                return self._counted(factory(pot, length))
            return make

        for attr in ("evaluator", "deriv_evaluator"):
            self._patch(sturm.Potential, attr, counting(getattr(sturm.Potential, attr)))

    def _counted(self, f):
        def q(x):
            self.q_evals += 1
            return f(x)
        return q

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _fundamental(self, fn):
        span = self.span("sturm.fundamental", fn)

        def fundamental(p, lam, *args, **kwargs):
            # a pair (problem, lambda) seen for the first time is a memo miss
            _, seen = self._seen.setdefault(id(p), (p, set()))
            key = complex(lam)
            if key in seen:
                return span(p, lam, *args, **kwargs)
            seen.add(key)
            self.solves += 1
            t0 = time.perf_counter()
            try:
                return span(p, lam, *args, **kwargs)
            finally:
                self.solve_time += time.perf_counter() - t0
        return fundamental

    def _count_eigenvalues(self, fn):
        def wrapped(*args, **kwargs):
            evs = fn(*args, **kwargs)
            self.eigenvalues_real_found += sum(e.multiplicity for e in evs)
            return evs
        return wrapped

    def overhead_estimate(self, n=20000) -> float:
        """Tracing cost predicted from the counts: the measured extra cost of
        one no-op span and of one counted evaluator call, times how many
        there were.  Unlike the traced-minus-untraced difference it does not
        carry the round-to-round noise of the machine."""
        def noop(x=None):
            return x

        probe = SpanRecorder()
        plain, spanned, counted = noop, probe.span("noop", noop), probe._counted(noop)
        t = [time.perf_counter()]
        for fn in (plain, spanned, counted):
            for _ in range(n):
                fn(0.0)
            t.append(time.perf_counter())
        base = t[1] - t[0]
        span_cost = max(t[2] - t[1] - base, 0.0) / n
        q_cost = max(t[3] - t[2] - base, 0.0) / n
        return len(self.start) * span_cost + self.q_evals * q_cost

    # -- output -------------------------------------------------------------------

    def write(self, path):
        """Write every span (name, start, end, parent index) as gzipped JSON."""
        doc = {"names": self.names, "name_id": self.name_id.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "parent": self.parent.tolist()}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)

    def layer_metrics(self) -> dict:
        """Per-layer metrics {name: (value, unit)} from the recorded spans."""
        def st(name):
            return self.stats.get(name) or _Stat()

        fund = st("sturm.fundamental")
        ev_real = st("spectral.eigenvalues_real")
        out = {
            "cli.load_config.s": (st("cli.load_config").incl, "s"),
            "cli.build_problem.s": (st("cli.build_problem").incl, "s"),
            "cli.build_bcs.s": (st("cli.build_bcs").incl, "s"),
            "cli.run.self_s": (st("cli.run").self_s, "s"),
            "sturm.fundamental.calls": (fund.calls, "count"),
            "sturm.fundamental.solves": (self.solves, "count"),
            "sturm.fundamental.hit_ratio":
                (1.0 - self.solves / fund.calls if fund.calls else 0.0, "ratio"),
            "sturm.fundamental.s": (fund.incl, "s"),
            "sturm.fundamental.ms_per_solve":
                (1e3 * self.solve_time / self.solves if self.solves else 0.0, "ms"),
            "sturm.q_evals": (self.q_evals, "count"),
            "curves.B.calls": (st("curves.B").calls, "count"),
            "curves.B.self_s": (st("curves.B").self_s, "s"),
            "curves.phase_speed.calls": (st("curves.phase_speed").calls, "count"),
            "curves.phase_speed.self_s": (st("curves.phase_speed").self_s, "s"),
            "curves.frame.calls": (st("curves.frame").calls, "count"),
            "symplectic.schubert_section.calls": (st("symplectic.schubert_section").calls, "count"),
            "symplectic.schubert_section.self_s": (st("symplectic.schubert_section").self_s, "s"),
            "spectral.eigenvalues_real.s": (ev_real.incl, "s"),
            "spectral.eigenvalues_real.self_s": (ev_real.self_s, "s"),
            "spectral.b_calls_per_eigenvalue":
                (ev_real.b_calls / self.eigenvalues_real_found
                 if self.eigenvalues_real_found else 0.0, "ratio"),
            "spectral.eigenvalues_complex.s": (st("spectral.eigenvalues_complex").incl, "s"),
            "spectral.eigenvalues_complex.self_s": (st("spectral.eigenvalues_complex").self_s, "s"),
            "spectral.char_function.calls": (st("spectral.char_function").calls, "count"),
            "spectral.is_degenerate.s": (st("spectral.is_degenerate").incl, "s"),
            "spectral.is_degenerate.solves": (st("spectral.is_degenerate").solves, "count"),
            "spectral.phase_count.s": (st("spectral.phase_count").incl, "s"),
            "value_dist.proximity.calls": (st("value_dist.proximity").calls, "count"),
            "value_dist.proximity.s": (st("value_dist.proximity").incl, "s"),
            "value_dist.proximity.solves": (st("value_dist.proximity").solves, "count"),
            "value_dist.height_grid.s": (st("value_dist.height_grid").incl, "s"),
            "value_dist.height_grid.solves": (st("value_dist.height_grid").solves, "count"),
            "value_dist.fmt_report.s": (st("value_dist.fmt_report").incl, "s"),
            "value_dist.fmt_report.solves": (st("value_dist.fmt_report").solves, "count"),
            "value_dist.defects.s": (st("value_dist.defects").incl, "s"),
            "value_dist.order_type.s": (st("value_dist.order_type").incl, "s"),
            "trace.spans": (len(self.start), "count"),
        }
        return out


PROBE_LAMBDAS = {"l1": 1.0, "l1e2": 1e2, "l1e4": 1e4, "l1e4_5i": 1e4 + 5j}


def probes(potentials: dict) -> dict:
    """One cold fundamental solve per (potential, lambda): ms and q evaluations.

    potentials maps a probe name to the potential's JSON form.

    The time is taken with no wrapper installed; the evaluations are counted
    in a second cold solve with only the evaluator counter installed.
    """
    from weylcurve import sturm

    out = {}
    for pot_name, pot_json in potentials.items():
        pot = sturm.Potential.from_json(pot_json)
        for lam_name, lam in PROBE_LAMBDAS.items():
            p = sturm.SLProblem(potential=pot)
            t0 = time.perf_counter()
            sturm.fundamental(p, lam)
            ms = 1e3 * (time.perf_counter() - t0)
            rec = SpanRecorder()
            rec.install_q_counter()
            try:
                sturm.fundamental(sturm.SLProblem(potential=pot), lam)
            finally:
                rec.uninstall()
            base = f"sturm.probe.{pot_name}.{lam_name}"
            out[f"{base}.ms"] = (ms, "ms")
            out[f"{base}.q_evals"] = (rec.q_evals, "count")
    return out
