"""Benchmark of weylcurve through its CLI, with checked answers.

Usage (from the repo root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sl-real-spectrum, sl-value-dist, exp-bookkeeping (workloads.py).
A round runs every command of the workload once through weylcurve.cli.main.

--trace 0 measures the end-to-end metrics with tracing off: whole rounds
are run until the next one would pass S seconds of measured time (at least
one round), and set-up is timed in fresh interpreters.  --trace 1 runs one
untraced and one traced round and reports the per-layer metrics, the cold
fundamental-solve probes and the tracing overhead.

Every round's outputs are checked against oracles.py.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def run_round(cli, cmds, paths, after=None):
    """Run every command once; returns (wall seconds, failed count, outputs).

    after(name), if given, is called when each command ends.
    """
    rcs = []
    gc.collect()  # garbage of an earlier round must not raise this round's peak memory
    t0 = time.perf_counter()
    for c, (command, cfg_path, _) in zip(cmds, paths):
        try:
            rc = cli.main([command, "--config", cfg_path])
        except Exception:
            traceback.print_exc()
            rc = -1
        rcs.append(rc)
        if after is not None:
            after(c.name)
    wall = time.perf_counter() - t0
    outputs = {}
    for c, (_, _, out_path), rc in zip(cmds, paths, rcs):
        outputs[c.name] = workloads.read_output(out_path, c.fmt) if rc == 0 else None
        if os.path.exists(out_path):
            os.remove(out_path)  # a later round must not read a stale output
    return wall, sum(rc != 0 for rc in rcs), outputs


def time_setup(cfg_path) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "setup_probe.py"), cfg_path],
                            cwd=ROOT)
    # a blocking wait: wait(timeout) polls every 50 ms, which rounds the
    # time up to that step; the timer bounds a child that hangs
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
        timer.join()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)
    return elapsed


def check_all(workload, cmds, rounds):
    refs = workloads.references(workload)
    checks = workloads.Checks()
    for outputs in rounds:
        workloads.check_round(cmds, outputs, refs, checks)
    return checks


def timed_run(args, cli, cmds, paths):
    setup = [time_setup(paths[0][1]) for _ in range(SETUP_REPEATS)]
    walls, rounds, failed = [], [], 0
    while True:
        wall, nfail, outputs = run_round(cli, cmds, paths)
        walls.append(wall)
        rounds.append(outputs)
        failed += nfail
        if sum(walls) + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = check_all(args.workload, cmds, rounds)
    print(f"rounds: {len(walls)}, wall per round (s): {[round(w, 3) for w in walls]}")
    print(f"setup runs (s): {[round(s, 3) for s in setup]}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accuracy_digits": (checks.digits(), "digits"),
    }
    return metrics, len(walls) * len(cmds), failed, checks


def traced_run(args, cli, cmds, paths):
    untraced, fail0, out0 = run_round(cli, cmds, paths)
    rec = tracing.SpanRecorder()
    per_command = {}

    def count_solves(name):
        per_command[name] = rec.solves - sum(per_command.values())

    rec.install()
    try:
        traced, fail1, out1 = run_round(cli, cmds, paths, after=count_solves)
    finally:
        rec.uninstall()
    print(f"fundamental solves per command: {per_command}")
    metrics = rec.layer_metrics()
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_est_s"] = (rec.overhead_estimate(), "s")
    metrics.update(tracing.probes(workloads.PROBE_POTENTIALS))
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz")
    rec.write(trace_path)
    print(f"untraced round {untraced:.3f} s, traced round {traced:.3f} s; spans in {trace_path}")
    checks = check_all(args.workload, cmds, [out0, out1])
    return metrics, 2 * len(cmds), fail0 + fail1, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weylcurve", "cli.py")):
        print(f"weylcurve sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    from weylcurve import cli

    cmds = workloads.commands(args.workload, args.seed)
    paths = workloads.write_configs(
        cmds, os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    run = traced_run if args.trace else timed_run
    metrics, attempted, failed, checks = run(args, cli, cmds, paths)

    for msg in checks.failures:
        print(f"CHECK FAILED {msg}")
    print(f"checks: {checks.count}, failed: {len(checks.failures)}; "
          f"largest relative error {checks.worst:.3g} at {checks.worst_label}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not checks.failures, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
