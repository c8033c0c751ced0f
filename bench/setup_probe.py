"""Set-up as a user pays it: import weylcurve, load and build one config.

Usage: python3 bench/setup_probe.py CONFIG.json   (run from the repo root)

run.py times this script in a fresh interpreter, from process start to exit.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from weylcurve import cli  # noqa: E402

if __name__ == "__main__":
    cfg = cli.load_config(sys.argv[1], [])
    p, _ = cli.build_problem(cfg)
    cli.build_bcs(cfg, p)
