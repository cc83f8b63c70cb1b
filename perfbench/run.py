"""Entry point for the benchmark contract: ``python3 perfbench/run.py
--workload W --seed N --seconds S --trace 0|1`` from the root of a
checkout.  Puts the checkout and its ``src/`` on the path itself, so
the command names nothing outside ``perfbench/``."""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root), str(root / "src")]
    from perfbench.cli import main
    sys.exit(main())
