"""Write one workload's inputs for a seed, as text the program parses:

    python3 perfbench/gen.py --workload check-deep --seed 7 --out DIR

Formulas are written with render, models with serialize_model and
command lines as one argument per line.  The same seed writes the same
files."""
from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import WORKLOADS  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    importlib.import_module(WORKLOADS[args.workload]).generate(args.seed, args.out)


if __name__ == "__main__":
    main()
