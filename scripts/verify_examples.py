#!/usr/bin/env python3
"""Run the shipped expectation corpus and exit with its verdict.

A thin wrapper over ``fanocheck verify``: exit code 0 when every check
passes, 1 when any check fails, 2 on a malformed corpus file.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fanocheck.cli import main as fanocheck_main

DEFAULT_CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "paper_examples.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus", nargs="?", default=str(DEFAULT_CORPUS),
                        help="corpus JSON file (default: the shipped one)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads (output is identical either way)")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON report instead of text")
    args = parser.parse_args()
    return fanocheck_main(["verify", "--jobs", str(args.jobs),
                           "--format", "json" if args.json else "text",
                           "--", args.corpus])


if __name__ == "__main__":
    sys.exit(main())
