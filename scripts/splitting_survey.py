#!/usr/bin/env python3
"""Survey Frobenius-splitting verdicts for the standard hypersurface
families across a range of primes.

For each family and prime the script prints the verdict, the number of
surviving residue terms, and the size of the first Witt carry.  Everything
is exact, so rerunning always reproduces the same table.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fanocheck.poly import Prime, VariableSet, parse_poly
from fanocheck.splitting import HypersurfaceRing, fedder_report

FAMILIES = {
    "quartic": ("x0^4 + x1^4 + x2^4 + x3^4 + x4^4",
                "x0,x1,x2,x3,x4", (1, 1, 1, 1, 1)),
    "sextic-cover": ("x0^6 + x1^6 + x2^6 + x3^6 + y^2",
                     "x0,x1,x2,x3,y", (1, 1, 1, 1, 3)),
    "quartic-cover": ("x0^4 + x1^4 + x2^4 + x3^4 + y^2",
                      "x0,x1,x2,x3,y", (1, 1, 1, 1, 2)),
    "double-sextic": ("x0^6 + x1^6 + x2^6 + y^3 + z^2",
                      "x0,x1,x2,y,z", (1, 1, 1, 2, 3)),
}


def survey(family: str, primes) -> None:
    text, names, weights = FAMILIES[family]
    print(f"{family}: f = {text}")
    for p in primes:
        vset = VariableSet.weighted(names, weights)
        rep = fedder_report(HypersurfaceRing(p, vset, parse_poly(text, vset, p)))
        witness = f" witness {rep.witness}" if rep.witness else ""
        print(f"  p={p:<3} {rep.status:<10} residue terms {rep.residue_terms:<5}"
              f" carry terms {rep.delta1_terms:<5}{witness}".rstrip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=sorted(FAMILIES), action="append",
                        help="family to survey (default: all)")
    parser.add_argument("--primes", default="2,3,5,7,11,13",
                        help="comma list of primes to try")
    args = parser.parse_args()
    try:
        primes = [Prime(int(s)).p for s in args.primes.split(",")]
    except ValueError as exc:
        print(f"error: bad prime list {args.primes!r}: {exc}", file=sys.stderr)
        return 2
    for family in args.family or sorted(FAMILIES):
        survey(family, primes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
