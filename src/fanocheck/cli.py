"""Command line front end: parse each subcommand's flags and text into the
typed inputs of the ``corpus`` check kind of the same name (its one entry,
shared with ``fanocheck verify``), run it, and print its verdict line, then
its evidence line when there is one.

Exit codes: 0 success / all checks pass, 1 a corpus check failed,
2 bad input (syntax errors, schema violations, unusable options).
"""

from __future__ import annotations

import argparse
import sys

from . import corpus as corpusmod
from . import delpezzo
from .geometry import UnsupportedStratumError, parse_ambient
from .poly import AlgebraError, VariableSet, parse_poly


class InputError(ValueError):
    pass


def _parse_vars_spec(spec: str) -> VariableSet:
    """Comma list of names with optional :weight, e.g. 'x0,x1,x2,x3,y:3'."""
    names, weights = [], []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise InputError("empty variable entry in --vars")
        if ":" in part:
            name, _, w = part.partition(":")
            try:
                weight = int(w)
            except ValueError:
                raise InputError(f"bad weight in {part!r}") from None
        else:
            name, weight = part, 1
        names.append(name)
        weights.append(weight)
    try:
        return VariableSet.weighted(names, weights)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _parse_int_list(text: str, what: str) -> list:
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError:
        raise InputError(f"bad {what}: {text!r}") from None


def _print_result(result: corpusmod.CheckResult) -> int:
    print(result.verdict)
    if result.evidence is not None:
        print(result.evidence)
    return 0


def _cmd_fsplit(args) -> int:
    vset = _parse_vars_spec(args.vars)
    f = parse_poly(args.poly, vset, args.prime)
    return _print_result(corpusmod.fsplit(args.prime, vset, f))


def _cmd_delta1(args) -> int:
    vset = _parse_vars_spec(args.vars)
    probe = None
    if args.probe:
        probe = _parse_int_list(args.probe, "--probe (need a,b,s)")
        if len(probe) != 3:
            raise InputError(f"bad --probe (need a,b,s): {args.probe!r}")
    f = parse_poly(args.poly, vset, args.prime)
    return _print_result(corpusmod.delta1(args.prime, vset, f, probe))


def _cmd_smooth(args) -> int:
    names = args.vars.split(",") if args.vars else None
    space = parse_ambient(args.ambient, names)
    f = parse_poly(args.poly, space.variable_set, args.prime)
    return _print_result(corpusmod.smooth(args.prime, space, f))


def _cmd_chow(args) -> int:
    if bool(args.expr) == bool(args.canonical):
        raise InputError("need exactly one of --expr or --canonical")
    base = tuple(_parse_int_list(args.base, "--base"))
    bundle = None
    if args.bundle:
        bundle = tuple(tuple(_parse_int_list(part, "--bundle twist"))
                       for part in args.bundle.split(";"))
    ring = corpusmod.chow_ring(base, bundle)
    return _print_result(corpusmod.chow(ring, canonical=args.canonical, expr=args.expr))


def _cmd_lattice(args) -> int:
    if args.langer:
        if args.points != 7:
            raise InputError("the Langer configuration needs --points 7")
        return _print_result(corpusmod.lattice("langer"))
    lattice = delpezzo.PicLattice(args.points)
    classes = delpezzo.enumerate_classes(lattice, -1, -1, args.dmax)
    print(f"exceptional classes (d <= {args.dmax}): {len(classes)}")
    return 0


def _cmd_verify(args) -> int:
    report = corpusmod.run_corpus(args.corpus, jobs=args.jobs)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.all_passed else 1


def _fsplit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-p", "--prime", type=int, required=True)
    p.add_argument("--vars", required=True,
                   help="comma list of names with optional :weight, e.g. x0,x1,y:3")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_fsplit)


def _delta1_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-p", "--prime", type=int, required=True)
    p.add_argument("--vars", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--probe", help="a,b,s: print f^a * delta1(f)^b mod (x_i^(p^s))")
    p.set_defaults(func=_cmd_delta1)


def _smooth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-p", "--prime", type=int, required=True)
    p.add_argument("--ambient", required=True,
                   help="e.g. 'P(1,1,1,1,3)' or 'P(1,1,1) x P(1,1,1)'")
    p.add_argument("--vars", help="optional flat comma list of variable names")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_smooth)


def _chow_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base", required=True, help="factor dimensions, e.g. '1,1,1'")
    p.add_argument("--bundle", help="twists per summand, e.g. '0,0;1,0;0,1'")
    p.add_argument("--expr", help="class expression, e.g. 'deg((2*h1+3*h2)^3)'")
    p.add_argument("--canonical", action="store_true",
                   help="print the canonical class")
    p.set_defaults(func=_cmd_chow)


def _lattice_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["exc"])
    p.add_argument("--points", type=int, default=7)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--langer", action="store_true",
                   help="counts for the blown-up 7-point plane")
    p.set_defaults(func=_cmd_lattice)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)


# (name, help, add-arguments function) of every subcommand, in help order
_SUBCOMMANDS = (
    ("fsplit", "Frobenius splitting verdict for a hypersurface", _fsplit_arguments),
    ("delta1", "first Witt carry, optionally probed mod p^s", _delta1_arguments),
    ("smooth", "smoothness verdict for a hypersurface", _smooth_arguments),
    ("chow", "intersection numbers and canonical classes", _chow_arguments),
    ("lattice", "exceptional-class counts in Pic of blow-ups", _lattice_arguments),
    ("verify", "run a corpus of expected verdicts", _verify_arguments),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocheck",
        description="Exact splitting, smoothness, intersection and lattice checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in _SUBCOMMANDS:
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  When ``argv[0]`` names one, one parser is built,
    that subcommand's own, with the prog the full parser gives it; help, a
    missing or unknown subcommand and unrecognized arguments, which argparse
    reports with the top-level usage, go through :func:`build_parser`, so
    every message reads as it does there."""
    argv = sys.argv[1:] if argv is None else list(argv)
    extras = True
    for name, _, add_arguments in _SUBCOMMANDS:
        if argv[:1] == [name]:
            parser = argparse.ArgumentParser(prog=f"fanocheck {name}")
            add_arguments(parser)
            args, extras = parser.parse_known_args(argv[1:])
            break
    if extras:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, UnsupportedStratumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
