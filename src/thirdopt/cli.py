"""Command-line front end: optimize, check a point, run bench suites.

Subcommands
    run    optimize a problem and write a JSONL trace
    check  verify third-order conditions at a point, print a JSON report
    bench  run a named suite and write a CSV summary

Exit codes: 0 success (run: terminal convergence; check: conditions
hold; bench: all rows pass), 1 usage or runtime error, 2 iteration
budget exhausted, 3 negative verdict (check) or failing rows (bench).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

import numpy as np

from . import bench
from .conditions import ConditionTolerances, check_third_order
from .escape import OptimizerConfig, minimize, write_trace
from .polynomials import CORPUS_NAMES, Polynomial, corpus, smoothness_bounds


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, the documented code, where argparse exits 2.

    ``--x0 V`` and ``--point V`` are read as ``--x0=V`` and ``--point=V``:
    argparse would take a separate V such as ``-1,0`` for an option.
    Flags must be spelled in full (``allow_abbrev=False``), so a prefix
    such as ``--poi`` is a usage error whatever follows it, rather than
    an abbreviation that escapes the join.  Subparsers are built from the
    parser's own class, so they inherit all three.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        joined, rest = [], iter(sys.argv[1:] if args is None else args)
        for arg in rest:
            value = next(rest, None) if arg in ("--x0", "--point") else None
            joined.append(arg if value is None else f"{arg}={value}")
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _library_option(parser, flag: str, owner, name: str, help: str) -> None:
    """Add ``flag`` for parameter ``name`` of ``owner``, which owns its default.

    An unset flag is left out of the parsed args, so ``owner`` applies
    its own default; the help text reads that default from ``owner``.
    """
    default = inspect.signature(owner).parameters[name].default
    parser.add_argument(flag, dest=name, type=type(default), default=argparse.SUPPRESS,
                        metavar=flag.lstrip("-").upper().replace("-", "_"),
                        help=f"{help} (default: {default})")


def _given(args, owner) -> dict:
    """The options the user gave that are parameters of ``owner``."""
    params = inspect.signature(owner).parameters
    return {name: value for name, value in vars(args).items() if name in params}


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"could not parse vector {text!r}: {exc}") from None


def _load_problem(name_or_path: str) -> Polynomial:
    if name_or_path in CORPUS_NAMES:
        return corpus(name_or_path)
    try:
        with open(name_or_path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(
            f"{name_or_path!r} is neither a corpus name nor a readable file: {exc}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {name_or_path!r}: {exc}") from None
    return Polynomial.from_dict(data)


def _cmd_run(args) -> int:
    poly = _load_problem(args.problem)
    x0 = _parse_vector(args.x0)
    if x0.shape != (poly.dim,):
        raise ValueError(f"x0 has {x0.size} entries but the problem has dimension {poly.dim}")
    if args.R is None or args.L is None:
        # a norm that overflows is inf, which smoothness_bounds rejects by name
        with np.errstate(over="ignore"):
            radius = max(1.0, 2.0 * float(np.linalg.norm(x0)))
        bounds = smoothness_bounds(poly, radius)
        reg = args.R if args.R is not None else bounds.hess_lipschitz
        lip3 = args.L if args.L is not None else bounds.third_lipschitz
    else:
        reg, lip3 = args.R, args.L
    config = OptimizerConfig(hess_lipschitz=reg, third_lipschitz=lip3,
                             **_given(args, OptimizerConfig))
    trace = minimize(poly, x0, config)
    write_trace(trace, args.trace)
    final = ",".join(repr(float(v)) for v in trace.final_point)
    print(f"reason={trace.reason} iterations={trace.iterations} "
          f"final_f={float(trace.final_value)!r} final_x={final}")
    return 0 if trace.reason == "terminal" else 2


def _cmd_check(args) -> int:
    poly = _load_problem(args.problem)
    point = _parse_vector(args.point)
    if point.shape != (poly.dim,):
        raise ValueError(f"point has {point.size} entries but the problem has dimension {poly.dim}")
    tols = ConditionTolerances(**_given(args, ConditionTolerances))
    report = check_third_order(poly, point, tols)
    print(json.dumps(report.to_dict(), separators=(",", ":")))
    return 0 if report.holds else 3


def _cmd_bench(args) -> int:
    rows = bench.run_suite(args.suite, **_given(args, bench.run_suite))
    bench.write_csv(rows, args.out)
    failed = [r for r in rows if not r.passed]
    print(f"suite={args.suite} cases={len(rows)} failed={len(failed)}")
    return 0 if not failed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thirdopt",
        description="find and certify third-order local minima of polynomial objectives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="optimize a problem and write a JSONL trace")
    run.add_argument("--problem", required=True,
                     help=f"corpus name ({', '.join(CORPUS_NAMES)}) or polynomial JSON path")
    run.add_argument("--x0", required=True, help="starting point, comma separated")
    run.add_argument("--R", type=float, default=None,
                     help="Hessian Lipschitz bound (default: term-wise bound)")
    run.add_argument("--L", type=float, default=None,
                     help="third-derivative Lipschitz bound (default: term-wise bound)")
    _library_option(run, "--B", OptimizerConfig, "sampler_constant", "direction sampler constant")
    _library_option(run, "--max-iters", OptimizerConfig, "max_iters", "iteration budget")
    _library_option(run, "--seed", OptimizerConfig, "seed", "sampler seed")
    _library_option(run, "--tol-mu", OptimizerConfig, "tol_mu",
                    "stationarity tolerance of the terminal stop")
    run.add_argument("--trace", required=True, help="output JSONL trace path")
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="verify third-order conditions at a point")
    check.add_argument("--problem", required=True)
    check.add_argument("--point", required=True, help="point to check, comma separated")
    _library_option(check, "--tol-eig", ConditionTolerances, "eig",
                    "eigenvalue tolerance, relative to the spectral scale")
    _library_option(check, "--tol-third", ConditionTolerances, "third",
                    "null-space third-derivative tolerance")
    check.set_defaults(func=_cmd_check)

    bench_p = sub.add_parser("bench", help="run a benchmark suite and write CSV")
    bench_p.add_argument("--suite", required=True,
                         help=f"one of: {', '.join(bench.ALL_SUITES)}")
    bench_p.add_argument("--out", required=True, help="output CSV path")
    _library_option(bench_p, "--seed", bench.run_suite, "seed", "suite seed")
    bench_p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, ArithmeticError, RuntimeError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
