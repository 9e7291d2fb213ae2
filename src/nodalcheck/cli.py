"""Command line interface.

Exit codes: 0 = success, 1 = error (bad input or usage, crash), 2 = a
validation ran and the outcome was not Certified.  Structured results go
to stdout as JSON; experiment tables go to files as CSV/JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import (__version__, admissibility, bounds, experiments, fields,
               orthant)
from .cubical import SignGrid, sign_grid
from .homology import betti_pair
from .orthant import PATTERNS, prop41_limit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def _read_source(args, path, kind, parse, ignored):
    """Parse a JSON file; reject a --dim it contradicts and flags it overrides."""
    with open(path, encoding="utf-8") as fh:
        obj = parse(fh.read())
    if args.dim is not None and args.dim != obj.dim:
        raise ValueError(f"--dim {args.dim} does not match the {obj.dim}D "
                         f"{kind} file")
    for flag in ignored:
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} {getattr(args, flag)}"
                             f" does not apply to the {kind} file")
    return obj


def _load_coeffs(args, dim=1):
    if args.coeffs:
        return _read_source(args, args.coeffs, "coefficient",
                            fields.coeffs_from_json, ("N",))
    if args.N is None:
        raise ValueError("either --coeffs or --N is required")
    return fields.trig_coeffs(args.dim or dim, args.N)


def _load_realization(args):
    if args.realization:
        return _read_source(args, args.realization, "realization",
                            fields.realization_from_json, ("coeffs", "N", "seed"))
    return fields.draw_realization(_load_coeffs(args), args.seed or 0)


def _write(text: str, out=None):
    """Write ``text`` and a newline to the file ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(payload):
    _write(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_gen(args):
    coeffs = _load_coeffs(args)
    if args.coeffs_out:
        _write(fields.coeffs_to_json(coeffs), args.coeffs_out)
    r = fields.draw_realization(coeffs, args.seed)
    _write(fields.realization_to_json(r), args.out)
    return EXIT_OK


def _cmd_eval(args):
    r = _load_realization(args)
    if r.dim == 1:
        if args.y is not None:
            raise ValueError(f"--y {args.y} does not apply to a 1D field")
        value = float(r(float(args.x)))
    else:
        if args.y is None:
            raise ValueError("--y is required for 2D realizations")
        value = float(r((float(args.x), float(args.y))))
    _emit({"value": value})
    return EXIT_OK


def _cmd_grid(args):
    r = _load_realization(args)
    grid = sign_grid(r, args.M, _zero_tol(args, r))
    _write(grid.to_json(), args.out)
    return EXIT_OK


def _cmd_betti(args):
    if args.grid:
        grid = _read_source(args, args.grid, "sign grid", SignGrid.from_json,
                            ("coeffs", "N", "seed", "realization", "M",
                             "zero_tol"))
    else:
        if args.M is None:
            raise ValueError("betti needs --grid or --M")
        r = _load_realization(args)
        grid = sign_grid(r, args.M, _zero_tol(args, r))
    plus, minus = betti_pair(grid)
    _emit({"plus": plus.as_list(), "minus": minus.as_list(),
           "zero_count": grid.zero_count})
    return EXIT_OK


def _cmd_validate(args):
    r = _load_realization(args)
    zero_tol = _zero_tol(args, r)
    if r.dim == 1:
        outcome = admissibility.validate_1d(r, args.M, args.D, zero_tol)
    else:
        outcome = admissibility.validate_2d(r, args.M, args.D, zero_tol)
    _emit({
        "status": outcome.status,
        "max_depth_checked": outcome.max_depth_checked,
        "zero_flag_count": outcome.zero_flag_count,
        "violation_count": outcome.violation_count,
        "violations": [{"square": v[0], "level": v[1], "pattern": v[2]}
                       for v in outcome.violations],
    })
    return EXIT_OK if outcome.certified else EXIT_NOT_CERTIFIED


def _cmd_bound(args):
    if args.torus and args.dim != 2:
        raise ValueError("--torus needs --dim 2")
    coeffs = _load_coeffs(args)
    m = fields.spectral_moments(coeffs)
    if args.dim == 1:
        res = bounds.bound_1d_periodic(m, args.M)
    elif args.torus:
        _, C2 = bounds.c1_c2_periodic(m, coeffs.L)
        res = bounds.bound_2d_torus(C2, coeffs.L, args.M)
    else:
        res = bounds.bound_2d_periodic(m, args.M)
    _emit({"bound": res.bound, "constants": res.constants, "M": res.M,
           "leading_only": res.leading_only, "vacuous": res.vacuous})
    return EXIT_OK


def _cmd_orthant(args):
    if not args.delta > 0:
        raise ValueError("--delta must be positive")
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be positive")
    pattern = PATTERNS[args.pattern]
    for flag in ("samples", "seed"):
        if pattern.n <= 3 and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} {getattr(args, flag)} does not apply "
                             f"to the {pattern.n}-point pattern "
                             f"{args.pattern}, which is computed exactly")
    coeffs = _load_coeffs(args, pattern.dim)
    if coeffs.dim != pattern.dim:
        source = (f"the coefficient file {args.coeffs} is {coeffs.dim}D"
                  if args.coeffs else f"--dim is {coeffs.dim}")
        raise ValueError(f"pattern {args.pattern} is {pattern.dim}D, but {source}")
    estimate, stderr, functional = orthant._functional(
        coeffs, coeffs.L, pattern, args.delta, args.samples or 1_000_000,
        args.seed or 0)
    _emit({"estimate": estimate, "stderr": stderr, "functional": functional,
           "limit": prop41_limit(pattern.signs, pattern.v1_limit)})
    return EXIT_OK


def _cmd_patterns(args):
    with open(args.file, encoding="utf-8") as fh:
        coll = admissibility.load_patterns(fh.read())
    _emit({"B": admissibility.count_surviving(coll.B),
           "I4": admissibility.count_surviving(coll.I4),
           "I": admissibility.count_surviving(coll.I)})
    return EXIT_OK


def _cmd_experiment(args):
    with open(args.config, encoding="utf-8") as fh:
        cfg = experiments.ExperimentConfig.from_json(fh.read())
    if cfg.out and args.out:
        raise ValueError(f"--out {args.out} does not apply: the config sets "
                         f"out to {cfg.out}")
    out = cfg.out or args.out
    if args.format and not out:
        raise ValueError(f"--format {args.format} does not apply: neither "
                         f"--out nor the config's out names a file")
    if cfg.kind == "ZeroStats":
        summary = experiments.zero_stats(cfg.N, cfg.trials, cfg.seed)
    else:
        dim = 1 if cfg.kind == "Homology1D" else 2
        summary = experiments.homology_experiment(
            dim, cfg.N, cfg.M_list, cfg.trials, cfg.D, cfg.seed, cfg.zero_tol)
    if out:
        experiments.write_results(summary, out, args.format or "csv")
    _emit({"kind": summary.kind, "meta": summary.meta,
           "rows": list(summary.rows)})
    return EXIT_OK


def _add_zero_tol(p):
    p.add_argument("--zero-tol", type=float, default=None,
                   help="zero-flag tolerance: a sample is flagged when "
                        "neither u > ZERO_TOL nor u < -ZERO_TOL holds, so "
                        "NaN is flagged (default 1e-12*sqrt(A0), as in "
                        "experiments; 0 flags exact zeros only)")


def _zero_tol(args, r) -> float:
    if args.zero_tol is None:
        return experiments.default_zero_tol(r.coeffs)
    return args.zero_tol


def _add_coeffs_source(p, **dim):
    p.add_argument("--coeffs", help="coefficient JSON file")
    p.add_argument("--dim", type=int, choices=(1, 2), **dim)
    p.add_argument("--N", type=int, help="trigonometric polynomial degree")


def _add_field_source(p):
    _add_coeffs_source(p, help="default 1")
    p.add_argument("--realization", help="realization JSON file")
    p.add_argument("--seed", type=int, help="default 0")


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_ERROR on a usage error; argparse's own code, 2, is
    the code of a validation that is not Certified."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nodalcheck",
        description="Validated homology computation for nodal domains of "
                    "random periodic fields.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="draw a random realization as JSON")
    _add_coeffs_source(p, help="default 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="realization output path (default stdout)")
    p.add_argument("--coeffs-out", help="also write the coefficient JSON here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="evaluate a realization at a point")
    _add_field_source(p)
    p.add_argument("--x", required=True, type=float)
    p.add_argument("--y", type=float)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grid", help="sample a sign grid")
    _add_field_source(p)
    p.add_argument("--M", required=True, type=int)
    _add_zero_tol(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("betti", help="Betti numbers of the cubical pair")
    _add_field_source(p)
    p.add_argument("--grid", help="sign grid JSON file")
    p.add_argument("--M", type=int)
    _add_zero_tol(p)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("validate",
                       help="certify a discretization (exit 2 if not)")
    _add_field_source(p)
    p.add_argument("--M", required=True, type=int)
    p.add_argument("--D", type=int, default=experiments.DEFAULT_DEPTH)
    _add_zero_tol(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bound", help="closed-form probability lower bound")
    _add_coeffs_source(p, required=True)
    p.add_argument("--M", required=True, type=int)
    p.add_argument("--torus", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("orthant", help="orthant probability and limit check")
    p.add_argument("--pattern", required=True, choices=sorted(PATTERNS))
    _add_coeffs_source(p, help="default: the dimension of the pattern")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--samples", type=int,
                   help="default 1000000; patterns of at most 3 points "
                        "are computed exactly and take neither flag")
    p.add_argument("--seed", type=int, help="default 0")
    p.set_defaults(func=_cmd_orthant)

    p = sub.add_parser("patterns", help="pattern library utilities")
    p.add_argument("action", choices=("check",))
    p.add_argument("file")
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("experiment", help="run an experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"),
                   help="default csv; needs a file to write")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
