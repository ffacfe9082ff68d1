"""Command-line surface.

Subcommands: generate, verify, eval, factorize, cauchy. Matrices print
at 15 significant digits, one row per line, entries as "a + bi". Exit
codes are a stable contract:

    0 success, 2 usage, 3 parse, 4 validation,
    5 no factorization, 6 verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cauchy import cauchy_det_squared, cauchy_inverse_formula, cauchy_matrix
from .errors import (
    InconsistentDataError,
    NoFactorizationError,
    ParseError,
    VerificationFailedError,
    ZprealError,
)
from .factorization import COND_MAX, CircleContour, factorize
from .realization import (
    build_bundle,
    eval_R,
    eval_Rinv,
    eval_hybrid_left,
    eval_hybrid_right,
    eval_joint_left,
    eval_joint_right,
)
from .report import Report
from .serialize import load_instance, save_instance
from .synthesis import (
    GeneratorGeometry,
    chain_from_bundle,
    chain_identity_check,
    random_instance,
)
from .zero_pole import REPORT_TOL, check_consistency, sample_points

__all__ = ["main", "format_complex", "format_matrix"]


def format_complex(z: complex) -> str:
    re = z.real + 0.0
    im = z.imag + 0.0
    sign = "-" if im < 0 else "+"
    return f"{re:.15g} {sign} {abs(im):.15g}i"


def format_matrix(m: np.ndarray) -> str:
    return "\n".join("  ".join(format_complex(complex(v)) for v in row)
                     for row in np.atleast_2d(m))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, "
                                         f"got {value}")
    return value


def _point(text: str) -> complex:
    """Parse 're' or 're,im' into a complex number."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _write_report(report: Report, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")


def cmd_generate(args) -> int:
    geometry = GeneratorGeometry()
    bundle = random_instance(args.k, args.n, args.seed, geometry=geometry)
    metadata = {
        "seed": args.seed,
        "generator": {
            "disk_radius": geometry.disk_radius,
            "min_separation": geometry.min_separation,
            "cond_limit": geometry.cond_limit,
        },
        "cond_Sr": bundle.cond_Sr,
        "description": f"random instance k={args.k} n={args.n}",
    }
    save_instance(bundle.data, args.out, metadata)
    print(f"wrote {args.out} (k={args.k}, n={args.n}, "
          f"cond Sr = {bundle.cond_Sr:.6g})")
    return 0


def cmd_verify(args) -> int:
    data, _ = load_instance(args.path)
    report = check_consistency(data, args.tol)
    try:
        bundle = build_bundle(data)
        diagnostics = bundle.diagnostics
    except InconsistentDataError as exc:
        # keep going: the partial diagnostics tell the user which
        # relation broke
        bundle = None
        diagnostics = exc.diagnostics or {}
    for name, value in diagnostics.items():
        report.add(name, value, args.tol)
    if bundle is not None:
        if data.n:
            pts = sample_points(data, count=6)
            triples = [(pts[0], pts[1], pts[2]), (pts[3], pts[4], pts[5]),
                       (pts[0], pts[2], pts[4])]
            chain = chain_identity_check(chain_from_bundle(bundle), triples,
                                         args.tol)
            for check in chain.checks:
                report.add(check.name, check.residual, check.tol)
        report.info["cond_Sr"] = bundle.cond_Sr
    for line in report.lines():
        print(line)
    _write_report(report, args.report_out)
    if not report.passed:
        print(f"FAIL  {len(report.failures())} checks above tolerance")
        return 6
    print("OK    all checks passed")
    return 0


_EVALUATORS = {
    "R": (eval_R, 1),
    "Rinv": (eval_Rinv, 1),
    "jointR": (eval_joint_right, 2),
    "jointL": (eval_joint_left, 2),
    "hybridR": (eval_hybrid_right, 2),
    "hybridL": (eval_hybrid_left, 2),
}


def cmd_eval(args, parser) -> int:
    func, arity = _EVALUATORS[args.which]
    x = complex(args.x_re, args.x_im)
    have_y = args.y_re is not None and args.y_im is not None
    if arity == 2 and not have_y:
        parser.error(f"{args.which} needs both y_re and y_im")
    if arity == 1 and have_y:
        parser.error(f"{args.which} takes a single point")
    data, _ = load_instance(args.path)
    bundle = build_bundle(data)
    if arity == 1:
        value = func(bundle, x)
    else:
        value = func(bundle, x, complex(args.y_re, args.y_im))
    print(format_matrix(value))
    return 0


def cmd_factorize(args) -> int:
    data, _ = load_instance(args.path)
    bundle = build_bundle(data)
    contour = CircleContour(complex(args.center_re, args.center_im),
                            args.radius)
    result = factorize(bundle, contour, cond_max=args.cond_max,
                       fail_tol=args.tol)
    base_meta = {
        "parent": str(args.path),
        "contour": {"center": [contour.center.real, contour.center.imag],
                    "radius": contour.radius},
        "cond_S11": result.cond_S11,
    }
    save_instance(result.plus.data, args.out_plus, {
        **base_meta, "role": "plus_factor",
        "parent_pole_indices": list(result.split.idxP_plus),
        "parent_zero_indices": list(result.split.idxN_plus),
    })
    save_instance(result.minus.data, args.out_minus, {
        **base_meta, "role": "minus_factor",
        "parent_pole_indices": list(result.split.idxP_minus),
        "parent_zero_indices": list(result.split.idxN_minus),
    })
    for line in result.report.lines():
        print(line)
    print(f"OK    split {result.split.n_plus}/{result.split.n_minus}, "
          f"cond S11 = {result.cond_S11:.6g}")
    print(f"wrote {args.out_plus} and {args.out_minus}")
    _write_report(result.report, args.report_out)
    return 0


def cmd_cauchy(args) -> int:
    lam = np.array(args.poles, dtype=np.complex128)
    mu = np.array(args.zeros, dtype=np.complex128)
    if args.action == "matrix":
        print(format_matrix(cauchy_matrix(lam, mu)))
    elif args.action == "invert":
        print(format_matrix(cauchy_inverse_formula(lam, mu)))
    else:
        print(format_complex(cauchy_det_squared(lam, mu)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpreal",
        description="Zero-pole data: coupling matrices, evaluation, "
                    "contour factorization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a random instance file")
    p_gen.add_argument("k", type=_positive_int)
    p_gen.add_argument("n", type=_positive_int)
    p_gen.add_argument("seed", type=int)
    p_gen.add_argument("out")

    p_ver = sub.add_parser("verify", help="run the full check suite on a file")
    p_ver.add_argument("path")
    p_ver.add_argument("--tol", type=float, default=REPORT_TOL)
    p_ver.add_argument("--report-out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate the function at a point")
    p_eval.add_argument("path")
    p_eval.add_argument("which", choices=sorted(_EVALUATORS))
    p_eval.add_argument("x_re", type=float)
    p_eval.add_argument("x_im", type=float)
    p_eval.add_argument("y_re", type=float, nargs="?", default=None)
    p_eval.add_argument("y_im", type=float, nargs="?", default=None)

    p_fac = sub.add_parser("factorize",
                           help="split across a circle into two factors")
    p_fac.add_argument("path")
    p_fac.add_argument("center_re", type=float)
    p_fac.add_argument("center_im", type=float)
    p_fac.add_argument("radius", type=float)
    p_fac.add_argument("out_plus")
    p_fac.add_argument("out_minus")
    p_fac.add_argument("--cond-max", type=float, default=COND_MAX)
    p_fac.add_argument("--tol", type=float, default=1e-6)
    p_fac.add_argument("--report-out", default=None)

    p_cau = sub.add_parser("cauchy", help="reciprocal-gap matrix utilities")
    p_cau.add_argument("action", choices=["matrix", "invert", "detsq"])
    p_cau.add_argument("--poles", type=_point, nargs="+", required=True)
    p_cau.add_argument("--zeros", type=_point, nargs="+", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "eval":
            return cmd_eval(args, parser)
        if args.command == "factorize":
            return cmd_factorize(args)
        return cmd_cauchy(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoFactorizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (VerificationFailedError, InconsistentDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except ZprealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
