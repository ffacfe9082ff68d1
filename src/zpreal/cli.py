"""Command-line surface.

Subcommands: generate, verify, eval, factorize, cauchy. Matrices print
at 15 significant digits, one row per line, entries as "a + bi". Exit
codes are a stable contract:

    0 success, 2 usage (also an output path that cannot be written),
    3 parse, 4 validation, 5 no factorization, 6 verification failed.

`main` maps each error class to its code through one ordered table,
_EXIT_CODES.

The argument parser is built once per process, on the first call of
`main`, and reused by every later call; the command handlers are still
looked up by name on each call.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from .cauchy import cauchy_det_squared, cauchy_inverse_formula, cauchy_matrix
from .errors import (
    InconsistentDataError,
    NoFactorizationError,
    ParseError,
    ValidationError,
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
from .report import Report, check_tolerance
from .serialize import _write_text, load_instance, save_instance
from .synthesis import (
    GeneratorGeometry,
    chain_from_bundle,
    chain_identity_check,
    random_instance,
)
from .zero_pole import FAIL_TOL, REPORT_TOL, check_consistency, sample_points

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
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, "
                                         f"got {text!r}") from None
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
        _write_text(path, json.dumps(report.to_dict(), indent=2) + "\n")


def _write_all(writes) -> None:
    """Write the files of one command: all of them or, on failure, none.

    `writes` holds (path, write) pairs, and write(name) writes one
    output to name. A new file is written to a temporary name beside
    the file its path resolves to; an existing one (a regular file, a
    symlink's target, a device) is only checked for write permission.
    When every new file is written, the new files are renamed into
    place and then the existing ones are written through in place,
    without emptying them first, so links, mode and owner stay as they
    were.
    A failure removes what this call created and raises an OSError that
    names the user's path. Only an I/O error while an existing file is
    rewritten, which no check can foresee, leaves the existing files
    written before it changed.
    """
    staged, existing, created = [], [], []
    done = False
    try:
        for i, (path, write) in enumerate(writes):
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if os.path.exists(path):
                if not os.access(path, os.W_OK):
                    raise PermissionError(errno.EACCES,
                                          os.strerror(errno.EACCES))
                existing.append((path, write))
                continue
            # a dangling symlink's target is created, not the link replaced
            real = os.path.realpath(path)
            head, tail = os.path.split(real)
            temp = os.path.join(head, f".{tail}.{os.getpid()}-{i}.tmp")
            staged.append((path, real, temp))
            write(temp)
        for path, real, temp in staged:
            os.replace(temp, real)
            created.append(real)
        for path, write in existing:
            write(path)
        done = True
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if not done:
            for name in [temp for _, _, temp in staged] + created:
                with contextlib.suppress(OSError):
                    os.remove(name)


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
    check_tolerance(args.tol, "tol")
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
    # written before anything is printed: a report path that cannot be
    # written fails the command with nothing on stdout
    _write_report(report, args.report_out)
    for line in report.lines():
        print(line)
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
    if arity == 1 and args.y_re is not None:
        parser.error(f"{args.which} takes a single point")
    # the evaluators map a NaN or infinite point to NaN; a command that
    # prints a value refuses such a point instead
    coords = (args.x_re, args.x_im) + ((args.y_re, args.y_im) if have_y
                                       else ())
    if not all(math.isfinite(v) for v in coords):
        raise ValidationError("evaluation points must be finite")
    data, _ = load_instance(args.path)
    bundle = build_bundle(data)
    if arity == 1:
        value = func(bundle, x)
    else:
        value = func(bundle, x, complex(args.y_re, args.y_im))
    print(format_matrix(value))
    return 0


def cmd_factorize(args) -> int:
    # factorize refuses the same tolerance, but only after the file is read
    check_tolerance(args.tol, "fail_tol")
    data, _ = load_instance(args.path)
    bundle = build_bundle(data)
    contour = CircleContour(complex(args.center_re, args.center_im),
                            args.radius)
    result = factorize(bundle, contour, cond_max=args.cond_max,
                       fail_tol=args.tol)
    split = result.split
    writes = []
    for role, factor, pole_idx, zero_idx, path in (
        ("plus_factor", result.plus, split.idxP_plus, split.idxN_plus,
         args.out_plus),
        ("minus_factor", result.minus, split.idxP_minus, split.idxN_minus,
         args.out_minus),
    ):
        meta = {
            "parent": str(args.path),
            "contour": {"center": [contour.center.real, contour.center.imag],
                        "radius": contour.radius},
            "cond_S11": result.cond_S11,
            "role": role,
            "parent_pole_indices": list(pole_idx),
            "parent_zero_indices": list(zero_idx),
        }
        writes.append((path, functools.partial(save_instance, factor.data,
                                               metadata=meta)))
    if args.report_out:
        writes.append((args.report_out,
                       lambda name: _write_report(result.report, name)))
    _write_all(writes)
    for line in result.report.lines():
        print(line)
    print(f"OK    split {result.split.n_plus}/{result.split.n_minus}, "
          f"cond S11 = {result.cond_S11:.6g}")
    print(f"wrote {args.out_plus} and {args.out_minus}")
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


# the first class that matches gives the code: the base class comes last
_EXIT_CODES = (
    (ParseError, 3),
    (NoFactorizationError, 5),
    ((VerificationFailedError, InconsistentDataError), 6),
    (ZprealError, 4),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; `main` only calls its parse_args,
    which leaves it unchanged."""
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
    # cmd_eval reports its own usage errors through this subparser
    p_eval.set_defaults(eval_parser=p_eval)

    p_fac = sub.add_parser("factorize",
                           help="split across a circle into two factors")
    p_fac.add_argument("path")
    p_fac.add_argument("center_re", type=float)
    p_fac.add_argument("center_im", type=float)
    p_fac.add_argument("radius", type=float)
    p_fac.add_argument("out_plus")
    p_fac.add_argument("out_minus")
    p_fac.add_argument("--cond-max", type=float, default=COND_MAX)
    p_fac.add_argument("--tol", type=float, default=FAIL_TOL)
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
            return cmd_eval(args, args.eval_parser)
        if args.command == "factorize":
            return cmd_factorize(args)
        return cmd_cauchy(args)
    except ZprealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES
                    if isinstance(exc, cls))
    except OSError as exc:
        # load_instance maps a file it cannot read to ParseError, so this
        # is an output path that cannot be written
        print(f"error: cannot write {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
