"""The four workloads: their inputs, operations and checks.

A workload builder takes the run's seed and a scratch directory and
returns the fixed list of operations one round attempts. Each operation
is a zero-argument `call` into zpreal's public functions (the only thing
the runner times) and a `check` that judges the result with perfbench's
own arithmetic (checks.py) after the round.

zpreal is reached through module attributes (`zr.eval_R`, not a name bound
at import), so that the traced run's shims see every call the benchmark
makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import zpreal.cli as zcli
import zpreal.factorization as zf
import zpreal.realization as zr
import zpreal.serialize as zs
import zpreal.synthesis as zsyn
from zpreal.errors import SingularCouplingError

from checks import Checker, Instance, rel_err, tolerance

# (k, n, instances per round). k=1, n=128 is left out: random_instance
# cannot meet its cond_limit there and always raises after 50 retries.
# The counts give every cell from about a tenth to a third of a round's time.
CONSTRUCT_CELLS = ((1, 8, 150), (4, 8, 150), (1, 32, 30), (4, 32, 120),
                   (4, 128, 10))
# At k=1, n=32 about one draw in four meets cond_limit, and the default
# budget of 50 retries ran out on 1 of 900 calls in a scan (seed
# 587864273 needs 62), so that cell gets a budget that does not run out.
RETRIES = {(1, 32): zsyn.GeneratorGeometry(max_retries=300)}

# Bundles built once in set-up, each read by all eight evaluators over
# EVAL_BLOCKS blocks of EVAL_BLOCK points (or point pairs).
EVAL_BUNDLES = ((4, 32), (4, 128), (1, 8))
EVAL_BLOCKS = 5
EVAL_BLOCK = 30                     # a multiple of 3: pairs come in triples
ONE_POINT = ("eval_R", "eval_Rinv", "eval_R_left", "eval_Rinv_left")
TWO_POINT = ("eval_joint_right", "eval_joint_left",
             "eval_hybrid_right", "eval_hybrid_left")

# (k, n_plus, n_minus, instances per round) split across the unit circle.
# factorize refuses a share of ordinary draws that varies with the seed,
# which a benchmark cannot count steadily. So seed-drawn splits are well
# separated and well conditioned (see well_separated_split), and only
# k=1 is split on both sides: in 3000 such draws at k=2 or 3 with 2+2 or
# 1+2 points, factorize still refused one to two.
SPLIT_CONFIGS = ((1, 2, 2, 12), (1, 3, 1, 12), (1, 1, 3, 12), (1, 3, 3, 12),
                 (2, 4, 0, 6), (4, 12, 0, 6), (1, 0, 4, 4), (1, 0, 8, 4))
# Fixed inputs, the same for every seed, on which factorize refuses a
# consistent, well-conditioned split (absolute agree_tol): drawn exactly as
# the test helper balanced_instance(k, n_plus, n_minus, seed) draws them.
KNOWN_REFUSED = ((2, 8, 8, 15), (1, 16, 16, 3))

UNIT_CIRCLE = (0j, 1.0)
# generate (k, n, count), leaving out k=1, n=32 whose retry budget the CLI
# does not set; the worst error of a run comes from the worst-conditioned
# generated file, so there are enough of them for its digits to repeat
# within about 7% from seed to seed. verify and eval read k=4, n=8 files,
# where the generator's output always passes verify, and well-separated
# split files, which factorize also reads. 173 operations a round.
CLI_GENERATE = ((1, 8, 64), (4, 8, 16), (4, 32, 16))
CLI_RANDOM_FILES = 12
CLI_SPLIT_FILES = 10                # k=1, 3+1 and 2+2


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object, Checker], None]


class Refusal:
    """An operation the program refused: a zpreal error, or a CLI exit
    code for refused input (4, 5 or 6)."""

    def __init__(self, message: str):
        self.message = message


def _library(module, name, *args):
    """Call module.name(*args), looking the name up at call time."""
    return getattr(module, name)(*args)


@dataclass
class Workload:
    ops: list
    workdir: str | None = None

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


# -- point drawing ----------------------------------------------------------

def annulus_points(rng, count, r_lo, r_hi, min_sep=0.05, avoid=()):
    """Uniform points in r_lo <= |z| <= r_hi, pairwise min_sep apart and
    min_sep from `avoid`; the test helper of the same name, draw for draw."""
    got = list(avoid)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000:
            raise RuntimeError("annulus_points: rejection sampling stuck")
        z = complex(*rng.uniform(-r_hi, r_hi, size=2))
        if not (r_lo <= abs(z) <= r_hi):
            continue
        if got and min(abs(z - w) for w in got) < min_sep:
            continue
        got.append(z)
        out.append(z)
    return out


def clear_points(rng, count, singular, radius=3.5, clearance=0.05):
    """Points in |z| <= radius at least `clearance` from every singular
    point, so that every check evaluates a well-defined value."""
    singular = np.asarray(singular, dtype=np.complex128)
    out = []
    while len(out) < count:
        z = complex(*rng.uniform(-radius, radius, size=2))
        if abs(z) > radius:
            continue
        if singular.size and np.abs(singular - z).min() < clearance:
            continue
        out.append(z)
    return out


def _unit_columns(rng, k, n):
    f = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    f = f / np.linalg.norm(f, axis=0, keepdims=True)
    g = g / np.linalg.norm(g, axis=1, keepdims=True)
    return f, g


def _synthesize_split(rng, k, n_plus, n_minus, inner, sep, cond_max):
    for _ in range(200):
        pin = annulus_points(rng, 2 * n_plus, *inner, min_sep=sep)
        pout = annulus_points(rng, 2 * n_minus, 1.25, 2.0, min_sep=sep,
                              avoid=pin)
        poles = np.array(pin[:n_plus] + pout[:n_minus], dtype=np.complex128)
        zeros = np.array(pin[n_plus:] + pout[n_minus:], dtype=np.complex128)
        f, g = _unit_columns(rng, k, n_plus + n_minus)
        try:
            return zsyn.synthesize(zsyn.SynthesisInput(
                F=f, G=g, pole_points=poles, zero_points=zeros),
                cond_max=cond_max)
        except SingularCouplingError:
            continue
    raise RuntimeError("no acceptable split instance in 200 draws")


def balanced_instance(k, n_plus, n_minus, seed):
    """The test helper's draw: inside 0.15..0.8, outside 1.25..2.0,
    points 0.05 apart, cond_Sr up to 1e6."""
    return _synthesize_split(np.random.default_rng(seed), k, n_plus, n_minus,
                             (0.15, 0.8), 0.05, 1e6)


def well_separated_split(rng, k, n_plus, n_minus):
    """A split whose singularities keep 0.15 apart, the inside ones in
    0.55..0.8, clear of the 0.43 ring where factorize verifies, and whose
    coupling matrix has cond_Sr at most 1e3."""
    return _synthesize_split(rng, k, n_plus, n_minus, (0.55, 0.8), 0.15, 1e3)


def _singular(inst: Instance):
    return np.concatenate([inst.poles, inst.zeros])


def _split_check_points(rng, inst: Instance):
    """Check points clear of the singularities and of the circle."""
    pts = []
    while len(pts) < 12:
        (z,) = clear_points(rng, 1, _singular(inst), radius=2.6)
        if abs(abs(z) - 1.0) > 0.05:
            pts.append(z)
    return pts


# -- construct --------------------------------------------------------------

def _construct(k, n, s):
    b = zsyn.random_instance(k, n, s, RETRIES.get((k, n)))
    return zr.build_bundle(b.data)


def _check_bundle(label, pts, b, checker: Checker):
    inst = Instance.of(b.data)
    checker.data(label, inst, pts, Sr=b.Sr, Sl=b.Sl)


def construct(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    pts = clear_points(rng, 8, [], radius=3.5)
    # points outside the disk of radius 2 that holds every singularity
    pts = [2.2 * z / abs(z) + z for z in pts]
    ops = []
    for k, n, count in CONSTRUCT_CELLS:
        label = f"construct k={k} n={n}"
        for s in rng.integers(0, 2**31, size=count):
            ops.append(Op(label, partial(_construct, k, n, int(s)),
                          partial(_check_bundle, label, pts)))
    return Workload(ops)


# -- evaluate ---------------------------------------------------------------

def _eval_one(fn_name, b, pts):
    fn = getattr(zr, fn_name)
    return [fn(b, z) for z in pts]


def _eval_two(fn_name, b, xs, ys):
    fn = getattr(zr, fn_name)
    return [fn(b, x, y) for x, y in zip(xs, ys)]


def _check_one(label, inst, cond, which, pts, got, checker: Checker):
    checker.one_point(label, inst, which, pts, np.array(got), cond)


def _check_two(label, inst, cond, side, xs, ys, got, checker: Checker):
    got = np.array(got)
    checker.two_point(label, inst, side, xs, ys, got, cond)
    checker.chain(label, got[0::3], got[1::3], got[2::3], cond)


def evaluate(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for k, n in EVAL_BUNDLES:
        b = zsyn.random_instance(k, n, int(rng.integers(0, 2**31)))
        inst = Instance.of(b.data)
        cond = inst.cond_Sr()
        sing = _singular(inst)
        for _ in range(EVAL_BLOCKS):
            pts = clear_points(rng, EVAL_BLOCK, sing)
            for name in ONE_POINT:
                which = "Rinv" if "Rinv" in name else "R"
                label = f"{name} k={k} n={n}"
                ops.append(Op(label, partial(_eval_one, name, b, pts),
                              partial(_check_one, label, inst, cond, which,
                                      pts)))
            a, bb, c = (clear_points(rng, EVAL_BLOCK // 3, sing)
                        for _ in range(3))
            # pairs (a, b), (b, c), (a, c) of each triple feed the chain check
            xs = [x for t in zip(a, bb, a) for x in t]
            ys = [y for t in zip(bb, c, c) for y in t]
            for name in TWO_POINT:
                side = "right" if name.endswith("right") else "left"
                label = f"{name} k={k} n={n}"
                ops.append(Op(label, partial(_eval_two, name, b, xs, ys),
                              partial(_check_two, label, inst, cond, side,
                                      xs, ys)))
    return Workload(ops)


# -- split ------------------------------------------------------------------

def _verdict(cond_s11: float) -> str:
    if not np.isfinite(cond_s11) or cond_s11 > zf.COND_MAX:
        return zf.NOT_EXISTS
    return zf.BOUNDARY if cond_s11 >= zf.COND_MAX / 10.0 else zf.EXISTS


def _inside_counts(inst: Instance):
    inside_p = np.abs(inst.poles - UNIT_CIRCLE[0]) < UNIT_CIRCLE[1]
    inside_z = np.abs(inst.zeros - UNIT_CIRCLE[0]) < UNIT_CIRCLE[1]
    return inside_p, inside_z


def _check_exists(label, inst, cond, verdict, checker: Checker):
    inside_p, inside_z = _inside_counts(inst)
    sr, _ = inst.closed_couplings()
    s11 = sr[np.ix_(inside_z, inside_p)]
    want = float(np.linalg.cond(s11, "fro")) if s11.size else 1.0
    if verdict.n_plus != inside_p.sum() or verdict.n_minus != (~inside_p).sum():
        checker.fail(f"{label}: split {verdict.n_plus}/{verdict.n_minus}, "
                     f"expected {inside_p.sum()}/{(~inside_p).sum()}")
    if verdict.verdict != _verdict(want):
        checker.fail(f"{label}: verdict {verdict.verdict}, cond S11 {want:.3e}")
    checker.record(f"{label} cond S11",
                   abs(verdict.cond_S11 - want) / want,
                   tolerance(max(cond, want)))


def _judge_split(label, inst, cond, pts, plus, minus, checker: Checker):
    checker.split(label, inst, plus, minus, *UNIT_CIRCLE, pts,
                  max(cond, plus.cond_Sr(), minus.cond_Sr()))


def _check_factorize(label, inst, cond, pts, result, checker: Checker):
    _judge_split(label, inst, cond, pts, Instance.of(result.plus.data),
                 Instance.of(result.minus.data), checker)


def _split_ops(label, b, rng):
    inst = Instance.of(b.data)
    cond = inst.cond_Sr()
    pts = _split_check_points(rng, inst)
    c = zf.CircleContour(*UNIT_CIRCLE)
    return [
        Op(f"factorization_exists {label}",
           partial(_library, zf, "factorization_exists", b, c),
           partial(_check_exists, label, inst, cond)),
        Op(f"factorize {label}", partial(_library, zf, "factorize", b, c),
           partial(_check_factorize, label, inst, cond, pts)),
    ]


def split(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for k, n_plus, n_minus, count in SPLIT_CONFIGS:
        for _ in range(count):
            b = well_separated_split(rng, k, n_plus, n_minus)
            ops += _split_ops(f"k={k} {n_plus}+{n_minus}", b, rng)
    for k, n_plus, n_minus, s in KNOWN_REFUSED:
        b = balanced_instance(k, n_plus, n_minus, s)
        ops += _split_ops(f"k={k} {n_plus}+{n_minus} fixed seed {s}", b, rng)
    return Workload(ops)


# -- cli --------------------------------------------------------------------

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = zcli.main(argv)
    if rc in (4, 5, 6):
        return Refusal(f"exit {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def _load(path) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return Instance.from_json(json.load(fh))


def _parse_matrix(text: str) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        row = []
        for entry in line.split("  "):
            re_s, sign, im_s = entry.split()
            im = float(im_s[:-1])
            row.append(complex(float(re_s), -im if sign == "-" else im))
        rows.append(row)
    return np.array(rows, dtype=np.complex128)


def _cli_ok(label, result, checker: Checker) -> bool:
    rc, _ = result
    if rc != 0:
        checker.fail(f"{label}: exit code {rc}")
        return False
    return True


def _check_generate(label, path, k, n, pts, result, checker: Checker):
    if not _cli_ok(label, result, checker):
        return
    inst = _load(path)
    if (inst.k, inst.n) != (k, n):
        checker.fail(f"{label}: file has k={inst.k} n={inst.n}")
        return
    checker.data(label, inst, pts)


def _check_verify(label, result, checker: Checker):
    if _cli_ok(label, result, checker):
        last = result[1].strip().splitlines()[-1]
        if not last.startswith("OK"):
            checker.fail(f"{label}: last line {last!r}")


def _check_eval(label, inst, cond, side, x, y, result, checker: Checker):
    if not _cli_ok(label, result, checker):
        return
    got = _parse_matrix(result[1])[None]
    # the CLI prints 15 significant digits
    slack = 1e-14
    if side is None:
        want = inst.R([x])
        checker.record(f"{label} vs additive", rel_err(got, want),
                       tolerance(cond) + slack)
    else:
        want = inst.R([x]) @ inst.Rinv([y])
        checker.record(f"{label} vs additive product",
                       rel_err(got, want), tolerance(cond) + slack)


def _check_cli_factorize(label, inst, cond, pts, plus_path, minus_path,
                         result, checker: Checker):
    if _cli_ok(label, result, checker):
        _judge_split(label, inst, cond, pts, _load(plus_path),
                     _load(minus_path), checker)


def cli(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 4])
    tmp = tempfile.mkdtemp(prefix="cli-", dir=workdir)
    ops = []

    def path(name):
        return os.path.join(tmp, name)

    check_pts = [2.2 * z / abs(z) + z for z in clear_points(rng, 8, [])]
    for k, n, count in CLI_GENERATE:
        for i in range(count):
            out = path(f"gen-k{k}-n{n}-{i}.json")
            s = int(rng.integers(0, 2**31))
            label = f"cli generate k={k} n={n}"
            ops.append(Op(label, partial(_run_cli, ["generate", str(k), str(n),
                                                    str(s), out]),
                          partial(_check_generate, label, out, k, n,
                                  check_pts)))

    def add_file_ops(tag, b, read, factorize):
        f = path(f"{tag}.json")
        zs.save_instance(b.data, f)
        inst = Instance.of(b.data)
        cond = inst.cond_Sr()
        if read:
            ops.append(Op(f"cli verify {tag}", partial(_run_cli, ["verify", f]),
                          partial(_check_verify, f"cli verify {tag}")))
            x, y = clear_points(rng, 2, _singular(inst))
            xy = [repr(x.real), repr(x.imag), repr(y.real), repr(y.imag)]
            ops.append(Op(f"cli eval R {tag}",
                          partial(_run_cli, ["eval", f, "R"] + xy[:2]),
                          partial(_check_eval, f"cli eval R {tag}", inst, cond,
                                  None, x, None)))
            ops.append(Op(f"cli eval jointR {tag}",
                          partial(_run_cli, ["eval", f, "jointR"] + xy),
                          partial(_check_eval, f"cli eval jointR {tag}", inst,
                                  cond, "right", x, y)))
        if factorize:
            p, m = path(f"{tag}-plus.json"), path(f"{tag}-minus.json")
            label = f"cli factorize {tag}"
            ops.append(Op(label, partial(_run_cli, ["factorize", f, "0", "0",
                                                    "1", p, m]),
                          partial(_check_cli_factorize, label, inst, cond,
                                  _split_check_points(rng, inst), p, m)))

    for i in range(CLI_RANDOM_FILES):
        b = zsyn.random_instance(4, 8, int(rng.integers(0, 2**31)))
        add_file_ops(f"random-k4-n8-{i}", b, read=True, factorize=False)
    for i in range(CLI_SPLIT_FILES):
        n_plus, n_minus = ((3, 1), (2, 2))[i % 2]
        b = well_separated_split(rng, 1, n_plus, n_minus)
        add_file_ops(f"split-k1-{n_plus}+{n_minus}-{i}", b, read=True,
                     factorize=True)
    k, n_plus, n_minus, s = KNOWN_REFUSED[0]
    add_file_ops(f"fixed-seed-{s}", balanced_instance(k, n_plus, n_minus, s),
                 read=False, factorize=True)
    return Workload(ops, workdir=tmp)


WORKLOADS = {"construct": construct, "evaluate": evaluate, "split": split,
             "cli": cli}
