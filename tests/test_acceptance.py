"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with -s to see the lines; each criterion is also a hard assertion,
so the suite fails loudly if any bound is missed.
"""

import time

import numpy as np
import pytest

from zpreal.cauchy import (
    cauchy_det_squared,
    cauchy_inverse_formula,
    cauchy_matrix,
)
from zpreal.cli import main
from zpreal import factorization as fz
from zpreal import realization as rz
from zpreal.linalg import frobenius, identity
from zpreal.serialize import instance_to_dict, load_instance, save_instance
from zpreal.synthesis import (
    GeneratorGeometry,
    SynthesisInput,
    chain_from_bundle,
    chain_identity_check,
    extract_generator,
    random_instance,
    synthesize,
)
from zpreal.zero_pole import (
    GaugePair,
    check_consistency,
    gauge_transform,
    log_derivative_residues,
)

from conftest import make_d1, make_d2, make_scalar_instance
from helpers import balanced_instance, random_complex, separated_points

UNIT = fz.CircleContour(0.0, 1.0)

_cache = {}


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    return ok


def _instances():
    """100 synthesized bundles shared by criteria 2-7, built once and
    timed at build.

    The quadratic core-matrix identities square the coupling conditioning
    in their rounding error, so the shared set is drawn with a gate that
    keeps absolute residuals comfortably inside the 1e-8 budget.
    """
    if "instances" not in _cache:
        geometry = GeneratorGeometry(min_separation=0.15, cond_limit=3e3,
                                     max_retries=200)
        start = time.perf_counter()
        bundles = []
        for i in range(100):
            k = 1 + i % 4
            n = 1 + i % 12
            bundles.append(random_instance(k, n, seed=1000 + i,
                                           geometry=geometry))
        _cache["build_seconds"] = time.perf_counter() - start
        _cache["instances"] = bundles
    return _cache["instances"]


def _clear_points(rng, count, singular, scale=3.0, min_gap=0.5):
    out = []
    while len(out) < count:
        z = scale * random_complex(rng)
        if singular.size and np.abs(z - singular).min() < min_gap:
            continue
        out.append(complex(z))
    return out


def test_criterion_01_cauchy_inversion():
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    worst_inv = 0.0
    worst_det = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 11))
        pts = separated_points(rng, 2 * n, min_sep=0.05, radius=2.0)
        lam = np.array(pts[:n], dtype=np.complex128)
        mu = np.array(pts[n:], dtype=np.complex128)
        s = cauchy_matrix(lam, mu)
        h = cauchy_inverse_formula(lam, mu)
        eye = identity(n)
        worst_inv = max(worst_inv, frobenius(h @ s - eye),
                        frobenius(s @ h - eye))
        det = complex(np.linalg.det(s))
        rel = abs(cauchy_det_squared(lam, mu) - det ** 2) / abs(det) ** 2
        worst_det = max(worst_det, rel)
    elapsed = time.perf_counter() - start
    ok = worst_inv <= 1e-8 and worst_det <= 1e-8 and elapsed < 5.0
    assert _line(1, "cauchy-inversion", ok,
                 f"inverse {worst_inv:.2e}, det {worst_det:.2e}, "
                 f"{elapsed:.2f}s"), (worst_inv, worst_det, elapsed)


def test_criterion_02_mutual_inverse():
    bundles = _instances()
    worst = 0.0
    for b in bundles:
        eye = identity(b.n)
        worst = max(worst,
                    frobenius(b.Sr @ b.Sl - eye),
                    frobenius(b.Hr @ b.Hl - eye))
    elapsed = _cache["build_seconds"]
    ok = worst <= 1e-8 and elapsed < 10.0
    assert _line(2, "mutual-inverse", ok,
                 f"100 instances, worst {worst:.2e}, built in "
                 f"{elapsed:.2f}s"), (worst, elapsed)


def test_criterion_03_joint_representations():
    rng = np.random.default_rng(3)
    worst = 0.0
    worst_diag = 0.0
    for b in _instances():
        sing = np.concatenate([b.data.poles, b.data.zeros])
        pts = _clear_points(rng, 40, sing)
        for x, y in zip(pts[:20], pts[20:]):
            jr = rz.eval_joint_right(b, x, y)
            worst = max(worst, frobenius(
                jr - rz.eval_R(b, x) @ rz.eval_Rinv(b, y)))
            jl = rz.eval_joint_left(b, x, y)
            worst = max(worst, frobenius(
                jl - rz.eval_Rinv(b, x) @ rz.eval_R(b, y)))
            worst = max(worst, frobenius(rz.eval_hybrid_right(b, x, y) - jr))
            worst = max(worst, frobenius(rz.eval_hybrid_left(b, x, y) - jl))
            worst_diag = max(worst_diag, frobenius(
                rz.eval_joint_right(b, x, x) - identity(b.k)))
    ok = worst <= 1e-8 and worst_diag <= 1e-10
    assert _line(3, "joint-representations", ok,
                 f"worst {worst:.2e}, diagonal {worst_diag:.2e}"), worst


def test_criterion_04_sylvester_residuals():
    worst = 0.0
    for b in _instances():
        d = b.data
        a_p = np.diag(d.poles)
        a_n = np.diag(d.zeros)
        gnfp = d.G_N @ d.F_P
        gpfn = d.G_P @ d.F_N
        worst = max(
            worst,
            frobenius(a_n @ b.Sr - b.Sr @ a_p - gnfp),
            frobenius(a_p @ b.Sl - b.Sl @ a_n - gpfn),
            frobenius(b.Hr @ a_n - a_p @ b.Hr - b.Hr @ gnfp @ b.Hr),
            frobenius(b.Hl @ a_p - a_n @ b.Hl - b.Hl @ gpfn @ b.Hl),
        )
    ok = worst <= 1e-8
    assert _line(4, "sylvester-residuals", ok, f"worst {worst:.2e}"), worst


def test_criterion_05_coupling_and_gauge():
    worst_coupling = 0.0
    for b in _instances():
        d = b.data
        worst_coupling = max(
            worst_coupling,
            frobenius(d.G_N + b.Sr @ d.G_P),
            frobenius(d.G_P + b.Sl @ d.G_N),
            frobenius(d.F_P - d.F_N @ b.Sr),
            frobenius(d.F_N - d.F_P @ b.Sl),
        )
    rng = np.random.default_rng(5)
    worst_gauge = 0.0
    for b in _instances()[:5]:
        n = b.n
        sing = np.concatenate([b.data.poles, b.data.zeros])
        x, y = _clear_points(rng, 2, sing)
        base = rz.eval_joint_right(b, x, y)
        for _ in range(20):
            mag_p = np.exp(rng.uniform(-0.7, 0.7, n))
            mag_n = np.exp(rng.uniform(-0.7, 0.7, n))
            ang_p = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            ang_n = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            gp = GaugePair(D_P=mag_p * ang_p, D_N=mag_n * ang_n)
            bg = rz.build_bundle(gauge_transform(b.data, gp))
            expected = (1.0 / gp.D_N)[:, None] * b.Sr * gp.D_P[None, :]
            worst_gauge = max(
                worst_gauge,
                frobenius(bg.Sr - expected) / max(frobenius(expected), 1.0),
                frobenius(rz.eval_joint_right(bg, x, y) - base),
            )
    ok = worst_coupling <= 1e-8 and worst_gauge <= 1e-10
    assert _line(5, "coupling-and-gauge", ok,
                 f"coupling {worst_coupling:.2e}, gauge {worst_gauge:.2e}"), \
        (worst_coupling, worst_gauge)


def test_criterion_06_spectral_projectors():
    worst_trace = 0.0
    worst_idem = 0.0
    worst_sum = 0.0
    for b in _instances():
        pole_proj, zero_proj = log_derivative_residues(b.data)
        total = np.zeros((b.k, b.k), dtype=np.complex128)
        for p in pole_proj:
            worst_trace = max(worst_trace, abs(np.trace(p) + 1.0))
            worst_idem = max(worst_idem, frobenius(p @ p + p))
            total = total + p
        for p in zero_proj:
            worst_trace = max(worst_trace, abs(np.trace(p) - 1.0))
            worst_idem = max(worst_idem, frobenius(p @ p - p))
            total = total + p
        worst_sum = max(worst_sum, frobenius(total))
    ok = worst_trace <= 1e-8 and worst_idem <= 1e-8 and worst_sum <= 1e-8
    assert _line(6, "spectral-projectors", ok,
                 f"trace {worst_trace:.2e}, idempotency {worst_idem:.2e}, "
                 f"sum {worst_sum:.2e}"), (worst_trace, worst_idem, worst_sum)


def test_criterion_07_chain_identity_and_extraction():
    rng = np.random.default_rng(7)
    worst_chain = 0.0
    worst_extract = 0.0
    for idx, b in enumerate(_instances()):
        t = chain_from_bundle(b)
        sing = np.concatenate([b.data.poles, b.data.zeros])
        pts = _clear_points(rng, 150, sing)
        triples = [tuple(pts[3 * i:3 * i + 3]) for i in range(50)]
        rep = chain_identity_check(t, triples)
        worst_chain = max(worst_chain, rep.worst().residual)
        if idx % 10 == 0:
            anchors = _clear_points(rng, 3, sing, scale=4.0)
            probes = _clear_points(rng, 4, sing)
            for a in anchors:
                phi, phi_inv = extract_generator(t, a)
                for x, y in zip(probes[:2], probes[2:]):
                    worst_extract = max(worst_extract, frobenius(
                        phi(x) @ phi_inv(y) - t(x, y)))
    ok = worst_chain <= 1e-8 and worst_extract <= 1e-8
    assert _line(7, "chain-identity", ok,
                 f"chain {worst_chain:.2e}, extraction "
                 f"{worst_extract:.2e}"), (worst_chain, worst_extract)


def test_criterion_08_contour_factorization():
    start = time.perf_counter()
    b2 = rz.build_bundle(make_d2())
    res2 = fz.factorize(b2, UNIT)
    angles = np.linspace(0.0, 2.0 * np.pi, 21)[:-1]
    pts = np.concatenate([np.exp(1j * angles),
                          0.27 * np.exp(1j * angles[:10]),
                          2.7 * np.exp(1j * angles[:10])])
    worst_d2 = 0.0
    for z in pts:
        worst_d2 = max(
            worst_d2,
            abs(rz.eval_R(res2.plus, z)[0, 0] - (z - 0.3) / (z - 0.5)),
            abs(rz.eval_R(res2.minus, z)[0, 0] - (z - 3.0) / (z - 2.0)))

    worst_prod = 0.0
    worst_agree = 0.0
    misplaced = 0
    factors_ok = True
    for i in range(30):
        k = 1 + i % 3
        n_plus = 1 + i % 4
        n_minus = 1 + (i // 4) % 4
        b = balanced_instance(k, n_plus, n_minus, seed=5000 + i)
        res = fz.factorize(b, UNIT)
        by_name = {c.name: c.residual for c in res.report.checks}
        worst_prod = max(worst_prod, by_name["product_at_samples"])
        worst_agree = max(worst_agree, by_name["minus_formula_agreement"])
        misplaced += int(by_name["factor_singularities_on_own_side"])
        factors_ok = factors_ok and check_consistency(res.plus.data).passed \
            and check_consistency(res.minus.data).passed
    elapsed = time.perf_counter() - start
    ok = (worst_d2 <= 1e-9 and worst_prod <= 1e-7 and worst_agree <= 1e-9
          and misplaced == 0 and factors_ok and elapsed < 30.0)
    assert _line(8, "contour-factorization", ok,
                 f"d2 {worst_d2:.2e}, product {worst_prod:.2e}, alt "
                 f"{worst_agree:.2e}, misplaced {misplaced}, "
                 f"{elapsed:.2f}s"), \
        (worst_d2, worst_prod, worst_agree, misplaced, elapsed)


def _sweep_instance(b1):
    poles = np.array([0.2, -0.3, 2.0, -2.5], dtype=np.complex128)
    zeros = np.array([b1, -0.5, 3.0, -3.0], dtype=np.complex128)
    f = np.array([[1.0, 0.0, 1.0, 1.0],
                  [0.0, 1.0, 1.0, -1.0]], dtype=np.complex128)
    g = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 2.0], [2.0, 1.0]],
                 dtype=np.complex128)
    return synthesize(SynthesisInput(F=f, G=g, pole_points=poles,
                                     zero_points=zeros))


def test_criterion_09_degenerate_splits():
    b2 = rz.build_bundle(make_d2())
    inner = fz.factorize(b2, fz.CircleContour(0.0, 40.0))
    outer = fz.factorize(b2, fz.CircleContour(50.0, 1.0))
    identities_ok = (inner.split.n_minus == 0 and outer.split.n_plus == 0
                     and inner.minus.n == 0 and outer.plus.n == 0)

    root = -17.0 / 90.0

    def det_s11(b1):
        b = _sweep_instance(b1)
        part = fz.partition(b.data, UNIT)
        s11 = b.Sr[np.ix_(list(part.idxN_plus), list(part.idxP_plus))]
        return complex(np.linalg.det(s11))

    sweep = np.linspace(-0.25, -0.10, 16)
    dets = [det_s11(v) for v in sweep]
    sign_change = any(d1.real * d2.real < 0
                      for d1, d2 in zip(dets, dets[1:]))
    v_lo = fz.factorization_exists(_sweep_instance(-0.25), UNIT).verdict
    v_hi = fz.factorization_exists(_sweep_instance(-0.10), UNIT).verdict
    v_root = fz.factorization_exists(_sweep_instance(root), UNIT).verdict

    lo, hi = root + 1e-12, -0.10
    v_band = None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        verdict = fz.factorization_exists(_sweep_instance(mid), UNIT)
        if verdict.verdict == fz.BOUNDARY:
            v_band = verdict
            break
        if verdict.verdict == fz.EXISTS:
            hi = mid
        else:
            lo = mid
    flips = (v_lo == fz.EXISTS and v_hi == fz.EXISTS
             and v_root == fz.NOT_EXISTS and v_band is not None)
    ok = identities_ok and sign_change and flips
    assert _line(9, "degenerate-splits", ok,
                 f"identity factors {identities_ok}, det sign change "
                 f"{sign_change}, verdicts {v_lo}/{v_root}/{v_hi}, band "
                 f"cond {v_band.cond_S11 if v_band else float('nan'):.2e}"), \
        (identities_ok, sign_change, v_lo, v_root, v_hi, v_band)


def test_criterion_10_cli_golden(tmp_path, capsys):
    checks = []

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "2", "4", "42", str(a)]) == 0
    assert main(["generate", "2", "4", "42", str(b)]) == 0
    checks.append(("generate byte-stable", a.read_bytes() == b.read_bytes()))

    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", str(a), "--report-out", str(rep1)]) == 0
    assert main(["verify", str(a), "--report-out", str(rep2)]) == 0
    checks.append(("verify report byte-stable",
                   rep1.read_bytes() == rep2.read_bytes()))

    d1 = tmp_path / "d1.json"
    save_instance(make_d1(), d1)
    capsys.readouterr()
    assert main(["eval", str(d1), "R", "2", "0"]) == 0
    checks.append(("eval golden", capsys.readouterr().out == "0.5 + 0i\n"))

    d2 = tmp_path / "d2.json"
    save_instance(make_d2(), d2)
    p1, m1 = tmp_path / "p1.json", tmp_path / "m1.json"
    p2, m2 = tmp_path / "p2.json", tmp_path / "m2.json"
    assert main(["factorize", str(d2), "0", "0", "1", str(p1), str(m1)]) == 0
    assert main(["factorize", str(d2), "0", "0", "1", str(p2), str(m2)]) == 0
    checks.append(("factor files byte-stable",
                   p1.read_bytes() == p2.read_bytes()
                   and m1.read_bytes() == m2.read_bytes()))
    checks.append(("factor files verify",
                   main(["verify", str(p1)]) == 0
                   and main(["verify", str(m1)]) == 0))

    junk = tmp_path / "junk.json"
    junk.write_text("{")
    codes_ok = main(["verify", str(junk)]) == 3
    codes_ok = codes_ok and main(["eval", str(d1), "R", "0", "0"]) == 4
    obj = instance_to_dict(make_d2())
    obj["F_N"][0][0] = [9.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(__import__("json").dumps(obj))
    codes_ok = codes_ok and main(["verify", str(bad)]) == 6
    sweep = tmp_path / "sweep.json"
    save_instance(_sweep_instance(-17.0 / 90.0).data, sweep)
    codes_ok = codes_ok and main(
        ["factorize", str(sweep), "0", "0", "1",
         str(tmp_path / "px.json"), str(tmp_path / "mx.json")]) == 5
    with pytest.raises(SystemExit) as exc:
        main(["generate", "2", "0", "1", str(tmp_path / "z.json")])
    codes_ok = codes_ok and exc.value.code == 2
    checks.append(("exit codes honored", codes_ok))

    capsys.readouterr()
    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}={'yes' if flag else 'NO'}"
                       for name, flag in checks)
    with capsys.disabled():
        _line(10, "cli-golden", ok, detail)
    assert ok, checks
