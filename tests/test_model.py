import importlib
import pkgutil

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_scalar_instance
from helpers import separated_points

import zpreal
from zpreal.cauchy import ScalarZeroPole, cauchy_inverse_formula, scalar_eval
from zpreal.errors import (
    CollisionError,
    DomainViolationError,
    NotRankOneError,
    PoleHitError,
    ValidationError,
    ZeroGaugeEntryError,
    ZprealError,
)
from zpreal.factorization import (
    CircleContour,
    factorization_exists,
    factorize,
    residue_quadrature,
)
from zpreal.linalg import frobenius, identity
from zpreal.realization import build_bundle, eval_R
from zpreal.synthesis import (
    GeneratorGeometry,
    SynthesisInput,
    chain_from_bundle,
    chain_identity_check,
    extract_generator,
    obstrollable,
    random_instance,
    synthesize,
)
from zpreal.zero_pole import (
    GaugePair,
    ZeroPoleData,
    additive_deriv_R,
    additive_deriv_Rinv,
    additive_eval_R,
    additive_eval_Rinv,
    check_consistency,
    factor_rank_one,
    gauge_transform,
    log_derivative_residues,
    pole_residue,
    sample_points,
    zero_residue,
)


# ---------------------------------------------------------------------------
# validation


def test_d1_is_valid(d1):
    assert d1.k == 1 and d1.n == 1


def test_count_mismatch_rejected():
    with pytest.raises(ValidationError):
        ZeroPoleData(poles=[0, 1], zeros=[2],
                     F_P=[[1, 1]], G_P=[[1], [1]], F_N=[[1]], G_N=[[1]])


def test_zero_column_rejected():
    with pytest.raises(ValidationError, match="column 1 of F_P"):
        ZeroPoleData(poles=[0, 1], zeros=[2, 3],
                     F_P=[[1, 0]], G_P=[[1], [1]],
                     F_N=[[1, 1]], G_N=[[1], [1]])


def test_zero_row_rejected():
    with pytest.raises(ValidationError, match="row 0 of G_N"):
        ZeroPoleData(poles=[0, 1], zeros=[2, 3],
                     F_P=[[1, 1]], G_P=[[1], [1]],
                     F_N=[[1, 1]], G_N=[[0], [1]])


def test_pole_zero_collision_rejected():
    with pytest.raises(CollisionError):
        ZeroPoleData(poles=[0.0], zeros=[1e-8],
                     F_P=[[1]], G_P=[[1]], F_N=[[1]], G_N=[[1]])


def _d1_fields(**changes):
    fields = dict(poles=[0.0], zeros=[1.0], F_P=[[1.0]], G_P=[[-1.0]],
                  F_N=[[1.0]], G_N=[[1.0]])
    fields.update(changes)
    return fields


@pytest.mark.parametrize("changes, message", [
    (dict(F_P=np.zeros((0, 1)), G_P=np.zeros((1, 0)), F_N=np.zeros((0, 1)),
          G_N=np.zeros((1, 0))),
     "matrix dimension k must be at least 1"),
    (dict(G_P=[[-1.0, 1.0]]), "G_P has shape (1, 2), expected (1, 1)"),
    (dict(F_N=[[1.0], [1.0]]), "F_N has shape (2, 1), expected (1, 1)"),
    (dict(poles=[[0.0]]), "poles must be a flat list of points"),
    (dict(zeros=[np.nan]), "zeros contains non-finite points"),
    (dict(poles=[complex(0, np.inf)]), "poles contains non-finite points"),
    (dict(G_N=[[np.inf]]), "matrix contains non-finite entries"),
])
def test_malformed_data_rejected(changes, message):
    with pytest.raises(ValidationError) as exc:
        ZeroPoleData(**_d1_fields(**changes))
    assert str(exc.value) == message


def test_empty_instance_is_identity():
    d = ZeroPoleData(poles=[], zeros=[],
                     F_P=np.zeros((2, 0)), G_P=np.zeros((0, 2)),
                     F_N=np.zeros((2, 0)), G_N=np.zeros((0, 2)))
    assert d.n == 0 and d.k == 2
    assert_allclose(additive_eval_R(d, 1.7), identity(2))
    assert_allclose(additive_eval_Rinv(d, -0.3j), identity(2))
    assert check_consistency(d).passed


# ---------------------------------------------------------------------------
# rank-one factorization


def test_factor_rank_one_hand_example():
    f, g = factor_rank_one(np.array([[2.0, 4.0], [1.0, 2.0]]))
    assert_allclose(f, [1.0, 0.5])
    assert_allclose(np.outer(f, g), [[2, 4], [1, 2]], atol=1e-12)


def test_factor_rank_one_elementary():
    f, g = factor_rank_one(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert_allclose(f, [1.0, 0.0])
    assert_allclose(g, [1.0, 0.0])


def test_factor_rank_one_rejects_full_rank():
    with pytest.raises(NotRankOneError) as info:
        factor_rank_one(identity(2))
    assert info.value.detected_rank == 2


def test_factor_rank_one_rejects_an_inexact_reconstruction():
    # rank counts 5e-10 as zero (below RANK_EPS times the largest entry),
    # but f g then misses it by more than 1e-10 times the norm
    with pytest.raises(NotRankOneError,
                       match="rank-one reconstruction off by 5.000e-10") as exc:
        factor_rank_one([[1.0, 0.0], [0.0, 5e-10]])
    assert exc.value.detected_rank == 1


def test_factor_rank_one_round_trip_random():
    rng = np.random.default_rng(40)
    for _ in range(25):
        k = int(rng.integers(1, 6))
        f = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        g = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        if np.abs(f).max() == 0 or np.abs(g).max() == 0:
            continue
        m = np.outer(f, g)
        fhat, ghat = factor_rank_one(m)
        assert frobenius(np.outer(fhat, ghat) - m) <= 1e-10 * frobenius(m)
        # deterministic normalization: the peak entry of fhat is exactly 1
        assert abs(fhat[int(np.argmax(np.abs(fhat)))] - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# gauge transformations


def test_identity_gauge_is_noop(d1):
    out = gauge_transform(d1, GaugePair(D_P=[1.0], D_N=[1.0]))
    assert_allclose(out.F_P, d1.F_P)
    assert_allclose(out.G_N, d1.G_N)


def test_gauge_hand_values_on_d1(d1):
    out = gauge_transform(d1, GaugePair(D_P=[2.0], D_N=[1.0]))
    assert_allclose(out.F_P, [[2.0]])
    assert_allclose(out.G_P, [[-0.5]])
    # rank-one pole residue unchanged
    assert_allclose(out.F_P @ out.G_P, d1.F_P @ d1.G_P)


def test_gauge_round_trip(d2):
    rng = np.random.default_rng(41)
    dp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    dn = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    there = gauge_transform(d2, GaugePair(D_P=dp, D_N=dn))
    back = gauge_transform(there, GaugePair(D_P=1.0 / dp, D_N=1.0 / dn))
    for name in ("F_P", "G_P", "F_N", "G_N"):
        assert frobenius(getattr(back, name) - getattr(d2, name)) <= 1e-14


def test_zero_gauge_entry_rejected():
    with pytest.raises(ZeroGaugeEntryError):
        GaugePair(D_P=[0.0], D_N=[1.0])


def test_gauge_length_must_match_n(d1):
    with pytest.raises(ValidationError,
                       match="^gauge length 2/1 does not match n=1$"):
        gauge_transform(d1, GaugePair(D_P=[1.0, 2.0], D_N=[1.0]))


def test_gauge_leaves_values_invariant(d2):
    rng = np.random.default_rng(42)
    dp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    dn = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    out = gauge_transform(d2, GaugePair(D_P=dp, D_N=dn))
    for z in sample_points(d2):
        assert frobenius(additive_eval_R(out, z) - additive_eval_R(d2, z)) <= 1e-10
        assert frobenius(
            additive_eval_Rinv(out, z) - additive_eval_Rinv(d2, z)
        ) <= 1e-10


# ---------------------------------------------------------------------------
# additive evaluation


def test_eval_normalization_at_infinity(d2):
    assert frobenius(additive_eval_R(d2, 1e8) - identity(1)) < 1e-6
    assert frobenius(additive_eval_Rinv(d2, 1e8) - identity(1)) < 1e-6


def test_eval_d1_hand_values(d1):
    assert_allclose(additive_eval_R(d1, 2.0), [[0.5]])
    assert_allclose(additive_eval_Rinv(d1, 2.0), [[2.0]])


def test_eval_matches_scalar_oracle():
    rng = np.random.default_rng(43)
    pts = separated_points(rng, 8)
    d = make_scalar_instance(pts[:4], pts[4:])
    scalar = ScalarZeroPole(poles=pts[:4], zeros=pts[4:])
    for _ in range(10):
        z = complex(*rng.uniform(-5, 5, size=2))
        if min(abs(z - p) for p in pts) < 0.1:
            continue
        assert abs(additive_eval_R(d, z)[0, 0] - scalar_eval(scalar, z)) <= 1e-8


def test_eval_mutual_inverse_at_random_points(d2):
    rng = np.random.default_rng(44)
    for _ in range(20):
        z = complex(*rng.uniform(-6, 6, size=2))
        if min(abs(z - p) for p in [0.5, 2.0, 0.3, 3.0]) < 0.1:
            continue
        prod = additive_eval_R(d2, z) @ additive_eval_Rinv(d2, z)
        assert frobenius(prod - identity(1)) <= 1e-8


def test_eval_pole_hit(d1):
    with pytest.raises(PoleHitError):
        additive_eval_R(d1, 1e-15)
    with pytest.raises(PoleHitError):
        additive_eval_Rinv(d1, 1.0)


# ---------------------------------------------------------------------------
# consistency checking


def test_check_consistency_d1_tight(d1):
    rep = check_consistency(d1, tol=1e-12)
    assert rep.passed, rep.lines()


def test_check_consistency_d2(d2):
    assert check_consistency(d2).passed


def test_check_consistency_judges_any_tolerance(d1):
    # a library diagnostic that never raises; the commands refuse a
    # tolerance outside (0, inf) before they call it
    for tol in (float("inf"), 0.0, -1.0, float("nan")):
        assert len(check_consistency(d1, tol=tol).checks) == 5


def test_check_consistency_flags_broken_inverse(d1):
    broken = ZeroPoleData(poles=d1.poles, zeros=d1.zeros,
                          F_P=d1.F_P, G_P=d1.G_P,
                          F_N=d1.F_N, G_N=-d1.G_N)
    rep = check_consistency(broken)
    assert not rep.passed
    failed = {c.name for c in rep.failures()}
    assert "mutual_inverse_at_samples" in failed


def test_sample_points_clear_of_singularities(d2):
    pts = sample_points(d2)
    assert len(pts) == 8
    for p in pts:
        assert min(abs(p - q) for q in [0.5, 2.0, 0.3, 3.0]) > 1e-6


# Reference copies of the per-point loops the batched code replaced. The
# one-point additive forms they call compute as they always have.

EPS = np.finfo(float).eps


def _sample_points_reference(d, count=8):
    allpts = np.concatenate([d.poles, d.zeros])
    center = complex(allpts.mean()) if allpts.size else 0j
    spread = float(np.abs(allpts - center).max()) if allpts.size else 0.0
    rho = 1.5 * (1.0 + spread)
    for attempt in range(32):
        shift = 2.0 * np.pi * attempt / (count * 37.0)
        pts = [
            center + rho * np.exp(1j * (2.0 * np.pi * j / count + shift))
            for j in range(count)
        ]
        if allpts.size == 0:
            return pts
        if min(abs(p - q) for p in pts for q in allpts) > 1e-6:
            return pts
    raise RuntimeError("could not place sample points")


def _check_consistency_reference(d):
    eye = identity(d.k)
    worst = 0.0
    for z in _sample_points_reference(d):
        r = additive_eval_R(d, z)
        ri = additive_eval_Rinv(d, z)
        worst = max(worst, frobenius(r @ ri - eye), frobenius(ri @ r - eye))
    out = [("mutual_inverse_at_samples", worst)]
    for points, residue, value, deriv, side in (
        (d.poles, pole_residue, additive_eval_Rinv, additive_deriv_Rinv,
         "poles"),
        (d.zeros, zero_residue, additive_eval_R, additive_deriv_R, "zeros"),
    ):
        worst_ann = 0.0
        worst_rel = 0.0
        for j in range(d.n):
            res = residue(d, j)
            a0 = value(d, points[j])
            a1 = deriv(d, points[j])
            worst_ann = max(worst_ann, frobenius(a0 @ res),
                            frobenius(res @ a0))
            worst_rel = max(worst_rel, frobenius(res @ a1 @ res - res))
        out.append((f"annihilation_at_{side}", worst_ann))
        out.append((f"{side[:-1]}_residue_identity", worst_rel))
    return out


def _consistency_cases():
    d1 = make_scalar_instance([0.0], [1.0])
    broken = ZeroPoleData(poles=d1.poles, zeros=d1.zeros, F_P=d1.F_P,
                          G_P=d1.G_P, F_N=d1.F_N, G_N=-d1.G_N)
    cases = [("broken d1", broken)]
    for k in (1, 4):
        cases.append((f"k={k} n=0", random_instance(k, 0, seed=1).data))
        for n, seed in ((1, 1), (5, 2), (16, 3)):
            cases.append((f"k={k} n={n}",
                          random_instance(k, n, seed=seed).data))
    return cases


@pytest.mark.parametrize("label, d", _consistency_cases())
def test_check_consistency_matches_per_point_loop(label, d):
    rep = check_consistency(d, tol=1e-8)
    want = _check_consistency_reference(d)
    assert [c.name for c in rep.checks] == [name for name, _ in want]
    for c, (name, residual) in zip(rep.checks, want):
        # bitwise equal with numpy 2.4 on x86-64; 4 ulps for other builds
        assert abs(c.residual - residual) <= 4 * EPS * residual, (label, name)
        assert c.tol == 1e-8
    if label == "broken d1":
        assert not rep.passed


def test_check_consistency_fails_on_overflow():
    # entries near 1e160 overflow the products to inf and the residuals
    # to NaN; a NaN residual fails instead of reading as 0.0
    d = random_instance(2, 4, seed=3).data
    s = 1e160
    big = ZeroPoleData(poles=d.poles, zeros=d.zeros, F_P=d.F_P * s,
                       G_P=d.G_P * s, F_N=d.F_N * s, G_N=d.G_N * s)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check_consistency(big)
    assert not rep.passed
    assert np.isnan(rep.checks[0].residual)


@pytest.mark.parametrize("label, d", _consistency_cases())
def test_sample_points_match_reference_loop(label, d):
    for count in (6, 8):
        got = sample_points(d, count)
        want = _sample_points_reference(d, count)
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert type(p) is type(q) and p == q


def test_additive_forms_batch_matches_one_point(d2):
    zs = np.array([0.1 + 1j, -2.0, 4.0 - 0.5j])
    for func in (additive_eval_R, additive_eval_Rinv, additive_deriv_R,
                 additive_deriv_Rinv):
        stack = func(d2, zs)
        assert stack.shape == (3, 1, 1)
        for z, slab in zip(zs, stack):
            np.testing.assert_array_equal(slab, func(d2, z))


def test_additive_batch_names_first_hit(d2):
    zs = np.array([5.0, 2.0 + 1e-14, 0.5])
    with pytest.raises(PoleHitError) as exc:
        additive_eval_R(d2, zs)
    assert exc.value.point == 2.0 + 1e-14
    assert exc.value.singularity == 2.0


# ---------------------------------------------------------------------------
# logarithmic-derivative residues


def test_log_derivative_residues_d1(d1):
    p_poles, p_zeros = log_derivative_residues(d1)
    assert_allclose(p_poles[0], [[-1.0]], atol=1e-14)
    assert_allclose(p_zeros[0], [[1.0]], atol=1e-14)


def test_projector_identities(d2):
    p_poles, p_zeros = log_derivative_residues(d2)
    for p in p_poles:
        assert abs(np.trace(p) + 1.0) <= 1e-9
        assert frobenius(p @ p + p) <= 1e-9
    for p in p_zeros:
        assert abs(np.trace(p) - 1.0) <= 1e-9
        assert frobenius(p @ p - p) <= 1e-9
    total = sum(p_poles) + sum(p_zeros)
    assert frobenius(total) <= 1e-9


@pytest.mark.parametrize("k, n, seed", [(1, 1, 1), (1, 6, 2), (4, 16, 3)])
def test_log_derivative_residues_match_per_point_loop(k, n, seed):
    d = random_instance(k, n, seed=seed).data
    p_poles, p_zeros = log_derivative_residues(d)
    assert len(p_poles) == len(p_zeros) == n
    for j in range(n):
        want_p = -pole_residue(d, j) @ additive_deriv_Rinv(d, d.poles[j])
        want_z = additive_deriv_R(d, d.zeros[j]) @ zero_residue(d, j)
        assert p_poles[j].shape == p_zeros[j].shape == (k, k)
        np.testing.assert_allclose(p_poles[j], want_p, rtol=4 * EPS, atol=0)
        np.testing.assert_allclose(p_zeros[j], want_z, rtol=4 * EPS, atol=0)


@pytest.mark.parametrize("module", ["zpreal"] + [
    f"zpreal.{m.name}" for m in pkgutil.iter_modules(zpreal.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# malformed library arguments


MALFORMED_ARGUMENTS = {
    "geometry-str-radius": (
        lambda: GeneratorGeometry(disk_radius="2"),
        "disk_radius must be a real number, got '2'"),
    "geometry-none-cond-limit": (
        lambda: GeneratorGeometry(cond_limit=None),
        "cond_limit must be a real number, got None"),
    "geometry-complex-separation": (
        lambda: GeneratorGeometry(min_separation=0.1j),
        "min_separation must be a real number, got 0.1j"),
    "contour-str-center": (
        lambda: CircleContour("abc", 1.0),
        "contour center and radius must be numbers"),
    "contour-none-center": (
        lambda: CircleContour(None, 1.0),
        "contour center and radius must be numbers"),
    "contour-list-radius": (
        lambda: CircleContour(0.0, [1.0]),
        "contour center and radius must be numbers"),
    "data-str-pole": (
        lambda: ZeroPoleData(**_d1_fields(poles=["a"])),
        "poles is not an array of numbers"),
    "data-ragged-matrix": (
        lambda: ZeroPoleData(**_d1_fields(F_P=[[1.0], [1.0, 2.0]])),
        "matrix is not an array of numbers"),
    "synthesis-str-entry": (
        lambda: SynthesisInput(F=[["a"]], G=[[1.0]], pole_points=[0.0],
                               zero_points=[1.0]),
        "F is not an array of numbers"),
    "synthesis-dict-points": (
        lambda: SynthesisInput(F=[[1.0]], G=[[1.0]], pole_points={},
                               zero_points=[1.0]),
        "pole_points is not an array of numbers"),
    "scalar-nan-c": (
        lambda: ScalarZeroPole([0], [1], c=float("nan")),
        "value at infinity must be finite"),
    "inverse-formula-nan-c": (
        lambda: cauchy_inverse_formula([0], [1], c=float("nan")),
        "value at infinity must be finite"),
    "gauge-str-entry": (
        lambda: GaugePair(D_P=["x"], D_N=[1.0]),
        "D_P is not an array of numbers"),
}


@pytest.mark.parametrize("call, message", MALFORMED_ARGUMENTS.values(),
                         ids=MALFORMED_ARGUMENTS)
def test_malformed_library_arguments_raise_validation_error(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def _d1_bundle():
    return build_bundle(ZeroPoleData(**_d1_fields()))


def _d1_chain():
    return chain_from_bundle(_d1_bundle())


def _quadrature(**changes):
    args = dict(center=0.0, radius=1.0, nodes=8)
    args.update(changes)
    return residue_quadrature(lambda z: identity(1) / z, **args)


_UNIT = CircleContour(0.0, 1.0)
_SCALAR = ScalarZeroPole([0.0], [1.0])

# non-real limits and tolerances, and NaN or non-numeric points, radii
# and matrices, at functions that are not data classes; the CLI maps
# every ZprealError to an exit code
NON_NUMBER_ARGUMENTS = {
    "factorize-str-cond-max": (
        lambda: factorize(_d1_bundle(), _UNIT, cond_max="x"),
        ValidationError),
    "factorize-str-fail-tol": (
        lambda: factorize(_d1_bundle(), _UNIT, fail_tol="x"),
        ValidationError),
    "exists-str-cond-max": (
        lambda: factorization_exists(_d1_bundle(), _UNIT, cond_max="x"),
        ValidationError),
    "synthesize-str-cond-max": (
        lambda: synthesize(SynthesisInput(F=[[1.0]], G=[[1.0]],
                                          pole_points=[0.0],
                                          zero_points=[1.0]),
                           cond_max="x"),
        ValidationError),
    "consistency-str-tol": (
        lambda: check_consistency(ZeroPoleData(**_d1_fields()), tol="x"),
        ValidationError),
    "chain-str-tol": (
        lambda: chain_identity_check(_d1_chain(), [(2.0, 3.0, 4.0)],
                                     tol="x"),
        ValidationError),
    "quadrature-nan-radius": (
        lambda: _quadrature(radius=float("nan")), ValidationError),
    "quadrature-inf-radius": (
        lambda: _quadrature(radius=float("inf")), ValidationError),
    "quadrature-str-radius": (
        lambda: _quadrature(radius="x"), ValidationError),
    "quadrature-float-nodes": (
        lambda: _quadrature(nodes=4.5), ValidationError),
    "quadrature-nan-center": (
        lambda: _quadrature(center=complex("nan")), ValidationError),
    "obstrollable-nan-point": (
        lambda: obstrollable([[1.0]], [float("nan")]), ValidationError),
    "obstrollable-str-matrix": (
        lambda: obstrollable([["a"]], [0.0]), ValidationError),
    "eval-str-point": (
        lambda: eval_R(_d1_bundle(), "abc"), ValidationError),
    "eval-str-batch": (
        lambda: eval_R(_d1_bundle(), ["abc"]), ValidationError),
    "scalar-eval-str-point": (
        lambda: scalar_eval(_SCALAR, "x"), ValidationError),
    "anchor-str": (
        lambda: extract_generator(_d1_chain(), "x"), DomainViolationError),
}


@pytest.mark.parametrize("call, error", NON_NUMBER_ARGUMENTS.values(),
                         ids=NON_NUMBER_ARGUMENTS)
def test_non_number_arguments_raise_package_errors(call, error):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, ZprealError)
