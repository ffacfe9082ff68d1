"""Synthesis routes, the chain function, and random instance generation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from zpreal.errors import (
    DomainViolationError,
    GenerationFailedError,
    SingularCouplingError,
    ValidationError,
)
from zpreal.linalg import frobenius, identity, inverse
from zpreal import realization as rz
from zpreal import synthesis as sy
from zpreal.zero_pole import SEP_MIN, ZeroPoleData

from helpers import (
    assert_same_bundle,
    outcome,
    random_complex,
    reference_close_pair_message,
    reference_random_instance,
    same_bits,
)


def _one():
    return np.ones((1, 1), dtype=np.complex128)


def test_synthesize_hand_example():
    b = sy.synthesize(sy.SynthesisInput(
        F=_one(), G=_one(), pole_points=[0.0], zero_points=[1.0]))
    np.testing.assert_allclose(b.Sr, [[1.0]])
    np.testing.assert_allclose(b.data.F_N, [[1.0]])
    np.testing.assert_allclose(b.data.G_P, [[-1.0]])


def test_synthesize_hybrid_hand_example():
    b = sy.synthesize_hybrid(sy.SynthesisInput(
        F=_one(), G=-_one(), pole_points=[0.0], zero_points=[1.0]))
    np.testing.assert_allclose(b.Sl, [[1.0]])
    np.testing.assert_allclose(b.data.F_P, [[1.0]])
    np.testing.assert_allclose(b.data.G_N, [[1.0]])


def test_synthesize_round_trips_through_hybrid():
    # complete from the right half, then feed the produced left half to
    # the mirror route; both must land on the same instance
    b = sy.random_instance(2, 5, seed=7)
    again = sy.synthesize_hybrid(sy.SynthesisInput(
        F=b.data.F_N, G=b.data.G_P,
        pole_points=b.data.poles, zero_points=b.data.zeros))
    scale = frobenius(b.Sr)
    assert frobenius(again.Sr - b.Sr) < 1e-10 * scale
    assert frobenius(again.data.F_P - b.data.F_P) < 1e-10
    assert frobenius(again.data.G_N - b.data.G_N) < 1e-10


def test_synthesized_coupling_is_sylvester_solution():
    b = sy.random_instance(3, 6, seed=17)
    d = b.data
    s = sy.sylvester_diag_solve(d.zeros, d.poles, d.G_N @ d.F_P)
    np.testing.assert_array_equal(b.Sr, s)


def test_synthesize_hands_its_inverse_to_the_bundle():
    rng = np.random.default_rng(21)
    for n in (1, 5, 17):
        inp = sy.SynthesisInput(
            F=random_complex(rng, 2, n), G=random_complex(rng, n, 2),
            pole_points=np.arange(n) * 0.3, zero_points=np.arange(n) * 0.3 + 0.1j)
        s = sy.sylvester_diag_solve(inp.zero_points, inp.pole_points,
                                    inp.G @ inp.F)
        b = sy.synthesize(inp)
        np.testing.assert_array_equal(b.Sr, s)
        np.testing.assert_array_equal(b.Sr_inv, inverse(s))
        np.testing.assert_array_equal(b.Sl_inv, inverse(b.Sl))


def test_synthesize_hybrid_hands_its_inverse_to_the_bundle():
    rng = np.random.default_rng(22)
    for n in (1, 5, 17):
        inp = sy.SynthesisInput(
            F=random_complex(rng, 2, n), G=random_complex(rng, n, 2),
            pole_points=np.arange(n) * 0.3, zero_points=np.arange(n) * 0.3 + 0.1j)
        s = sy.sylvester_diag_solve(inp.pole_points, inp.zero_points,
                                    inp.G @ inp.F)
        b = sy.synthesize_hybrid(inp)
        np.testing.assert_array_equal(b.Sl, s)
        np.testing.assert_array_equal(b.Sl_inv, inverse(s))
        np.testing.assert_array_equal(b.Sr_inv, inverse(b.Sr))


def test_synthesis_input_error_messages():
    def message(f, g, lam, mu):
        with pytest.raises(ValidationError) as exc:
            sy.SynthesisInput(F=np.asarray(f), G=np.asarray(g),
                              pole_points=lam, zero_points=mu)
        return str(exc.value)

    lam, mu = [0.0, 1.0, 2.0], [3.0, 4.0, 5.0]
    f = np.ones((2, 3))
    g = np.ones((3, 2))
    f_zero = f.copy()
    f_zero[:, 2] = 0.0
    g_zero = g.copy()
    g_zero[1, :] = 0.0
    assert message(f_zero, g, lam, mu) == "column 2 of F is zero"
    assert message(f, g_zero, lam, mu) == "row 1 of G is zero"
    # a zero row of G is reported before a zero column of F further on
    assert message(f_zero, g_zero, lam, mu) == "row 1 of G is zero"
    # at the same index the F column comes first
    g_zero2 = g.copy()
    g_zero2[2, :] = 0.0
    assert message(f_zero, g_zero2, lam, mu) == "column 2 of F is zero"
    # the first close pair in (i, j) order, over poles then zeros
    assert (message(f, g, [0.0, 1.0, 3.0], [3.0, 1.0, 5.0])
            == "points 1 and 4 closer than 1.0e-06")
    assert (message(f, g, [0.0, 1.0, 2.0], [2.0, 5.0, 1e-7])
            == "points 0 and 5 closer than 1.0e-06")


def _draw_separated_reference(rng, count, radius, min_sep):
    pts = []
    for _ in range(400 * max(count, 1)):
        r = radius * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        z = complex(r * math.cos(ang), r * math.sin(ang))
        if all(abs(z - w) >= min_sep for w in pts):
            pts.append(z)
            if len(pts) == count:
                return np.array(pts, dtype=np.complex128)
    return None


@pytest.mark.parametrize("count, radius, min_sep", [
    (1, 2.0, 0.05), (16, 2.0, 0.05), (64, 2.0, 0.05), (256, 2.0, 0.05),
    (12, 1.0, 0.35), (3, 0.1, 0.5),
])
def test_draw_separated_matches_reference_loop(count, radius, min_sep):
    for seed in range(6):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        got = sy._draw_separated(rng_a, count, radius, min_sep)
        want = _draw_separated_reference(rng_b, count, radius, min_sep)
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)
        # the generator state after the draw is the same too
        assert rng_a.uniform() == rng_b.uniform()


class _CountingRng:
    """A generator wrapper that counts rng.uniform() calls."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def uniform(self, *args):
        self.calls += 1
        return self.rng.uniform(*args)


@pytest.mark.parametrize("count, radius, min_sep, outcome", [
    # rejections on the way, then success
    (40, 2.0, 0.3, "rejects"),
    # the disk holds fewer than 24 such points: the budget runs out
    (24, 0.5, 0.3, "exhausts"),
    (256, 2.0, 0.1, "rejects"),
])
def test_draw_separated_blocks_match_reference_under_rejection(
        count, radius, min_sep, outcome):
    for seed in range(2):
        rng_a = np.random.default_rng(seed)
        counting = _CountingRng(np.random.default_rng(seed))
        got = sy._draw_separated(rng_a, count, radius, min_sep)
        want = _draw_separated_reference(counting, count, radius, min_sep)
        if outcome == "exhausts":
            assert want is None and got is None
            assert counting.calls == 2 * 400 * count
        else:
            assert counting.calls > 2 * count
            np.testing.assert_array_equal(got, want)
        assert rng_a.bit_generator.state == counting.rng.bit_generator.state


def test_draw_separated_zero_points_draws_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    got = sy._draw_separated(rng, 0, 2.0, 0.05)
    assert got.shape == (0,) and got.dtype == np.complex128
    assert rng.bit_generator.state == before


def test_synthesis_input_validation():
    with pytest.raises(ValidationError):
        sy.SynthesisInput(F=np.ones((2, 2)), G=np.ones((2, 2)),
                          pole_points=[0.0], zero_points=[1.0])
    with pytest.raises(ValidationError):
        sy.SynthesisInput(F=np.array([[1.0, 0.0], [1.0, 0.0]]),
                          G=np.ones((2, 2)),
                          pole_points=[0.0, 2.0], zero_points=[1.0, 3.0])
    with pytest.raises(ValidationError):
        sy.SynthesisInput(F=np.ones((1, 2)), G=np.ones((2, 1)),
                          pole_points=[0.0, 1.0], zero_points=[1.0, 2.0])


@pytest.mark.parametrize("F, G, message", [
    ([1.0], [[1.0]], "F and G must be matrices"),
    ([[1.0]], [1.0], "F and G must be matrices"),
    (np.zeros((0, 1)), np.zeros((1, 0)), "need at least one row in F"),
    ([[1.0]], [[1.0, 1.0]], "G has shape (1, 2), expected (1, 1)"),
    ([[np.nan]], [[1.0]], "non-finite synthesis input"),
    ([[1.0]], [[complex(0, np.inf)]], "non-finite synthesis input"),
])
def test_synthesis_input_refuses_malformed_generator_halves(F, G, message):
    with pytest.raises(ValidationError) as exc:
        sy.SynthesisInput(F=F, G=G, pole_points=[0.0], zero_points=[1.0])
    assert str(exc.value) == message


def test_synthesis_input_refuses_non_finite_points():
    with pytest.raises(ValidationError, match="^non-finite synthesis input$"):
        sy.SynthesisInput(F=[[1.0]], G=[[1.0]], pole_points=[np.inf],
                          zero_points=[1.0])


def test_obstrollable_refuses_a_non_finite_matrix():
    # a lone point needs no rank, so without the refusal this is True
    with pytest.raises(ValidationError,
                       match="^matrix contains non-finite entries$"):
        sy.obstrollable([[math.inf]], [0.0])


def test_synthesis_input_counts_its_size():
    inp = sy.SynthesisInput(F=np.ones((3, 2)), G=np.ones((2, 3)),
                            pole_points=[0.0, 1.0], zero_points=[2.0, 3.5])
    assert (inp.k, inp.n) == (3, 2)


def test_obstrollable_refuses_a_matrix_of_the_wrong_width():
    with pytest.raises(ValidationError,
                       match=r"^matrix shape \(1, 2\) does not match 1 points$"):
        sy.obstrollable([[1.0, 1.0]], [0.0])


@pytest.mark.parametrize("poles, zeros, field", [
    ([[0.0, 1.0]], [2.0, 3.5], "pole_points"),
    ([0.0, 1.0], np.array([[2.0], [3.5]]), "zero_points"),
    ([[0.0, 1.0]], [[2.0, 3.5]], "pole_points"),
    ([[0.0], [1.0]], [[2.0], [3.5]], "pole_points"),
], ids=["2-d-poles", "2-d-zeros", "both-rows", "both-columns"])
def test_synthesis_input_refuses_points_that_are_not_flat(poles, zeros, field):
    with pytest.raises(ValidationError) as exc:
        sy.SynthesisInput(F=[[1.0, 1.0]], G=[[1.0], [2.0]],
                          pole_points=poles, zero_points=zeros)
    assert str(exc.value) == f"{field} must be a flat list of points"


def test_synthesize_rejects_ill_conditioned_coupling():
    rng = np.random.default_rng(3)
    f = random_complex(rng, 2, 2)
    g = random_complex(rng, 2, 2)
    # Frobenius-based condition of any 2x2 is at least 2
    with pytest.raises(SingularCouplingError) as exc:
        sy.synthesize(sy.SynthesisInput(
            F=f, G=g, pole_points=[0.0, 1.0], zero_points=[2.0, 3.0]),
            cond_max=1.9)
    assert exc.value.cond > 1.9


@pytest.mark.parametrize("route", [sy.synthesize, sy.synthesize_hybrid],
                         ids=lambda f: f.__name__)
def test_synthesize_refuses_overflowing_input_as_singular(route):
    # every entry of G·F overflows, so the coupling matrix is not finite;
    # the pytest settings turn any RuntimeWarning on the way into an error
    inp = sy.SynthesisInput(F=np.full((2, 3), 1e200),
                            G=np.full((3, 2), 1e200),
                            pole_points=[0.0, 1.0, 2.0],
                            zero_points=[3.0, 4.0, 5.0j])
    with pytest.raises(SingularCouplingError) as exc:
        route(inp)
    assert exc.value.cond == float("inf")


def test_chain_identity_holds():
    b = sy.random_instance(2, 6, seed=23)
    t = sy.chain_from_bundle(b)
    rng = np.random.default_rng(24)
    sing = np.concatenate([b.data.poles, b.data.zeros])
    triples = []
    while len(triples) < 10:
        cand = 3.0 * random_complex(rng, 3)
        if min(np.abs(w - sing).min() for w in cand) < 0.05:
            continue
        triples.append(tuple(cand))
    rep = sy.chain_identity_check(t, triples)
    assert rep.passed, rep.lines()
    assert rep.info["triples"] == 10


EPS = np.finfo(float).eps


def _chain_identity_reference(t, triples, tol=1e-8):
    """The per-triple loop chain_identity_check replaces."""
    triples = list(triples)
    eye = identity(t.dim)
    worst_chain = 0.0
    worst_diag = 0.0
    for (x, y, z) in triples:
        lhs = t(x, y) @ t(y, z)
        worst_chain = max(worst_chain, frobenius(lhs - t(x, z)))
        for w in (x, y, z):
            worst_diag = max(worst_diag, frobenius(t(w, w) - eye))
    return [("chain_identity", worst_chain, tol),
            ("diagonal_unity", worst_diag, tol)], {"triples": len(triples)}


@pytest.mark.parametrize("k, n, seed", [(1, 5, 3), (3, 8, 29)])
@pytest.mark.parametrize("count", [0, 1, 10])
def test_chain_identity_check_matches_per_triple_loop(k, n, seed, count):
    b = sy.random_instance(k, n, seed=seed)
    t = sy.chain_from_bundle(b)
    pts = [complex(p) for p in 3.0 * np.exp(0.7j * np.arange(3 * count))]
    triples = [tuple(pts[3 * i:3 * i + 3]) for i in range(count)]
    rep = sy.chain_identity_check(t, iter(triples))
    want_checks, want_info = _chain_identity_reference(t, triples)
    assert rep.info == want_info
    assert [c.name for c in rep.checks] == [w[0] for w in want_checks]
    for c, (_, residual, tol) in zip(rep.checks, want_checks):
        # bitwise equal with numpy 2.4 on x86-64; 4 ulps for other builds
        assert abs(c.residual - residual) <= 4 * EPS * residual
        assert c.tol == tol


def test_chain_diagonal_is_exact_identity():
    b = sy.random_instance(3, 4, seed=29)
    t = sy.chain_from_bundle(b)
    np.testing.assert_array_equal(t(1.7 + 0.3j, 1.7 + 0.3j), identity(3))


def test_extract_generator_finite_anchor():
    b = sy.random_instance(2, 4, seed=37)
    t = sy.chain_from_bundle(b)
    a = 4.0 + 4.0j
    phi, phi_inv = sy.extract_generator(t, a)
    np.testing.assert_allclose(phi(a), identity(2), atol=1e-14)
    x, y = -3.2 + 0.4j, 2.9 - 2.0j
    np.testing.assert_allclose(phi(x) @ phi_inv(y), t(x, y), atol=1e-10)
    np.testing.assert_allclose(phi(x) @ phi_inv(x), identity(2),
                               atol=1e-10)


def test_extract_generator_anchor_at_infinity():
    b = sy.random_instance(2, 5, seed=41)
    t = sy.chain_from_bundle(b)
    phi, phi_inv = sy.extract_generator(t, None)
    x = 2.3 - 1.8j
    np.testing.assert_array_equal(phi(x), rz.eval_R(b, x))
    np.testing.assert_array_equal(phi_inv(x), rz.eval_Rinv(b, x))
    # the same split through an explicit infinite float
    phi2, _ = sy.extract_generator(t, float("inf"))
    np.testing.assert_array_equal(phi2(x), phi(x))


@pytest.mark.parametrize("anchor", [complex("nan"), float("nan"),
                                    complex(0.0, float("nan"))])
def test_extract_generator_refuses_nan_anchor(anchor):
    # a NaN anchor is neither infinity nor a finite point
    t = sy.chain_from_bundle(sy.random_instance(2, 3, 1))
    with pytest.raises(DomainViolationError, match="is not a number"):
        sy.extract_generator(t, anchor)


@pytest.mark.parametrize("anchor", ["3", "1+1j", b"3", bytearray(b"3"),
                                    memoryview(b"3"), True, np.bool_(True),
                                    np.array(True), np.array("3")])
def test_extract_generator_refuses_an_anchor_that_is_not_a_number(anchor):
    # complex() would parse the text and read a bool as 1
    t = sy.chain_from_bundle(sy.random_instance(2, 3, 1))
    with pytest.raises(DomainViolationError,
                       match=r"^anchor .* is not a number$"):
        sy.extract_generator(t, anchor)


@pytest.mark.parametrize("anchor", [np.float64(4.0), np.complex64(4 + 4j),
                                    np.array(4.0 + 4.0j), np.int64(4), 4])
def test_extract_generator_reads_numpy_numbers_as_anchors(anchor):
    b = sy.random_instance(2, 4, seed=37)
    t = sy.chain_from_bundle(b)
    phi, phi_inv = sy.extract_generator(t, anchor)
    a = complex(anchor)
    x = -3.2 + 0.4j
    np.testing.assert_array_equal(phi(x), t(x, a))
    np.testing.assert_array_equal(phi_inv(x), t(a, x))


def test_extract_generator_refuses_anchor_on_a_pole():
    b = sy.random_instance(2, 3, 1)
    t = sy.chain_from_bundle(b)
    pole = complex(b.data.poles[1])
    with pytest.raises(DomainViolationError,
                       match="sits on a singularity of the chain"):
        sy.extract_generator(t, pole)
    with pytest.raises(DomainViolationError,
                       match="sits on a singularity of the chain"):
        sy.extract_generator(t, pole + 5e-13)


def test_extract_generator_rejects_singular_anchor():
    b = sy.random_instance(2, 3, seed=43)
    t = sy.chain_from_bundle(b)
    with pytest.raises(DomainViolationError):
        sy.extract_generator(t, complex(b.data.poles[0]))
    with pytest.raises(DomainViolationError):
        sy.extract_generator(t, complex(b.data.zeros[2]))


def test_extract_generator_needs_limits_for_infinity():
    t = sy.ChainFunction(
        dim=1,
        evaluate=lambda x, y: np.eye(1, dtype=np.complex128),
        x_singularities=np.zeros(0, dtype=np.complex128),
        y_singularities=np.zeros(0, dtype=np.complex128),
    )
    with pytest.raises(DomainViolationError):
        sy.extract_generator(t, None)


def test_extracted_factors_recombine_to_chain_everywhere():
    b = sy.random_instance(3, 5, seed=47)
    t = sy.chain_from_bundle(b)
    phi, phi_inv = sy.extract_generator(t, None)
    rng = np.random.default_rng(48)
    sing = np.concatenate([b.data.poles, b.data.zeros])
    checked = 0
    while checked < 10:
        x, y = 3.0 * random_complex(rng), 3.0 * random_complex(rng)
        if min(np.abs(x - sing).min(), np.abs(y - sing).min()) < 0.05:
            continue
        checked += 1
        np.testing.assert_allclose(phi(x) @ phi_inv(y), t(x, y),
                                   atol=1e-9)


@pytest.mark.parametrize("k, n, seed", [(3, 7, 53), (4, 32, 1), (4, 128, 2)])
def test_obstrollable_on_synthesized_instance(k, n, seed):
    # n = 32 and 128 are past where a rank of the stacked powers F·Dʲ
    # means anything
    b = sy.random_instance(k, n, seed)
    assert sy.obstrollable(b.data.F_P, b.data.poles)
    assert sy.obstrollable(b.data.F_N, b.data.poles)
    assert sy.obstrollable(b.data.G_N.T, b.data.zeros)
    assert sy.obstrollable(b.data.G_P.T, b.data.poles)


def test_obstrollable_detects_unreachable_direction():
    b = sy.random_instance(2, 5, seed=59)
    f = b.data.F_P.copy()
    f[:, 3] = 0.0
    assert not sy.obstrollable(f, b.data.poles)


def test_obstrollable_fails_on_repeated_points():
    # two coincident diagonal entries collapse the stacked rows
    f = np.ones((1, 2), dtype=np.complex128)
    assert not sy.obstrollable(f, [1.0, 1.0])
    assert sy.obstrollable(f, [1.0, 2.0])
    # independent columns at a repeated point pass; the first three
    # points are one group, chained within SEP_MIN·diameter, although
    # the first and third are farther apart, and their three columns in
    # two rows are dependent even though each adjacent pair is not
    assert sy.obstrollable(np.eye(2), [1.0, 1.0])
    chain = [0.0, 6e-7, 1.2e-6, 1.0]
    assert not sy.obstrollable([[1.0, 0.0, 1.0, 1.0],
                                [0.0, 1.0, 1.0, 1.0]], chain)
    assert sy.obstrollable(np.eye(3, 4) + np.eye(3, 4, 3), chain)


def test_obstrollable_empty_is_trivially_true():
    assert sy.obstrollable(np.ones((2, 0)), [])


def test_geometry_validation():
    with pytest.raises(ValidationError):
        sy.GeneratorGeometry(disk_radius=0.0)
    with pytest.raises(ValidationError):
        sy.GeneratorGeometry(min_separation=-1.0)
    with pytest.raises(ValidationError):
        sy.GeneratorGeometry(cond_limit=0.5)
    with pytest.raises(ValidationError):
        sy.GeneratorGeometry(max_retries=0)


def test_random_instance_deterministic_in_seed():
    a = sy.random_instance(2, 6, seed=1234)
    b = sy.random_instance(2, 6, seed=1234)
    np.testing.assert_array_equal(a.Sr, b.Sr)
    np.testing.assert_array_equal(a.data.F_P, b.data.F_P)
    c = sy.random_instance(2, 6, seed=1235)
    assert not np.array_equal(a.Sr, c.Sr)


def test_random_instance_respects_geometry():
    geo = sy.GeneratorGeometry(disk_radius=1.5, min_separation=0.1)
    b = sy.random_instance(2, 5, seed=61, geometry=geo)
    pts = np.concatenate([b.data.poles, b.data.zeros])
    assert np.abs(pts).max() <= 1.5 + 1e-12
    gaps = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() >= 0.1
    assert b.cond_Sr <= geo.cond_limit * 1.01
    np.testing.assert_allclose(np.linalg.norm(b.data.F_P, axis=0), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(b.data.G_N, axis=1), 1.0,
                               atol=1e-12)


def test_random_instance_gives_up_on_impossible_geometry():
    # eight points of the unit disk are at most 2·sin(π/7) ≈ 0.87 apart
    # (a heptagon and its center), though the packing bound admits 1.0
    geo = sy.GeneratorGeometry(disk_radius=1.0, min_separation=1.0,
                               max_retries=2)
    with pytest.raises(GenerationFailedError) as exc:
        sy.random_instance(1, 4, seed=3, geometry=geo)
    assert exc.value.attempts == 2


def test_random_instance_gives_up_on_impossible_conditioning():
    geo = sy.GeneratorGeometry(cond_limit=1.9, max_retries=3)
    with pytest.raises(GenerationFailedError):
        sy.random_instance(1, 2, seed=5, geometry=geo)


def test_random_instance_empty():
    b = sy.random_instance(2, 0, seed=71)
    np.testing.assert_array_equal(rz.eval_R(b, 0.5), identity(2))
    assert b.cond_Sr == 1.0


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 3])
def test_random_instance_empty_is_the_built_empty_bundle(k, seed):
    # n = 0 takes the general path, which draws nothing
    first = sy.random_instance(k, 0, seed)
    assert_same_bundle(first, rz.build_bundle(ZeroPoleData.empty(k)))
    second = sy.random_instance(k, 0, seed)
    assert first.diagnostics is not second.diagnostics


def test_coupling_recoverable_from_samples_by_least_squares():
    # the two-point values pin the inverse coupling matrix linearly:
    # T(x, y) - I = (x - y) U(x) M V(y) with M the unknown; stacked
    # samples make an overdetermined system whose lstsq solution must
    # reproduce Sr (least squares is a test-side oracle only)
    b = sy.random_instance(2, 4, seed=73)
    d = b.data
    t = sy.chain_from_bundle(b)
    rng = np.random.default_rng(74)
    sing = np.concatenate([d.poles, d.zeros])
    rows, rhs = [], []
    while len(rows) < 12:
        x, y = 4.0 * random_complex(rng), 4.0 * random_complex(rng)
        if min(np.abs(x - sing).min(), np.abs(y - sing).min()) < 0.1:
            continue
        if abs(x - y) < 0.1:
            continue
        u = d.F_P * (1.0 / (x - d.poles))[None, :]
        v = (1.0 / (y - d.zeros))[:, None] * d.G_N
        rows.append((x - y) * np.kron(u, v.T))
        rhs.append((t(x, y) - identity(2)).reshape(-1))
    system = np.vstack(rows)
    target = np.concatenate(rhs)
    m_vec, *_ = np.linalg.lstsq(system, target, rcond=None)
    m = m_vec.reshape(4, 4)
    assert frobenius(m - b.Sr_inv) < 1e-8 * frobenius(b.Sr_inv)
    assert frobenius(inverse(m) - b.Sr) < 1e-7 * frobenius(b.Sr)


@pytest.mark.parametrize("route", ["synthesize", "synthesize_hybrid"])
def test_synthesis_refuses_nan_cond_max(route):
    # every condition number passes `cond > nan`: a NaN limit would
    # switch the coupling gate off
    inp = sy.SynthesisInput(F=_one(), G=_one(), pole_points=[0.0],
                            zero_points=[1.0])
    with pytest.raises(ValidationError, match="cond_max must not be NaN"):
        getattr(sy, route)(inp, cond_max=float("nan"))


@pytest.mark.parametrize("field, message", [
    ("disk_radius", "must be positive"), ("min_separation", "must be positive"),
    ("cond_limit", "must exceed 1")])
def test_geometry_refuses_nan(field, message):
    with pytest.raises(ValidationError, match=f"{field} {message}"):
        sy.GeneratorGeometry(**{field: float("nan")})


@pytest.mark.parametrize("hybrid", [False, True], ids=["right", "hybrid"])
def test_synthesis_core_uses_a_known_inverse_only_for_its_own_matrix(hybrid):
    rng = np.random.default_rng(31)
    n = 6
    inp = sy.SynthesisInput(
        F=random_complex(rng, 2, n), G=random_complex(rng, n, 2),
        pole_points=np.arange(n) * 0.3, zero_points=np.arange(n) * 0.3 + 0.1j)
    public = sy.synthesize_hybrid if hybrid else sy.synthesize
    want = public(inp)
    a, b = ((inp.pole_points, inp.zero_points) if hybrid
            else (inp.zero_points, inp.pole_points))
    s = sy.sylvester_diag_solve(a, b, inp.G @ inp.F)
    s_inv = inverse(s)

    def core(known):
        return sy._synthesize(inp.F, inp.G, inp.pole_points,
                              inp.zero_points, hybrid,
                              sy.DEFAULT_COND_MAX, known=known)

    # a matrix one ulp off is not the solved S: its pair is ignored and
    # the bundle is the freshly computed one
    off = s.copy()
    off[2, 3] = complex(np.nextafter(off[2, 3].real, np.inf), off[2, 3].imag)
    got = core((off, 2.0 * s_inv, 1.0))
    assert_same_bundle(got, want)
    # the solved S itself: its inverse is taken as handed in
    mine = s_inv.copy()
    got = core((s.copy(), mine, frobenius(s) * frobenius(s_inv)))
    assert (got.Sl_inv if hybrid else got.Sr_inv) is mine
    assert_same_bundle(got, want)


@pytest.mark.parametrize("route", ["synthesize", "synthesize_hybrid"])
@pytest.mark.parametrize("limit", [0.5, 0.0, -1.0, -math.inf])
def test_synthesis_refuses_a_cond_max_below_one(route, limit):
    # cond_F(S) ≥ n ≥ 1, so no coupling matrix meets such a limit: the
    # question is ill-posed, not a refusal of this input
    inp = sy.SynthesisInput(F=_one(), G=_one(), pole_points=[0.0],
                            zero_points=[1.0])
    with pytest.raises(ValidationError) as exc:
        getattr(sy, route)(inp, cond_max=limit)
    assert str(exc.value) == f"cond_max must be at least 1, got {limit:g}"


@pytest.mark.parametrize("route", ["synthesize", "synthesize_hybrid"])
def test_synthesis_accepts_a_cond_max_of_one(route):
    # the empty coupling matrix has cond 1, which a limit of 1 admits
    inp = sy.SynthesisInput(F=np.ones((2, 0)), G=np.ones((0, 2)),
                            pole_points=[], zero_points=[])
    assert getattr(sy, route)(inp, cond_max=1.0).cond_Sr == 1.0


# --- validate once ----------------------------------------------------------

# coordinates from a short list, so that points coincide or sit within
# SEP_MIN of each other often, several pairs at a time
_near = st.sampled_from([0.0, 5e-7, SEP_MIN, 1.0, 1.0 + 5e-7, 2.0, 3e-7])
_complex_near = st.builds(complex, _near, _near)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(_complex_near, min_size=n, max_size=n),
    st.lists(_complex_near, min_size=n, max_size=n))))
@example(([0j, 1 + 0j, 2 + 0j, 3 + 0j],
          [1 + 1e-7j, 5 + 0j, 5e-7 + 0j, 3 + 0j]))
@example(([0j, 2 + 0j], [SEP_MIN + 0j, 3 + 0j]))
def test_synthesis_input_names_the_first_close_pair(points):
    poles, zeros = points
    n = len(poles)
    want = reference_close_pair_message(poles, zeros, SEP_MIN)
    got = outcome(lambda: sy.SynthesisInput(
        F=np.ones((1, n)), G=np.ones((n, 1)), pole_points=poles,
        zero_points=zeros))
    if want is None:
        assert got[0] == "ok"
    else:
        assert got == (ValidationError, want)


def _completed_by_hand(inp, hybrid):
    """The data _synthesize completes, put through the full validation
    of the public ZeroPoleData: the reference for its refusals."""
    a, b = ((inp.pole_points, inp.zero_points) if hybrid
            else (inp.zero_points, inp.pole_points))
    s_inv = inverse(rz.sylvester_diag_solve(a, b, inp.G @ inp.F))
    with np.errstate(over="ignore", invalid="ignore"):
        derived_f, derived_g = inp.F @ s_inv, -(s_inv @ inp.G)
    if hybrid:
        halves = dict(F_P=derived_f, G_P=inp.G, F_N=inp.F, G_N=derived_g)
    else:
        halves = dict(F_P=inp.F, G_P=derived_g, F_N=derived_f, G_N=inp.G)
    return ZeroPoleData(poles=inp.pole_points, zeros=inp.zero_points,
                        **halves)


_G0, _G1 = 0.5 / 1.5e308, 0.5e300 / 1.5e308


# Each S is a well-conditioned 2×2 matrix, [[1, ±1], [±1, 1]] or a
# half of it, whose entries round exactly: a pair at distance 1e300 loses
# its 1e-6 offset. Its exact inverse then cancels or doubles the free
# half's two entries, so the derived half has an exactly zero column or
# row, or overflows.
@pytest.mark.parametrize("hybrid, F, G, poles, zeros, message", [
    (False, [[1, 1]], [[1e-6], [1e300]], [-1e-6, 1e-6], [0, 1e300],
     "column 0 of F_N is zero"),
    (True, [[1, 1]], [[1e-6], [1e300]], [0, 1e300], [-1e-6, 1e-6],
     "column 0 of F_P is zero"),
    (False, [[1e-6, 1e300]], [[1], [1]], [0, -1e300], [1e-6, -1e-6],
     "row 0 of G_P is zero"),
    (True, [[1e-6, 1e300]], [[1], [1]], [1e-6, -1e-6], [0, -1e300],
     "row 0 of G_N is zero"),
    (False, [[1.5e308, 1.5e308]], [[_G0], [_G1]], [-1, 1], [0, 1e300],
     "matrix contains non-finite entries"),
    (True, [[_G0, _G1]], [[1.5e308], [1.5e308]], [1, -1], [0, -1e300],
     "matrix contains non-finite entries"),
], ids=["right-zero-column", "hybrid-zero-column", "right-zero-row",
        "hybrid-zero-row", "right-overflow", "hybrid-overflow"])
def test_synthesis_refuses_a_degenerate_derived_half_as_full_validation_does(
        hybrid, F, G, poles, zeros, message):
    inp = sy.SynthesisInput(F=F, G=G, pole_points=poles, zero_points=zeros)
    want = outcome(_completed_by_hand, inp, hybrid)
    assert want == (ValidationError, message)
    route = sy.synthesize_hybrid if hybrid else sy.synthesize
    assert outcome(route, inp) == want


def test_synthesis_validates_each_datum_once(monkeypatch):
    b = sy.random_instance(2, 12, seed=5)
    d = b.data
    inputs = [sy.SynthesisInput(F=d.F_P, G=d.G_N, pole_points=d.poles,
                                zero_points=d.zeros),
              sy.SynthesisInput(F=d.F_N, G=d.G_P, pole_points=d.poles,
                                zero_points=d.zeros)]
    full = []
    post_init = ZeroPoleData.__post_init__

    def counted(self):
        full.append(self)
        post_init(self)

    monkeypatch.setattr(ZeroPoleData, "__post_init__", counted)
    sy.synthesize(inputs[0])
    sy.synthesize_hybrid(inputs[1])
    # the completed data is not validated again from scratch
    assert full == []

    # SynthesisInput forms the 2n×2n distance matrix once
    square = []
    absolute = np.abs

    def spy(x, *args, **kwargs):
        if np.shape(x) == (24, 24):
            square.append(x)
        return absolute(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", spy)
    sy.SynthesisInput(F=d.F_P, G=d.G_N, pole_points=d.poles,
                      zero_points=d.zeros)
    assert len(square) == 1


@pytest.mark.parametrize("route", [sy.synthesize, sy.synthesize_hybrid],
                         ids=lambda f: f.__name__)
def test_synthesized_cond_sr_is_the_frobenius_formula(route):
    d = sy.random_instance(3, 9, seed=8).data
    fs = (d.F_N, d.G_P) if route is sy.synthesize_hybrid else (d.F_P, d.G_N)
    b = route(sy.SynthesisInput(F=fs[0], G=fs[1], pole_points=d.poles,
                                zero_points=d.zeros))
    assert same_bits(b.cond_Sr, frobenius(b.Sr) * frobenius(b.Sr_inv))


_G = sy.GeneratorGeometry


@pytest.mark.parametrize("k, n, seeds, geometry", [
    (1, 0, range(2), None),
    (1, 3, range(4), None),
    (1, 8, range(4), None),
    (4, 8, range(4), None),
    (2, 20, range(3), None),
    (4, 32, range(2), None),
    (1, 32, range(3), _G(max_retries=300)),
    (1, 4, range(6), _G(cond_limit=20.0, max_retries=4)),
    (2, 6, range(6), _G(cond_limit=60.0, max_retries=3)),
    (1, 4, range(2), _G(disk_radius=1.0, min_separation=1.0,
                        max_retries=2)),
], ids=["empty", "k1n3", "k1n8", "k4n8", "k2n20", "k4n32",
        "k1n32-retries300", "small-cond-limit", "small-cond-limit-k2",
        "impossible"])
def test_random_instance_matches_the_validating_reference_loop(
        k, n, seeds, geometry):
    # the reference validates every draw with SynthesisInput before it
    # synthesizes it; random_instance hands the draw to the core as is
    for seed in seeds:
        got = outcome(sy.random_instance, k, n, seed, geometry)
        want = outcome(reference_random_instance, k, n, seed, geometry)
        assert got[0] == want[0]
        if want[0] == "ok":
            assert_same_bundle(got[1], want[1])
            continue
        assert got == want
        assert want[0] is GenerationFailedError
        with pytest.raises(GenerationFailedError) as exc:
            sy.random_instance(k, n, seed, geometry)
        assert exc.value.attempts == geometry.max_retries


def test_random_instance_tests_each_draw_only_while_drawing(monkeypatch):
    import zpreal.cauchy as cauchy

    calls = []
    post_init = sy.SynthesisInput.__post_init__
    distances = cauchy._pairwise_distances
    tril = np.tril

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(sy.SynthesisInput, "__post_init__",
                        spy("SynthesisInput", post_init))
    for module in (cauchy, sy):
        monkeypatch.setattr(module, "_pairwise_distances",
                            spy("_pairwise_distances", distances))
    monkeypatch.setattr(np, "tril", spy("tril", tril))
    # k=1, n=32 needs several attempts per instance, and min_sep 0.3
    # rejects candidates inside their own block
    sy.random_instance(1, 32, 2, _G(max_retries=300))
    sy.random_instance(2, 12, 5)
    assert sy._draw_separated(np.random.default_rng(0), 40, 2.0, 0.3) \
        is not None
    assert calls == []
    # the spies are live
    sy.SynthesisInput(F=_one(), G=_one(), pole_points=[0.0],
                      zero_points=[1.0])
    assert calls == ["SynthesisInput", "_pairwise_distances"]


def test_draw_separated_mask_is_read_only_and_strictly_lower():
    mask = sy._STRICT_LOWER
    assert not mask.flags.writeable
    for m in (1, 2, 7, sy._DRAW_BLOCK):
        np.testing.assert_array_equal(
            mask[:m, :m], np.tril(np.ones((m, m), bool), -1))


_TOO_FAR_APART = ("min_separation must be below 2·disk_radius = 4, got {}: "
                  "no two points in a disk of radius 2 are that far apart")


@pytest.mark.parametrize("field, value, message", [
    ("disk_radius", math.inf, "disk_radius must be finite"),
    ("disk_radius", -math.inf, "disk_radius must be positive"),
    ("disk_radius", 10**400, "disk_radius must be finite"),
    ("min_separation", SEP_MIN / 2,
     "min_separation must be at least 1.0e-06, got 5e-07"),
    ("min_separation", 1e-300,
     "min_separation must be at least 1.0e-06, got 1e-300"),
    ("min_separation", 4.0, _TOO_FAR_APART.format(4)),
    ("min_separation", 5.0, _TOO_FAR_APART.format(5)),
    ("min_separation", math.inf, _TOO_FAR_APART.format("inf")),
    ("min_separation", True,
     "min_separation must be a real number, got True"),
    ("disk_radius", True, "disk_radius must be a real number, got True"),
    ("cond_limit", True, "cond_limit must be a real number, got True"),
    ("max_retries", 2.5, "max_retries must be an integer, got 2.5"),
    ("max_retries", math.nan, "max_retries must be an integer, got nan"),
    ("max_retries", "3", "max_retries must be an integer, got 3"),
    ("max_retries", True, "max_retries must be an integer, got True"),
    ("max_retries", 0, "max_retries must be at least 1"),
])
def test_geometry_refuses_what_the_draw_cannot_honour(field, value, message):
    with pytest.raises(ValidationError) as exc:
        sy.GeneratorGeometry(**{field: value})
    assert str(exc.value) == message


def test_geometry_accepts_the_smallest_separation_and_integer_types():
    geo = sy.GeneratorGeometry(min_separation=SEP_MIN,
                               max_retries=np.int64(3))
    assert_same_bundle(
        sy.random_instance(2, 5, 7, geo),
        reference_random_instance(2, 5, 7, geo))


@pytest.mark.parametrize("args, message", [
    ((1, 4, -5), "seed must be a non-negative integer, got -5"),
    ((1, 4, 1.5), "seed must be a non-negative integer, got 1.5"),
    ((1, 4, "x"), "seed must be a non-negative integer, got x"),
    ((1.5, 4, 3), "k must be an integer, got 1.5"),
    ((1, 4.0, 3), "n must be an integer, got 4.0"),
    ((1, None, 3), "n must be an integer, got None"),
    ((0, 4, 3), "need k >= 1 and n >= 0"),
    ((True, 2, 0), "k must be an integer, got True"),
    ((1, np.bool_(True), 0), "n must be an integer, got True"),
])
def test_random_instance_refuses_bad_counts_and_seeds(args, message):
    with pytest.raises(ValidationError) as exc:
        sy.random_instance(*args)
    assert str(exc.value) == message


def test_a_separation_too_large_for_a_float_reads_as_inf():
    # refused at construction, as inf is, instead of after every retry
    for value in (10**400, math.inf):
        with pytest.raises(ValidationError) as exc:
            sy.GeneratorGeometry(min_separation=value, max_retries=2)
        assert str(exc.value) == _TOO_FAR_APART.format("inf")


def test_a_separation_just_below_the_diameter_is_accepted():
    # the bound refuses only what no draw of two points can honour
    geo = sy.GeneratorGeometry(disk_radius=1.0, min_separation=1.999)
    assert geo.min_separation == 1.999


@pytest.mark.parametrize("n, radius, sep", [
    (8, 2.0, 2.0), (8, 2.0, 1.5), (8, 2.0, 3.9), (4, 1.0, 1.9),
    (3, 1.0, 1.5), (3281, 2.0, 0.05),
    pytest.param(10**400, 2.0, 0.05, id="n=10**400")])
def test_random_instance_refuses_points_that_cannot_fit_before_drawing(
        monkeypatch, n, radius, sep):
    # 2n disjoint disks of radius s/2 inside the disk of radius R + s/2
    def no_draw(*args):
        raise AssertionError("drew points")

    monkeypatch.setattr(sy, "_draw_separated", no_draw)
    geo = sy.GeneratorGeometry(disk_radius=radius, min_separation=sep)
    with pytest.raises(ValidationError) as exc:
        sy.random_instance(4, n, 0, geo)
    assert str(exc.value) == (
        f"n = {n} needs {2 * n} points min_separation = {sep:g} apart in a "
        f"disk of radius disk_radius = {radius:g}; they do not fit, since "
        f"2n·(s/2)² > (R + s/2)²")


@pytest.mark.parametrize("n, radius, sep", [
    (3280, 2.0, 0.05), (1, 1.0, 1.999), (4, 1.0, 1.0), (8, 2.0, 1.0)])
def test_the_packing_bound_admits_what_fits_in_area(monkeypatch, n, radius,
                                                    sep):
    # necessary, not sufficient: each passes it and goes on to draw,
    # though no eight points of the unit disk are 1.0 apart (see above)
    drawn = []

    def no_points(rng, count, *args):
        drawn.append(count)

    monkeypatch.setattr(sy, "_draw_separated", no_points)
    geo = sy.GeneratorGeometry(disk_radius=radius, min_separation=sep,
                               max_retries=1)
    with pytest.raises(GenerationFailedError):
        sy.random_instance(1, n, 0, geo)
    assert drawn == [2 * n]


def test_random_instance_accepts_numpy_integers():
    assert_same_bundle(
        sy.random_instance(np.int64(2), np.int32(5), np.uint64(9)),
        sy.random_instance(2, 5, 9))
