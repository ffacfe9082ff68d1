"""Shared test utilities: random draws and small independent oracles."""

import numpy as np


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def separated_points(rng, count, min_sep=0.05, radius=2.0, avoid=()):
    """Draw `count` points uniformly from the disk |z| <= radius, keeping
    every pair (and every point vs `avoid`) at least min_sep apart."""
    got = list(avoid)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000:
            raise RuntimeError("separated_points: rejection sampling stuck")
        z = complex(*rng.uniform(-radius, radius, size=2))
        if abs(z) > radius:
            continue
        if got and min(abs(z - w) for w in got) < min_sep:
            continue
        got.append(z)
        out.append(z)
    return out


def annulus_points(rng, count, r_lo, r_hi, min_sep=0.05, avoid=()):
    """Like separated_points but confined to r_lo <= |z| <= r_hi."""
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


def balanced_instance(k, n_plus, n_minus, seed):
    """Synthesize an instance whose poles and zeros split n_plus inside
    and n_minus outside the unit circle, well clear of the circle."""
    from zpreal.errors import SingularCouplingError
    from zpreal.synthesis import SynthesisInput, synthesize

    rng = np.random.default_rng(seed)
    for _ in range(60):
        inner = annulus_points(rng, 2 * n_plus, 0.15, 0.8)
        outer = annulus_points(rng, 2 * n_minus, 1.25, 2.0, avoid=inner)
        poles = np.array(inner[:n_plus] + outer[:n_minus],
                         dtype=np.complex128)
        zeros = np.array(inner[n_plus:] + outer[n_minus:],
                         dtype=np.complex128)
        n = n_plus + n_minus
        f = random_complex(rng, k, n)
        g = random_complex(rng, n, k)
        f = f / np.linalg.norm(f, axis=0, keepdims=True)
        g = g / np.linalg.norm(g, axis=1, keepdims=True)
        try:
            return synthesize(SynthesisInput(
                F=f, G=g, pole_points=poles, zero_points=zeros),
                cond_max=1e6)
        except SingularCouplingError:
            continue
    raise RuntimeError("balanced_instance: no acceptable draw")


def partial_fraction_residues(poles, zeros):
    """Residues of r(z) = prod(z - mu)/prod(z - lam) at its poles,
    computed directly from the product form (independent of any solver)."""
    poles = [complex(p) for p in poles]
    zeros = [complex(z) for z in zeros]
    res = []
    for j, lam in enumerate(poles):
        num = np.prod([lam - mu for mu in zeros])
        den = np.prod([lam - other for i, other in enumerate(poles) if i != j])
        res.append(complex(num / den))
    return res


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def assert_same_bundle(got, want):
    """got and want hold the same data, coupling matrices, inverses,
    condition number and diagnostics, bit for bit."""
    for name in ("poles", "zeros", "F_P", "G_P", "F_N", "G_N"):
        assert same_bits(getattr(got.data, name), getattr(want.data, name))
    for name in ("Sr", "Sl", "Sr_inv", "Sl_inv", "cond_Sr"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for name, value in want.diagnostics.items():
        assert same_bits(got.diagnostics[name], value), name


def count_calls(monkeypatch, fn):
    """Count the calls of fn made through any zpreal module's binding."""
    from zpreal import (cauchy, factorization, linalg, realization,
                        synthesis, zero_pole)

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in (cauchy, linalg, zero_pole, realization, synthesis,
                   factorization):
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, counting)
    return calls


# --- reference implementations ----------------------------------------------
# Straightforward versions of validation steps that the package computes
# more cheaply; the tests hold the package to their bits and messages.

def reference_min_pairwise_distance(pts):
    """Smallest |p_i - p_j| over i != j, gathered through an off-diagonal
    mask; inf for fewer than two points."""
    pts = np.asarray(pts, dtype=np.complex128)
    if pts.size < 2:
        return float("inf")
    diff = pts[:, None] - pts[None, :]
    off = np.abs(diff)[~np.eye(pts.size, dtype=bool)]
    return float(off.min())


def reference_close_pair_message(pole_points, zero_points, sep):
    """SynthesisInput's message for the first pair of points, in row-major
    order over the concatenated points, closer than sep; None if none is."""
    pts = np.concatenate([np.asarray(pole_points, dtype=np.complex128),
                          np.asarray(zero_points, dtype=np.complex128)])
    close = np.abs(pts[:, None] - pts[None, :]) < sep
    pairs = np.argwhere(np.triu(close, 1))
    if pairs.size:
        i, j = pairs[0]
        return f"points {i} and {j} closer than {sep:.1e}"
    return None


def reference_frobenius(a):
    a = np.asarray(a, dtype=np.complex128)
    return float(np.sqrt((np.abs(a) ** 2).sum()))


def _reference_norm_inf(a):
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=1).max())


def reference_build_bundle(d):
    """build_bundle(d) from scratch, for data that passes its gates: both
    Sylvester solves, the diagnostics and both inversions, computed from
    d's arrays without reading or writing the build recorded for d. Its
    Sl is solved afresh, so its Sl_inv is inverse(Sl) on first read."""
    from zpreal.linalg import frobenius, identity, inverse
    from zpreal.realization import (RealizationBundle, _coupling_residuals,
                                    coupling_matrices)

    sr, sl = coupling_matrices(d)
    eye = identity(d.n)
    diagnostics = {
        "mutual_inverse": max(frobenius(sr @ sl - eye),
                              frobenius(sl @ sr - eye)),
        **_coupling_residuals(d, sr, sl),
    }
    sr_inv = inverse(sr)
    cond = frobenius(sr) * frobenius(sr_inv) if d.n else 1.0
    return RealizationBundle(data=d, Sr=sr, Sl=sl, Sr_inv=sr_inv,
                             cond_Sr=cond, diagnostics=diagnostics)


def reference_inverse(a):
    """linalg.inverse through linalg.as_complex_matrix and two norm_inf
    calls, with the refusal rule and messages of linalg's docstring."""
    from zpreal.errors import (DimensionMismatchError, SingularMatrixError,
                               ValidationError)
    from zpreal.linalg import PIVOT_EPS_FACTOR, as_complex_matrix

    try:
        a = as_complex_matrix(a)
    except ValidationError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    n = a.shape[0]
    if n != a.shape[1]:
        raise DimensionMismatchError(
            f"inverse needs a square matrix, got {a.shape}")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular ({exc})") from exc
    if not np.isfinite(inv).all():
        raise SingularMatrixError("matrix is singular: its inverse overflows")
    bound = n * _reference_norm_inf(inv) * (PIVOT_EPS_FACTOR
                                            * _reference_norm_inf(a))
    if not bound < 0.1:
        raise SingularMatrixError(
            f"matrix is numerically singular: n·‖A‖∞·‖A⁻¹‖∞·"
            f"{PIVOT_EPS_FACTOR:.0e} = {bound:.3e} ≥ 0.1")
    return inv


def reference_random_instance(k, n, seed, geometry=None):
    """random_instance as one synthesize(SynthesisInput(...)) per attempt,
    each draw validated in full before it is synthesized."""
    from zpreal.errors import (GenerationFailedError, SingularCouplingError,
                               ValidationError)
    from zpreal.synthesis import (GeneratorGeometry, SynthesisInput,
                                  _draw_separated, synthesize)

    if geometry is None:
        geometry = GeneratorGeometry()
    if k < 1 or n < 0:
        raise ValidationError("need k >= 1 and n >= 0")
    rng = np.random.default_rng(seed)
    for _ in range(geometry.max_retries):
        pts = _draw_separated(rng, 2 * n, geometry.disk_radius,
                              geometry.min_separation)
        if pts is None:
            continue
        lam, mu = pts[:n], pts[n:]
        f = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        f = f / np.linalg.norm(f, axis=0, keepdims=True)
        g = g / np.linalg.norm(g, axis=1, keepdims=True)
        try:
            return synthesize(
                SynthesisInput(F=f, G=g, pole_points=lam, zero_points=mu),
                cond_max=geometry.cond_limit,
            )
        except SingularCouplingError:
            continue
    raise GenerationFailedError(
        f"no acceptable instance in {geometry.max_retries} attempts "
        f"(k={k}, n={n}, seed={seed})",
        attempts=geometry.max_retries,
    )


def outcome(fn, *args):
    """('ok', result) or (error class, message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc), str(exc)
