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
