"""Truncated Taylor arithmetic against high-precision finite differences."""

import math

import numpy as np
import pytest
from mpmath import mp

from annular_billiards.errors import NoCollisionError
from annular_billiards.jets import (
    MONOMIALS,
    Jet2,
    jet_acos,
    jet_cos,
)


def mp_partials(f, x0, y0, h="1e-8", dps=50):
    """All partial derivatives (i+j <= 3) of f by central differences in mpmath."""
    old = mp.dps
    mp.dps = dps
    try:
        hh = mp.mpf(h)
        grid = {
            (i, j): f(mp.mpf(x0) + i * hh, mp.mpf(y0) + j * hh)
            for i in range(-2, 3)
            for j in range(-2, 3)
        }
        w = {
            0: [mp.mpf(c) for c in (0, 0, 1, 0, 0)],
            1: [mp.mpf(c) / (12 * hh) for c in (1, -8, 0, 8, -1)],
            2: [mp.mpf(c) / (12 * hh**2) for c in (-1, 16, -30, 16, -1)],
            3: [mp.mpf(c) / (2 * hh**3) for c in (-1, 2, 0, -2, 1)],
        }
        out = {}
        for i in range(4):
            for j in range(4):
                if i + j > 3:
                    continue
                acc = mp.mpf(0)
                for p in range(5):
                    for q in range(5):
                        acc += w[i][p] * w[j][q] * grid[(p - 2, q - 2)]
                out[(i, j)] = float(acc)
        return out
    finally:
        mp.dps = old


def assert_jet_matches(jet: Jet2, partials: dict, rtol=1e-9):
    for (i, j), want in partials.items():
        got = jet.c[MONOMIALS.index((i, j))] * math.factorial(i) * math.factorial(j)
        assert got == pytest.approx(want, rel=rtol, abs=1e-9), (i, j)


def test_constant_and_variable():
    c = Jet2((3.5,) + (0.0,) * 9)
    assert c.value == 3.5
    assert c.c[MONOMIALS.index((1, 0))] == 0.0
    x = Jet2.variable(2.0, 0)
    assert x.value == 2.0
    assert x.c[MONOMIALS.index((1, 0))] == 1.0
    assert x.c[MONOMIALS.index((0, 1))] == 0.0


def test_polynomial_expression():
    # f(x, y) = x^2 y + 3 x - y^3 expanded about (0.5, -0.3)
    x0, y0 = 0.5, -0.3
    x = Jet2.variable(x0, 0)
    y = Jet2.variable(y0, 1)
    f = x * x * y + 3.0 * x - y * y * y
    want = mp_partials(lambda u, v: u * u * v + 3 * u - v**3, x0, y0)
    assert_jet_matches(f, want)


def test_division_and_reciprocal():
    x0, y0 = 1.2, 0.4
    x = Jet2.variable(x0, 0)
    y = Jet2.variable(y0, 1)
    # a jet divides by a float only, as the map push divides by R
    f = (x * y + x) / 2.5
    want = mp_partials(lambda u, v: (u * v + u) / mp.mpf(2.5), x0, y0)
    assert_jet_matches(f, want)


def test_trig_composition():
    x0, y0 = 0.7, -0.2
    x = Jet2.variable(x0, 0)
    y = Jet2.variable(y0, 1)
    f = jet_cos(x * y) * jet_cos(x + 2.0 * y)
    want = mp_partials(lambda u, v: mp.cos(u * v) * mp.cos(u + 2 * v), x0, y0)
    assert_jet_matches(f, want)


def test_acos_sqrt_atan():
    x0, y0 = 0.3, 0.1
    x = Jet2.variable(x0, 0)
    y = Jet2.variable(y0, 1)
    f = jet_acos(x * y + 0.2)
    want = mp_partials(lambda u, v: mp.acos(u * v + mp.mpf(0.2)), x0, y0)
    assert_jet_matches(f, want)


def test_acos_domain_guard():
    with pytest.raises(ValueError):
        jet_acos(Jet2((1.0,) + (0.0,) * 9))


def test_acos_refuses_off_domain_jet():
    for u in (1.5, -1.0, math.nan):
        with pytest.raises(NoCollisionError):
            jet_acos(Jet2.variable(u, 0))


def test_truncation_drops_degree_four():
    x = Jet2.variable(0.0, 0)
    f = (x * x) * (x * x)  # x^4 truncates to zero
    assert np.allclose(f.c, 0.0)


def test_equality_is_one_bool():
    from annular_billiards.birkhoff import ReducedMap, taylor_jet

    assert Jet2((0.0,) * 10) == Jet2((0.0,) * 10)
    assert Jet2.variable(0.3, 0) != Jet2.variable(0.3, 1)
    assert Jet2((1.0,) + (0.0,) * 9) != 1.0
    rmap = ReducedMap(4, 0.01)
    assert taylor_jet(rmap) == taylor_jet(rmap)
    assert taylor_jet(rmap) != taylor_jet(ReducedMap(4, 0.02))

