"""Truncated bivariate Taylor arithmetic (total degree <= 3).

A :class:`Jet2` carries the Taylor coefficients of a smooth function of two
variables about a base point, truncated at total degree 3.  Pushing jets
through the elementary operations of a map yields the map's Taylor
coefficients exactly (up to rounding), which is what the twist-coefficient
pipeline needs: no finite-difference truncation error, no symbolic algebra.

Coefficients are stored as a tuple of ten Python floats in the monomial order

    1, x, y, x^2, xy, y^2, x^3, x^2 y, x y^2, y^3

and are plain Taylor *coefficients* (factorials included), so the partial
derivative d^(i+j) f / dx^i dy^j equals
``c[MONOMIALS.index((i, j))] * i! * j!``.

A product of two jets sums its terms in ``_MUL_TABLE`` order.  The map push
forms none: it scales jets by floats, adds them and composes them with
``jet_sin``, ``jet_cos`` and ``jet_acos``, whose powers of the displacement
are unrolled.

The module is pure Python: it imports only ``math`` and ``operator``, so the
twist pipeline runs without NumPy.
"""

from __future__ import annotations

import math
from operator import add, sub

from .errors import NoCollisionError

#: monomial exponents in storage order
MONOMIALS: tuple[tuple[int, int], ...] = (
    (0, 0),
    (1, 0),
    (0, 1),
    (2, 0),
    (1, 1),
    (0, 2),
    (3, 0),
    (2, 1),
    (1, 2),
    (0, 3),
)

_INDEX = {m: i for i, m in enumerate(MONOMIALS)}

#: (ia, ib, iout) triples of truncated polynomial multiplication, in the
#: order ``Jet2.__mul__`` adds each output's products
_MUL_TABLE: list[tuple[int, int, int]] = []
for _a, (_i, _j) in enumerate(MONOMIALS):
    for _b, (_p, _q) in enumerate(MONOMIALS):
        if _i + _j + _p + _q <= 3:
            _MUL_TABLE.append((_a, _b, _INDEX[(_i + _p, _j + _q)]))


class Jet2:
    """Degree-3 truncated Taylor expansion of a scalar function of two
    variables: ``c`` is the tuple of its ten coefficients."""

    __slots__ = ("c",)

    def __init__(self, c: tuple[float, ...]):
        self.c = c

    def __eq__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        return self.c == other.c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def variable(value: float, index: int) -> "Jet2":
        """Jet of the coordinate function ``value + dx_index``."""
        if index not in (0, 1):
            raise ValueError("variable index must be 0 or 1")
        linear = (1.0, 0.0) if index == 0 else (0.0, 1.0)
        return Jet2((float(value),) + linear + (0.0,) * 7)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(tuple(map(add, self.c, other.c)))
        c = self.c
        return Jet2((c[0] + other,) + c[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet2(tuple([-x for x in self.c]))

    # a - b is a + (-b) in IEEE arithmetic, bit for bit
    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(tuple(map(sub, self.c, other.c)))
        c = self.c
        return Jet2((c[0] - other,) + c[1:])

    def __rsub__(self, other):
        c = self.c
        return Jet2((other - c[0],) + tuple([-x for x in c[1:]]))

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(tuple([x * other for x in self.c]))
        out = [0.0] * 10
        a, b = self.c, other.c
        for ia, ib, io in _MUL_TABLE:
            out[io] += a[ia] * b[ib]
        return Jet2(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        return Jet2(tuple([x / other for x in self.c]))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self) -> "Jet2":
        u = self.c[0]
        if u == 0.0:
            raise ZeroDivisionError("jet with zero constant term")
        return self.compose_univariate((1.0 / u, -1.0 / u**2, 2.0 / u**3, -6.0 / u**4))

    # -- composition with univariate functions ------------------------------

    def compose_univariate(self, derivs: tuple[float, float, float, float]) -> "Jet2":
        """Compose ``f(self)`` given ``f`` and its first three derivatives at
        the jet's constant term.

        This is ``f0 + f1*h + (f2/2)*h*h + (f3/6)*h*h*h`` in the displacement
        h, summed coefficient by coefficient in that order, with the products
        of h unrolled in the order ``__mul__`` sums them.  h's constant term
        is 0.0, so the products with it are signed zeros; they are left out
        of the powers, which leaves their bits alone for a finite jet (a sum
        that starts from 0.0 is never -0.0).
        """
        f0, f1, f2, f3 = derivs
        g2, g3 = f2 / 2.0, f3 / 6.0
        _, h1, h2, h3, h4, h5, h6, h7, h8, h9 = self.c
        # h*h from its x^2 coefficient on; below that it is 0.0
        q3 = 0.0 + h1 * h1
        q4 = 0.0 + h1 * h2 + h2 * h1
        q5 = 0.0 + h2 * h2
        q6 = 0.0 + h1 * h3 + h3 * h1
        q7 = 0.0 + h1 * h4 + h2 * h3 + h3 * h2 + h4 * h1
        q8 = 0.0 + h1 * h5 + h2 * h4 + h4 * h2 + h5 * h1
        q9 = 0.0 + h2 * h5 + h5 * h2
        # the 0.0 coefficients of h*h and h*h*h, scaled
        z2, z3 = 0.0 * g2, 0.0 * g3
        return Jet2((
            0.0 * f1 + f0 + z2 + z3,
            h1 * f1 + z2 + z3,
            h2 * f1 + z2 + z3,
            h3 * f1 + q3 * g2 + z3,
            h4 * f1 + q4 * g2 + z3,
            h5 * f1 + q5 * g2 + z3,
            # h*h*h, which starts at x^3
            h6 * f1 + q6 * g2 + (0.0 + q3 * h1) * g3,
            h7 * f1 + q7 * g2 + (0.0 + q3 * h2 + q4 * h1) * g3,
            h8 * f1 + q8 * g2 + (0.0 + q4 * h2 + q5 * h1) * g3,
            h9 * f1 + q9 * g2 + (0.0 + q5 * h2) * g3,
        ))

    # -- coefficient access --------------------------------------------------

    @property
    def value(self) -> float:
        return self.c[0]


def jet_sin(x: Jet2) -> Jet2:
    u = x.c[0]
    s, c = math.sin(u), math.cos(u)
    return x.compose_univariate((s, c, -s, -c))


def jet_cos(x: Jet2) -> Jet2:
    u = x.c[0]
    s, c = math.sin(u), math.cos(u)
    return x.compose_univariate((c, -s, -c, s))


def jet_acos(x: Jet2) -> Jet2:
    """arccos of a jet whose constant term lies in (-1, 1); elsewhere
    ``NoCollisionError`` (the ray the map follows misses its wall)."""
    u = x.c[0]
    if not -1.0 < u < 1.0:
        raise NoCollisionError(f"jet_acos needs |constant term| < 1, got {u!r}")
    w = 1.0 - u * u
    return x.compose_univariate(
        (math.acos(u), -w**-0.5, -u * w**-1.5, -(1.0 + 2.0 * u * u) * w**-2.5)
    )
