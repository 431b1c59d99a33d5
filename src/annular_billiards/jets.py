"""Truncated bivariate Taylor arithmetic (total degree <= 3).

A :class:`Jet2` carries the Taylor coefficients of a smooth function of two
variables about a base point, truncated at total degree 3.  Pushing jets
through the elementary operations of a map yields the map's Taylor
coefficients exactly (up to rounding), which is what the twist-coefficient
pipeline needs: no finite-difference truncation error, no symbolic algebra.

Coefficients are stored densely in the monomial order

    1, x, y, x^2, xy, y^2, x^3, x^2 y, x y^2, y^3

and are plain Taylor *coefficients* (factorials included), so the partial
derivative d^(i+j) f / dx^i dy^j equals ``coeff(i, j) * i! * j!``.

A jet may also carry a trailing batch axis: coefficients of shape ``(10, m)``
hold m expansions about m base points, one per column.  The arithmetic
operators (with jets of the same batch, scalars, or length-m arrays) and
``jet_sin``/``jet_cos``/``jet_acos`` act on each column as they would on that
column alone, with the same bits.  Coefficient access and ``polyval2`` take
unbatched jets.
"""

from __future__ import annotations

import math

import numpy as np

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
_N = len(MONOMIALS)

# Precomputed (ia, ib, iout) triples for truncated polynomial multiplication.
_MUL_TABLE: list[tuple[int, int, int]] = []
for _a, (_i, _j) in enumerate(MONOMIALS):
    for _b, (_p, _q) in enumerate(MONOMIALS):
        if _i + _j + _p + _q <= 3:
            _MUL_TABLE.append((_a, _b, _INDEX[(_i + _p, _j + _q)]))
_IA, _IB, _IO = (np.array(_col) for _col in zip(*_MUL_TABLE))


class Jet2:
    """Degree-3 truncated Taylor expansion of a scalar function of two
    variables, or a batch of them (coefficients ``(10,)`` or ``(10, m)``)."""

    __slots__ = ("c",)

    # an ndarray operand defers to the jet, so ``array * jet`` scales column i
    # of a batch by element i of the array
    __array_ufunc__ = None

    def __init__(self, c: np.ndarray):
        self.c = c

    def __eq__(self, other):
        """Equal coefficients (and batch shape), as one bool."""
        if not isinstance(other, Jet2):
            return NotImplemented
        return np.array_equal(self.c, other.c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: float) -> "Jet2":
        c = np.zeros(_N)
        c[0] = value
        return Jet2(c)

    @staticmethod
    def variable(value, index: int) -> "Jet2":
        """Jet of the coordinate function ``value + dx_index``; an array of m
        values gives a batch of m jets."""
        if index not in (0, 1):
            raise ValueError("variable index must be 0 or 1")
        c = np.zeros((_N,) + np.shape(value))
        c[0] = value
        c[1 + index] = 1.0
        return Jet2(c)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.c + other.c)
        c = self.c.copy()
        c[0] += other
        return Jet2(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.c * other)
        # gather every product, then scatter-add them by output coefficient:
        # bincount sums each bin in input order from 0.0, which is table
        # order, so every column gets the bits of the former loop over it
        prod = self.c[_IA] * other.c[_IB]
        m = prod[0].size
        bins = (_IO[:, None] * m + np.arange(m)).ravel()
        return Jet2(np.bincount(bins, prod.ravel(), _N * m).reshape(self.c.shape))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        return Jet2(self.c / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self) -> "Jet2":
        return _compose_each(self, _reciprocal_derivs)

    # -- composition with univariate functions ------------------------------

    def compose_univariate(self, derivs: tuple[float, float, float, float]) -> "Jet2":
        """Compose ``f(self)`` given ``f`` and its first three derivatives at
        the jet's constant term."""
        f0, f1, f2, f3 = derivs
        h = self.displacement()
        h2 = h * h
        h3 = h2 * h
        return f0 + f1 * h + (f2 / 2.0) * h2 + (f3 / 6.0) * h3

    def displacement(self) -> "Jet2":
        """The jet minus its constant term."""
        c = self.c.copy()
        c[0] = 0.0
        return Jet2(c)

    # -- coefficient access --------------------------------------------------

    def coeff(self, i: int, j: int) -> float:
        return float(self.c[_INDEX[(i, j)]])

    def partial(self, i: int, j: int) -> float:
        """Partial derivative d^(i+j)/dx^i dy^j at the base point."""
        return self.coeff(i, j) * math.factorial(i) * math.factorial(j)

    @property
    def value(self) -> float:
        return float(self.c[0])


def _compose_each(x: Jet2, derivs) -> Jet2:
    """Compose ``f(x)`` where ``derivs(u)`` gives f and its first three
    derivatives at one constant term in Python float arithmetic, evaluated
    one constant at a time (NumPy's ``power`` and ``arccos`` differ from
    Python's ``**`` and ``math.acos`` in the last bit on some arguments)."""
    u = x.c[0]
    table = np.array([derivs(v) for v in np.ravel(u).tolist()])
    return x.compose_univariate(tuple(table.T.reshape((4,) + u.shape)))


def _reciprocal_derivs(u: float) -> tuple[float, float, float, float]:
    if u == 0.0:
        raise ZeroDivisionError("jet with zero constant term")
    return 1.0 / u, -1.0 / u**2, 2.0 / u**3, -6.0 / u**4


def _acos_derivs(u: float) -> tuple[float, float, float, float]:
    if not -1.0 < u < 1.0:
        return (math.nan,) * 4
    w = 1.0 - u * u
    return math.acos(u), -w**-0.5, -u * w**-1.5, -(1.0 + 2.0 * u * u) * w**-2.5


def jet_sin(x: Jet2) -> Jet2:
    u = x.c[0]
    s, c = np.sin(u), np.cos(u)
    return x.compose_univariate((s, c, -s, -c))


def jet_cos(x: Jet2) -> Jet2:
    u = x.c[0]
    s, c = np.sin(u), np.cos(u)
    return x.compose_univariate((c, -s, -c, s))


def jet_acos(x: Jet2) -> Jet2:
    """arccos of a jet whose constant term lies in (-1, 1).

    An unbatched jet outside raises ``NoCollisionError`` (the ray the map
    follows misses its wall); in a batch that column becomes NaN instead, so
    the other points go on.
    """
    if x.c.ndim == 1 and not -1.0 < x.c[0] < 1.0:
        raise NoCollisionError(f"jet_acos needs |constant term| < 1, got {x.value!r}")
    return _compose_each(x, _acos_derivs)


def polyval2(jet: Jet2, x: Jet2, y: Jet2) -> Jet2:
    """Evaluate the polynomial of ``jet`` at jet-valued arguments.

    ``x`` and ``y`` must have zero constant term (they play the role of the
    displacement variables), otherwise truncation would lose terms.
    """
    if abs(x.value) > 0.0 or abs(y.value) > 0.0:
        raise ValueError("polyval2 arguments must have zero constant term")
    xp = [Jet2.constant(1.0), x, x * x, x * x * x]
    yp = [Jet2.constant(1.0), y, y * y, y * y * y]
    out = Jet2.constant(0.0)
    for idx, (i, j) in enumerate(MONOMIALS):
        coef = jet.c[idx]
        if coef != 0.0:
            out = out + coef * (xp[i] * yp[j])
    return out
