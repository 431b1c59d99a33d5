"""The annular billiard map of the tangent table in closed form.

Phase-space conventions
-----------------------
A collision state is (wall, s, theta).  On the outer unit circle the arc
length s equals the polar angle, stored in [-pi, pi).  On the scatterer the
arc length is measured clockwise from the point facing (-1, 0) and offset so
that s = pi + R*(pi - gamma), where gamma in (0, 2*pi) is the anticlockwise
polar angle of the collision point about the scatterer center.  theta in
(0, pi) is the angle between the positively oriented tangent (domain on the
left) and the outgoing velocity.  The records of this chart, ``Wall`` and
``PhasePoint``, live in ``orbits`` with the ray tracer that builds them.

The tangent table (scatterer center on the negative x-axis at distance
1 - R) keeps its scatterer tangent to the outer circle at the radius
``tangency_radius_b``, and its half-period map is one straight-line formula,
``half_period_formula``, written over a backend that is any namespace with
a ``cos`` and an ``acos``: ``math``, ``mpmath.mp``, the float backend and
the jet backend run the same operations in the same order, with the double
``math.pi``, which mpmath lifts exactly.  On each an arccos argument off
[-1, 1] is a missed wall, and the map refuses it.  Its independent oracle,
the Cartesian ray tracer ``generic_step``, lives in ``orbits``, its one
caller; the two routes are cross-checked in the test suite.

This module imports only the standard library: the jet backend loads
``jets`` on its first use, so a program that iterates the float map, such as
``section``, does not load it.
"""

from __future__ import annotations

import math
from math import pi
from typing import NamedTuple

from .errors import InvalidTableError, NoCollisionError


def tangency_radius_b(n: int, epsilon: float) -> float:
    """Scatterer radius keeping tangency when the angle is detuned to pi/n + eps.

    With theta0 = pi/n + epsilon the chord of the detuned orbit crosses the
    negative x-axis at distance cos(theta0)/cos(n*epsilon) from the origin,
    which yields R_b = 1 + cos(theta0)/cos(n*theta0).

    This is the one admission of a tangent table (n, epsilon): every route
    that builds one calls it, and it refuses with ``InvalidTableError`` an
    n below 3, a detuning outside (0, pi - pi/n) (NaN too), where theta0
    would leave the reflection angles' range, a vanishing cos(n*theta0), and
    a radius outside (0, 1).
    """
    if n < 3:
        raise InvalidTableError(f"need n >= 3, got {n}")
    if not 0.0 < epsilon < math.pi - math.pi / n:
        raise InvalidTableError(f"need 0 < epsilon < pi - pi/n at n={n}, got {epsilon}")
    theta0 = math.pi / n + epsilon
    cn = math.cos(n * theta0)
    if abs(cn) < 1e-9:
        raise InvalidTableError(f"cos(n*theta0) ~ 0 at n={n}, epsilon={epsilon}")
    r = 1.0 + math.cos(theta0) / cn
    if not 0.0 < r < 1.0:
        raise InvalidTableError(
            f"tangency radius {r:.6g} outside (0, 1) at n={n}, epsilon={epsilon}"
        )
    return r


class BirkhoffCoords(NamedTuple):
    """Area-preserving coordinates (s, r = cos theta)."""

    s: float
    r: float


# ---------------------------------------------------------------------------
# backend-generic wall-to-wall formulas
# ---------------------------------------------------------------------------


class FloatBackend:
    """The ``math`` module's ``cos`` and ``acos``, NaN passing through as
    NaN, with the ``ValueError`` of an arccos argument off [-1, 1] (a missed
    wall) raised as ``NoCollisionError``; ``island_sampler`` runs the map on
    ``math`` itself."""

    cos = staticmethod(math.cos)

    @staticmethod
    def acos(u):
        try:
            return math.acos(u)
        except ValueError:
            side = "exceeds 1" if u > 1.0 else "below -1"
            raise NoCollisionError(f"arccos argument {u!r} {side}") from None


class JetBackend:
    """Degree-3 truncated Taylor arithmetic.

    ``cos`` and ``acos`` come from ``jets``, imported on the first lookup of
    one of them and then kept on the instance.
    """

    def __getattr__(self, name):
        from . import jets

        self.cos, self.acos = jets.jet_cos, jets.jet_acos
        return object.__getattribute__(self, name)


FLOAT_BACKEND = FloatBackend()
JET_BACKEND = JetBackend()


def half_period_formula(s, r, n: int, R: float, lib=FLOAT_BACKEND):
    """Reflection-composed half-period map in Birkhoff coordinates.

    Applies n-1 disk bounces, the scatterer entry and exit, then the mirror
    symmetry (s, r) -> (-s, -r).  Its square is the full period map of the
    tangent table.  Works unwrapped: near the reference orbit no angle
    reduction is ever required, which keeps the formulas smooth.

    The n-1 bounces advance s by 2 theta each.  The entry angle theta2 is
    arccos((-cos(theta) - (1-R) cos(theta + s1)) / R), and the entry point
    sits at the polar angle gamma = -pi + s1 + theta + theta2 about the
    scatterer center, at the clockwise arc length pi + R*(pi - gamma); the
    exit is the time reverse of the entry, from a = pi - gamma.
    """
    cos, acos = lib.cos, lib.acos
    theta = acos(r)
    s1 = s + 2.0 * (n - 1) * theta
    theta2 = acos((-cos(theta) - (1.0 - R) * cos(theta + s1)) / R)
    a = (pi + R * (2.0 * pi - theta2 - theta - s1) - pi) / R
    theta3 = acos(-R * cos(theta2) - (1.0 - R) * cos(theta2 - a))
    return -(theta2 + theta3 - a), -cos(theta3)

