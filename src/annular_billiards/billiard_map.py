"""The annular billiard map: explicit wall-to-wall formulas and a Cartesian oracle.

Phase-space conventions
-----------------------
A collision state is (wall, s, theta).  On the outer unit circle the arc
length s equals the polar angle, stored in [-pi, pi).  On the scatterer the
arc length is measured clockwise from the point facing (-1, 0) and offset so
that s = pi + R*(pi - gamma), where gamma in (0, 2*pi) is the anticlockwise
polar angle of the collision point about the scatterer center.  theta in
(0, pi) is the angle between the positively oriented tangent (domain on the
left) and the outgoing velocity.

The closed-form maps ``map_disk``, ``map_in`` and ``map_out`` apply to the
tangent configuration (scatterer center on the negative x-axis at distance
1 - R).  ``generic_step`` is an independent Cartesian ray tracer valid for
any scatterer pose; the two routes are cross-checked in the test suite.  The
ray tracer steps a whole batch at once: ``PhaseColumns`` holds one state per
column, each with its own scatterer, so every orbit of a stability scan
advances in one call per collision.  Its elementwise NumPy operations give
the bits of the same formulas on Python floats, and it maps ``math.atan2``
over the columns because ``np.arctan2`` does not.  A single ``PhasePoint``
is the batch of one, at NumPy's per-call cost (about 0.1 ms a step).

The wall-to-wall formulas are written once, generically over a small math
backend, so the float map, the elementwise array map, the truncated-Taylor-jet
map and the high-precision audit map are guaranteed to be the same function.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import (
    BilliardError,
    DomainError,
    GrazingError,
    NoCollisionError,
    TangencyWarning,
    only_column,
)

#: tolerance for clamping arccos arguments that leave [-1, 1] through rounding
ACOS_CLAMP_TOL = 1e-10

#: minimum advance along a ray before a new intersection counts
MIN_FLIGHT = 1e-12


class Wall(enum.Enum):
    OUTER = "outer"
    INNER = "inner"


@dataclass(frozen=True)
class PhasePoint:
    """Collision state (wall, arc length, reflection angle)."""

    wall: Wall
    s: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise DomainError(f"reflection angle must lie in (0, pi), got {self.theta}")

    @property
    def inner(self) -> bool:
        """True on the scatterer, as the ``inner`` field of ``PhaseColumns``."""
        return self.wall is Wall.INNER


class BirkhoffCoords(NamedTuple):
    """Area-preserving coordinates (s, r = cos theta)."""

    s: float
    r: float


class StepResult(NamedTuple):
    point: PhasePoint
    flight: float


def wrap_pi(x: float) -> float:
    """Reduce an angle to [-pi, pi); exact when already in range."""
    if -math.pi <= x < math.pi:
        return x
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def wrap_pi_columns(x: np.ndarray) -> np.ndarray:
    """``wrap_pi`` of each element, with the same bits."""
    return np.where((-math.pi <= x) & (x < math.pi), x, (x + math.pi) % (2.0 * math.pi) - math.pi)


def to_birkhoff(p: PhasePoint) -> BirkhoffCoords:
    return BirkhoffCoords(p.s, math.cos(p.theta))


def from_birkhoff(bc: BirkhoffCoords, wall: Wall = Wall.OUTER) -> PhasePoint:
    if not -1.0 < bc.r < 1.0:
        raise DomainError(f"|r| must be < 1, got {bc.r}")
    return PhasePoint(wall, bc.s, math.acos(bc.r))


# ---------------------------------------------------------------------------
# backend-generic wall-to-wall formulas
# ---------------------------------------------------------------------------


class FloatBackend:
    """Plain double-precision math."""

    pi = math.pi
    cos = staticmethod(math.cos)
    sin = staticmethod(math.sin)

    @staticmethod
    def acos(u):
        if u > 1.0:
            if u - 1.0 > ACOS_CLAMP_TOL:
                raise NoCollisionError(f"arccos argument {u!r} exceeds 1")
            u = 1.0
        elif u < -1.0:
            if -1.0 - u > ACOS_CLAMP_TOL:
                raise NoCollisionError(f"arccos argument {u!r} below -1")
            u = -1.0
        return math.acos(u)


class ArrayBackend:
    """Elementwise double-precision math on NumPy arrays, bit-identical to
    ``FloatBackend`` element by element.

    ``np.cos``/``np.sin`` agree with ``math.cos``/``math.sin``; ``np.arccos``
    does not (it differs in the last bit on ~9% of arguments), so ``acos``
    maps ``math.acos`` over the arguments, and over the clamped arguments
    only when one leaves [-1, 1].  An argument the float path would refuse
    with ``NoCollisionError`` becomes NaN, and NaN stays NaN.
    """

    pi = math.pi
    cos = staticmethod(np.cos)
    sin = staticmethod(np.sin)

    @staticmethod
    def acos(u):
        u = np.asarray(u, dtype=float)
        try:
            return np.fromiter(map(math.acos, u.ravel().tolist()), float, u.size).reshape(u.shape)
        except ValueError:  # math.acos refuses an argument outside [-1, 1]
            pass
        clamped = np.minimum(np.maximum(u, -1.0), 1.0).ravel().tolist()
        out = np.fromiter(map(math.acos, clamped), float, u.size).reshape(u.shape)
        out[np.abs(u) - 1.0 > ACOS_CLAMP_TOL] = np.nan
        return out


class JetBackend:
    """Degree-3 truncated Taylor arithmetic."""

    pi = math.pi
    cos = staticmethod(jets.jet_cos)
    sin = staticmethod(jets.jet_sin)
    acos = staticmethod(jets.jet_acos)


class MPBackend:
    """mpmath arithmetic at the caller's working precision.

    pi is the *double* pi lifted exactly, so the map being differentiated is
    bit-identical to the float/jet map.
    """

    def __init__(self, mp):
        self.mp = mp
        self.pi = mp.mpf(math.pi)
        self.cos = mp.cos
        self.sin = mp.sin
        self.acos = mp.acos


FLOAT_BACKEND = FloatBackend()
ARRAY_BACKEND = ArrayBackend()
JET_BACKEND = JetBackend()


def disk_formula(s, theta, bounces: int, lib=FLOAT_BACKEND):
    """bounces successive reflections inside the unit disk (no scatterer)."""
    return s + 2.0 * bounces * theta, theta


def scatterer_entry_formula(s, theta, R: float, lib=FLOAT_BACKEND):
    """Outer wall to scatterer, tangent configuration.

    theta1 = arccos((-cos(theta) - (1-R) cos(theta + s)) / R) and the new arc
    length follows from gamma1 = -pi + s + theta + theta1 through the
    clockwise parametrization s1 = pi + R*(pi - gamma1).
    """
    u = (-lib.cos(theta) - (1.0 - R) * lib.cos(theta + s)) / R
    theta1 = lib.acos(u)
    s1 = lib.pi + R * (2.0 * lib.pi - theta1 - theta - s)
    return s1, theta1


def scatterer_exit_formula(s, theta, R: float, lib=FLOAT_BACKEND):
    """Scatterer back to the outer wall, tangent configuration (time reverse
    of ``scatterer_entry_formula``)."""
    a = (s - lib.pi) / R
    w = -R * lib.cos(theta) - (1.0 - R) * lib.cos(theta - a)
    theta1 = lib.acos(w)
    s1 = theta + theta1 - a
    return s1, theta1


def half_period_formula(s, r, n: int, R: float, lib=FLOAT_BACKEND):
    """Reflection-composed half-period map in Birkhoff coordinates.

    Applies n-1 disk bounces, the scatterer entry and exit, then the mirror
    symmetry (s, r) -> (-s, -r).  Its square is the full period map of the
    tangent table.  Works unwrapped: near the reference orbit no angle
    reduction is ever required, which keeps the formulas smooth.
    """
    theta = lib.acos(r)
    s1, theta1 = disk_formula(s, theta, n - 1, lib)
    s2, theta2 = scatterer_entry_formula(s1, theta1, R, lib)
    s3, theta3 = scatterer_exit_formula(s2, theta2, R, lib)
    return -s3, -lib.cos(theta3)


# ---------------------------------------------------------------------------
# public phase-space maps (wrapped, validated)
# ---------------------------------------------------------------------------


def map_disk(p: PhasePoint, bounces: int) -> PhasePoint:
    """Iterate the unit-disk billiard map: (s, theta) -> (s + 2*bounces*theta, theta)."""
    if p.wall is not Wall.OUTER:
        raise DomainError("map_disk needs an outer-wall state")
    s1, th1 = disk_formula(p.s, p.theta, bounces)
    return PhasePoint(Wall.OUTER, wrap_pi(s1), th1)


def map_in(p: PhasePoint, R: float) -> PhasePoint:
    """Outer wall to scatterer for the tangent configuration of radius R."""
    if p.wall is not Wall.OUTER:
        raise DomainError("map_in needs an outer-wall state")
    s1, th1 = scatterer_entry_formula(p.s, p.theta, R)
    # reduce gamma to (0, 2*pi) so s lands in the fundamental arc interval
    gamma = math.pi - (s1 - math.pi) / R
    gamma %= 2.0 * math.pi
    return PhasePoint(Wall.INNER, math.pi + R * (math.pi - gamma), th1)


def map_out(p: PhasePoint, R: float) -> PhasePoint:
    """Scatterer back to the outer wall for the tangent configuration."""
    if p.wall is not Wall.INNER:
        raise DomainError("map_out needs an inner-wall state")
    s1, th1 = scatterer_exit_formula(p.s, p.theta, R)
    return PhasePoint(Wall.OUTER, wrap_pi(s1), th1)


def reflection(p: PhasePoint) -> PhasePoint:
    """Mirror symmetry about the x-axis.

    On the outer wall this is (s, theta) -> (-s, pi - theta); in Birkhoff
    coordinates (s, r) -> (-s, -r).  On the scatterer the mirrored arc
    length is 2*pi - s (the chart is centered on s = pi, not s = 0).
    """
    if p.wall is Wall.OUTER:
        return PhasePoint(Wall.OUTER, wrap_pi(-p.s), math.pi - p.theta)
    return PhasePoint(Wall.INNER, 2.0 * math.pi - p.s, math.pi - p.theta)


def reflection_birkhoff(bc: BirkhoffCoords) -> BirkhoffCoords:
    return BirkhoffCoords(-bc.s, -bc.r)


# ---------------------------------------------------------------------------
# Cartesian resolution and the generic ray-tracing oracle
# ---------------------------------------------------------------------------


class PhaseColumns(NamedTuple):
    """Collision states as columns: ``inner`` is True where the state lies
    on the scatterer, ``s`` and ``theta`` are as in ``PhasePoint``.  The ray
    tracer takes one state per column (fields of shape (m,)); an
    ``OrbitBatch`` keeps its orbits' collisions as rows, shape (period, m)."""

    inner: np.ndarray
    s: np.ndarray
    theta: np.ndarray

    @staticmethod
    def of(points) -> "PhaseColumns":
        return PhaseColumns(
            np.array([p.inner for p in points], dtype=bool),
            np.array([p.s for p in points], dtype=float),
            np.array([p.theta for p in points], dtype=float),
        )

    def point(self, j) -> PhasePoint:
        return PhasePoint(
            Wall.INNER if self.inner[j] else Wall.OUTER, float(self.s[j]), float(self.theta[j])
        )

    def take(self, columns) -> "PhaseColumns":
        """The states of the given columns (indices or mask on the last axis)."""
        return PhaseColumns(*(a[..., columns] for a in self))


class ScattererColumns(NamedTuple):
    """One scatterer per column: centers of shape (2, m), radii (m,).  The
    ray tracer takes this or a single ``ScattererPose`` for every column."""

    center: np.ndarray
    radius: np.ndarray

    def take(self, columns) -> "ScattererColumns":
        return ScattererColumns(self.center[:, columns], self.radius[columns])


class StepColumns(NamedTuple):
    """``generic_step`` of a batch: the new states, the flight lengths, and
    per column the ``BilliardError`` that refused its step, or None (the
    state and flight of a refused column are meaningless)."""

    point: PhaseColumns
    flight: np.ndarray
    errors: tuple[BilliardError | None, ...]


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``math.atan2`` elementwise: ``np.arctan2`` differs from it in the last
    bit on some arguments."""
    out = np.fromiter(map(math.atan2, y.ravel().tolist(), x.ravel().tolist()), float, y.size)
    return out.reshape(y.shape)


def phase_to_cartesian(p, pose):
    """Collision point and outgoing unit velocity of phase states.

    Takes ``PhaseColumns`` or a single ``PhasePoint`` (a state of shape ())
    and returns ``(px, py), (vx, vy)`` of the same shape.  ``pose`` is one
    scatterer (``ScattererPose``) or one per column (``ScattererColumns``);
    it may be None if no state lies on the scatterer.
    """
    s, theta, inner = p.s, p.theta, p.inner
    # outer wall: tangent (-sin s, cos s); direction = cos(theta)*t + sin(theta)*(-normal)
    ang = s + theta
    pos, vel = (np.cos(s), np.sin(s)), (-np.sin(ang), np.cos(ang))
    if not np.any(inner):
        return pos, vel
    if pose is None:
        raise DomainError("inner-wall state needs a scatterer pose")
    R = pose.radius
    cx, cy = pose.center
    gamma = math.pi - (s - math.pi) / R
    # positively oriented (clockwise) tangent (sin g, -cos g), outward normal (cos g, sin g)
    ang = gamma + theta
    pos_in = (cx + R * np.cos(gamma), cy + R * np.sin(gamma))
    vel_in = (np.sin(ang), -np.cos(ang))
    return (
        tuple(np.where(inner, a, b) for a, b in zip(pos_in, pos)),
        tuple(np.where(inner, a, b) for a, b in zip(vel_in, vel)),
    )


def _ray_circle_times(pos, vel, center, radius) -> np.ndarray:
    """First intersection time beyond ``MIN_FLIGHT`` of each ray
    pos + t*vel with a circle, or inf where there is none.

    A grazing contact away from the launch wall is skipped with one
    ``TangencyWarning`` per ray.
    """
    dx = pos[0] - center[0]
    dy = pos[1] - center[1]
    b = vel[0] * dx + vel[1] * dy
    c = (dx * dx + dy * dy) - radius * radius
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    near = -b - sq
    t = np.where(near > MIN_FLIGHT, near, -b + sq)
    miss = ~(t > MIN_FLIGHT)
    small = disc < 1e-14
    if small.any():
        # no real root, or a grazing contact away from the launch wall,
        # which carries no momentum change
        grazing = small & (disc >= 0.0) & (c > MIN_FLIGHT)
        for _ in range(np.count_nonzero(grazing)):
            warnings.warn("tangential ray-circle contact skipped", TangencyWarning)
        miss |= (disc < 0.0) | grazing
    t[miss] = math.inf
    return t


_ORIGIN = (0.0, 0.0)


def generic_step(p, pose):
    """One collision-to-collision step by Cartesian ray tracing.

    Independent of the closed-form maps: launches the ray, intersects both
    circles, takes the earliest transversal hit, reflects specularly, and
    rebuilds the (wall, s, theta) chart at the new collision.

    Steps every column of ``PhaseColumns`` at once (``pose`` as in
    ``phase_to_cartesian``) and returns ``StepColumns``; a column that
    escapes or reflects degenerately is refused there without stopping the
    others.  A ``PhasePoint`` is the batch of one: it returns a
    ``StepResult`` and raises its refusal.
    """
    if not isinstance(p, PhasePoint):
        return _step(p, pose)
    res = _step(PhaseColumns.of([p]), pose)
    flight = only_column(res.flight, res.errors)
    return StepResult(res.point.point(0), float(flight))


def _step(p: PhaseColumns, pose) -> StepColumns:
    (px, py), (vx, vy) = pos, vel = phase_to_cartesian(p, pose)
    t = _ray_circle_times(pos, vel, _ORIGIN, 1.0)
    inner = np.zeros(t.shape, dtype=bool)
    if pose is not None:
        R = pose.radius
        cx, cy = center = pose.center
        t_in = _ray_circle_times(pos, vel, center, R)
        inner = t_in < t
        t = np.where(inner, t_in, t)
    missed = t == math.inf
    t_hit = np.where(missed, 0.0, t)
    hx = px + t_hit * vx
    hy = py + t_hit * vy
    # inward normal of the unit circle, or the scatterer normal pointing
    # into the billiard domain; the tangent is (ny, -nx) on both walls
    nx, ny = -hx, -hy
    ay, ax = hy, hx
    any_inner = inner.any()
    if any_inner:
        nx = np.where(inner, (hx - cx) / R, nx)
        ny = np.where(inner, (hy - cy) / R, ny)
        ay, ax = np.where(inner, ny, hy), np.where(inner, nx, hx)
    s1 = _atan2(ay, ax)
    if any_inner:
        s1 = np.where(inner, math.pi + R * (math.pi - s1 % (2.0 * math.pi)), s1)
    tx, ty = ny, -nx
    k = 2.0 * (vx * nx + vy * ny)
    wx = vx - k * nx
    wy = vy - k * ny
    theta1 = _atan2(wx * nx + wy * ny, wx * tx + wy * ty)
    errors: list[BilliardError | None] = [None] * t.size
    refused = missed | ~((0.0 < theta1) & (theta1 < math.pi))
    for j in np.flatnonzero(refused).tolist():
        if missed[j]:
            errors[j] = NoCollisionError("ray escapes both walls")
        else:
            errors[j] = GrazingError(f"degenerate reflection angle {float(theta1[j])!r}")
    return StepColumns(PhaseColumns(inner, s1, theta1), t, tuple(errors))
