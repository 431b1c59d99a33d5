"""Construction and verification of the periodic orbits, and the Cartesian
ray tracer that checks them.

Both families close after 2n+2 collisions: n on the outer circle, one
perpendicular hit on the scatterer (index n), the n outer collisions of the
reversed path, and the second perpendicular hit (index 2n+1).

Type (a) orbits are built and ray-traced together as the columns of an
``OrbitBatch``; a single table is the batch of one.

The ray tracer ``generic_step`` is independent of the closed-form maps in
``billiard_map``: it works in the plane for any scatterer pose.  It steps a
whole batch at once: ``PhaseColumns`` holds one state per column, each with
its own scatterer, so every orbit of a stability scan advances in one call
per collision.  Its elementwise NumPy operations give the bits of the same
formulas on Python floats, and it maps ``math.atan2`` over the columns
because ``np.arctan2`` does not.  A single ``PhasePoint`` is the batch of
one, at NumPy's per-call cost (about 0.1 ms a step).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .billiard_map import PhasePoint, Wall, wrap_pi
from .errors import (
    BilliardError,
    DomainError,
    GrazingError,
    InvalidTableError,
    NoCollisionError,
    TangencyWarning,
    only_column,
)
from .geometry import ScattererPose, TableConfig, TableParams, scatterer_pose

#: maximum closure residual accepted when a constructed orbit is validated
CLOSURE_TOL = 1e-9

#: minimum advance along a ray before a new intersection counts
MIN_FLIGHT = 1e-12


# ---------------------------------------------------------------------------
# Cartesian resolution and the generic ray-tracing oracle
# ---------------------------------------------------------------------------


class StepResult(NamedTuple):
    point: PhasePoint
    flight: float


def wrap_pi_columns(x: np.ndarray) -> np.ndarray:
    """``wrap_pi`` of each element, with the same bits."""
    return np.where((-math.pi <= x) & (x < math.pi), x, (x + math.pi) % (2.0 * math.pi) - math.pi)


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


# ---------------------------------------------------------------------------
# periodic orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitRecord:
    """A periodic orbit as an explicit collision sequence.

    points[i] is the i-th collision state, flights[i] the free flight from
    points[i] to points[i+1] (cyclically), and curvatures[i] the signed wall
    curvature at points[i] (-1 on the outer circle, +1/R on the scatterer).
    """

    params: TableParams
    points: tuple[PhasePoint, ...]
    flights: tuple[float, ...]
    curvatures: tuple[float, ...]
    pose: ScattererPose = field(repr=False)

    @property
    def period(self) -> int:
        return len(self.points)

    def cartesian_points(self) -> np.ndarray:
        """Collision points in the plane, shape (2n+2, 2)."""
        pos, _ = phase_to_cartesian(PhaseColumns.of(self.points), self.pose)
        return np.column_stack(pos)

    def polyline(self) -> np.ndarray:
        """Closed polygonal trajectory for rendering, shape (2n+3, 2)."""
        pts = self.cartesian_points()
        return np.vstack([pts, pts[:1]])

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "n": self.params.n,
                "k": self.params.k,
                "R": self.params.R,
                "delta": self.params.delta,
                "epsilon": self.params.epsilon,
                "config": self.params.config.value,
            },
            "points": [
                {"wall": p.wall.value, "s": p.s, "theta": p.theta}
                for p in self.points
            ],
            "flights": list(self.flights),
            "curvatures": list(self.curvatures),
            "closure_residual": verify_closure(self),
        }


@dataclass(frozen=True)
class OrbitBatch:
    """m periodic orbits as columns.

    Column j is an orbit of ``periods[j]`` collisions.  ``points`` fields,
    ``flights`` and ``curvatures`` have shape (period, m), ``period`` being
    the longest of them, with the meaning of the ``OrbitRecord`` fields; a
    shorter orbit repeats down its column, so in every column row i + 1
    (cyclically) holds the successor of row i.  ``pose`` holds one scatterer
    per column, and ``errors[j]`` is the ``BilliardError`` that refuses
    column j, or None.
    """

    params: tuple[TableParams, ...]
    periods: np.ndarray
    points: PhaseColumns
    flights: np.ndarray
    curvatures: np.ndarray
    pose: ScattererColumns = field(repr=False)
    errors: tuple[BilliardError | None, ...]

    @property
    def period(self) -> int:
        """Rows of the batch: the longest period."""
        return self.flights.shape[0]

    @staticmethod
    def of(orbit: OrbitRecord) -> "OrbitBatch":
        """The batch of one orbit."""
        pts = PhaseColumns.of(orbit.points)
        return OrbitBatch(
            (orbit.params,),
            np.array([orbit.period]),
            PhaseColumns(*(a[:, None] for a in pts)),
            np.array(orbit.flights)[:, None],
            np.array(orbit.curvatures)[:, None],
            ScattererColumns(orbit.pose.center[:, None], np.array([orbit.pose.radius])),
            (None,),
        )

    def orbit(self, j: int) -> OrbitRecord:
        """Column j as an ``OrbitRecord``."""
        period = int(self.periods[j])
        pts = self.points.take(j)
        return OrbitRecord(
            self.params[j],
            tuple(pts.point(i) for i in range(period)),
            tuple(self.flights[:period, j].tolist()),
            tuple(self.curvatures[:period, j].tolist()),
            ScattererPose(self.pose.center[:, j], float(self.pose.radius[j])),
        )


def _phase_gap(a: PhaseColumns, b: PhaseColumns) -> np.ndarray:
    """Chart distance between two states of each column; inf where they lie
    on different walls."""
    ds = a.s - b.s
    ds = np.where(a.inner, ds, wrap_pi_columns(ds))
    gap = np.maximum(np.abs(ds), np.abs(a.theta - b.theta))
    return np.where(a.inner == b.inner, gap, math.inf)


def build_type_a(params):
    """Construct the polygon-with-scatterer orbit from its closed-form geometry.

    The n outer collisions sit at angles s0 + 2jk*pi/n with s0 = -pi + k*pi/n
    and reflection angle k*pi/n; the reversed path revisits them with angle
    pi - k*pi/n.  The scatterer is hit perpendicularly from both sides of its
    chord, at arc parameters pi + R*pi/2 and pi - R*pi/2.

    Given a non-empty list of tables, builds and ray-traces them all as one
    ``OrbitBatch``, whatever their (n, k); a table refused on the way (no
    pose, or no closure) carries its ``BilliardError`` in ``errors`` without
    stopping the others.  A single table is the batch of one: it returns an
    ``OrbitRecord`` and raises its refusal.
    """
    if not isinstance(params, TableParams):
        return _build_type_a(params)
    batch = _build_type_a([params])
    only_column(batch.periods, batch.errors)  # raises the refusal, if any
    return batch.orbit(0)


def _build_type_a(params: list[TableParams]) -> OrbitBatch:
    errors: list[BilliardError | None] = []
    centers = []
    groups: dict[tuple[int, int], list[int]] = {}
    for j, p in enumerate(params):
        groups.setdefault((p.n, p.k), []).append(j)
        try:
            if p.config is not TableConfig.TYPE_A:
                raise InvalidTableError("build_type_a needs a type (a) table")
            centers.append(scatterer_pose(p).center)
            errors.append(None)
        except BilliardError as exc:
            centers.append((math.nan, math.nan))
            errors.append(exc)
    R = np.array([p.R for p in params], dtype=float)
    delta = np.array([p.delta for p in params], dtype=float)
    periods = np.array([2 * p.n + 2 for p in params])
    shape = (int(periods.max()), len(params))
    inner, s, th, flights = (np.empty(shape, dtype=bool), np.empty(shape), np.empty(shape), np.empty(shape))
    for (n, k), cols in groups.items():
        cyclic = np.arange(shape[0]) % (2 * n + 2)
        for out, col in zip((inner, s, th, flights), _type_a_columns(n, k, R[cols], delta[cols])):
            out[:, cols] = col[cyclic]
    curv = np.where(inner, 1.0 / R, -1.0)
    pose = ScattererColumns(np.array(centers, dtype=float).T, R)
    batch = OrbitBatch(tuple(params), periods, PhaseColumns(inner, s, th), flights, curv, pose, tuple(errors))
    residuals, errors = verify_closure(batch)
    return replace(batch, errors=tuple(map(_closure_error, errors, residuals.tolist())))


def _type_a_columns(n: int, k: int, R: np.ndarray, delta: np.ndarray):
    """``inner``, ``s``, ``theta`` and flights of the (n, k) orbits with
    radii R and displacements delta, shape (2n+2, len(R))."""
    theta = k * math.pi / n
    s0 = -math.pi + theta
    outer = np.array([wrap_pi(s0 + 2.0 * j * theta) for j in range(n)])[:, None]
    shape = (2 * n + 2, R.size)
    inner = np.zeros(shape, dtype=bool)
    inner[[n, 2 * n + 1]] = True
    s = np.empty(shape)
    s[:n] = outer
    s[n] = math.pi + R * math.pi / 2.0
    s[n + 1 : 2 * n + 1] = outer[::-1]
    s[2 * n + 1] = math.pi - R * math.pi / 2.0
    th = np.empty(shape)
    th[:n] = theta
    th[n + 1 : 2 * n + 1] = math.pi - theta
    th[[n, 2 * n + 1]] = math.pi / 2.0
    flights = np.full(shape, 2.0 * math.sin(theta))
    flights[[n - 1, n]] = math.sin(theta) - R - delta
    flights[[2 * n, 2 * n + 1]] = math.sin(theta) - R + delta
    return inner, s, th, flights


def _closure_error(error: BilliardError | None, residual: float) -> BilliardError | None:
    """The refusal of an orbit: its tracer's, or a residual over ``CLOSURE_TOL``."""
    if error is None and residual > CLOSURE_TOL:
        return InvalidTableError(f"orbit closure residual {residual:.3g} exceeds {CLOSURE_TOL}")
    return error


def build_type_b(n: int, epsilon: float) -> OrbitRecord:
    """Construct the tangent-scatterer orbit with detuned angle pi/n + epsilon.

    Starts from the fixed point s0 = -pi + pi/n + epsilon*(1-n),
    theta0 = pi/n + epsilon and follows the Cartesian ray tracer for a full
    period, so every recorded flight and collision is dynamically generated.
    """
    params = TableParams.type_b(n, epsilon)
    pose = scatterer_pose(params)
    theta0 = params.theta0
    s0 = -math.pi + math.pi / n + epsilon * (1.0 - n)
    p = PhasePoint(Wall.OUTER, wrap_pi(s0), theta0)

    pts = [p]
    flights: list[float] = []
    for _ in range(2 * n + 2):
        res = generic_step(p, pose)
        flights.append(res.flight)
        pts.append(res.point)
        p = res.point
    gap = float(_phase_gap(PhaseColumns.of(pts[:1]), PhaseColumns.of(pts[-1:]))[0])
    if gap > CLOSURE_TOL:
        raise InvalidTableError(f"type (b) orbit did not close (residual {gap:.3g})")
    pts = pts[:-1]
    if abs(pts[n].theta - math.pi / 2.0) > 1e-10 or abs(
        pts[2 * n + 1].theta - math.pi / 2.0
    ) > 1e-10:
        raise InvalidTableError("scatterer hits are not perpendicular")

    curv = [-1.0 if q.wall is Wall.OUTER else 1.0 / params.R for q in pts]
    return OrbitRecord(params, tuple(pts), tuple(flights), tuple(curv), pose)


def verify_closure(orbit):
    """Residual of one full period of the Cartesian ray tracer.

    Returns the maximum chart distance between the stepped trajectory and the
    recorded points, including the return to points[0].

    For an ``OrbitBatch``, steps every column at once, one ``generic_step``
    per collision of the longest period, and returns the residuals (NaN
    where refused) beside the batch's ``errors`` with each tracer refusal
    added; a column the batch already refuses is not traced.  An
    ``OrbitRecord`` is the batch of one: it returns a float and raises its
    refusal.
    """
    if isinstance(orbit, OrbitBatch):
        return _residuals(orbit)
    return float(only_column(*_residuals(OrbitBatch.of(orbit))))


def _residuals(batch: OrbitBatch):
    residuals = np.full(len(batch.errors), math.nan)
    errors = list(batch.errors)
    live = np.flatnonzero([e is None for e in errors])
    pts = batch.points
    p = PhaseColumns(*(a[0, live] for a in pts))
    worst = np.zeros(live.size)
    for i in range(batch.period):
        going = batch.periods[live] > i
        if not going.all():
            # these columns are back at their first point
            residuals[live[~going]] = worst[~going]
            live, p, worst = live[going], p.take(going), worst[going]
        if not live.size:
            break
        res = generic_step(p, batch.pose.take(live))
        target = PhaseColumns(*(a[(i + 1) % batch.period, live] for a in pts))
        gap = _phase_gap(res.point, target)
        worst = np.where(gap > worst, gap, worst)
        p = res.point
        if res.errors.count(None) < live.size:
            ok = np.array([e is None for e in res.errors])
            for j in np.flatnonzero(~ok).tolist():
                errors[live[j]] = res.errors[j]
            live, p, worst = live[ok], p.take(ok), worst[ok]
    residuals[live] = worst
    return residuals, tuple(errors)
