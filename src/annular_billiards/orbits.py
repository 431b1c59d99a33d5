"""Construction and verification of the periodic orbits, and the Cartesian
ray tracer that checks them.

Both families close after 2n+2 collisions: n on the outer circle, one
perpendicular hit on the scatterer (index n), the n outer collisions of the
reversed path, and the second perpendicular hit (index 2n+1).

The ray tracer ``generic_step`` is independent of the closed-form map in
``billiard_map``: it works in the plane for any scatterer pose, and steps
one collision state, a ``PhasePoint`` of this module's chart, on Python
floats.  ``build_type_a`` builds an orbit from its closed-form geometry and
``verify_closure`` traces it for one period, in two halves that each
restart from the recorded outer state after a scatterer collision;
``build_type_b`` traces the period as it builds.  Either way the orbit
keeps its closure residual.  The step and ``build_type_a`` check each
reflection angle where it is computed, so they build their ``PhasePoint``s
as plain tuples, without the constructor's second check;
``linear_stability.monodromy`` then forms each distinct bounce once.

Every table of one (n, k) shares its polygon's outer collisions and the
opening of each half period: until the ray reaches the scatterer's chord,
the orbit runs as in the empty disk.  ``build_type_a`` keeps the outer
points of the last (n, k) it built (``_polygon``), and ``verify_closure``
reads those opening steps from the empty-disk chains of the last two
half-period starts (``_disk_chain``), testing each against the table's own
scatterer; the four steps from the scatterer's chord through the scatterer
and off it are ``generic_step``s.  A stability scan builds every table of
one (n, k) in a row, and ``orbit`` builds one table, so one polygon and two
chains serve them.
"""

from __future__ import annotations

import enum
import warnings
from functools import lru_cache
from math import atan2, cos, inf, nan, pi, sin, sqrt
from typing import NamedTuple

from .errors import DomainError, GrazingError, InvalidTableError, NoCollisionError, TangencyWarning
from .geometry import ScattererPose, TableParams, scatterer_pose

#: maximum closure residual accepted when a constructed orbit is validated
CLOSURE_TOL = 1e-9

#: minimum advance along a ray before a new intersection counts
MIN_FLIGHT = 1e-12


# ---------------------------------------------------------------------------
# the collision chart (conventions in ``billiard_map``)
# ---------------------------------------------------------------------------


class Wall(enum.Enum):
    OUTER = "outer"
    INNER = "inner"


class _PhaseFields(NamedTuple):
    wall: Wall
    s: float
    theta: float


class PhasePoint(_PhaseFields):
    """Collision state (wall, arc length, reflection angle); construction
    (``_replace`` too) checks the angle."""

    __slots__ = ()

    def __new__(cls, wall: Wall, s: float, theta: float):
        if not 0.0 < theta < pi:
            raise DomainError(f"reflection angle must lie in (0, pi), got {theta}")
        return tuple.__new__(cls, (wall, s, theta))

    @classmethod
    def _make(cls, iterable) -> "PhasePoint":
        return cls(*iterable)


def wrap_pi(x: float) -> float:
    """Reduce an angle to [-pi, pi); exact when already in range."""
    if -pi <= x < pi:
        return x
    return (x + pi) % (2.0 * pi) - pi


def reflection(p: PhasePoint) -> PhasePoint:
    """Mirror symmetry about the x-axis.

    On the outer wall this is (s, theta) -> (-s, pi - theta); in Birkhoff
    coordinates (s, r) -> (-s, -r).  On the scatterer the mirrored arc
    length is 2*pi - s (the chart is centered on s = pi, not s = 0).
    """
    if p.wall is Wall.OUTER:
        return PhasePoint(Wall.OUTER, wrap_pi(-p.s), pi - p.theta)
    return PhasePoint(Wall.INNER, 2.0 * pi - p.s, pi - p.theta)

# the walls as module globals: looking up an enum member on its class costs
# about ten times as much, and the ray tracer reads one on every step
OUTER, INNER = Wall.OUTER, Wall.INNER

# builds a record from a tuple of already-checked fields, skipping its
# ``__new__``
_new = tuple.__new__


# ---------------------------------------------------------------------------
# Cartesian resolution and the generic ray-tracing oracle
# ---------------------------------------------------------------------------


class StepResult(NamedTuple):
    point: PhasePoint
    flight: float


def phase_to_cartesian(p: PhasePoint, pose: ScattererPose | None) -> tuple[float, float, float, float]:
    """Collision point and outgoing unit velocity ``(px, py, vx, vy)`` of a
    phase state; ``pose`` may be None for an outer-wall state."""
    wall, s, theta = p
    if wall is OUTER:
        # tangent (-sin s, cos s); direction = cos(theta)*t + sin(theta)*(-normal)
        ang = s + theta
        return cos(s), sin(s), -sin(ang), cos(ang)
    if pose is None:
        raise DomainError("inner-wall state needs a scatterer pose")
    (cx, cy), R = pose
    gamma = pi - (s - pi) / R
    # positively oriented (clockwise) tangent (sin g, -cos g), outward normal (cos g, sin g)
    ang = gamma + theta
    return cx + R * cos(gamma), cy + R * sin(gamma), sin(ang), -cos(ang)


def _ray_circle_time(px, py, vx, vy, cx, cy, radius) -> float:
    """First intersection time beyond ``MIN_FLIGHT`` of the ray
    (px, py) + t*(vx, vy) with a circle, or inf where there is none.

    A grazing contact away from the launch wall is skipped with a
    ``TangencyWarning``.
    """
    dx = px - cx
    dy = py - cy
    b = vx * dx + vy * dy
    c = (dx * dx + dy * dy) - radius * radius
    disc = b * b - c
    if disc < 1e-14:
        if disc < 0.0:
            return inf
        if c > MIN_FLIGHT:
            # a grazing contact away from the launch wall carries no momentum change
            warnings.warn("tangential ray-circle contact skipped", TangencyWarning)
            return inf
    sq = sqrt(disc)
    t = -b - sq
    if t > MIN_FLIGHT:
        return t
    t = -b + sq
    return t if t > MIN_FLIGHT else inf


def generic_step(p: PhasePoint, pose: ScattererPose | None) -> StepResult:
    """One collision-to-collision step by Cartesian ray tracing.

    Independent of the closed-form maps: launches the ray, intersects both
    circles, takes the earliest transversal hit (the outer wall on a tie),
    reflects specularly, and rebuilds the (wall, s, theta) chart at the new
    collision.  A ray that escapes both walls raises ``NoCollisionError``,
    a degenerate reflection ``GrazingError``.
    """
    px, py, vx, vy = phase_to_cartesian(p, pose)
    t = _ray_circle_time(px, py, vx, vy, 0.0, 0.0, 1.0)
    inner = False
    if pose is not None:
        (cx, cy), R = pose
        t_in = _ray_circle_time(px, py, vx, vy, cx, cy, R)
        if t_in < t:
            t, inner = t_in, True
    if t == inf:
        raise NoCollisionError("ray escapes both walls")
    hx = px + t * vx
    hy = py + t * vy
    # inward normal of the unit circle, or the scatterer normal pointing
    # into the billiard domain; the tangent is (ny, -nx) on both walls
    if inner:
        nx = (hx - cx) / R
        ny = (hy - cy) / R
        s1 = pi + R * (pi - atan2(ny, nx) % (2.0 * pi))
    else:
        nx, ny = -hx, -hy
        s1 = atan2(hy, hx)
    k = 2.0 * (vx * nx + vy * ny)
    wx = vx - k * nx
    wy = vy - k * ny
    theta1 = atan2(wx * nx + wy * ny, wx * ny + wy * -nx)
    if not 0.0 < theta1 < pi:
        raise GrazingError(f"degenerate reflection angle {theta1!r}")
    # the check above is the one ``PhasePoint`` makes, so both records are
    # built as plain tuples
    return _new(StepResult, (_new(PhasePoint, (INNER if inner else OUTER, s1, theta1)), t))


# ---------------------------------------------------------------------------
# periodic orbits
# ---------------------------------------------------------------------------


class OrbitRecord(NamedTuple):
    """A periodic orbit as an explicit collision sequence.

    points[i] is the i-th collision state, flights[i] the free flight from
    points[i] to points[i+1] (cyclically), and curvatures[i] the signed wall
    curvature at points[i] (-1 on the outer circle, +1/R on the scatterer).
    closure_residual is the ray tracer's closure residual over one period,
    recorded when the orbit is built (``verify_closure``).
    """

    params: TableParams
    points: tuple[PhasePoint, ...]
    flights: tuple[float, ...]
    curvatures: tuple[float, ...]
    pose: ScattererPose
    closure_residual: float

    @property
    def period(self) -> int:
        return len(self.points)

    def cartesian_points(self) -> list[tuple[float, float]]:
        """Collision points in the plane, 2n+2 (x, y) pairs."""
        return [phase_to_cartesian(p, self.pose)[:2] for p in self.points]

    def polyline(self) -> list[tuple[float, float]]:
        """Closed polygonal trajectory for rendering, 2n+3 (x, y) pairs."""
        pts = self.cartesian_points()
        return pts + pts[:1]

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "n": self.params.n,
                "k": self.params.k,
                "R": self.params.R,
                "delta": self.params.delta,
                "epsilon": self.params.epsilon,
                "config": "type_b" if self.params.epsilon > 0.0 else "type_a",
            },
            "points": [
                {"wall": p.wall.value, "s": p.s, "theta": p.theta}
                for p in self.points
            ],
            "flights": list(self.flights),
            "curvatures": list(self.curvatures),
            "closure_residual": self.closure_residual,
        }


def _residual(traced, recorded) -> float:
    """The largest chart distance between paired traced and recorded states:
    inf on different walls or a NaN arc, and an outer arc difference wrapped
    to [-pi, pi)."""
    worst = 0.0
    for (wall, s, theta), (wall_b, s_b, theta_b) in zip(traced, recorded):
        if wall is not wall_b:
            gap = inf
        else:
            ds = s - s_b
            if wall is OUTER and not -pi <= ds < pi:
                ds = wrap_pi(ds)
            ds = abs(ds)
            gap = abs(theta - theta_b)
            if not gap > ds:  # max(ds, gap): the arc where the angle is NaN
                gap = ds
            if gap != gap:  # a NaN arc fails the check, as a wall mismatch does
                gap = inf
        if gap > worst:
            worst = gap
    return worst


@lru_cache(maxsize=1)
def _polygon(n: int, k: int) -> tuple[tuple[PhasePoint, ...], tuple[PhasePoint, ...]]:
    """The n outer collisions of the (n, k) polygon orbit, forward with
    reflection angle k*pi/n and reversed with pi - k*pi/n.  They do not
    depend on the scatterer, so every table of one (n, k) shares them."""
    theta = k * pi / n
    back = pi - theta
    # every point repeats one of these angles: check them once and build the
    # points as plain tuples
    PhasePoint(OUTER, 0.0, theta)
    PhasePoint(OUTER, 0.0, back)
    s0 = -pi + theta
    arcs = [wrap_pi(s0 + 2.0 * j * theta) for j in range(n)]
    return (
        tuple([_new(PhasePoint, (OUTER, s, theta)) for s in arcs]),
        tuple([_new(PhasePoint, (OUTER, s, back)) for s in reversed(arcs)]),
    )


def build_type_a(params: TableParams) -> OrbitRecord:
    """Construct the polygon-with-scatterer orbit from its closed-form geometry.

    The n outer collisions sit at angles s0 + 2jk*pi/n with s0 = -pi + k*pi/n
    and reflection angle k*pi/n; the reversed path revisits them with angle
    pi - k*pi/n.  The scatterer is hit perpendicularly from both sides of its
    chord, at arc parameters pi + R*pi/2 and pi - R*pi/2.

    The orbit is ray-traced for one period (``verify_closure``), and refused
    with ``InvalidTableError`` if it does not close to ``CLOSURE_TOL``.
    """
    if params.epsilon > 0.0:
        raise InvalidTableError("build_type_a needs a type (a) table")
    pose = scatterer_pose(params)
    n, k, R, delta = params.n, params.k, params.R, params.delta
    forward, reverse = _polygon(n, k)
    half = pi / 2.0
    points = (
        *forward,
        _new(PhasePoint, (INNER, pi + R * pi / 2.0, half)),
        *reverse,
        _new(PhasePoint, (INNER, pi - R * pi / 2.0, half)),
    )
    theta = k * pi / n
    side = 2.0 * sin(theta)
    near = sin(theta) - R - delta
    far = sin(theta) - R + delta
    flights = (side,) * (n - 1) + (near, near) + (side,) * (n - 1) + (far, far)
    kappa = 1.0 / R
    curvatures = (-1.0,) * n + (kappa,) + (-1.0,) * n + (kappa,)
    orbit = OrbitRecord(params, points, flights, curvatures, pose, nan)
    residual = verify_closure(orbit)
    if residual > CLOSURE_TOL:
        raise InvalidTableError(f"orbit closure residual {residual:.3g} exceeds {CLOSURE_TOL}")
    return orbit._replace(closure_residual=residual)


def build_type_b(n: int, epsilon: float) -> OrbitRecord:
    """Construct the tangent-scatterer orbit with detuned angle pi/n + epsilon.

    Starts from the fixed point s0 = -pi + pi/n + epsilon*(1-n),
    theta0 = pi/n + epsilon and follows the Cartesian ray tracer for a full
    period, so every recorded flight and collision is dynamically generated.
    """
    params = TableParams.type_b(n, epsilon)
    pose = scatterer_pose(params)
    theta0 = pi / n + epsilon
    s0 = -pi + pi / n + epsilon * (1.0 - n)
    p = PhasePoint(OUTER, wrap_pi(s0), theta0)

    pts = [p]
    flights: list[float] = []
    for _ in range(2 * n + 2):
        res = generic_step(p, pose)
        flights.append(res.flight)
        pts.append(res.point)
        p = res.point
    # the return's chart distance, as ``verify_closure`` measures it: every
    # earlier step retraces a recorded point exactly
    gap = _residual(pts[-1:], pts[:1])
    if gap > CLOSURE_TOL:
        raise InvalidTableError(f"type (b) orbit did not close (residual {gap:.3g})")
    pts = pts[:-1]
    if abs(pts[n].theta - pi / 2.0) > 1e-10 or abs(
        pts[2 * n + 1].theta - pi / 2.0
    ) > 1e-10:
        raise InvalidTableError("scatterer hits are not perpendicular")

    curv = [-1.0 if q.wall is OUTER else 1.0 / params.R for q in pts]
    return OrbitRecord(params, tuple(pts), tuple(flights), tuple(curv), pose, gap)


@lru_cache(maxsize=2)
def _disk_chain(start: PhasePoint, steps: int) -> tuple[tuple, ...]:
    """Up to ``steps`` ray-tracing steps from an outer-wall state in the
    empty disk, one ``(px, py, vx, vy, flight, state)`` per step: the launch
    ray as ``phase_to_cartesian`` gives it, the flight to the outer wall and
    the state reached.

    Ends early at a non-outer state or at a step the tracer refuses.
    """
    chain = []
    p = start
    while len(chain) < steps and p[0] is OUTER:
        try:
            q, flight = generic_step(p, None)
        except (GrazingError, NoCollisionError):
            break
        chain.append((*phase_to_cartesian(p, None), flight, q))
        p = q
    return tuple(chain)


def verify_closure(orbit: OrbitRecord) -> float:
    """Residual of one full period of the Cartesian ray tracer, traced in two
    halves.

    Each half starts from a recorded outer state that follows a scatterer
    collision, points[0] and points[n+1], and steps n + 1 times, through
    the scatterer and off it.  The residual is the maximum chart distance
    between the stepped states and the recorded ones they predict:
    points[1] to points[n+1], then points[n+2] to points[2n+1] and the
    return to points[0].  So every recorded state is compared, and
    rounding does not compound from one scatterer bounce into the next.  A
    step that the tracer refuses raises its ``BilliardError``.

    The opening steps of each half are read from the empty-disk chain of
    its start (``_disk_chain``), which every type (a) orbit of one (n, k)
    shares.  Each is kept only while the orbit's own scatterer, tested on
    that step's ray with the call ``generic_step`` makes, is not hit before
    the outer wall: then it is the step ``generic_step`` takes, bit for
    bit, grazing warning included.  From the first step the scatterer
    intercepts on, ``generic_step`` traces the rest of the half.
    """
    points, pose = orbit.points, orbit.pose
    (cx, cy), R = pose
    period = len(points)
    half = period // 2
    step = generic_step  # bound from the module global, so a patch of it sees every step
    traced = []
    for first, end in ((0, half), (half, period)):
        start = points[first]
        _, s, theta = start
        # a cache key compares floats by value: 0.0 == -0.0 and nan != nan,
        # so such starts are traced afresh
        if 0.0 != s == s and 0.0 != theta == theta:
            chain = _disk_chain(start, half - 1)
        else:
            chain = _disk_chain.__wrapped__(start, half - 1)
        p = start
        for px, py, vx, vy, flight, q in chain:
            if _ray_circle_time(px, py, vx, vy, cx, cy, R) < flight:
                break
            traced.append(q)
            p = q
        for _ in range(end - len(traced)):
            p = step(p, pose)[0]
            traced.append(p)
    return _residual(traced, points[1:] + points[:1])
