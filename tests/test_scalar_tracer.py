"""The scalar ray tracer, closure check and monodromy against the
references they must agree with.

The tracer's reference is the plain-float route, kept inline:
``_scalar_step`` is a ray-tracing step and ``_scalar_closure`` the closure
check, which traces each half period step by step from its recorded start.
Every step, residual, refusal and ``TangencyWarning`` count must come out
with the same bits and the same text either way, whether ``verify_closure``
reads its opening steps from a cold or a warm empty-disk chain cache.  The
monodromy's reference is NumPy's stacked product, ``_stacked_monodromy``:
the float product rounds apart from it, so a ``stability`` row's
``trace_numeric`` must agree with it to 1e-13 relative, and its
``skip_reason`` exactly.
"""

import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from annular_billiards import cli, orbits
from annular_billiards.errors import (
    BilliardError,
    GrazingError,
    InvalidTableError,
    NoCollisionError,
    TangencyWarning,
)
from annular_billiards.geometry import ScattererPose, TableConfig, TableParams, max_radius, scatterer_pose
from annular_billiards.linear_stability import classify, monodromy, trace_closed_form
from annular_billiards.orbits import (
    CLOSURE_TOL,
    MIN_FLIGHT,
    PhasePoint,
    Wall,
    build_type_a,
    build_type_b,
    generic_step,
    verify_closure,
    wrap_pi,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: relative agreement of the float monodromy's trace with NumPy's
TRACE_RTOL = 1e-13


# ---------------------------------------------------------------------------
# the references: the plain-float tracer and NumPy's stacked monodromy
# ---------------------------------------------------------------------------


def _scalar_cartesian(p, pose):
    if p.wall is Wall.OUTER:
        ang = p.s + p.theta
        return (math.cos(p.s), math.sin(p.s)), (-math.sin(ang), math.cos(ang))
    R = pose.radius
    cx, cy = pose.center
    gamma = math.pi - (p.s - math.pi) / R
    ang = gamma + p.theta
    return (cx + R * math.cos(gamma), cy + R * math.sin(gamma)), (math.sin(ang), -math.cos(ang))


def _scalar_times(pos, vel, center, radius):
    dx = pos[0] - center[0]
    dy = pos[1] - center[1]
    b = vel[0] * dx + vel[1] * dy
    c = (dx * dx + dy * dy) - radius * radius
    disc = b * b - c
    if disc < 0.0:
        return []
    if disc < 1e-14 and c > MIN_FLIGHT:
        warnings.warn("tangential ray-circle contact skipped", TangencyWarning)
        return []
    sq = math.sqrt(disc)
    return [t for t in (-b - sq, -b + sq) if t > MIN_FLIGHT]


def _scalar_step(p, pose):
    pos, vel = _scalar_cartesian(p, pose)
    (px, py), (vx, vy) = pos, vel
    times = _scalar_times(pos, vel, (0.0, 0.0), 1.0)
    t, wall = (times[0], Wall.OUTER) if times else (math.inf, None)
    if pose is not None:
        R = pose.radius
        cx, cy = center = pose.center
        times = _scalar_times(pos, vel, center, R)
        if times and times[0] < t:
            t, wall = times[0], Wall.INNER
    if wall is None:
        raise NoCollisionError("ray escapes both walls")
    hx = px + t * vx
    hy = py + t * vy
    if wall is Wall.OUTER:
        s1 = math.atan2(hy, hx)
        nx, ny = -hx, -hy
        tx, ty = -hy, hx
    else:
        nx = (hx - cx) / R
        ny = (hy - cy) / R
        gamma = math.atan2(ny, nx) % (2.0 * math.pi)
        s1 = math.pi + R * (math.pi - gamma)
        tx, ty = ny, -nx
    k = 2.0 * (vx * nx + vy * ny)
    wx = vx - k * nx
    wy = vy - k * ny
    theta1 = math.atan2(wx * nx + wy * ny, wx * tx + wy * ty)
    if not 0.0 < theta1 < math.pi:
        raise GrazingError(f"degenerate reflection angle {theta1!r}")
    return PhasePoint(wall, s1, theta1), t


def _scalar_gap(a, b):
    if a.wall is not b.wall:
        return math.inf
    ds = wrap_pi(a.s - b.s) if a.wall is Wall.OUTER else a.s - b.s
    gap = max(abs(ds), abs(a.theta - b.theta))
    return math.inf if math.isnan(gap) else gap


def _scalar_closure(orbit):
    # two half periods, each stepped from its recorded start: points[0] and
    # the outer state after the first scatterer collision, points[n+1]
    m = len(orbit.points)
    worst = 0.0
    for first, end in ((0, m // 2), (m // 2, m)):
        p = orbit.points[first]
        for i in range(first, end):
            p, _ = _scalar_step(p, orbit.pose)
            worst = max(worst, _scalar_gap(p, orbit.points[(i + 1) % m]))
    return worst


def _scalar_orbit(params):
    """The closed-form type (a) orbit of ``params``, built point by point
    through ``PhasePoint``."""
    if params.config is not TableConfig.TYPE_A:
        raise InvalidTableError("build_type_a needs a type (a) table")
    n, k, R, delta = params.n, params.k, params.R, params.delta
    pose = scatterer_pose(params)
    theta = k * math.pi / n
    s0 = -math.pi + theta
    outer = [wrap_pi(s0 + 2.0 * j * theta) for j in range(n)]
    pts = [PhasePoint(Wall.OUTER, a, theta) for a in outer]
    pts.append(PhasePoint(Wall.INNER, math.pi + R * math.pi / 2.0, math.pi / 2.0))
    pts += [PhasePoint(Wall.OUTER, outer[n - 1 - j], math.pi - theta) for j in range(n)]
    pts.append(PhasePoint(Wall.INNER, math.pi - R * math.pi / 2.0, math.pi / 2.0))
    side = 2.0 * math.sin(theta)
    near = math.sin(theta) - R - delta
    far = math.sin(theta) - R + delta
    flights = [side] * (n - 1) + [near, near] + [side] * (n - 1) + [far, far]
    curv = [-1.0 if p.wall is Wall.OUTER else 1.0 / R for p in pts]
    return _Orbit(tuple(pts), tuple(flights), tuple(curv), pose)


def _scalar_type_a(params):
    """``build_type_a`` on the references: closed-form orbit, then the
    closure check."""
    orbit = _scalar_orbit(params)
    res = _scalar_closure(orbit)
    if res > CLOSURE_TOL:
        raise InvalidTableError(f"orbit closure residual {res:.3g} exceeds {CLOSURE_TOL}")
    return orbit


class _Orbit:
    def __init__(self, points, flights, curvatures, pose):
        self.points, self.flights, self.curvatures, self.pose = points, flights, curvatures, pose


def _stacked_monodromy(orbit):
    """NumPy's monodromy: every bounce matrix from one stacked evaluation,
    multiplied in orbit order with a stacked ``@``; the first grazing bounce
    refuses the orbit."""
    theta = np.array([p.theta for p in orbit.points])
    kappa = np.array(orbit.curvatures)
    tau = np.array(orbit.flights)
    kappa1 = np.roll(kappa, -1)
    st, st1 = np.sin(theta), np.sin(np.roll(theta, -1))
    grazing = np.flatnonzero(np.abs(st1) < 1e-12)
    if grazing.size:
        raise GrazingError(f"sin(theta1) = {float(st1[grazing[0]])!r} too close to zero")
    entries = -np.array(
        [
            (tau * kappa + st) / st1,
            tau / st1,
            (tau * kappa * kappa1 + kappa1 * st) / st1 + kappa,
            tau * kappa1 / st1 + 1.0,
        ]
    )
    M = np.eye(2)[None]
    for J in entries.T.reshape(-1, 1, 2, 2):
        M = J @ M
    return M[0]


def _close(M, want):
    """Whether the float monodromy M agrees with NumPy's to ``TRACE_RTOL``
    of its largest entry, and its trace to ``TRACE_RTOL`` relative."""
    M = np.array(M)
    return (
        np.abs(M - want).max() <= TRACE_RTOL * np.abs(want).max()
        and abs(np.trace(M) - np.trace(want)) <= TRACE_RTOL * abs(np.trace(want))
    )


def _scalar_row(n, k, R, delta):
    """(trace_numeric, skip_reason) of one stability row by the references."""
    try:
        orbit = _scalar_type_a(TableParams.type_a(n, k, R, delta))
        closed = trace_closed_form(n, k, R, delta)
        numeric = float(np.trace(_stacked_monodromy(orbit)))
        classify(closed)
        return numeric, ""
    except BilliardError as exc:
        return "", f"{type(exc).__name__}: {exc}"


def _outcome(fn, *args):
    """The result of ``fn``, or the type and text of the error that refused it."""
    try:
        return fn(*args)
    except BilliardError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# stability rows
# ---------------------------------------------------------------------------


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _scan_requests(seed):
    return [list(r.argv) for r in _workloads().requests_for("stability-scan", seed)]


def _pose_grid():
    """Consecutive radii just below cap + GEOM_TOL at n = 5, k = 1: the
    first pass every check, the next few pass the table check and are
    refused by ``scatterer_pose`` alone, the rest by the table check."""
    rs = []
    for delta in (0.0, 0.01, 0.02):
        R = max_radius(5, 1, delta) + 0.9997e-12
        for _ in range(16):
            R = math.nextafter(R, 1.0)
            rs.append(R)
    return ["stability", "--n", "5", "--k", "1", "--delta", "0,0.01,0.02", "--R", ",".join(map(repr, rs))]


#: the n = 53, k = 6 grid: delta from 0 to half its cap, 25 default radii each
_CAP_53_6 = math.cos(6 * math.pi / 53) * math.tan(math.pi / 53)
GRIDS = {
    **{f"seed7_{i}": argv for i, argv in enumerate(_scan_requests(7))},
    "n53_k6": ["stability", "--n", "53", "--k", "6", "--delta", f"0:{0.5 * _CAP_53_6!r}:8"],
    "n4_k1_residual": ["stability", "--n", "4", "--k", "1", "--R", "0.003", "--delta", "0.5"],
    "pose": _pose_grid(),
    # one batch of many periods, with inadmissible (n, k) pairs among them
    "mixed_periods": ["stability", "--n", "3:40:38", "--k", "1,2,3", "--delta", "0,0.01", "--R", "0.004,0.01"],
    "mixed_default_radii": ["stability", "--n", "4,5,7,12,21", "--k", "1,2,4", "--delta", "0.005"],
}


def _counted(fn, *args):
    """The result of ``fn`` and the number of ``TangencyWarning``s it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, sum(issubclass(w.category, TangencyWarning) for w in caught)


def _rows(argv, tmp_path):
    out = tmp_path / "rows.json"
    assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())["rows"]


def _reference_rows(rows):
    """(trace_numeric, skip_reason) of each row by the references."""
    out = []
    for row in rows:
        if row["R"] == "":
            # no radius grid: max_radius refused this (n, k, delta)
            error, text = _outcome(max_radius, row["n"], row["k"], row["delta"])
            out.append(("", f"{error.__name__}: {text}"))
        else:
            out.append(_scalar_row(row["n"], row["k"], row["R"], row["delta"]))
    return out


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_stability_rows_match_the_scalar_route(grid, tmp_path):
    rows, warned = _counted(_rows, GRIDS[grid], tmp_path)
    want, want_warned = _counted(_reference_rows, rows)
    assert warned == want_warned
    reasons = []
    for row, (numeric, reason) in zip(rows, want, strict=True):
        assert row["skip_reason"] == reason, row
        if reason:
            assert row["trace_numeric"] == "", row
        else:
            assert abs(row["trace_numeric"] - numeric) <= TRACE_RTOL * abs(numeric), row
        reasons.append(reason)
    # each grid reaches the refusals it is here for; the closure check
    # refuses none of the hyperbolic tables that a residual compounded over
    # the whole period used to refuse
    closure = sum("closure residual" in r for r in reasons)
    if grid == "n53_k6":
        assert len(rows) == 200 and closure == 0
    if grid == "n4_k1_residual":
        assert reasons == [""] and rows[0]["classification"] == "hyperbolic"
    if grid.startswith("mixed"):
        assert len({(r["n"], r["k"]) for r, why in zip(rows, reasons) if not why}) > 4
        assert any(why.startswith(("InvalidTableError: need 1 <= k", "DomainError: need n >= 5")) for why in reasons)
    if grid == "pose":
        assert any("pokes out" in r for r in reasons)
        assert any("exceeds the admissible maximum" in r for r in reasons)
        assert any(r == "" for r in reasons)


# ---------------------------------------------------------------------------
# orbits and single steps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 11))
def test_type_b_orbit_matches_the_scalar_route(n):
    from annular_billiards.linear_stability import epsilon_star

    eps = 0.3 * epsilon_star(n)
    orbit = build_type_b(n, eps)
    p = orbit.points[0]
    for i in range(orbit.period):
        q, flight = _scalar_step(p, orbit.pose)
        assert flight == orbit.flights[i]
        if i + 1 < orbit.period:
            assert q == orbit.points[i + 1]
        p = q
    assert verify_closure(orbit) == _scalar_closure(orbit)
    assert _close(monodromy(orbit), _stacked_monodromy(orbit))


def _grazing_state(pose, s):
    """An outer-wall state at arc length s whose ray passes the scatterer at
    distance sqrt(R^2 - 5e-15), a skipped grazing contact."""
    R = pose.radius
    cx, cy = pose.center
    dx, dy = cx - math.cos(s), cy - math.sin(s)
    off = math.asin(math.sqrt(R * R - 5e-15) / math.hypot(dx, dy))
    theta = math.atan2(dy, dx) + off - s - math.pi / 2.0
    return PhasePoint(Wall.OUTER, s, theta % (2.0 * math.pi))


def _states(pose, rng, count):
    """Outer and inner states: ordinary, near-tangent launches (some refused
    with NoCollisionError or GrazingError) and grazing contacts."""
    R = pose.radius
    tiny = 10.0 ** rng.uniform(-15.0, -6.0, count)
    theta = np.where(rng.random(count) < 0.5, tiny, math.pi - tiny)
    theta[: count // 2] = rng.uniform(1e-3, math.pi - 1e-3, count // 2)
    outer = [PhasePoint(Wall.OUTER, s, t) for s, t in zip(rng.uniform(-math.pi, math.pi, count).tolist(), theta.tolist())]
    g = rng.uniform(0.0, 2.0 * math.pi, count)
    inner = [PhasePoint(Wall.INNER, math.pi + R * (math.pi - a), t) for a, t in zip(g.tolist(), theta.tolist())]
    return outer + inner + [_grazing_state(pose, s) for s in (0.9, 1.0, 1.1)]


def test_step_matches_the_scalar_step_state_by_state():
    rng = np.random.default_rng(5)
    seen = set()
    warnings_seen = 0
    for orbit in (build_type_b(4, 0.01), build_type_a(TableParams.type_a(5, 1, 0.15, 0.02))):
        for p in _states(orbit.pose, rng, 300) + list(orbit.points):
            got, warned = _counted(_outcome, generic_step, p, orbit.pose)
            want, want_warned = _counted(_outcome, _scalar_step, p, orbit.pose)
            assert warned == want_warned, p
            warnings_seen += warned
            if isinstance(want[0], type):
                assert got == want, p
                seen.add(want[0])
                continue
            assert (got.point, got.flight) == want, p
            seen.add(want[0].wall)
    assert warnings_seen >= 6
    assert seen == {NoCollisionError, GrazingError, Wall.OUTER, Wall.INNER}


def test_a_grazing_contact_warns_once_per_step():
    orbit = build_type_b(4, 0.01)
    for s in (0.9, 1.0, 1.1):
        p = _grazing_state(orbit.pose, s)
        got, warned = _counted(_outcome, generic_step, p, orbit.pose)
        want, want_warned = _counted(_outcome, _scalar_step, p, orbit.pose)
        assert warned == want_warned == 1
        assert (got.point, got.flight) == want


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------


def _kicked(orbit, theta):
    """``orbit`` with its first state's reflection angle set to ``theta``."""
    return orbit._replace(points=(orbit.points[0]._replace(theta=theta),) + orbit.points[1:])


def test_closure_refuses_as_the_scalar_route_does():
    orbits = [build_type_a(TableParams.type_a(5, 1, R, 0.02)) for R in np.linspace(0.05, 0.15, 12).tolist()]
    # knock the start state off the orbit: small kicks leave a finite
    # residual, larger ones miss the scatterer (a wrong wall, then further
    # steps), and a launch almost along the wall finds no wall
    kicks = [0.0, 1e-9, 1e-6, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.4, -0.2, -0.4]
    kicked = [_kicked(o, o.points[0].theta + kick) for o, kick in zip(orbits, kicks)]
    kicked.append(_kicked(orbits[-1], 1e-13))
    got, warned = _counted(lambda: [_outcome(verify_closure, o) for o in kicked])
    want, want_warned = _counted(lambda: [_outcome(_scalar_closure, o) for o in kicked])
    assert warned == want_warned
    assert got == want
    assert math.inf in got and any(0.0 < g < math.inf for g in want if not isinstance(g, tuple))
    assert (NoCollisionError, "ray escapes both walls") in want


def test_monodromy_refuses_a_grazing_bounce_as_numpy_does():
    orbits = [build_type_a(TableParams.type_a(7, 2, R, 0.0)) for R in (0.02, 0.03, 0.04)]
    points = list(orbits[1].points)
    points[5] = points[5]._replace(theta=1e-13)
    orbits[1] = orbits[1]._replace(points=tuple(points))
    for j, orbit in enumerate(orbits):
        got, want = _outcome(monodromy, orbit), _outcome(_stacked_monodromy, orbit)
        if j == 1:
            assert got == want == (GrazingError, "sin(theta1) = 1e-13 too close to zero")
        else:
            assert _close(got, want)


def test_orbits_of_many_periods_match_the_scalar_route():
    tables = [
        TableParams.type_a(n, k, f * max_radius(n, k, delta), delta)
        for n, k, delta, f in [(5, 2, 0.01, 0.5), (3, 1, 0.0, 0.3), (21, 4, 0.02, 0.7), (4, 1, 0.03, 0.9), (5, 1, 0.0, 0.2)]
    ]
    for table in tables:
        orbit, alone = build_type_a(table), _scalar_type_a(table)
        assert orbit.period == 2 * table.n + 2
        assert (orbit.points, orbit.flights, orbit.curvatures) == (alone.points, alone.flights, alone.curvatures)
        assert orbit.pose == alone.pose
        assert verify_closure(orbit) == _scalar_closure(alone)
        assert _close(monodromy(orbit), _stacked_monodromy(alone))


# ---------------------------------------------------------------------------
# the shared empty-disk prefix of the closure check
# ---------------------------------------------------------------------------


def _bits(outcome):
    """A closure outcome with a residual's exact bits."""
    return outcome.hex() if isinstance(outcome, float) else outcome


def _assert_closures_match(orbit_list):
    """``verify_closure`` gives each orbit the reference's residual bits or
    refusal, and its ``TangencyWarning`` count, on a cold chain cache and
    again on a warm one; returns the reference outcomes and counts."""
    want = [_counted(_outcome, _scalar_closure, o) for o in orbit_list]
    cold = []
    for o in orbit_list:
        orbits._disk_chain.cache_clear()
        cold.append(_counted(_outcome, verify_closure, o))
    warm = [_counted(_outcome, verify_closure, o) for o in orbit_list]
    for got in (cold, warm):
        assert [(_bits(r), w) for r, w in got] == [(_bits(r), w) for r, w in want]
    return want


def test_shared_prefix_matches_the_scalar_closure_on_the_benchmark_cases():
    wl = _workloads()
    rng = np.random.default_rng(21)
    tables = []
    for n, k in wl.STABILITY_CASES:
        for f in rng.uniform(0.0, 0.5, 6).tolist():
            delta = f * wl.delta_cap(n, k)
            R = 10.0 ** rng.uniform(-2.0, -0.01) * wl.radius_cap(n, k, delta)
            tables.append(TableParams.type_a(n, k, R, delta))
    sample = [_scalar_orbit(t) for t in tables]
    # every table passes; copies with a start kicked off the orbit reach the
    # refusals, so the sample sees both verdicts of the closure check
    kicked = [
        _Orbit((o.points[0]._replace(theta=o.points[0].theta + 1e-8),) + o.points[1:], o.flights, o.curvatures, o.pose)
        for o in sample[::6]
    ]
    want = _assert_closures_match(sample + kicked)
    assert all(r <= CLOSURE_TOL for r, _ in want[: len(sample)])
    assert all(CLOSURE_TOL < r < math.inf for r, _ in want[len(sample) :])
    # the built orbits, from cold and warm polygon caches, are the reference's
    orbits._polygon.cache_clear()
    for _ in range(2):
        for t in tables:
            got, alone = _outcome(build_type_a, t), _scalar_orbit(t)
            if isinstance(got, orbits.OrbitRecord):
                assert (got.points, got.flights, got.curvatures, got.pose) == (
                    alone.points, alone.flights, alone.curvatures, alone.pose,
                )
                assert got.closure_residual.hex() == _scalar_closure(alone).hex()
            else:
                assert got == _outcome(_scalar_type_a, t)


def _moved(orbit, j, offset, R):
    """``orbit`` with a scatterer of radius R centred ``offset`` off the
    middle of chord j, the chord launched from points[j]."""
    (px, py), (vx, vy) = _scalar_cartesian(orbit.points[j], orbit.pose)
    mx, my = px + 0.5 * orbit.flights[j] * vx, py + 0.5 * orbit.flights[j] * vy
    return orbit._replace(pose=ScattererPose((mx - offset * vy, my + offset * vx), R))


def test_a_scatterer_on_an_opening_chord_is_found_by_the_closure_check():
    # the closure check hits a scatterer moved onto, near or past each
    # chord of the shared prefix, grazes one at distance sqrt(R^2 - 5e-15)
    # with the reference's warnings, and passes one clear of it
    orbit = build_type_a(TableParams.type_a(7, 2, 0.05, 0.01))
    R = 0.02
    offsets = [0.0, 0.5 * R, -0.9 * R, 1.5 * R, math.sqrt(R * R - 5e-15)]
    moved = [_moved(orbit, j, off, R) for j in range(orbit.params.n - 1) for off in offsets]
    want = _assert_closures_match(moved)
    assert sum(w for _, w in want) >= orbit.params.n - 1
    assert any(r == math.inf for r, _ in want)


def test_a_start_refused_within_the_prefix_is_refused_as_the_scalar_route_does():
    orbit = build_type_a(TableParams.type_a(7, 1, 0.05, 0.01))
    kicked = [_kicked(orbit, theta) for theta in (1e-300, 1e-250, 5e-324, math.pi - 1e-13)]
    want = _assert_closures_match(kicked)
    assert (NoCollisionError, "ray escapes both walls") in [r for r, _ in want]
    # the empty disk refuses the tiny launches before their chain ends
    assert len(orbits._disk_chain(kicked[0].points[0], orbit.params.n)) < orbit.params.n


def _raw_point(wall, s, theta):
    """A state built without ``PhasePoint``'s angle check."""
    return tuple.__new__(PhasePoint, (wall, s, theta))


def test_signed_zero_and_nan_starts_share_no_chain():
    # 0.0 == -0.0 and nan != nan as cache keys: such starts are traced
    # afresh, bit for bit, and leave no cache entry; the one entry left is
    # the chain of the second half's start, points[n+1]
    orbit = build_type_a(TableParams.type_a(5, 1, 0.1, 0.02))
    starts = [(0.0, orbit.points[0].theta), (-0.0, orbit.points[0].theta), (math.nan, 1.0), (1.0, math.nan)]
    moved = [orbit._replace(points=(_raw_point(Wall.OUTER, s, theta),) + orbit.points[1:]) for s, theta in starts]
    _assert_closures_match(moved)
    assert orbits._disk_chain.cache_info().currsize == 1
    hits = orbits._disk_chain.cache_info().hits
    orbits._disk_chain(orbit.points[6], 5)
    assert orbits._disk_chain.cache_info().hits == hits + 1


def test_the_caches_hold_one_polygon_and_its_two_chains(tmp_path):
    # a stability scan builds every table of one (n, k) in a row: the
    # closure check keeps the last polygon and the chains of its two
    # half-period starts, not every (n, k) the scan visited
    orbits._polygon.cache_clear()
    orbits._disk_chain.cache_clear()
    assert cli.main(["stability", "--n", "5,7", "--k", "1,2", "--out", str(tmp_path / "scan.csv")]) == 0
    assert orbits._polygon.cache_info().currsize == 1
    assert orbits._disk_chain.cache_info().currsize == 2


def test_the_gap_is_the_larger_of_arc_and_angle_nan_included():
    # a recorded point off the orbit, in arc, angle or both, some of them
    # NaN: the residual is ``max(abs(ds), abs(dtheta))`` as the reference
    # takes it, which keeps the arc distance where the angle one is NaN, and
    # is inf where that maximum is NaN
    orbit = build_type_a(TableParams.type_a(5, 1, 0.1, 0.02))
    offsets = [(1e-3, math.nan), (math.nan, 1e-3), (1e-3, 2e-3), (2e-3, 1e-3), (math.nan, math.nan), (-7.0, 0.0)]
    moved = []
    for j in (2, orbit.params.n, 8):
        wall, s, theta = orbit.points[j]
        for ds, dtheta in offsets:
            points = list(orbit.points)
            points[j] = _raw_point(wall, s + ds, theta + dtheta)
            moved.append(orbit._replace(points=tuple(points)))
    want = _assert_closures_match(moved)
    residuals = [r for r, _ in want]
    # the NaN angles leave their 1e-3 arc offsets standing; the outer-wall
    # arc offset of -7 is wrapped, the scatterer's is not
    assert all(abs(residuals[i] - 1e-3) < 1e-12 for i in (0, 6, 12))
    assert all(residuals[i] == math.inf for i in (1, 4, 7, 10, 13, 16))
    assert residuals[5] == residuals[17] == 7.0 - 2.0 * math.pi and residuals[11] == 7.0


# ---------------------------------------------------------------------------
# what the two half periods see
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(5, 1), (10, 3), (53, 6)])
def test_the_closure_check_sees_every_recorded_state(n, k):
    # restarting a half from its recorded start still compares every one of
    # the 2n + 2 recorded states with a traced prediction: moving any one of
    # them alone, in arc or in angle, by 1e-7 fails the check, and so does a
    # NaN arc, which the tracer refuses at a half's start
    wl = _workloads()
    for f_delta, f_radius in ((0.0, 0.5), (0.3, 0.9)):
        delta = f_delta * wl.delta_cap(n, k)
        orbit = build_type_a(TableParams.type_a(n, k, f_radius * wl.radius_cap(n, k, delta), delta))
        assert verify_closure(orbit) <= CLOSURE_TOL
        half = len(orbit.points) // 2
        for j, (wall, s, theta) in enumerate(orbit.points):
            for ds, dtheta in ((1e-7, 0.0), (-1e-7, 0.0), (0.0, 1e-7), (0.0, -1e-7), (math.nan, 0.0)):
                points = list(orbit.points)
                points[j] = PhasePoint(wall, s + ds, theta + dtheta)
                moved = orbit._replace(points=tuple(points))
                if math.isnan(ds) and j in (0, half):
                    with pytest.raises(NoCollisionError):
                        verify_closure(moved)
                else:
                    assert verify_closure(moved) > CLOSURE_TOL, (delta, j, ds, dtheta)


def _ulp_moves(orbit):
    """``orbit`` with one of its two half-period starts, points[0] or
    points[n+1], moved by one ulp in arc or in angle, either way."""
    half = len(orbit.points) // 2
    for j in (0, half):
        wall, s, theta = orbit.points[j]
        for toward in (-math.inf, math.inf):
            for start in (
                PhasePoint(wall, math.nextafter(s, toward), theta),
                PhasePoint(wall, s, math.nextafter(theta, toward)),
            ):
                points = orbit.points[:j] + (start,) + orbit.points[j + 1 :]
                yield _Orbit(points, orbit.flights, orbit.curvatures, orbit.pose)


def _verdict(orbit):
    outcome = _outcome(verify_closure, orbit)
    return outcome if isinstance(outcome, tuple) else outcome <= CLOSURE_TOL


def test_a_one_ulp_start_changes_no_closure_verdict(tmp_path):
    # the verdict of every stability-scan table of seeds 1-3, and of the
    # n = 53, k = 6 grid up to half its delta cap, is the same from starts
    # one ulp away; these grids reach traces of order 1e4 and more, whose
    # expansion a residual compounded over the whole period multiplied
    grids = [argv for seed in (1, 2, 3) for argv in _scan_requests(seed)] + [GRIDS["n53_k6"]]
    tables = 0
    widest = 0.0
    for argv in grids:
        for row in _rows(argv, tmp_path):
            if row["R"] == "":
                continue
            orbit = _outcome(lambda: _scalar_orbit(TableParams.type_a(row["n"], row["k"], row["R"], row["delta"])))
            if isinstance(orbit, tuple):
                continue
            verdict = _verdict(orbit)
            for moved in _ulp_moves(orbit):
                assert _verdict(moved) == verdict, (row, moved.points)
            tables += 1
            if row["trace_closed"] != "":
                widest = max(widest, abs(row["trace_closed"]))
    assert tables > 3000 and widest > 1e4
