"""Nonlinear stability of the tangent-table orbit: reduced map, order-3 Taylor
data, and the first Birkhoff (twist) coefficient.

The full period map factors as the square of the reflection-composed half
period ``M = reflection o exit o entry o disk``; its fixed point is the
detuned orbit's initial state.  The twist pipeline takes one point at a
time,

    reduced map --(jet arithmetic)--> TaylorJet3 --(c-terms)--> A,

and each step returns its result or raises the ``BilliardError`` that
refuses the point.  A least-squares cubic fit to the map, in 50-digit
arithmetic, audits every Taylor coefficient (``fd_taylor_jet``), and the
closed-form leading order of A is available independently.
``ReducedMap`` refuses a table whose fixed point is off the map's chart.
``island_sampler`` iterates the float full-period map from a ring of seeds,
or from any contiguous run of it, and returns its report with the cloud.

Rotation-number convention: the twist formula uses mu = arctan(v/u) with
lambda = u + i*v the upper eigenvalue of the linearized half-period map.
For the near-parabolic tangent orbits u < 0, so mu is a small *negative*
angle tending to 0 with the detuning, while the principal argument of lambda
itself sits near pi.  ``BirkhoffReport`` is (A, mu), the two numbers the
``birkhoff`` subcommand prints.

The pipeline runs on Python floats: ``jets`` is pure Python and is imported
inside the Taylor-data functions that use it, so ``island_sampler``, which
iterates the float map, runs without it, and neither needs NumPy.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import repeat
from typing import NamedTuple

from .billiard_map import (
    JET_BACKEND,
    BirkhoffCoords,
    half_period_formula,
    tangency_radius_b,
)
from .errors import (
    ClassificationError,
    DomainError,
    InvalidTableError,
    NoCollisionError,
    NonEllipticNormalizationError,
    PrecisionError,
    ResonanceError,
)

#: tolerance on |lambda^m - 1| below which a low-order resonance is declared
RESONANCE_TOL = 1e-8

#: relative disagreement between jet and finite-difference coefficients that
#: voids the extraction
CROSS_CHECK_TOL = 1e-5

#: grid spacing and working precision of the finite-difference audit
FD_STEP = 1e-12
FD_DPS = 50


class TaylorJet3(NamedTuple):
    """Degree-3 Taylor data of a planar map about a point: the jets of its
    two outputs, s and r, in the displacements (ds, dr) of the input.

    Each jet's constant term is the map's value at the point, and the others
    are plain Taylor coefficients, factorials included (see ``jets.Jet2``).
    """

    s: Jet2
    r: Jet2

    def linear(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The Jacobian at the point, as a pair of rows."""
        return self.s.c[1:3], self.r.c[1:3]

    def trace(self) -> float:
        return self.s.c[1] + self.r.c[2]

    def max_rel_disagreement(self, other: "TaylorJet3") -> float:
        return max(
            abs(a - b) / max(abs(a), abs(b), 1.0)
            for a, b in zip(self.s.c + self.r.c, other.s.c + other.r.c)
        )


class BirkhoffReport(NamedTuple):
    """First twist coefficient and the rotation angle entering it."""

    A: float
    mu: float  # arctan-convention rotation number used in the twist formula


class ReducedMap:
    """The reflection-composed half-period map of a tangent table in (s, r),
    ``half_period_formula(s, r, n, R, lib)`` on any backend, with its
    ``fixed_point``, the detuned orbit's initial state.  A table whose fixed
    point is off the map's chart, one of its n - 1 disk chords meeting the
    scatterer, is refused with ``InvalidTableError``, as is every table that
    ``tangency_radius_b`` refuses.
    """

    def __init__(self, n: int, epsilon: float):
        self.n = n
        self.epsilon = epsilon
        self.R = R = tangency_radius_b(n, epsilon)
        theta0 = math.pi / n + epsilon
        self.s0 = s0 = -math.pi + math.pi / n + epsilon * (1.0 - n)
        self.r0 = math.cos(theta0)
        for j in range(n - 1):
            # disk chord j's scatterer-entry arccos argument, formed as the
            # map forms chord n - 1's: in [-1, 1], the chord meets the scatterer
            arg = (-self.r0 - (1.0 - R) * math.cos(theta0 + s0 + 2 * j * theta0)) / R
            if -1.0 <= arg <= 1.0:
                raise InvalidTableError(
                    f"disk chord {j} of the fixed point meets the scatterer at n={n}, epsilon={epsilon}"
                )

    @property
    def fixed_point(self) -> BirkhoffCoords:
        return BirkhoffCoords(self.s0, self.r0)


def taylor_jet(rmap: ReducedMap, cross_check: bool = False) -> TaylorJet3:
    """Order-3 Taylor data of the reduced map at its fixed point.

    One push of degree-3 truncated polynomials through the map composition
    (exact up to rounding).  The push is refused with ``NoCollisionError``
    if it leaves the arccos domain or a coefficient is not finite, and with
    ``DomainError`` if the point is not fixed.  With ``cross_check`` the
    audit ``fd_taylor_jet``, a least-squares cubic fit in 50-digit
    arithmetic, re-derives every coefficient and a disagreement beyond 1e-5
    relative raises ``PrecisionError``.
    """
    from .jets import Jet2

    s0, r0 = rmap.fixed_point
    try:
        # the module global, looked up per push, so a patched map is the one called
        jet = TaylorJet3(*half_period_formula(
            Jet2.variable(s0, 0), Jet2.variable(r0, 1), rmap.n, rmap.R, JET_BACKEND
        ))
    except NoCollisionError:
        jet = None
    if jet is None or not all(map(math.isfinite, jet.s.c + jet.r.c)):
        raise NoCollisionError("an arccos argument of the jet push leaves (-1, 1)")
    residual = max(abs(jet.s.value - s0), abs(jet.r.value - r0))
    if residual > 1e-9:
        raise DomainError(f"point is not fixed (residual {residual:.3g})")
    if cross_check:
        worst = jet.max_rel_disagreement(fd_taylor_jet(rmap))
        if worst > CROSS_CHECK_TOL:
            raise PrecisionError(
                f"jet and finite-difference coefficients disagree by {worst:.3g}"
            )
    return jet


#: the audit's sample offsets, in units of ``FD_STEP``, about the fixed point
_GRID = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]


@functools.cache
def _fit_matrix() -> list:
    """Rows of the least-squares cubic fit (X^T X)^-1 X^T on the unit 5 x 5
    grid, one per monomial, in ``FD_DPS`` digits: float rows would not sum to
    exactly zero, and h^-3 would lift the constant term's residue to 1e19."""
    from mpmath import mp

    from .jets import MONOMIALS

    with mp.workdps(FD_DPS):
        X = mp.matrix([[i**a * j**b for a, b in MONOMIALS] for i, j in _GRID])
        return ((X.T * X) ** -1 * X.T).tolist()


def fd_taylor_jet(rmap: ReducedMap) -> TaylorJet3:
    """Audit oracle: a least-squares cubic fit, in 50-digit arithmetic, to the
    bit-identical map sampled on a 5 x 5 grid of spacing ``FD_STEP`` about
    its fixed point.

    The precision absorbs the cancellation of so small a step, at which the
    terms beyond cubic reach a coefficient only through factors h^2 = 1e-24.
    The constant terms are the map's value at the point.
    """
    from mpmath import mp

    from .jets import MONOMIALS, Jet2

    fit = _fit_matrix()
    with mp.workdps(FD_DPS):
        h = mp.mpf(FD_STEP)
        s0, r0 = (mp.mpf(x) for x in rmap.fixed_point)
        samples = [half_period_formula(s0 + i * h, r0 + j * h, rmap.n, rmap.R, mp) for i, j in _GRID]
        sides = (
            [float(mp.fdot(row, side) / h ** (a + b)) for row, (a, b) in zip(fit, MONOMIALS)]
            for side in zip(*samples)
        )
        return TaylorJet3(*(Jet2(tuple(side)) for side in sides))


# ---------------------------------------------------------------------------
# twist coefficient
# ---------------------------------------------------------------------------


def c_terms(jet: TaylorJet3) -> tuple[float, float, float]:
    """The real normal-form combinations (Im c21, |c20|^2, |c02|^2).

    Requires a01*b10 < 0 so the normalization square roots are real.
    """
    _, a10, a01, a20, a11, a02, a30, a21, a12, a03 = jet.s.c
    _, b10, b01, b20, b11, b02, b30, b21, b12, b03 = jet.r.c
    if not a01 * b10 < 0.0:
        raise NonEllipticNormalizationError(
            f"need a01*b10 < 0, got a01={a01!r}, b10={b10!r}"
        )
    im_c21 = (
        a10
        * (
            -a12
            + 3.0 * b10 * a03 / a01
            - 3.0 * a01 * b30 / b10
            + b12
        )
        - b10
        * (
            a12
            - 3.0 * a01 * a30 / b10
            - a01 * b21 / b10
            + 3.0 * b03
        )
    ) / 8.0
    sq_ab = math.sqrt(-a01 / b10)
    sq_ba = math.sqrt(-b10 / a01)
    plus_a = (b10 / a01) * a02 + a20 + b11
    plus_b = (a01 / b10) * b20 + b02 + a11
    minus_a = (b10 / a01) * a02 + a20 - b11
    minus_b = (a01 / b10) * b20 + b02 - a11
    abs_c20_sq = (sq_ab * plus_a**2 + sq_ba * plus_b**2) / 16.0
    abs_c02_sq = (sq_ab * minus_a**2 + sq_ba * minus_b**2) / 16.0
    return im_c21, abs_c20_sq, abs_c02_sq


def birkhoff_A(jet: TaylorJet3) -> BirkhoffReport:
    """First Birkhoff coefficient of an elliptic, nonresonant fixed point
    with the given Taylor data, and its rotation angle.

    With u = trace/2 and v = sqrt(1 - u^2), the upper eigenvalue of the
    linear part is lambda = u + i*v and mu = arctan(v/u) (pi/2 at u = 0);
    lambda^3 = 1 or lambda^4 = 1 is refused as a resonance.  From the
    ``c_terms`` of the jet,

        A = Im c21 + sin(mu)/(cos(mu) - 1) * (3 |c20|^2
            + (2 cos(mu) - 1)/(2 cos(mu) + 1) * |c02|^2).
    """
    tr = jet.trace()
    if abs(tr) >= 2.0 - 1e-12:
        raise ClassificationError(
            f"twist coefficient needs an elliptic linear part, trace = {tr!r}"
        )
    u = tr / 2.0
    v = math.sqrt(max(1.0 - u * u, 0.0))
    mu_arg = math.atan2(v, u)
    mu = math.atan(v / u) if u != 0.0 else math.pi / 2.0
    lam = complex(math.cos(mu_arg), math.sin(mu_arg))
    if abs(lam**3 - 1.0) < RESONANCE_TOL or abs(lam**4 - 1.0) < RESONANCE_TOL:
        raise ResonanceError(
            f"eigenvalue argument {mu_arg!r} sits on a low-order resonance"
        )
    im_c21, abs_c20_sq, abs_c02_sq = c_terms(jet)
    cm, sm = math.cos(mu), math.sin(mu)
    A = im_c21 + sm / (cm - 1.0) * (
        3.0 * abs_c20_sq + (2.0 * cm - 1.0) / (2.0 * cm + 1.0) * abs_c02_sq
    )
    return BirkhoffReport(A=A, mu=mu)


def rotation_number_leading(n: int, epsilon: float) -> float:
    """Leading order of the rotation angle ``mu`` that ``birkhoff_A`` reports:

        -sqrt(2 eps)/sin(pi/n) * sqrt(n (n sin(2 pi/n)
            - (1 + 2 cos(pi/n) + cos(2 pi/n))))
    """
    c = math.pi / n
    rad = n * (n * math.sin(2.0 * c) - (1.0 + 2.0 * math.cos(c) + math.cos(2.0 * c)))
    return -math.sqrt(2.0 * epsilon) / math.sin(c) * math.sqrt(rad)


# ---------------------------------------------------------------------------
# closed-form leading order of the twist coefficient
# ---------------------------------------------------------------------------


def twist_limit(n: int) -> float:
    """The detuning-free part of the twist coefficient, lim eps^2 * A(n, eps):

        5 csc^5(pi/2n) sec^3(pi/2n) sin^(5/2)(pi/n) (cos(pi/2n) - n sin(pi/2n))^2
        / (192 n^2 sqrt(n sin(2pi/n) - (1 + 2cos(pi/n) + cos(2pi/n))))
        * sqrt(sin(2pi/n) / (n sin(pi/n) - (1 + cos(pi/n))))
    """
    if n < 3:
        raise DomainError(f"undefined for n < 3, got {n}")
    h = math.pi / (2.0 * n)
    c = math.pi / n
    num = (
        5.0
        * math.sin(h) ** -5
        * math.cos(h) ** -3
        * math.sin(c) ** 2.5
        * (math.cos(h) - n * math.sin(h)) ** 2
    )
    den = 192.0 * n * n * math.sqrt(
        n * math.sin(2.0 * c) - (1.0 + 2.0 * math.cos(c) + math.cos(2.0 * c))
    )
    tail = math.sqrt(
        math.sin(2.0 * c) / (n * math.sin(c) - (1.0 + math.cos(c)))
    )
    return num / den * tail


def _over_eps_squared(limit: float, epsilon: float) -> float:
    """limit/epsilon^2, refused where epsilon^2 underflows to 0 or the
    quotient overflows."""
    eps2 = epsilon * epsilon
    A = limit / eps2 if eps2 else math.inf
    if not math.isfinite(A):
        raise DomainError(f"the twist limit over epsilon^2 is not finite at epsilon = {epsilon!r}")
    return A


def closed_form_A(n: int, epsilon: float) -> float:
    """Leading-order twist coefficient, twist_limit(n)/epsilon^2, of a table
    that ``tangency_radius_b`` admits; refused where epsilon^2 underflows to
    0 or the quotient overflows."""
    tangency_radius_b(n, epsilon)
    return _over_eps_squared(twist_limit(n), epsilon)


def closed_form_A_large_n(n: int, epsilon: float) -> float:
    """Large-n expansion 5/(24 eps^2) * ((pi-2)/pi^2 + (pi-1)/(6 n^2)),
    refused as ``closed_form_A`` is."""
    if n < 3:
        raise DomainError(f"undefined for n < 3, got {n}")
    limit = 5.0 / 24.0 * ((math.pi - 2.0) / math.pi**2 + (math.pi - 1.0) / (6.0 * n * n))
    return _over_eps_squared(limit, epsilon)


# ---------------------------------------------------------------------------
# island evidence sampler
# ---------------------------------------------------------------------------


class IslandReport(NamedTuple):
    """Outcome of iterating the full period map near the fixed point."""

    max_excursion: float
    escaped: bool
    escape_seed: int | None
    escape_iteration: int | None


def island_sampler(
    n: int,
    epsilon: float,
    radius: float,
    iterations: int,
    seeds: int = 8,
    seed: int = 0,
    first: int = 0,
) -> tuple[IslandReport, list[tuple[float, float]]]:
    """Iterate the full period map from a ring of initial conditions.

    The ring has ``seeds`` points on a circle of the given radius around the
    fixed point in (s, r), at phases 2 pi * ``random.Random(seed).random()``
    drawn in seed order.  Its seeds numbered ``first`` to ``seeds - 1`` each
    apply the squared reduced map ``iterations`` times, and the maximal
    distance from the fixed point is tracked.  Leaving the chart (a ray
    missing the scatterer) is recorded as an escape; the reported seed is
    the lowest-numbered one that escaped.  Returns the report and the
    visited (s, r) iterates, a list of pairs, seed by seed, each up to its
    escape.  At radius 0 every seed starts at the fixed point.  A seed's
    phase depends on its number alone, so consecutive runs of the ring,
    joined in order, give the whole ring's cloud, and the largest of their
    excursions and the first run that escaped give its report.

    Each seed is iterated alone on a pair of Python floats, two calls of
    ``half_period_formula`` per iteration.  The map is the one straight-line
    formula that the jet push and the audit also run, called through this
    module's global name, so a patched map sees every half period.  Each
    half period runs once, on the ``math`` module, C builtins only, and a
    seed stops at its first ``ValueError``: ``math.acos`` raises it where an
    arccos argument leaves [-1, 1] (a ray missing its wall), exactly where
    ``FLOAT_BACKEND`` raises ``NoCollisionError``, so the iterates are
    FLOAT_BACKEND's bit for bit.  At the widths a request asks for (up to a
    few hundred seeds) this costs no more than stepping them together as
    arrays, and it needs no NumPy.
    """
    if iterations < 1 or seeds < 1:
        raise DomainError(f"need iterations >= 1 and seeds >= 1, got {iterations}, {seeds}")
    if not 0 <= first < seeds:
        raise DomainError(f"need 0 <= first < seeds, got first = {first}, seeds = {seeds}")
    if not radius >= 0.0:
        raise DomainError(f"need radius >= 0, got {radius}")
    if seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    rmap = ReducedMap(n, epsilon)
    s0, r0 = rmap.fixed_point
    rng = random.Random(seed)
    phases = [2.0 * math.pi * rng.random() for _ in range(seeds)]
    # the module global, looked up per request, so a patched map is the one
    # called; on `math` a missed wall raises ValueError
    half, R, lib = half_period_formula, rmap.R, math
    max_excursion, escape, cloud = 0.0, None, []
    for index in range(first, seeds):
        phase = phases[index]
        s, r = s0 + radius * math.cos(phase), r0 + radius * math.sin(phase)
        orbit = []
        try:
            for it in range(iterations):
                s, r = half(s, r, n, R, lib)
                s, r = half(s, r, n, R, lib)
                orbit.append((s, r))
        except ValueError:
            if escape is None:
                escape = (index, it)
        excursion = max(map(math.dist, orbit, repeat(rmap.fixed_point)), default=0.0)
        max_excursion = max(max_excursion, excursion)
        cloud += orbit
    escape_seed, escape_iteration = escape or (None, None)
    report = IslandReport(
        max_excursion=max_excursion,
        escaped=escape is not None,
        escape_seed=escape_seed,
        escape_iteration=escape_iteration,
    )
    return report, cloud
