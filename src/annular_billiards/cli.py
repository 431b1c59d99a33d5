"""Command-line surface: stability scans, bifurcation regions, twist-coefficient
curves, orbit rendering, section clouds, and the winding-number bound.

Every emitted table is reproducible from its own header: the tool version,
the full parameter spec, and the RNG seed are echoed in comment lines (CSV)
or the ``spec`` object (JSON).  Numbers are printed with 17 significant
digits so a round trip through text is exact.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .birkhoff import (
    ReducedMap,
    birkhoff_A,
    closed_form_A,
    island_sampler,
    taylor_jet,
    twist_limit,
)
from .errors import BilliardError
from .geometry import TableParams, max_radius, max_radius_delta
from .linear_stability import (
    bifurcation_radius,
    classify,
    delta_star,
    lemma_f,
    min_period_for_k,
    monodromy,
    trace_closed_form,
)
from .orbits import build_type_a, build_type_b, verify_closure

#: JSON document layout for scan output (validated in the test suite)
JSON_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["spec", "rows", "summary"],
    "properties": {
        "spec": {"type": "object"},
        "rows": {"type": "array", "items": {"type": "object"}},
        "summary": {"type": "object"},
    },
}


@dataclass
class ScanSpec:
    """Parsed command description, echoed verbatim into every output."""

    command: str
    params: dict = field(default_factory=dict)
    fmt: str = "csv"
    out: str | None = None
    seed: int = 0

    def echo(self) -> dict:
        return {
            "tool": "annular-billiards",
            "version": __version__,
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
        }


def parse_values(text: str, cast=float) -> list:
    """Parse a flag value: a single number, a comma list, or start:stop:count.

    Malformed or non-finite values raise ``argparse.ArgumentTypeError``, so as
    an argparse ``type`` they exit with usage.
    """
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise argparse.ArgumentTypeError(
                    f"range must be start:stop:count, got {text!r}"
                )
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise argparse.ArgumentTypeError(f"range count must be >= 1, got {text!r}")
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise argparse.ArgumentTypeError(f"range bounds must be finite, got {text!r}")
            grid = np.linspace(start, stop, count)
            values = [cast(v) for v in grid]
            if values != list(grid):
                raise argparse.ArgumentTypeError(f"range {text!r} is not exact in {cast.__name__}")
        else:
            values = [cast(v) for v in text.split(",")]
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
    return values


def positive_int(text: str) -> int:
    """argparse ``type`` of a count flag: a whole number >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def nonnegative_float(text: str) -> float:
    """argparse ``type`` of a size flag: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def write_csv(spec: ScanSpec, columns: list[str], rows: list[dict], summary: dict) -> None:
    lines = [
        f"# annular-billiards {__version__}",
        f"# spec: {json.dumps(spec.echo(), sort_keys=True)}",
    ]
    for key, val in sorted(summary.items()):
        lines.append(f"# summary {key}: {_fmt(val)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
    _write_text(spec.out, "\n".join(lines) + "\n")


def write_json(spec: ScanSpec, rows: list[dict], summary: dict) -> None:
    doc = {"spec": spec.echo(), "rows": rows, "summary": summary}
    _write_text(spec.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_table(spec: ScanSpec, columns: list[str], rows: list[dict], summary: dict) -> int:
    """Write a scan in the requested text format (svg is refused at parse
    time for commands without a renderer)."""
    if spec.fmt == "json":
        write_json(spec, rows, summary)
    else:
        write_csv(spec, columns, rows, summary)
    return 0


# ---------------------------------------------------------------------------
# SVG rendering (presentation only)
# ---------------------------------------------------------------------------


def _svg_doc(body: list[str], viewbox: tuple[float, float, float, float]) -> str:
    x, y, w, h = viewbox
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x} {y} {w} {h}" '
        f'width="640" height="640">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _svg_polyline(points, stroke="#d62728", width=0.006) -> str:
    pts = " ".join(f"{x:.6f},{-y:.6f}" for x, y in points)
    return (
        f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}"/>'
    )


def orbit_svg(orbit) -> str:
    body = [
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#333" stroke-width="0.008"/>',
        f'<circle cx="{orbit.pose.center[0]:.6f}" cy="{-orbit.pose.center[1]:.6f}" '
        f'r="{orbit.pose.radius:.6f}" fill="#9ecae1" fill-opacity="0.6" '
        f'stroke="#333" stroke-width="0.004"/>',
        _svg_polyline(orbit.polyline()),
    ]
    return _svg_doc(body, (-1.1, -1.1, 2.2, 2.2))


def region_svg(deltas, r_min, r_delta) -> str:
    upper = [(d, r) for d, r, rm in zip(deltas, r_delta, r_min) if r > rm]
    lower = [(d, rm) for d, r, rm in zip(deltas, r_delta, r_min) if r > rm]
    d_scale = max(deltas) or 1.0
    r_scale = max(max(r_delta), max(r_min)) or 1.0
    to_xy = lambda d, r: (d / d_scale, r / r_scale)
    body = []
    if upper:
        poly = [to_xy(*p) for p in upper] + [to_xy(*p) for p in reversed(lower)]
        pts = " ".join(f"{x:.6f},{-y:.6f}" for x, y in poly)
        body.append(f'<polygon points="{pts}" fill="#9ecae1" fill-opacity="0.6"/>')
    body.append(_svg_polyline([to_xy(d, r) for d, r in zip(deltas, r_min)], "#1f77b4", 0.004))
    body.append(_svg_polyline([to_xy(d, r) for d, r in zip(deltas, r_delta)], "#d62728", 0.004))
    return _svg_doc(body, (-0.05, -1.05, 1.15, 1.15))


# ---------------------------------------------------------------------------
# scan workers: one row per grid point
# ---------------------------------------------------------------------------


def _stability_rows(rows: list[dict], tables: list[TableParams], refusals: list) -> None:
    """Fill the rows of a stability scan.  ``refusals[i]`` is the
    ``BilliardError`` that refused row i's table, or None where the row's
    table is next in ``tables``; every such table is built, checked and
    linearised in one batch, and a row refused on the way gets the refusal
    as its ``skip_reason``."""
    matrices, errors = monodromy(build_type_a(tables)) if tables else ((), ())
    outcomes = iter(zip(matrices, errors))
    for row, refusal in zip(rows, refusals):
        M, error = next(outcomes) if refusal is None else (None, refusal)
        try:
            if error is not None:
                raise error
            closed = trace_closed_form(row["n"], row["k"], row["R"], row["delta"])
            row.update(
                trace_closed=closed,
                trace_numeric=float(np.trace(M)),
                classification=classify(closed).value,
                skip_reason="",
            )
        except BilliardError as exc:
            row.update(
                trace_closed="",
                trace_numeric="",
                classification="",
                skip_reason=f"{type(exc).__name__}: {exc}",
            )


def _birkhoff_point(n: int, eps: float, jet) -> dict:
    """One twist-scan row from the point's Taylor data, or from the
    ``BilliardError`` that refused the point."""
    row = {"n": n, "eps": eps}
    try:
        if isinstance(jet, BilliardError):
            raise jet
        report = birkhoff_A(jet)
        row.update(
            mu=report.mu,
            A_numeric=report.A,
            A_closed_leading=closed_form_A(n, eps),
            skip_reason="",
        )
    except BilliardError as exc:
        try:
            closed = closed_form_A(n, eps)
        except BilliardError:
            closed = ""
        row.update(
            mu="",
            A_numeric="",
            A_closed_leading=closed,
            skip_reason=f"{type(exc).__name__}: {exc}",
        )
    return row


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_stability(spec: ScanSpec) -> int:
    p = spec.params
    rows, tables, refusals = [], [], []
    for n in p["n"]:
        for k in p["k"]:
            for delta in p["delta"]:
                rs = p["R"]
                if not rs:
                    try:
                        cap = max_radius(n, k, delta)
                    except BilliardError as exc:
                        rows.append({"n": n, "k": k, "R": "", "delta": delta})
                        refusals.append(exc)
                        continue
                    rs = list(np.linspace(0.05 * cap, cap, 25))
                for R in rs:
                    rows.append({"n": n, "k": k, "R": R, "delta": delta})
                    try:
                        tables.append(TableParams.type_a(n, k, R, delta))
                        refusals.append(None)
                    except BilliardError as exc:
                        refusals.append(exc)
    _stability_rows(rows, tables, refusals)
    summary = {"points": len(rows), "skipped": sum(1 for r in rows if r["skip_reason"])}
    cols = ["n", "k", "R", "delta", "trace_closed", "trace_numeric", "classification", "skip_reason"]
    return write_table(spec, cols, rows, summary)


def cmd_region(spec: ScanSpec) -> int:
    p = spec.params
    n = p["n"][0]
    count = int(p.get("count", 400))
    dstar = delta_star(n)
    deltas = list(np.linspace(0.0, min(1.25 * dstar, 0.999 * math.sin(math.pi / n)), count))
    r_min = [bifurcation_radius(n, 1, d) for d in deltas]
    r_del = [max_radius_delta(n, d) for d in deltas]
    rows = [
        {"delta": d, "R_min": rm, "R_delta": rd, "stable_window": rd > rm}
        for d, rm, rd in zip(deltas, r_min, r_del)
    ]
    summary = {"n": n, "delta_star": dstar}
    if spec.fmt == "svg":
        _write_text(spec.out, region_svg(deltas, r_min, r_del))
        return 0
    return write_table(spec, ["delta", "R_min", "R_delta", "stable_window"], rows, summary)


def _extrapolate_ladder(eps: list[float], vals: list[float]) -> float | None:
    """Extrapolate eps^2*A to eps = 0 by polynomial (Neville) extrapolation.

    Coincides with classical Richardson extrapolation on halving ladders but
    stays correct for arbitrary distinct detuning values.
    """
    pairs = [(e, v * e * e) for e, v in zip(eps, vals) if isinstance(v, float)]
    if not pairs:
        return None
    xs = [p[0] for p in pairs]
    tableau = [p[1] for p in pairs]
    m = len(tableau)
    for level in range(1, m):
        nxt = []
        for i in range(m - level):
            x0, x1 = xs[i], xs[i + level]
            nxt.append((x0 * tableau[i + 1] - x1 * tableau[i]) / (x0 - x1))
        tableau = nxt
    return tableau[0]


def cmd_birkhoff(spec: ScanSpec) -> int:
    p = spec.params
    points = [(n, e) for n in p["n"] for e in p["eps"]]
    # a map that cannot be built skips its own point; the rest share one push
    rmaps = []
    for n, eps in points:
        try:
            rmaps.append(ReducedMap(n, eps))
        except BilliardError as exc:
            rmaps.append(exc)
    jets = iter(taylor_jet([m for m in rmaps if isinstance(m, ReducedMap)]))
    rows = [
        _birkhoff_point(n, eps, m if isinstance(m, BilliardError) else next(jets))
        for (n, eps), m in zip(points, rmaps)
    ]
    summary: dict = {"points": len(rows)}
    for n in p["n"]:
        sub = [r for r in rows if r["n"] == n]
        at = _extrapolate_ladder(
            [r["eps"] for r in sub],
            [r["A_numeric"] for r in sub],
        )
        for r in sub:
            r["A_tilde"] = at if at is not None else ""
        summary[f"A_tilde_n{n}"] = at if at is not None else ""
        try:
            summary[f"A_tilde_closed_n{n}"] = twist_limit(n)
        except BilliardError:
            summary[f"A_tilde_closed_n{n}"] = ""
    cols = ["n", "eps", "mu", "A_numeric", "A_closed_leading", "A_tilde", "skip_reason"]
    return write_table(spec, cols, rows, summary)


def cmd_orbit(spec: ScanSpec) -> int:
    p = spec.params
    n = p["n"][0]
    if p["eps"]:
        orbit = build_type_b(n, p["eps"][0])
    else:
        k = p["k"][0]
        delta = p["delta"][0] if p["delta"] else 0.0
        if p["R"]:
            R = p["R"][0]
        else:
            R = 0.5 * max_radius(n, k, delta)
        orbit = build_type_a(TableParams.type_a(n, k, R, delta))
    if spec.fmt == "svg":
        _write_text(spec.out, orbit_svg(orbit))
    elif spec.fmt == "csv":
        rows = [{"x": x, "y": y} for x, y in orbit.polyline()]
        write_csv(spec, ["x", "y"], rows, {"closure_residual": verify_closure(orbit)})
    else:
        write_json(spec, [orbit.to_json_dict()], {})
    return 0


def cmd_section(spec: ScanSpec) -> int:
    p = spec.params
    n = p["n"][0]
    eps = p["eps"][0]
    radius = p.get("radius", 1e-4)
    iters = int(p.get("iterations", 10000))
    seeds = int(p.get("seeds", 8))
    report, cloud = island_sampler(
        n, eps, radius, iters, seeds=seeds, seed=spec.seed, collect=True
    )
    rows = [{"s": float(s), "r": float(r)} for s, r in cloud]
    summary = {
        "n": n,
        "eps": eps,
        "radius": radius,
        "iterations": iters,
        "max_excursion": report.max_excursion,
        "escaped": report.escaped,
        "escape_seed": report.escape_seed if report.escaped else "",
        "escape_iteration": report.escape_iteration if report.escaped else "",
    }
    return write_table(spec, ["s", "r"], rows, summary)


def cmd_lemma(spec: ScanSpec) -> int:
    p = spec.params
    xs = p.get("x") or list(np.geomspace(1.01, 1e4, 400))
    rows = []
    prev = None
    monotone = True
    for x in xs:
        fx = lemma_f(float(x))
        if prev is not None and fx <= prev:
            monotone = False
        prev = fx
        rows.append({"x": float(x), "f": fx, "max_k": math.floor(fx)})
    nk = {k: min_period_for_k(k) for k in range(2, 8)}
    summary = {
        "monotone_on_grid": monotone,
        "sup_f_on_grid": max(r["f"] for r in rows),
        "bound_two_pi": 2.0 * math.pi,
        **{f"n_{k}": (v if v is not None else "none") for k, v in nk.items()},
    }
    return write_table(spec, ["x", "f", "max_k"], rows, summary)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


#: subcommands with an svg renderer
SVG_COMMANDS = ("region", "orbit")

#: flags of which a subcommand reads only one value
SINGLE_VALUE_FLAGS = {
    "region": ("n",),
    "orbit": ("n", "k", "R", "delta", "eps"),
    "section": ("n", "eps"),
}

_INTS = partial(parse_values, cast=int)


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sub.add_argument("--n", type=_INTS, default=[], help="value, list, or start:stop:count")
    sub.add_argument("--k", type=_INTS, default=[1])
    sub.add_argument("--R", type=parse_values, default=[])
    sub.add_argument("--delta", type=parse_values, default=[0.0])
    sub.add_argument("--eps", type=parse_values, default=[])
    sub.add_argument("--format", dest="fmt", choices=formats, default="csv")
    sub.add_argument("--out", type=str, default=None, help="output path ('-' = stdout)")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annular-billiards",
        description="Stability toolkit for annular billiards with a chord-mounted scatterer.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("stability", "trace scan over (n, k, R, delta) tables"),
        ("region", "stable-radius window versus displacement (k = 1)"),
        ("birkhoff", "twist coefficient over (n, eps) with ladder extrapolation"),
        ("orbit", "construct and render one periodic orbit"),
        ("section", "iterate the period map near the tangent orbit"),
        ("lemma", "winding-number bound function f and the n_k table"),
    ):
        sub = subs.add_parser(name, help=helptext)
        _add_common(sub, ("csv", "json", "svg") if name in SVG_COMMANDS else ("csv", "json"))
        if name == "section":
            sub.add_argument("--radius", type=nonnegative_float, default=1e-4)
            sub.add_argument("--iterations", type=positive_int, default=10000)
            sub.add_argument("--seeds", type=positive_int, default=8)
        if name == "region":
            sub.add_argument("--count", type=positive_int, default=400)
        if name == "lemma":
            sub.add_argument("--x", type=parse_values, default=None)
    return parser


def spec_from_args(args: argparse.Namespace) -> ScanSpec:
    params: dict = {flag: getattr(args, flag) for flag in ("n", "k", "R", "delta", "eps")}
    for extra in ("radius", "iterations", "seeds", "count"):
        if hasattr(args, extra):
            params[extra] = getattr(args, extra)
    if getattr(args, "x", None):
        params["x"] = args.x
    return ScanSpec(
        command=args.command,
        params=params,
        fmt=args.fmt,
        out=args.out,
        seed=args.seed,
    )


_COMMANDS = {
    "stability": cmd_stability,
    "region": cmd_region,
    "birkhoff": cmd_birkhoff,
    "orbit": cmd_orbit,
    "section": cmd_section,
    "lemma": cmd_lemma,
}


def _spec_error(spec: ScanSpec) -> str | None:
    """Why a parsed request cannot run as given, or None."""
    p = spec.params
    if spec.command != "lemma" and not p["n"]:
        return "--n is required"
    if spec.command == "section" and not p["eps"]:
        return "section needs --eps"
    for flag in SINGLE_VALUE_FLAGS.get(spec.command, ()):
        if len(p[flag]) > 1:
            return f"{spec.command} takes a single --{flag} value, got {len(p[flag])}"
    if spec.command == "birkhoff":
        # the ladder extrapolation divides by differences of detunings, and a
        # repeated n would pool two ladders into one
        for flag in ("n", "eps"):
            if len(set(p[flag])) < len(p[flag]):
                return f"birkhoff needs distinct --{flag} values, got {p[flag]}"
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    spec = spec_from_args(args)
    error = _spec_error(spec)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[spec.command](spec)
    except BilliardError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
