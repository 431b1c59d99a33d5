"""Command-line surface: stability scans, bifurcation regions, twist-coefficient
curves, orbit rendering, section clouds, and the winding-number bound.

Each subcommand states its contract once, in ``COMMANDS``: the flags it
reads, with their types and defaults, and its output formats.  A flag it
does not read is a usage error.  Every emitted table is reproducible from its
own header: the tool version and the value of every flag the subcommand
reads (the RNG seed among them, for ``section``) are echoed in comment lines
(CSV) or the ``spec`` object (JSON).  Numbers are printed with 17
significant digits so a round trip through text is exact.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import math
import os
import sys
from collections.abc import Callable, Sequence
from functools import partial
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, NoReturn

from . import __version__
from .errors import BilliardError

#: the submodule that defines each library name a subcommand calls.  A name is
#: imported on its first lookup as an attribute of this module (PEP 562) or
#: of ``_cli`` and kept in its globals, so a request loads only the modules
#: its subcommand runs.  The subcommands call these names as attributes of
#: ``_cli``, so a patched attribute of this module intercepts the call.  No
#: subcommand imports NumPy.
_LIBRARY = {
    name: module
    for module, names in {
        "birkhoff": "IslandReport ReducedMap birkhoff_A closed_form_A island_sampler taylor_jet twist_limit",
        "blocks": "in_blocks usable_cpus",
        "geometry": "TableParams max_radius",
        "linear_stability": "admissible_interval bifurcation_radius classify delta_star lemma_f min_period_for_k monodromy trace_closed_form",
        "orbits": "build_type_a build_type_b",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LIBRARY[name]}", __package__), name)
    return value


class _Globals:
    """The globals of this module's code as attributes, a missing library
    name imported by ``__getattr__``.  They are the module's own namespace
    when it is imported or run by ``python -m``, and a dictionary of the
    runner's when a runner such as ``python -m cProfile -m`` executes it as
    ``__main__`` there, where ``sys.modules[__name__]`` is the runner's own
    module."""

    __getattr__ = staticmethod(__getattr__)

    def __init__(self):
        self.__dict__ = globals()


_cli = _Globals()


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


class ScanSpec(NamedTuple):
    """A parsed request: the subcommand and the values of the flags it reads,
    echoed verbatim into every output, then where and how to write."""

    command: str
    params: dict
    fmt: str
    out: str | None

    def echo(self) -> dict:
        return {
            "tool": "annular-billiards",
            "version": __version__,
            "command": self.command,
            "params": self.params,
        }


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """``count`` evenly spaced floats from ``start`` to ``stop``, bit for bit
    those of ``numpy.linspace``: i * step + start with step = (stop - start)
    / (count - 1), or i / (count - 1) * (stop - start) where step is 0 (an
    underflow), and ``stop`` itself last."""
    delta = stop - start
    if count == 1:
        return [0.0 * delta + start]
    div = count - 1
    step = delta / div
    if step == 0:
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


#: the largest count a request may ask for: an ``--n``, ``--count``,
#: ``--seeds`` or ``--iterations`` value, a range's count, and the seeds times
#: iterations of ``section``, which keeps every iterate
MAX_COUNT = 10**6

#: the largest RNG seed, a 64-bit word
MAX_SEED = 2**64 - 1


def _number(text: str) -> float:
    """``float(text)``, refusing with ``argparse.ArgumentTypeError`` a
    nonzero literal that rounds to 0.0 or to a subnormal, whose value is not
    the one written."""
    value = float(text)
    if abs(value) < sys.float_info.min and (
        value or any(c.isdecimal() and int(c) for c in text.lower().partition("e")[0])
    ):
        raise argparse.ArgumentTypeError(f"{text!r} underflows the float range to {value!r}")
    return value


def parse_values(text: str, cast=float) -> list:
    """Parse a flag value: a single number, a comma list, or start:stop:count.

    Malformed or non-finite values, a nonzero number that underflows, a
    range count above ``MAX_COUNT`` and a range that repeats one value raise
    ``argparse.ArgumentTypeError``, so as an argparse ``type`` they exit
    with usage.
    """
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise argparse.ArgumentTypeError(
                    f"range must be start:stop:count, got {text!r}"
                )
            start, stop, count = _number(parts[0]), _number(parts[1]), int(parts[2])
            if count < 1:
                raise argparse.ArgumentTypeError(f"range count must be >= 1, got {text!r}")
            if count > MAX_COUNT:
                raise argparse.ArgumentTypeError(f"range count must be <= {MAX_COUNT}, got {text!r}")
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise argparse.ArgumentTypeError(f"range bounds must be finite, got {text!r}")
            if start == stop and count > 1:
                raise argparse.ArgumentTypeError(f"range {text!r} repeats one value {count} times")
            grid = _linspace(start, stop, count)
            values = [cast(v) for v in grid]
            if values != grid:
                raise argparse.ArgumentTypeError(f"range {text!r} is not exact in {cast.__name__}")
        else:
            values = [(_number if cast is float else cast)(v) for v in text.split(",")]
        # an int beyond the float range raises OverflowError here
        if not all(math.isfinite(v) for v in values):
            raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from None
    return values


def whole_number(text: str, lowest: int, highest: int) -> int:
    """A whole number from ``lowest`` to ``highest``; as an argparse
    ``type``, anything else exits with usage."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < lowest:
        raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {text!r}")
    if value > highest:
        raise argparse.ArgumentTypeError(f"must be <= {highest}, got {text!r}")
    return value


#: argparse ``type`` of a count flag, and of the RNG seed
positive_int = partial(whole_number, lowest=1, highest=MAX_COUNT)
nonnegative_int = partial(whole_number, lowest=0, highest=MAX_SEED)


def nonnegative_float(text: str) -> float:
    """argparse ``type`` of a size flag: a finite number >= 0."""
    try:
        value = _number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _cell(value) -> str:
    """One CSV cell or summary value: a float to 17 significant digits, any
    other value as ``str`` writes it, quoted where it holds a comma, a quote
    or a newline (a float never does, so it is formatted first)."""
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def csv_body(rows: Sequence[Sequence], width: int) -> str:
    """The CSV lines of ``rows`` of ``width`` values, through one %-format of
    them all: ``%.17g`` for a column of plain floats (the text ``_cell``
    gives a float), ``%s`` over the ``_cell`` text of any other column."""
    floats = [set(map(type, map(itemgetter(i), rows))) == {float} for i in range(width)]
    if not all(floats):
        rows = [[v if f else _cell(v) for v, f in zip(row, floats)] for row in rows]
    return (",".join("%.17g" if f else "%s" for f in floats) + "\n") * len(rows) % tuple(chain.from_iterable(rows))


def write_csv(
    spec: ScanSpec, names: Sequence[str], rows: Sequence[Sequence], summary: dict, rendered: str = ""
) -> None:
    """Write the header lines, the ``csv_body`` of ``rows``, then
    ``rendered``, rows that ``csv_body`` has rendered already (``section``
    renders each block of its table where the block runs)."""
    lines = [
        f"# annular-billiards {__version__}",
        f"# spec: {json.dumps(spec.echo(), sort_keys=True)}",
    ]
    for key, val in sorted(summary.items()):
        lines.append(f"# summary {key}: {_cell(val)}")
    lines.append(",".join(names))
    _write_text(spec.out, "\n".join(lines) + "\n" + csv_body(rows, len(names)) + rendered)


def write_json(spec: ScanSpec, rows: list[dict], summary: dict) -> None:
    doc = {"spec": spec.echo(), "rows": rows, "summary": summary}
    _write_text(spec.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_table(spec: ScanSpec, names: Sequence[str], rows: Sequence[Sequence], summary: dict) -> int:
    """Write a table of rows, one value per name, in the requested text
    format (svg is refused at parse time for commands without a renderer)."""
    if spec.fmt == "json":
        write_json(spec, [dict(zip(names, row)) for row in rows], summary)
    else:
        write_csv(spec, names, rows, summary)
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


def region_svg(deltas, r_min, r_delta, window) -> str:
    upper = [(d, r) for d, r, stable in zip(deltas, r_delta, window) if stable]
    lower = [(d, rm) for d, rm, stable in zip(deltas, r_min, window) if stable]
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
# scan workers: one outcome per grid point
# ---------------------------------------------------------------------------


def _refused(exc: BilliardError) -> tuple:
    """The outcome columns of a stability row that ``exc`` refused."""
    return "", "", "", f"{type(exc).__name__}: {exc}"


def _stability_row(n: int, k: int, R: float, delta: float) -> tuple:
    """(trace_closed, trace_numeric, classification, skip_reason) of one
    table: built, ray-traced and linearised, or refused on the way with the
    refusal as its ``skip_reason``."""
    try:
        (a, _), (_, d) = _cli.monodromy(_cli.build_type_a(_cli.TableParams.type_a(n, k, R, delta)))
        closed = _cli.trace_closed_form(n, k, R, delta)
        return closed, a + d, _cli.classify(closed).value, ""
    except BilliardError as exc:
        return _refused(exc)


def _birkhoff_point(n: int, eps: float) -> tuple:
    """(mu, A_numeric, A_closed_leading, skip_reason) of one twist-scan point:
    its map built, pushed and reduced to the twist coefficient, or refused
    on the way with the refusal as its ``skip_reason``."""
    try:
        report = _cli.birkhoff_A(_cli.taylor_jet(_cli.ReducedMap(n, eps)))
        return report.mu, report.A, _cli.closed_form_A(n, eps), ""
    except BilliardError as exc:
        try:
            closed = _cli.closed_form_A(n, eps)
        except BilliardError:
            closed = ""
        return "", "", closed, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_stability(spec: ScanSpec) -> int:
    p = spec.params
    rows = []
    for n in p["n"]:
        for k in p["k"]:
            for delta in p["delta"]:
                rs = p["R"]
                if rs is None:
                    try:
                        cap = _cli.max_radius(n, k, delta)
                    except BilliardError as exc:
                        rows.append((n, k, "", delta, *_refused(exc)))
                        continue
                    rs = _linspace(0.05 * cap, cap, 25)
                rows.extend((n, k, R, delta, *_stability_row(n, k, R, delta)) for R in rs)
    names = ("n", "k", "R", "delta", "trace_closed", "trace_numeric", "classification", "skip_reason")
    summary = {"points": len(rows), "skipped": sum(bool(row[-1]) for row in rows)}
    return write_table(spec, names, rows, summary)


def cmd_region(spec: ScanSpec) -> int:
    p = spec.params
    n = p["n"][0]
    dstar = _cli.delta_star(n)
    deltas = _linspace(0.0, min(1.25 * dstar, 0.999 * math.sin(math.pi / n)), p["count"])
    r_min = [_cli.bifurcation_radius(n, 1, d) for d in deltas]
    r_del = [_cli.max_radius(n, 1, d) for d in deltas]
    window = [_cli.admissible_interval(n, 1, d) is not None for d in deltas]
    if spec.fmt == "svg":
        _write_text(spec.out, region_svg(deltas, r_min, r_del, window))
        return 0
    rows = list(zip(deltas, r_min, r_del, window))
    return write_table(spec, ("delta", "R_min", "R_delta", "stable_window"), rows, {"n": n, "delta_star": dstar})


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
    points = [(n, e, *_birkhoff_point(n, e)) for n in p["n"] for e in p["eps"]]
    summary: dict = {"points": len(points)}
    for n in p["n"]:
        at = _extrapolate_ladder(p["eps"], [a for m, _, _, a, _, _ in points if m == n])
        summary[f"A_tilde_n{n}"] = at if at is not None else ""
        try:
            summary[f"A_tilde_closed_n{n}"] = _cli.twist_limit(n)
        except BilliardError:
            summary[f"A_tilde_closed_n{n}"] = ""
    names = ("n", "eps", "mu", "A_numeric", "A_closed_leading", "A_tilde", "skip_reason")
    rows = [(n, e, mu, a, lead, summary[f"A_tilde_n{n}"], reason) for n, e, mu, a, lead, reason in points]
    return write_table(spec, names, rows, summary)


def cmd_orbit(spec: ScanSpec) -> int:
    p = spec.params
    n = p["n"][0]
    if p["eps"] is not None:
        orbit = _cli.build_type_b(n, p["eps"][0])
    else:
        k, delta = p["k"][0], p["delta"][0]
        R = p["R"][0] if p["R"] is not None else 0.5 * _cli.max_radius(n, k, delta)
        orbit = _cli.build_type_a(_cli.TableParams.type_a(n, k, R, delta))
    if spec.fmt == "svg":
        _write_text(spec.out, orbit_svg(orbit))
        return 0
    if spec.fmt == "csv":
        return write_table(spec, ("x", "y"), orbit.polyline(), {"closure_residual": orbit.closure_residual})
    write_json(spec, [orbit.to_json_dict()], {})
    return 0


#: the fewest seed-iterations a ``section`` block holds.  A forked block
#: costs a few ms beyond its work: the fork (~1 ms), the child's start, exit
#: and reaping (~1.5 ms), and the pipe.  Timing ``main`` in fresh processes
#: (8 seeds, 25 alternating runs, 2-core VM), two blocks of 4096 took a
#: minimum of 25.0 ms against 31.9 ms for one block of 8192; two of 2048
#: took 18.5 ms against 19.1 ms, and more than one block in the median
MIN_BLOCK = 4096


def cmd_section(spec: ScanSpec) -> int:
    p = spec.params
    n = p["n"][0]
    eps = p["eps"][0]
    radius, iters, seeds, seed = p["radius"], p["iterations"], p["seeds"], p["seed"]
    csv = spec.fmt == "csv"
    sampler = _cli.island_sampler  # its module loads once, before any fork

    def block(ring: range):
        # each block renders its CSV rows where it runs, and reports as a plain tuple
        report, cloud = sampler(n, eps, radius, iters, ring.stop, seed, ring.start)
        return tuple(report), csv_body(cloud, 2) if csv else cloud

    blocks = max(1, min(_cli.usable_cpus(), seeds, seeds * iters // MIN_BLOCK))
    reports, parts = zip(*_cli.in_blocks(block, seeds, blocks))
    reports = list(map(_cli.IslandReport._make, reports))
    # the largest excursion, and the escape of the first block that escaped
    first = next((report for report in reports if report.escaped), reports[0])
    summary = {
        "n": n,
        "eps": eps,
        "radius": radius,
        "iterations": iters,
        "max_excursion": max(report.max_excursion for report in reports),
        "escaped": first.escaped,
        "escape_seed": first.escape_seed if first.escaped else "",
        "escape_iteration": first.escape_iteration if first.escaped else "",
    }
    if csv:
        write_csv(spec, ("s", "r"), (), summary, "".join(parts))
        return 0
    return write_table(spec, ("s", "r"), list(chain.from_iterable(parts)), summary)


def cmd_lemma(spec: ScanSpec) -> int:
    p = spec.params
    # 400 points from 1.01 to 1e4 evenly spaced in log10, both ends exact, as
    # numpy.geomspace spaces them
    xs = p["x"] or [1.01, *(10.0**y for y in _linspace(math.log10(1.01), 4.0, 400)[1:-1]), 1e4]
    fs = [_cli.lemma_f(x) for x in xs]
    summary = {
        "monotone_on_grid": all(b > a for a, b in zip(fs, fs[1:])),
        "sup_f_on_grid": max(fs),
        "bound_two_pi": 2.0 * math.pi,
        **{f"n_{k}": _cli.min_period_for_k(k) or "none" for k in range(2, 8)},
    }
    return write_table(spec, ("x", "f", "max_k"), [(x, f, math.floor(f)) for x, f in zip(xs, fs)], summary)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_INTS = partial(parse_values, cast=int)


def _periods(text: str) -> list[int]:
    """argparse ``type`` of ``--n``: ``_INTS`` values, none above ``MAX_COUNT``."""
    if max(values := _INTS(text)) > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_COUNT}, got {text!r}")
    return values


class Flag(NamedTuple):
    """A flag that a subcommand reads: its argparse ``type`` and default.

    A ``single`` flag parses a list but takes one value; a ``required`` flag
    has no default.
    """

    type: Callable
    default: object = None
    single: bool = False
    required: bool = False


class Contract(NamedTuple):
    """A subcommand: what runs it, the flags it reads and its formats."""

    run: Callable[[ScanSpec], int]
    help: str
    flags: dict[str, Flag]
    formats: tuple[str, ...] = ("csv", "json")


_N = Flag(_periods, required=True)
_ONE_N = Flag(_periods, single=True, required=True)
_SVG = ("csv", "json", "svg")

#: every subcommand's contract; the parser, the checks in ``_spec_error`` and
#: the echoed params all come from it
COMMANDS = {
    "stability": Contract(cmd_stability, "trace scan over (n, k, R, delta) tables", {
        "n": _N, "k": Flag(_INTS, [1]), "R": Flag(parse_values), "delta": Flag(parse_values, [0.0]),
    }),
    "region": Contract(cmd_region, "stable-radius window versus displacement (k = 1)", {
        "n": _ONE_N, "count": Flag(positive_int, 400),
    }, _SVG),
    "birkhoff": Contract(cmd_birkhoff, "twist coefficient over (n, eps) with ladder extrapolation", {
        "n": _N, "eps": Flag(parse_values, required=True),
    }),
    "orbit": Contract(cmd_orbit, "construct and render one periodic orbit", {
        "n": _ONE_N, "k": Flag(_INTS, [1], single=True), "R": Flag(parse_values, single=True),
        "delta": Flag(parse_values, [0.0], single=True), "eps": Flag(parse_values, single=True),
    }, _SVG),
    "section": Contract(cmd_section, "iterate the period map near the tangent orbit", {
        "n": _ONE_N, "eps": Flag(parse_values, single=True, required=True),
        "radius": Flag(nonnegative_float, 1e-4), "iterations": Flag(positive_int, 10000),
        "seeds": Flag(positive_int, 8), "seed": Flag(nonnegative_int, 0),
    }),
    "lemma": Contract(cmd_lemma, "winding-number bound function f and the n_k table", {
        "x": Flag(parse_values),
    }),
}


class _SubcommandParser(argparse.ArgumentParser):
    """Reports a flag its subcommand does not read with that subcommand's usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given the name of a subcommand, it holds
    that subcommand's parser alone, which parses its arguments and reports
    their errors as the full parser does; given anything else (``-h``,
    ``--version``, an unknown word or None), it holds every subcommand."""
    parser = argparse.ArgumentParser(
        prog="annular-billiards",
        description="Stability toolkit for annular billiards with a chord-mounted scatterer.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name in [command] if command in COMMANDS else COMMANDS:
        contract = COMMANDS[name]
        sub = subs.add_parser(
            name, help=contract.help, epilog="numeric flags take a value, a comma list, or start:stop:count"
        )
        for flag, spec in contract.flags.items():
            sub.add_argument(f"--{flag}", type=spec.type, default=spec.default)
        sub.add_argument("--format", dest="fmt", choices=contract.formats, default="csv")
        sub.add_argument("--out", type=str, default=None, help="output path ('-' = stdout)")
    return parser


def _spec_error(spec: ScanSpec) -> str | None:
    """Why a parsed request cannot run as given, or None."""
    p, flags = spec.params, COMMANDS[spec.command].flags
    if spec.out in (None, "-") and sys.stdout is None:
        return "stdout is closed; name an output file with --out"
    for name, flag in flags.items():
        if flag.required and p[name] is None:
            return f"{spec.command} needs --{name}"
        if flag.single and p[name] is not None and len(p[name]) > 1:
            return f"{spec.command} takes a single --{name} value, got {len(p[name])}"
    if spec.command == "orbit" and p["eps"] is not None:
        mixed = [f"--{name}" for name in ("k", "R", "delta") if p[name] != flags[name].default]
        if mixed:
            return f"orbit --eps builds the tangent-table orbit, which takes no {', '.join(mixed)}"
    if spec.command == "section" and (points := p["seeds"] * p["iterations"]) > MAX_COUNT:
        return f"section keeps at most {MAX_COUNT} iterates, got --seeds x --iterations = {points}"
    if spec.command == "birkhoff":
        # the ladder extrapolation divides by differences of detunings, and a
        # repeated n would pool two ladders into one
        for flag in ("n", "eps"):
            if len(set(p[flag])) < len(p[flag]):
                return f"birkhoff needs distinct --{flag} values, got {p[flag]}"
    return None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    params = {name: getattr(args, name) for name in COMMANDS[args.command].flags}
    spec = ScanSpec(args.command, params, args.fmt, args.out)
    error = _spec_error(spec)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[spec.command].run(spec)
    except BilliardError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:
        return _unwritten(exc)


def _unwritten(exc: OSError) -> int:
    """Report an output that could not be written in one ``error:`` line: status 1."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


def entry() -> NoReturn:
    """The process entry, for ``python -m annular_billiards.cli`` and the
    ``annular-billiards`` script: run ``main`` on the command line and end
    the process once its output is flushed.

    The status is ``main``'s return, or the code of the ``SystemExit`` that
    argparse raises, read as ``sys.exit`` reads it.  The ``atexit``
    callbacks run, stdout and then stderr are flushed, and ``os._exit``
    skips the interpreter's teardown, which frees every object one at a
    time.  A reader that closed the pipe early leaves the status as it is,
    as in ``main``; any other failed flush is reported as ``main`` reports
    a failed write, unless ``main`` has already failed.  Any other exception
    propagates, with its traceback and a normal teardown.
    """
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code
    if status is None:
        status = 0
    elif not isinstance(status, int):
        print(status, file=sys.stderr)
        status = 1
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except BrokenPipeError:
                pass
            except OSError as exc:
                status = status or _unwritten(exc)
    os._exit(status)


if __name__ == "__main__":
    entry()
