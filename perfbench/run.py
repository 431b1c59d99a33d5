"""Benchmark of the annular-billiards command line, end to end and per layer.

    python3 perfbench/run.py --workload stability-scan --seed 1 --seconds 20 --trace 0

Workloads (request lists in ``workloads.py``): ``stability-scan``,
``twist-scan``, ``island-section``.  The program is run from ``src/`` of the
checkout this file sits in; nothing is installed.

``--trace 0`` is the timed run: a closed loop with one client that runs the
CLI as a subprocess, one request at a time, replaying the seed's fixed
request list in whole passes until ``--seconds`` have passed.

On a shared machine (a 2-core VM) the speed drifts by up to ~40% for
minutes at a time, more for starting processes than for running Python
code, and a run's own medians cannot remove drifts that long.  So two speed
references of fixed code run before each request: a start-up one,
``python -c "import numpy"`` (the start-up every CLI request pays before the
package's own imports), and a compute one, a pure-Python loop in this
process.  Timed-run walls are reported as they would read on the reference
machine: the start-up part of each wall (the median ``--version`` wall)
scaled by the start-up reference's time there over its median time in the
run, and the rest by the compute reference's.  The raw figures go to the
run record.

``--trace 1`` is the traced run: one subprocess pass, then in-process passes
of ``cli.main`` alternating untraced and traced, with spans around each
layer's public calls (``tracer.py``).  Per-layer figures are per pass of the
request list.  The program is single-threaded with no queue, so no layer
ever waits on another and no waiting time is reported.

Both modes check every request: exit status, byte identity of the
subprocess output with ``cli.main``'s in-process output for the same argv,
and the workload's output checks (``checks.py``).  The last stdout line is
the JSON result; the run record (versions, machine, seed) goes to stderr and,
with the spans, to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CHECKS  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, requests_for  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

#: limit on one CLI subprocess; a whole run must end within 180 s
CHILD_TIMEOUT_S = 60.0

#: untimed warm-up before measuring: the machine runs slower for the first
#: seconds of load after an idle spell
WARMUP_S = 3.0

#: ``--version`` runs before the first pass and after each pass; their
#: median is the start-up part of every request's wall
SETUP_GROUP = 4

#: package-import samples of the traced run
IMPORT_SAMPLES = 7

#: the start-up speed reference: a subprocess that imports numpy
STARTUP_REF = ("-c", "import numpy")

#: the compute speed reference: the fastest of ``COMPUTE_REF_REPEATS`` runs
#: of a pure-Python loop of ``COMPUTE_REF_LOOPS`` iterations
COMPUTE_REF_LOOPS = 100_000
COMPUTE_REF_REPEATS = 3

#: the references' times on the reference machine (a 2-core Intel Xeon VM,
#: Python 3.11, numpy 2.4); timed-run walls are reported as they would read
#: there (see ``Run.scaled``)
STARTUP_REF_S = 0.15
COMPUTE_REF_S = 0.008

CLI = ("-m", "annular_billiards.cli")
IMPORT_TIMER = (
    "-c",
    "import time; t = time.perf_counter(); import annular_billiards.cli; "
    "print(time.perf_counter() - t)",
)


def compute_ref_s() -> float:
    """Time the compute speed reference."""
    best = float("inf")
    for _ in range(COMPUTE_REF_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(COMPUTE_REF_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Child(NamedTuple):
    """Outcome of one CLI subprocess."""

    wall_s: float
    exit_code: int
    max_rss_kb: int
    stderr: str


def run_child(args, stderr_path: Path) -> Child:
    """Run ``python <args>`` and time it from spawn to reaping."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.DEVNULL, stderr=err, env=CHILD_ENV, cwd=ROOT
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss, stderr_path.read_text(errors="replace"))


def sha256(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return "missing"


def load_package() -> SimpleNamespace:
    """Import the package under test from ``src/``; returns its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import annular_billiards
    from annular_billiards import billiard_map, birkhoff, cli, errors, geometry, jets, orbits

    return SimpleNamespace(
        billiard_map=billiard_map, birkhoff=birkhoff, cli=cli, errors=errors,
        geometry=geometry, jets=jets, orbits=orbits, version=annular_billiards.__version__,
    )


class Run:
    """One benchmark run: a workload, a seed and its request list."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.requests = requests_for(workload, seed, scale)
        self.work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "out").mkdir(parents=True)
        self.api = load_package()
        self.attempts: list[tuple[int, Child, str]] = []  # (request index, child, output hash)
        self.reference: dict[int, str] = {}  # request index -> in-process output hash
        self.problems: dict[int, list[str]] = {}
        self.health = {"rows": 0, "skips": Counter(), "trace_abs_diff_max": 0.0}
        self.setup_walls: list[float] = []
        self.startup_refs: list[float] = []
        self.compute_refs: list[float] = []

    def out_path(self, i: int, tag: str) -> Path:
        return self.work / "out" / f"{tag}-{i}.csv"

    def argv(self, i: int, tag: str) -> list[str]:
        return [*self.requests[i].argv, "--out", str(self.out_path(i, tag))]

    # -- subprocess side -------------------------------------------------

    def cli_child(self, i: int, tag: str = "child") -> Child:
        """Run request ``i`` as a CLI subprocess writing to its ``tag`` output."""
        return run_child([*CLI, *self.argv(i, tag)], self.work / "stderr.txt")

    def warm_up(self) -> None:
        """Untimed requests, cycling the list, until ``WARMUP_S`` have passed:
        bytecode compilation, file cache, and the machine's own ramp-up."""
        t0 = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - t0 < WARMUP_S:
            self.cli_child(i % len(self.requests), "warmup")
            i += 1

    def run_speed_refs(self) -> None:
        self.startup_refs.append(run_child(STARTUP_REF, self.work / "stderr.txt").wall_s)
        self.compute_refs.append(compute_ref_s())

    def scaled(self, wall: float) -> float:
        """A CLI wall of this run as it would read on the reference machine:
        its start-up part and the rest, each scaled by its speed reference."""
        startup = statistics.median(self.setup_walls)
        startup_scale = STARTUP_REF_S / statistics.median(self.startup_refs)
        compute_scale = COMPUTE_REF_S / statistics.median(self.compute_refs)
        return startup * startup_scale + (wall - startup) * compute_scale

    def measure_setup(self) -> None:
        for _ in range(SETUP_GROUP):
            self.run_speed_refs()
            self.setup_walls.append(run_child([*CLI, "--version"], self.work / "stderr.txt").wall_s)

    def subprocess_passes(self, seconds: float, measure_setup: bool = False) -> None:
        """Closed loop, one client: whole passes until ``seconds`` have
        passed, each request after a run of the speed references."""
        t0, passes = time.perf_counter(), 0
        if measure_setup:
            self.measure_setup()
        while passes == 0 or time.perf_counter() - t0 < seconds:
            for i in range(len(self.requests)):
                self.run_speed_refs()
                child = self.cli_child(i)
                self.attempts.append((i, child, sha256(self.out_path(i, "child"))))
            passes += 1
            if measure_setup:
                self.measure_setup()

    def median_import_s(self) -> float:
        times = []
        for _ in range(IMPORT_SAMPLES):
            done = subprocess.run(
                [sys.executable, *IMPORT_TIMER], capture_output=True, text=True,
                env=CHILD_ENV, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
            )
            times.append(float(done.stdout))
        return statistics.median(times)

    # -- in-process side ---------------------------------------------------

    def replay(self, main, tag: str, tracer: Tracer | None = None) -> float:
        """Run every request through ``main`` in this process; returns the
        summed wall time of the ``main`` calls."""
        total = 0.0
        for i in range(len(self.requests)):
            if tracer is not None:
                tracer.request = i
            argv = self.argv(i, tag)
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash fails the request, not the benchmark
                code = traceback.format_exc(limit=-3)
            total += time.perf_counter() - t0
            digest = sha256(self.out_path(i, tag))
            if code != 0:
                self.problems.setdefault(i, []).append(f"in-process {tag} run: {code}")
            if self.reference.setdefault(i, digest) != digest:
                self.problems.setdefault(i, []).append(f"in-process {tag} output differs")
        return total

    def check_outputs(self) -> None:
        """Output checks on the in-process reference outputs, byte identity of
        every subprocess attempt with them, and health counts."""
        check = CHECKS[self.workload]
        for i, req in enumerate(self.requests):
            try:
                problems, health = check(req.argv, self.out_path(i, "ref").read_text(), self.api)
            except Exception as exc:  # unreadable or malformed output
                self.problems.setdefault(i, []).append(f"output check failed: {exc!r}")
                continue
            self.problems.setdefault(i, []).extend(problems)
            self.health["rows"] += health["rows"]
            self.health["skips"] += health["skips"]
            self.health["trace_abs_diff_max"] = max(
                self.health["trace_abs_diff_max"], health["trace_abs_diff_max"]
            )

    def failed_attempts(self) -> list[str]:
        failed = []
        for i, child, digest in self.attempts:
            why = list(self.problems.get(i, []))
            if child.exit_code != 0:
                why.append(f"exit code {child.exit_code}: {child.stderr.strip()[-300:]}")
            if digest != self.reference.get(i):
                why.append("subprocess output differs from cli.main output")
            if why:
                failed.append(f"request {i}: " + "; ".join(why))
        return failed

    # -- the two modes -----------------------------------------------------

    def timed(self) -> dict:
        self.warm_up()
        self.subprocess_passes(self.seconds, measure_setup=True)
        self.replay(self.api.cli.main, "ref")
        self.check_outputs()
        # each request's wall time is the median of its passes, speed-scaled
        walls = [
            self.scaled(statistics.median(c.wall_s for j, c, _ in self.attempts if j == i))
            for i in range(len(self.requests))
        ]
        items = sum(r.items for r in self.requests)
        failed = len(self.failed_attempts())
        return {
            "items_per_s": items / sum(walls),
            "request_s_p50": statistics.median(walls),
            "setup_s": self.scaled(statistics.median(self.setup_walls)),
            "peak_rss_mb": max(c.max_rss_kb for _, c, _ in self.attempts) / 1024.0,
            "ok_frac": 1.0 - failed / len(self.attempts),
        }

    def traced(self) -> dict:
        self.warm_up()
        import_s = self.median_import_s()
        self.subprocess_passes(0.0)
        tracer = Tracer()
        main = self.api.cli.main
        traced_main = tracer.wrap("cli.main", main)
        plain_s = traced_s = 0.0
        passes = 0
        while passes == 0 or plain_s + traced_s < self.seconds:
            plain_s += self.replay(main, "ref")
            with tracer.installed(self.api):
                traced_s += self.replay(traced_main, "traced", tracer)
            passes += 1
        self.check_outputs()
        tracer.write_spans(self.work / "spans.csv")
        return layer_metrics(tracer, passes, plain_s, traced_s, import_s, self)


def layer_metrics(t: Tracer, passes: int, plain_s: float, traced_s: float, import_s: float, run: Run) -> dict:
    """Per-layer figures for one pass of the request list."""

    def per_pass(x):
        return x / passes

    def us_per_call(name):
        return 1e6 * t.busy(name) / t.calls(name) if t.calls(name) else 0.0

    rows = run.health["rows"]
    skipped = sum(run.health["skips"].values())
    skipped_frac = skipped / rows if rows else 0.0
    tangency = sum(c.stderr.count("TangencyWarning") for _, c, _ in run.attempts)
    metrics = {
        "cli.import_s": import_s,
        "cli.main.busy_s": per_pass(t.busy("cli.main")),
        "cli.write.busy_s": per_pass(t.busy("cli.write")),
        "cli.write.bytes": per_pass(t.counts["cli.write.bytes"]),
        "geometry.calls": per_pass(t.layer_total("geometry", 0)),
        "geometry.busy_s": per_pass(t.layer_total("geometry", 1)),
        "orbits.build_type_a.calls": per_pass(t.calls("orbits.build_type_a")),
        "orbits.build_type_a.busy_s": per_pass(t.busy("orbits.build_type_a")),
        "orbits.verify_closure.busy_s": per_pass(t.busy("orbits.verify_closure")),
        "orbits.collisions": per_pass(t.counts["orbits.collisions"]),
        "billiard_map.generic_step.us_per_call": us_per_call("billiard_map.generic_step"),
        "billiard_map.half_period.float.calls": per_pass(t.calls("billiard_map.half_period.float")),
        "billiard_map.half_period.float.us_per_call": us_per_call("billiard_map.half_period.float"),
        "linear_stability.monodromy.calls": per_pass(t.calls("linear_stability.monodromy")),
        "linear_stability.monodromy.busy_s": per_pass(t.busy("linear_stability.monodromy")),
        "linear_stability.trace_closed_form.busy_s": per_pass(t.busy("linear_stability.trace_closed_form")),
        "jets.mul.us_per_call": us_per_call("jets.mul"),
        "jets.push.busy_s": per_pass(t.busy("jets.push")),
        "birkhoff.taylor_jet.calls": per_pass(t.calls("birkhoff.taylor_jet")),
        "birkhoff.taylor_jet.busy_s": per_pass(t.busy("birkhoff.taylor_jet")),
        "birkhoff.birkhoff_A.busy_s": per_pass(t.busy("birkhoff.birkhoff_A")),
        "birkhoff.island_sampler.busy_s": per_pass(t.busy("birkhoff.island_sampler")),
        "birkhoff.island_sampler.self_s": per_pass(t.self_s("birkhoff.island_sampler")),
        "orbits.skipped_frac": skipped_frac if run.workload == "stability-scan" else 0.0,
        "birkhoff.skipped_frac": skipped_frac if run.workload == "twist-scan" else 0.0,
        "billiard_map.tangency_warnings": tangency,
        "linear_stability.trace_abs_diff_max": run.health["trace_abs_diff_max"],
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        "trace.spans": per_pass(len(t.spans)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_pass(t.layer_total(layer, 2))
    return metrics


def run_record(run: Run) -> dict:
    import mpmath
    import numpy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": int(run.trace),
        "requests": len(run.requests),
        "attempts": len(run.attempts),
        "subprocess_passes": len(run.attempts) // len(run.requests),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "package": run.api.version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "skips_by_class": dict(run.health["skips"]),
        "startup_ref_s": statistics.median(run.startup_refs),
        "compute_ref_s": statistics.median(run.compute_refs),
        "raw_setup_s": statistics.median(run.setup_walls) if run.setup_walls else None,
        "raw_request_s": [
            statistics.median(c.wall_s for j, c, _ in run.attempts if j == i)
            for i in range(len(run.requests))
        ],
        "waiting": "none: single-threaded, no queue; spans only nest",
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> tuple[dict, dict]:
    """Run one benchmark; returns (result object, run record)."""
    run = Run(workload, seed, seconds, trace, scale)
    values = run.traced() if trace else run.timed()
    failed = run.failed_attempts()
    units = declared_metrics(trace)
    mismatch = set(units) ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics computed and declared differ: {sorted(mismatch)}")
    record = run_record(run)
    record["failures"] = failed[:20]
    result = {
        "correct": not failed,
        "attempted": len(run.attempts),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for i in range(len(run.requests)):  # outputs are bulky; keep spans and record
        for tag in ("warmup", "child", "ref", "traced"):
            run.out_path(i, tag).unlink(missing_ok=True)
    (run.work / "record.json").write_text(json.dumps({**record, "result": result}, indent=2) + "\n")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "annular_billiards" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC}", file=sys.stderr)
        return 2
    result, record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
