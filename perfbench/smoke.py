"""Smoke test of the benchmark at its smallest size.

    python3 perfbench/smoke.py

Runs every workload once in each mode with the shortest request lists and
checks that every metric ``BENCHMARK.json`` declares is emitted, as a
number, with its declared unit, and that the unchanged program passes.  It
then corrupts outputs on purpose and checks that the output checks and the
byte-identity check catch each corruption, and that the benchmark refuses to
run where there is no program.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import CHECKS, parse_csv  # noqa: E402

SCALE = 0.05
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_metrics() -> None:
    for trace in (False, True):
        units = run.declared_metrics(trace)
        for workload in run.WORKLOADS:
            result, _ = run.bench(workload, seed=0, seconds=0.0, trace=trace, scale=SCALE)
            tag = f"{workload} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: unchanged program passes every check")
            got = result["metrics"]
            expect(set(got) == set(units), f"{tag}: emits exactly the declared metrics")
            for name, unit in units.items():
                value = got.get(name, {}).get("value")
                ok = isinstance(value, (int, float)) and math.isfinite(value)
                expect(ok and got[name]["unit"] == unit, f"{tag}: {name} is a number in {unit}")


def corrupt(text: str, column: str, change) -> str:
    """Apply ``change`` to ``column`` of the first data row that has a value."""
    lines = text.splitlines()
    _, header, _ = parse_csv(text)
    col = header.index(column)
    start = next(i for i, line in enumerate(lines) if line == ",".join(header)) + 1
    for i in range(start, len(lines)):
        fields = lines[i].split(",", len(header) - 1)
        if fields[col]:
            fields[col] = change(fields[col])
            lines[i] = ",".join(fields)
            return "\n".join(lines) + "\n"
    raise ValueError(f"no {column} value to corrupt")


def drop_last_row(text: str) -> str:
    return "\n".join(text.splitlines()[:-1]) + "\n"


def bump(value: str) -> str:
    return repr(float(value) * (1.0 + 1e-3))


CORRUPTIONS = {
    "stability-scan": [
        ("one trace value changed", lambda t: corrupt(t, "trace_numeric", bump)),
        ("delta = 0 row not parabolic", lambda t: corrupt(t, "classification", lambda v: "elliptic")),
        ("one row missing", drop_last_row),
    ],
    "twist-scan": [
        ("A_tilde off twist_limit", lambda t: corrupt(t, "A_tilde", bump)),
        ("A_numeric sign flipped", lambda t: corrupt(t, "A_numeric", lambda v: repr(-float(v)))),
        ("one row missing", drop_last_row),
    ],
    "island-section": [
        ("escape reported", lambda t: t.replace("# summary escaped: False", "# summary escaped: True")),
        ("one cloud row missing", drop_last_row),
        ("cloud point beyond max_excursion", lambda t: corrupt(t, "s", lambda v: repr(float(v) + 0.1))),
    ],
}


def check_corruptions() -> None:
    for workload, cases in CORRUPTIONS.items():
        bench = run.Run(workload, seed=0, seconds=0.0, trace=False, scale=SCALE)
        bench.subprocess_passes(0.0)
        bench.replay(bench.api.cli.main, "ref")
        argv = bench.requests[0].argv
        text = bench.out_path(0, "ref").read_text()
        clean, _ = CHECKS[workload](argv, text, bench.api)
        expect(not clean, f"{workload}: clean output passes its check")
        for what, change in cases:
            problems, _ = CHECKS[workload](argv, change(text), bench.api)
            expect(bool(problems), f"{workload}: check catches {what}")
        expect(not bench.failed_attempts(), f"{workload}: subprocess output matches cli.main")
        i, child, _ = bench.attempts[0]
        bench.attempts[0] = (i, child, "corrupted")
        expect(bool(bench.failed_attempts()), f"{workload}: byte-identity check catches a changed output")
        shutil.rmtree(bench.work)


def check_refuses_without_program() -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for src in HERE.glob("*.py"):
        shutil.copy(src, bare / HERE.name)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "stability-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(done.returncode != 0 and not done.stdout, "refuses to run where there is no program")
    shutil.rmtree(bare)


def main() -> int:
    check_corruptions()
    check_refuses_without_program()
    check_metrics()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
