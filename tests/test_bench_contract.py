"""The benchmark's trace plan still fits the package.

``perfbench/tracer.py`` patches named attributes of the package's modules to
time each layer.  If a refactor moves or renames one of them, the traced run
either fails or silently reads zero calls for a layer.  This test enters the
tracer on tiny requests of the three benchmark workloads' subcommands and
checks that the hot layers are seen and that every patch is undone.  It also
runs the benchmark's twist output check, whose audit calls the package, on a
small output.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import annular_billiards
from annular_billiards import billiard_map, birkhoff, cli, errors, geometry, jets, orbits

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("tracer")


@pytest.fixture(scope="module")
def checks_module():
    return _load("checks")


@pytest.fixture
def pkg():
    # the same namespace perfbench/run.py:load_package hands to the tracer
    return SimpleNamespace(
        billiard_map=billiard_map, birkhoff=birkhoff, cli=cli, errors=errors,
        geometry=geometry, jets=jets, orbits=orbits, version=annular_billiards.__version__,
    )


def test_trace_plan_sees_hot_layers_and_restores(tracer_module, pkg, tmp_path):
    Tracer = tracer_module.Tracer
    targets = [(owner, attr) for owner, attr, _ in Tracer()._plan(pkg)]
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in targets}
    requests = [
        ["stability", "--n", "5", "--delta", "0.02", "--R", "0.1:0.15:2"],
        ["birkhoff", "--n", "3", "--eps", "0.01"],
        ["section", "--n", "3", "--eps", "0.02", "--seeds", "8", "--iterations", "10"],
    ]
    tracer = Tracer()
    with tracer.installed(pkg):
        for owner, attr in targets:
            assert owner.__dict__[attr] is not originals[owner, attr], attr
        for i, argv in enumerate(requests):
            assert cli.main(argv + ["--out", str(tmp_path / f"{i}.csv")]) == 0
    for name in ("orbits.build_type_a", "jets.mul", "billiard_map.half_period.float"):
        assert tracer.calls(name) > 0, name
    for owner, attr in targets:
        assert owner.__dict__[attr] is originals[owner, attr], attr


def test_section_maps_each_seed_once_per_half_period(tracer_module, pkg, tmp_path):
    # 8 seeds, 10 iterations, none escaping: each seed is stepped alone on
    # floats, so the tracer counts 2 * 8 * 10 float-map calls
    tracer = tracer_module.Tracer()
    argv = ["section", "--n", "3", "--eps", "0.02", "--seeds", "8", "--iterations", "10"]
    with tracer.installed(pkg):
        assert cli.main(argv + ["--out", str(tmp_path / "sec.csv")]) == 0
    assert tracer.calls("billiard_map.half_period.float") == 2 * 8 * 10
    assert tracer.calls("birkhoff.island_sampler") == 1


def test_stability_layers_count_every_step_and_monodromy(tracer_module, pkg, tmp_path):
    # two n = 5 orbits of 12 collisions: one build, one closure check and
    # one monodromy per table.  The closure checks share the empty-disk
    # chains of their two half-period starts, n steps each traced once; each
    # table then traces 2 steps a half, from the chord the scatterer sits on
    # and off the scatterer.  The collision counter sees both periods
    orbits._disk_chain.cache_clear()
    tracer = tracer_module.Tracer()
    argv = ["stability", "--n", "5", "--delta", "0.02", "--R", "0.1:0.15:2"]
    with tracer.installed(pkg):
        assert cli.main(argv + ["--out", str(tmp_path / "stab.csv")]) == 0
    assert tracer.calls("orbits.build_type_a") == 2
    assert tracer.calls("orbits.verify_closure") == 2
    assert tracer.calls("billiard_map.generic_step") == 2 * 5 + 2 * 4
    assert tracer.calls("linear_stability.monodromy") == 2
    assert tracer.counts["orbits.collisions"] == 2 * 12


def test_stability_scan_over_several_periods_counts_per_table(tracer_module, pkg, tmp_path):
    # four orbits of two periods, 12 collisions at n = 5 and 16 at n = 7:
    # each table is built, traced and linearised alone.  Each (n, k) traces
    # its two empty-disk chains of n steps once, then each table 4 steps;
    # the collision counter still sees every period
    orbits._disk_chain.cache_clear()
    tracer = tracer_module.Tracer()
    argv = ["stability", "--n", "5,7", "--k", "1,2", "--delta", "0.01", "--R", "0.02"]
    with tracer.installed(pkg):
        assert cli.main(argv + ["--out", str(tmp_path / "stab.csv")]) == 0
    assert tracer.calls("orbits.build_type_a") == 4
    assert tracer.calls("orbits.verify_closure") == 4
    assert tracer.calls("billiard_map.generic_step") == 2 * (5 + 5 + 7 + 7) + 4 * 4
    assert tracer.calls("linear_stability.monodromy") == 4
    assert tracer.counts["orbits.collisions"] == 12 + 12 + 16 + 16


def test_twist_scan_pushes_each_built_map_in_its_own_jet_call(tracer_module, pkg, tmp_path):
    # 4 x 2 points, of which the two at n = 2 build no map: one taylor_jet
    # call per built map pushes it once, then one birkhoff_A per pushed
    # point
    tracer = tracer_module.Tracer()
    argv = ["birkhoff", "--n", "2,3,4,5", "--eps", "0.002,0.001"]
    with tracer.installed(pkg):
        assert cli.main(argv + ["--out", str(tmp_path / "tw.csv")]) == 0
    assert tracer.calls("birkhoff.taylor_jet") == 6
    assert tracer.calls("jets.push") == 6
    assert tracer.calls("birkhoff.birkhoff_A") == 6


def test_twist_output_passes_the_benchmark_checks(checks_module, pkg, tmp_path):
    # the benchmark's twist check reads the CSV and re-derives two points
    # with the mpmath audit through birkhoff.taylor_jet(ReducedMap(n, eps))
    argv = ["birkhoff", "--n", "3,4", "--eps", "1e-4,5e-5,2.5e-5"]
    out = tmp_path / "tw.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    problems, health = checks_module.check_twist(argv, out.read_text(), pkg)
    assert problems == []
    assert health["rows"] == 6
