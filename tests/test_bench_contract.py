"""The benchmark's trace plan still fits the package.

``perfbench/tracer.py`` patches named attributes of the package's modules to
time each layer.  If a refactor moves or renames one of them, the traced run
either fails or silently reads zero calls for a layer.  This test enters the
tracer on tiny requests of the three benchmark workloads' subcommands and
checks that the hot layers are seen and that every patch is undone.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import annular_billiards
from annular_billiards import billiard_map, birkhoff, cli, errors, geometry, jets, orbits

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_section_maps_all_seeds_in_one_call_per_half_period(tracer_module, pkg, tmp_path):
    # 8 seeds, 10 iterations: two array calls per iteration, not 2 * 8 * 10
    tracer = tracer_module.Tracer()
    argv = ["section", "--n", "3", "--eps", "0.02", "--seeds", "8", "--iterations", "10"]
    with tracer.installed(pkg):
        assert cli.main(argv + ["--out", str(tmp_path / "sec.csv")]) == 0
    assert tracer.calls("billiard_map.half_period.float") == 20
    assert tracer.calls("birkhoff.island_sampler") == 1


def test_stability_layers_count_every_step_and_monodromy(tracer_module, pkg, tmp_path):
    # two n = 5 orbits of 12 collisions: one ray-trace step per collision in
    # the closure check, one monodromy per orbit
    tracer = tracer_module.Tracer()
    argv = ["stability", "--n", "5", "--delta", "0.02", "--R", "0.1:0.15:2"]
    with tracer.installed(pkg):
        assert cli.main(argv + ["--out", str(tmp_path / "stab.csv")]) == 0
    assert tracer.calls("orbits.build_type_a") == 2
    assert tracer.calls("billiard_map.generic_step") == 24
    assert tracer.calls("linear_stability.monodromy") == 2
