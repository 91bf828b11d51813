"""Every name the benchmark's tracer patches must exist in the package.

perfbench/tracer.py looks each (module, attribute) up with a bare getattr when
it installs, so a renamed or deleted function breaks every traced benchmark
run. It also reads the oracle's density batch from the densities that reach
`jc_evolve` inside `master_fringe`. The tracer is loaded from its path, as a
file, and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from conftest import variant_deviations
from dense_reference import pure_density, split_vacuum_state

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
NAMES = ([(m, None, attr) for m, attr, *_ in tracer.SPANS]
         + [(m, cls, attr) for m, cls, attr, _ in tracer.METHOD_SPANS]
         + [(m, cls, attr) for m, cls, attr, _ in tracer.COUNTERS])


@pytest.mark.parametrize("module, cls, attr", NAMES)
def test_traced_name_resolves(module, cls, attr):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


def test_tracer_sees_the_oracle_density_batch():
    # the batch and level count give open_system.state_bytes; master_fringe
    # reads its fringe from the waited chain of the density's entries, so no
    # density reaches jc_evolve: the batch, the levels and state_bytes are 0
    open_system = importlib.import_module(f"{tracer.PACKAGE}.open_system")
    t = tracer.Tracer()
    t.install()
    try:
        open_system.master_fringe(0.04, 0.7)
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
    trace = t.dump()
    [fringe] = trace["fringe"]
    assert fringe["point"] == "T0.04_nbar0.7"
    assert (fringe["batch"], fringe["levels"]) == (0, 0)
    assert tracer.layer_metrics(trace, 1.0)["open_system.state_bytes"] == 0



def test_tracer_takes_array_densities():
    # joint densities are plain arrays: the tracer's jc_evolve hook probes
    # its first argument for `.mat`, which an array lacks, so both traced
    # calls go through, count no density batch and leave no wrapper behind
    jc = importlib.import_module(f"{tracer.PACKAGE}.jc")
    open_system = importlib.import_module(f"{tracer.PACKAGE}.open_system")
    rho = pure_density(split_vacuum_state(0.3))
    t = tracer.Tracer()
    t.install()
    try:
        waited = open_system.evolve_master(rho, 0.04, 0.7)
        pulsed = jc.jc_evolve(waited, 0.5)
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
    for out in (waited, pulsed):
        assert isinstance(out, np.ndarray) and out.shape == rho.shape
    trace = t.dump()
    assert [span[0] for span in trace["spans"]] == ["open_system.evolve_master",
                                                   "jc.jc_evolve"]
    assert tracer.layer_metrics(trace, 1.0)["open_system.state_bytes"] == 0

def test_traced_variant_selection_and_selftest_label_every_fringe():
    # the tracer labels each master_fringe span by formatting its T and nbar
    # with :g, which a wait array would break; the variant comparison sweeps
    # arrays of waits, so they must not reach master_fringe
    experiments = importlib.import_module(f"{tracer.PACKAGE}.experiments")
    config = importlib.import_module(f"{tracer.PACKAGE}.config")
    t = tracer.Tracer()
    t.install()
    try:
        assert variant_deviations()["A"] < 1e-6
        report = experiments.run_selftest(config.PhysicalConfig(tau_s=80e-6))
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
    assert report.meta["all_pass"]
    fringes = t.dump()["fringe"]
    assert fringes
    assert all(isinstance(f["point"], str) and f["point"] for f in fringes)
    assert {f["point"] for f in fringes} == set(tracer.ORACLE_POINTS)
