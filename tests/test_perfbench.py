"""The benchmark's traced child run, on small versions of its workloads.

``perfbench/run.py`` rejects a traced run in which a wrapper listed in
the workload's ``must_fire`` records no call, for instance after the
program stops calling a traced function by its traced name, and it
stops on a per-layer metric declared in ``BENCHMARK.json`` that
``tracer.per_layer`` does not report (the p50/p90 figures need 100
calls).  Each workload runs ``perfbench/child.py ... trace`` once, in a
fresh process, on the workload's config with a coarser mesh and fewer
continuation steps, and the tests check both conditions on its spans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

DECLARED = [m["name"] for m in
            json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]

# Coarse meshes by dimension and a short continuation keep each run to
# a few seconds.
SMALL_RESOLUTION = {"1": "400", "2": "8"}
SMALL_STEPS = "10"


def small_config(w) -> str:
    entries = [line.partition("=") for line in workloads.config_text(w, 1.0).splitlines()]
    dim = next(v.strip() for k, _, v in entries if k.strip() == "mesh.dim")
    small = {"mesh.resolution": SMALL_RESOLUTION[dim], "branch.steps": SMALL_STEPS}
    lines = []
    for key, eq, value in entries:
        key = key.strip()
        lines.append(f"{key} = {small[key]}" if eq and key in small else f"{key}{eq}{value}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request, tmp_path_factory):
    """(workload, result record) of one traced child run."""
    w = workloads.WORKLOADS[request.param]
    tmp_path = tmp_path_factory.mktemp(w.name)
    config = tmp_path / "run.cfg"
    config.write_text(small_config(w))
    result = tmp_path / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), w.subcommand, str(config),
         str(tmp_path / "out"), str(result), "trace"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["code"] == 0, proc.stderr
    return w, record


def test_traced_child_fires_every_required_wrapper(traced):
    w, record = traced
    missing = set(w.must_fire) - {span[0] for span in record["spans"]}
    assert not missing, f"wrappers recorded no call: {sorted(missing)}"


def test_traced_child_reports_every_declared_metric(traced):
    _, record = traced
    layers = tracer.per_layer(record["spans"], record["solve_s"], record["solve_s"])
    absent = [name for name in DECLARED if layers.get(name, {}).get("value") is None]
    assert not absent, f"declared per-layer metrics not reported: {absent}"
