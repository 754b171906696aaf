"""smalescan benchmark: time to a verified solution, one fresh process per run.

    python3 perfbench/run.py --workload osc1d_all --seed 0 --seconds 30 --trace 0

Run from anywhere; paths resolve from this file.  ``--workload all``
runs every workload in turn.  The load is a closed loop with one
client: a run of ``smalescan.cli.run`` starts only after the previous
process exited, and runs repeat while one more would end within ``--seconds`` (at
least one run).  Every child process gets one BLAS thread and the CLI
default of one scan thread, so the figures measure the program, not
the scheduler.  Every run's outputs are checked against the paper's
oracles (see workloads.py).

End-to-end metrics (``--trace 0``), medians over the runs of one
invocation.  A 1D solve takes about 9 s, so a 30 s invocation holds two
or three; a 2D solve takes about 25 s, so on ``disc40_index`` and
``cap40_crossing`` ``solve_s`` and ``peak_rss_mb`` come from one run
(n=1, printed with each figure):

* ``solve_s``     -- wall time of one ``cli.run`` call, config load to
                     last output written;
* ``setup_s``     -- process spawn to a constructed ``cli.Pipeline``
                     (imports, config, mesh, Assembler and Gram matrix),
                     from dedicated set-up runs plus the solve runs;
* ``peak_rss_mb`` -- peak resident memory of the run process.

``failed_frac`` is printed and carried by ``attempted``/``failed``.
With ``--trace 1`` the same runs are followed by one traced run whose
spans give the per-layer metrics (tracer.py).  The last line of
standard output is the JSON result; the lines before it are the
environment record and the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np
import scipy

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_RUNS = 10
CHILD_TIMEOUT_S = 170.0

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The JSON result carries the metrics BENCHMARK.json declares.  Its
# per-layer list holds only figures that are nonzero on every workload.
# Layers that some workload never enters (residual/Jacobian, branch,
# endpoint_kernel_gap, verify_*), the inertia retries (zero on every
# workload today) and the tracing overhead (host noise on one traced run
# can make it negative) appear in the printed report only.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


class BenchmarkError(RuntimeError):
    """The harness itself cannot produce a valid measurement."""


@dataclass
class ChildRun:
    result: Optional[dict]   # what child.py wrote, None if it died first
    exit_code: int
    rss_mb: float
    spawned: float           # monotonic clock at spawn
    out: Path
    stderr: str

    @property
    def setup_s(self) -> float:
        return self.result["pipeline_ready"] - self.spawned


def run_child(subcommand: str, config: Path, tag: str, mode: str) -> ChildRun:
    out = WORK / f"out_{tag}"
    result_path = WORK / f"{tag}.json"
    shutil.rmtree(out, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **BLAS_ENV)
    env.pop("SMALE_SCAN_THREADS", None)
    argv = [sys.executable, str(HERE / "child.py"), subcommand, str(config),
            str(out), str(result_path), mode]
    with open(WORK / f"{tag}.stderr", "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return ChildRun(result, proc.returncode, usage.ru_maxrss / 1024.0, spawned,
                    out, stderr)


def check_run(w, run: ChildRun, expected, reference) -> List[str]:
    """Reasons the run failed: a crash, a nonzero exit code, wrong outputs."""
    if run.exit_code != 0 or run.result is None:
        return [f"run process exited {run.exit_code}: {run.stderr.strip()[-500:]}"]
    if run.result["code"] != 0:
        return [f"cli.run returned {run.result['code']}: {run.stderr.strip()[-500:]}"]
    return workloads.check_outputs(w, run.out, expected, reference)


def _setup_run(w, config: Path, tag: str) -> float:
    run = run_child(w.subcommand, config, tag, "setup")
    if run.exit_code != 0 or run.result is None:
        raise BenchmarkError(f"set-up run failed: {run.stderr.strip()[-500:]}")
    return run.setup_s


def _median_line(name: str, values: List[float], unit: str) -> str:
    return (f"{name:<13} {statistics.median(values):.6g} {unit}  median of n={len(values)}"
            f" (min {min(values):.6g}, max {max(values):.6g})")


def measure(w, seed: int, seconds: float, trace: bool):
    """All runs of one workload; returns (attempted, failed, metrics)."""
    scale = workloads.seed_scale(seed)
    expected = w.oracle(-workloads.base_f(w) * scale)
    reference = workloads.load_reference(w) if seed == 0 else None
    config = WORK / f"{w.name}.cfg"
    config.write_text(workloads.config_text(w, scale))
    print(f"workload {w.name}: smalescan {w.subcommand}, f scaled by {scale:.6f} "
          f"(seed {seed}); oracle radii "
          + ", ".join(f"{r:.6f} (m={m})" for r, m in expected))

    # An untimed warm-up run byte-compiles the package and fills the page
    # cache.  Half of the set-up runs go before the solves and half after,
    # so their median spans the machine's state over the whole invocation.
    _setup_run(w, config, "warmup")
    half = SETUP_RUNS // 2
    setups = [_setup_run(w, config, f"setup{i}") for i in range(half)]

    solves, rss, failed, attempted = [], [], 0, 0
    start = time.monotonic()
    while True:
        run = run_child(w.subcommand, config, f"solve{attempted}", "solve")
        attempted += 1
        errors = check_run(w, run, expected, reference)
        if errors:
            failed += 1
            print(f"run {attempted} FAILED: " + "; ".join(errors), file=sys.stderr)
        if run.result is not None:
            solves.append(run.result["solve_s"])
            setups.append(run.setup_s)
            rss.append(run.rss_mb)
        shutil.rmtree(run.out, ignore_errors=True)
        elapsed = time.monotonic() - start
        # Stop when one more run of the average length would overrun.
        if elapsed + elapsed / attempted > seconds:
            break
    if not solves:
        raise BenchmarkError("no run produced a result")
    setups += [_setup_run(w, config, f"setup{i}") for i in range(half, SETUP_RUNS)]

    print(_median_line("solve_s", solves, "s"))
    print(_median_line("setup_s", setups, "s"))
    print(_median_line("peak_rss_mb", rss, "MB"))
    metrics = {
        "solve_s": {"value": statistics.median(solves), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }

    if trace:
        run = run_child(w.subcommand, config, "traced", "trace")
        attempted += 1
        errors = check_run(w, run, expected, reference)
        if errors:
            failed += 1
            print("traced run FAILED: " + "; ".join(errors), file=sys.stderr)
        if run.result is None:
            raise BenchmarkError("traced run produced no result")
        spans = run.result["spans"]
        missing = sorted(set(w.must_fire) - {span[0] for span in spans})
        if missing:
            raise BenchmarkError(f"wrappers recorded no call on {w.name}: {missing}")
        layers = tracer.per_layer(spans, statistics.median(solves),
                                  run.result["solve_s"])
        print(f"per-layer figures of one traced run ({len(spans)} spans):")
        for name, m in layers.items():
            base = f"  ({m['base']})" if "base" in m else ""
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:<42} {value} {m['unit']}{base}")
        metrics = {k: {"value": layers[k]["value"], "unit": layers[k]["unit"]}
                   for k in PER_LAYER}
        shutil.rmtree(run.out, ignore_errors=True)

    print(f"{'failed_frac':<13} {failed / attempted:.6g}  ({failed} failed / "
          f"{attempted} attempted)")
    return attempted, failed, metrics


def _git_sha() -> str:
    """HEAD of a git checkout at the repository root, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "smalescan" / "cli.py").is_file():
        print(f"error: no smalescan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment " + json.dumps(environment(args.seed)))
    attempted = failed = 0
    metrics = {}
    WORK.mkdir(exist_ok=True)
    try:
        for name in names:
            a, f, m = measure(workloads.WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
