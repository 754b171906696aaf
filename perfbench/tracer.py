"""In-memory spans around smalescan's public functions, and their summary.

Each wrapper is installed at the attribute its caller resolves at call
time, because a name bound by ``from .spectral import inertia`` is not
reached by patching ``smalescan.spectral``.  A span is
``[name, start, end, parent, info]``; ``info`` carries what the call
returned that the benchmark counts (Newton iterations, convergence,
confirmation, multiplicities) or the exception type it raised.
Nothing inside the program is instrumented.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str,
              info: Optional[Callable] = None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), info))


def install(tracer: Tracer):
    """Wrap every layer boundary the benchmark reports on."""
    from smalescan import branch, cli, conjugate, fem, metric

    t = tracer
    t.patch(cli.Pipeline, "__init__", "cli.Pipeline.init")
    for attr in dir(cli.Pipeline):
        if attr.startswith("write_"):
            t.patch(cli.Pipeline, attr, "cli.write")
    t.patch(fem, "build_mesh", "fem.build_mesh")
    t.patch(fem.Assembler, "__init__", "fem.Assembler.init")
    for attr in ("h", "residual", "jacobian"):
        t.patch(fem.Assembler, attr, f"fem.Assembler.{attr}")
    # fem and conjugate call it as metric_mod.coefficients.
    t.patch(metric, "coefficients", "metric.coefficients")
    # Bound into conjugate by ``from .spectral import ...``.
    t.patch(conjugate, "inertia", "spectral.inertia")
    t.patch(conjugate, "kernel_eigenpairs", "spectral.kernel_eigenpairs")
    t.patch(conjugate, "scan", "conjugate.scan")
    t.patch(conjugate, "find_conjugate_radii", "conjugate.find_conjugate_radii",
            lambda radii: {"multiplicities": [c.multiplicity for c in radii]})
    for attr in ("verify_crossing", "verify_index", "endpoint_kernel_gap"):
        t.patch(conjugate, attr, f"conjugate.{attr}")
    t.patch(branch, "trace_branch", "branch.trace_branch",
            lambda tr: {"confirmed": bool(tr.confirmed)})
    t.patch(branch, "newton_solve", "branch.newton_solve",
            lambda s: {"iters": int(s.newton_iters), "converged": bool(s.converged)})


# ---------------------------------------------------------------------------
# Summary of a span list
# ---------------------------------------------------------------------------

def _percentile_ms(durations: List[float], q: float) -> float:
    """Nearest-rank percentile of the per-call durations, in ms."""
    ordered = sorted(durations)
    return 1e3 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


_NO_CALLS = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "info": []}


def layer_stats(spans: List[list]) -> Dict[str, dict]:
    """Per span name: calls, total and self seconds, per-call durations,
    and the ``info`` records of its calls.  Self time is a span's
    duration minus that of its direct children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: Dict[str, dict] = {}
    for i, (name, start, end, _, info) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "durations": [], "info": []})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child_time[i]
        st["durations"].append(end - start)
        if info is not None:
            st["info"].append(info)
    return stats


def per_layer(spans: List[list], untraced_solve_s: float,
              traced_solve_s: float) -> Dict[str, dict]:
    """Every per-layer figure as ``{name: {"value", "unit"[, "base"]}}``.

    A layer the run never entered reads as zero calls and zero seconds;
    a ratio whose denominator is zero reads as None.  ``base`` states
    the numerator and denominator of each ratio.
    """
    st = layer_stats(spans)

    def get(layer):
        return st.get(layer, _NO_CALLS)

    out: Dict[str, dict] = {}

    def put(name, value, unit, base=None):
        out[name] = {"value": value, "unit": unit}
        if base is not None:
            out[name]["base"] = base

    def ratio(name, num, num_label, den, den_label):
        put(name, num / den if den else None, "ratio",
            f"{num} {num_label} / {den} {den_label}")

    for layer in ("fem.Assembler.h", "fem.Assembler.residual",
                  "fem.Assembler.jacobian", "metric.coefficients",
                  "spectral.inertia", "spectral.kernel_eigenpairs",
                  "conjugate.endpoint_kernel_gap", "branch.trace_branch",
                  "branch.newton_solve"):
        put(f"{layer}.calls", get(layer)["calls"], "count")
    for layer in ("fem.Assembler.h", "fem.Assembler.residual",
                  "fem.Assembler.jacobian", "fem.build_mesh",
                  "fem.Assembler.init", "metric.coefficients",
                  "spectral.inertia", "spectral.kernel_eigenpairs",
                  "conjugate.scan", "conjugate.find_conjugate_radii",
                  "conjugate.verify_crossing", "conjugate.verify_index",
                  "branch.trace_branch", "branch.newton_solve", "cli.write"):
        put(f"{layer}.total_s", get(layer)["total_s"], "s")
    for layer in ("conjugate.scan", "conjugate.find_conjugate_radii", "cli.write"):
        put(f"{layer}.self_s", get(layer)["self_s"], "s")
    for layer in ("fem.Assembler.h", "spectral.inertia"):
        durations = get(layer)["durations"]
        if len(durations) >= 100:
            put(f"{layer}.p50_ms", _percentile_ms(durations, 0.5), "ms")
            put(f"{layer}.p90_ms", _percentile_ms(durations, 0.9), "ms")

    # FactorizationErrors raised into the nudge-and-retry loop of locate.
    put("spectral.inertia.retries",
        sum(i.get("error") == "FactorizationError"
            for i in get("spectral.inertia")["info"]), "count")
    newton = get("branch.newton_solve")["info"]
    put("branch.newton_solve.iters", sum(i.get("iters", 0) for i in newton), "count")
    ratio("branch.newton_solve.converged_frac",
          sum(i.get("converged", False) for i in newton), "converged",
          len(newton), "newton_solve calls")
    traces = get("branch.trace_branch")["info"]
    ratio("branch.trace_branch.confirmed_frac",
          sum(i.get("confirmed", False) for i in traces), "confirmed",
          len(traces), "trace_branch calls")
    ratio("conjugate.inertia_per_crossing",
          get("spectral.inertia")["calls"], "inertia calls",
          sum(sum(i.get("multiplicities", ()))
              for i in get("conjugate.find_conjugate_radii")["info"]),
          "summed multiplicity")
    ratio("fem.h_per_inertia",
          get("fem.Assembler.h")["calls"], "Assembler.h calls",
          get("spectral.inertia")["calls"], "inertia calls")
    ratio("fem.residual_per_jacobian",
          get("fem.Assembler.residual")["calls"], "residual calls",
          get("fem.Assembler.jacobian")["calls"], "jacobian calls")
    put("trace.overhead_s", traced_solve_s - untraced_solve_s, "s",
        f"traced solve {traced_solve_s:.4f} s - untraced median "
        f"{untraced_solve_s:.4f} s")
    return out
