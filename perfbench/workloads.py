"""Workload definitions, seeded configs, oracles and output checks.

Each workload is one smalescan subcommand on one scenario, a config
shipped under ``configs/``.  The benchmark writes the config it runs
itself -- the shipped file with ``problem.f`` scaled and, for the disc,
``mesh.resolution`` set -- and the program sees only that file.
The seed scales the potential f by a factor in [0.97, 1.03] (seed 0
keeps the shipped value).  Inside that range every scenario keeps its
crossing count, r = 1 stays away from a crossing, and the 1D branch
continuation window (100 steps of 1e-3) stays inside (0, 1].

Why these three workloads:

* ``osc1d_all`` -- the 1D oscillator run with ``all``.  It is the only
  workload where Newton continuation (``branch``) and residual /
  Jacobian assembly do most of the work, and it writes ``scan.csv``, so
  a grid-free localization bypasses nothing here.
* ``disc40_index`` -- the Euclidean disc at 40 rings run with
  ``verify-index``.  Inertia factorizations dominate; the metric is
  trivial and the stiffness does not depend on r.  40 rings instead of
  the acceptance suite's 60 keeps one run near 30 s instead of minutes.
* ``cap40_crossing`` -- the unit-curvature cap at 40 rings run with
  ``crossing``.  Same mesh and inertia work as the disc, but the curved
  metric roughly doubles the cost of assembling H(r), and the boundary
  crossing form runs on a curved A(r x).  It uses ``crossing`` rather
  than ``all`` because ``all`` exits 2 on every linear problem (no
  branch can be confirmed for a vertical bifurcation); that defect is
  the program's, tracked in the ROADMAP, and is not worked around here.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import jn_zeros

SCALE_SPREAD = 0.03
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# Oracles: exact conjugate radii and multiplicities for c = -f
# ---------------------------------------------------------------------------

def _oscillator_oracle(c: float) -> List[Tuple[float, int]]:
    """Dirichlet -u'' = c u on (-r, r): radii k pi / (2 sqrt c)."""
    step = math.pi / (2.0 * math.sqrt(c))
    return [(k * step, 1) for k in range(1, math.ceil(1.0 / step))]


def _bessel_oracle(c: float) -> List[Tuple[float, int]]:
    """Flat disc: radii j_{m,k} / sqrt c, multiplicity 1 (m = 0) or 2."""
    sc = math.sqrt(c)
    out, m = [], 0
    while True:
        zeros = [z for z in jn_zeros(m, 8) if z < sc]
        if not zeros:
            break
        out.extend((z / sc, 1 if m == 0 else 2) for z in zeros)
        m += 1
    return sorted(out)


def _sphere_radial_zeros(c: float, m: int) -> List[float]:
    """Zeros in (0, 1) of the regular solution of
    R'' + cot(t) R' + (c - m^2 / sin^2 t) R = 0,  R ~ t^m at 0."""
    t0 = 1e-8

    def rhs(t, y):
        return [y[1], -math.cos(t) / math.sin(t) * y[1]
                - (c - m * m / math.sin(t) ** 2) * y[0]]

    y0 = [t0 ** m, m * t0 ** (m - 1) if m > 0 else 0.0]
    sol = solve_ivp(rhs, (t0, 1.0), y0, rtol=1e-12, atol=1e-300,
                    dense_output=True, max_step=5e-3, first_step=1e-8)
    ts = np.linspace(t0, 1.0, 3000)
    R = sol.sol(ts)[0]
    return [
        brentq(lambda t: sol.sol(t)[0], ts[i], ts[i + 1], xtol=1e-13)
        for i in range(len(ts) - 1)
        if R[i] * R[i + 1] < 0
    ]


def _sphere_oracle(c: float) -> List[Tuple[float, int]]:
    """Unit-curvature cap: radial shooting, multiplicity 1 (m = 0) or 2."""
    out, m = [], 0
    while True:
        zeros = _sphere_radial_zeros(c, m)
        if not zeros and m > 0:
            break
        out.extend((z, 1 if m == 0 else 2) for z in zeros)
        m += 1
    return sorted(out)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    shipped: str         # scenario config under configs/
    overrides: Tuple[Tuple[str, str], ...]  # keys changed besides problem.f
    oracle: Callable[[float], List[Tuple[float, int]]]  # c = -f -> (r*, m)
    radius_rtol: float   # relative oracle tolerance (0: use radius_atol)
    radius_atol: float
    agreement_max: float  # crossing-form agreement bound (0: not produced)
    # Wrappers that must record at least one call in a traced run.
    must_fire: Tuple[str, ...]


_COMMON_FIRE = (
    "cli.Pipeline.init",
    "cli.write",
    "fem.build_mesh",
    "fem.Assembler.init",
    "fem.Assembler.h",
    "metric.coefficients",
    "spectral.inertia",
    "spectral.kernel_eigenpairs",
    "conjugate.scan",
    "conjugate.find_conjugate_radii",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="osc1d_all",
            subcommand="all",
            shipped="oscillator_1d.cfg",
            overrides=(),
            oracle=_oscillator_oracle,
            radius_rtol=0.0,
            radius_atol=1e-4,
            agreement_max=0.01,
            must_fire=_COMMON_FIRE
            + (
                "fem.Assembler.residual",
                "fem.Assembler.jacobian",
                "conjugate.verify_crossing",
                "conjugate.verify_index",
                "conjugate.endpoint_kernel_gap",
                "branch.trace_branch",
                "branch.newton_solve",
            ),
        ),
        Workload(
            name="disc40_index",
            subcommand="verify-index",
            shipped="disc_2d.cfg",
            overrides=(("mesh.resolution", "40"),),
            oracle=_bessel_oracle,
            radius_rtol=0.02,
            radius_atol=0.0,
            agreement_max=0.0,
            must_fire=_COMMON_FIRE
            + ("conjugate.verify_index", "conjugate.endpoint_kernel_gap"),
        ),
        Workload(
            name="cap40_crossing",
            subcommand="crossing",
            shipped="sphere_cap_2d.cfg",
            overrides=(),
            oracle=_sphere_oracle,
            radius_rtol=0.01,
            radius_atol=0.0,
            agreement_max=0.10,
            must_fire=_COMMON_FIRE + ("conjugate.verify_crossing",),
        ),
    )
}


def seed_scale(seed: int) -> float:
    """Factor applied to f; seed 0 is the shipped scenario."""
    if seed == 0:
        return 1.0
    return 1.0 + random.Random(seed).uniform(-SCALE_SPREAD, SCALE_SPREAD)


def _shipped_entries(w: Workload) -> List[Tuple[str, str]]:
    """(key, value) of every line of the shipped config; ('', line) for
    a comment or blank line."""
    entries = []
    for raw in (CONFIG_DIR / w.shipped).read_text().splitlines():
        key, eq, value = raw.split("#", 1)[0].partition("=")
        entries.append((key.strip(), value.strip()) if eq else ("", raw))
    return entries


def base_f(w: Workload) -> float:
    """problem.f of the shipped config."""
    return float(dict(_shipped_entries(w))["problem.f"])


def config_text(w: Workload, scale: float) -> str:
    """The shipped config with f scaled and the overrides applied."""
    values = dict(w.overrides, **{"problem.f": repr(base_f(w) * scale)})
    lines = []
    for key, value in _shipped_entries(w):
        if key in values:
            value = values.pop(key)
        lines.append(f"{key} = {value}" if key else value)
    if values:
        raise KeyError(f"{w.shipped} has no {sorted(values)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Output parsing and checks
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> List[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _read_index_report(path: Path) -> dict:
    lines = path.read_text().splitlines()
    head = dict(tok.split("=") for tok in lines[0].split()[:2])
    radii = []
    for line in lines[lines.index("conjugate_radii:") + 1:]:
        fields = dict(tok.split("=") for tok in line.split())
        radii.append((float(fields["r_star"]), int(fields["multiplicity"])))
    return {
        "mu": int(head["mu"]),
        "sum_m": int(head["sum_m"]),
        "verdict": lines[0].split()[2],
        "n_neg_at_r_min": int(lines[1].split("=")[1]),
        "radii": radii,
    }


def _crossing_blocks(path: Path) -> List[dict]:
    """crossing.csv grouped per radius: gamma_fd matrix, signature, agreement."""
    blocks: Dict[float, dict] = {}
    for row in _read_csv(path):
        r = float(row["r_star"])
        b = blocks.setdefault(r, {"r_star": r, "entries": {},
                                  "signature": int(row["signature"]),
                                  "agreement": float(row["agreement"])})
        b["entries"][(int(row["i"]), int(row["j"]))] = float(row["gamma_fd"])
    out = []
    for r in sorted(blocks):
        b = blocks[r]
        m = max(i for i, _ in b["entries"])
        G = np.array([[b["entries"][(i, j)] for j in range(1, m + 1)]
                      for i in range(1, m + 1)])
        out.append({"r_star": r, "multiplicity": m, "gamma_fd": G,
                    "signature": b["signature"], "agreement": b["agreement"]})
    return out


def summarize(w: Workload, out: Path) -> dict:
    """The located quantities a run produced, as recorded in the reference."""
    summary: dict = {}
    if w.subcommand in ("all", "verify-index"):
        summary["index"] = _read_index_report(out / "index_report.txt")
        summary["radii"] = summary["index"]["radii"]
    if w.subcommand == "all":
        summary["n_neg"] = [int(r["n_neg"]) for r in _read_csv(out / "scan.csv")]
    if w.subcommand in ("all", "crossing"):
        summary["crossings"] = _crossing_blocks(out / "crossing.csv")
        summary.setdefault(
            "radii", [(b["r_star"], b["multiplicity"]) for b in summary["crossings"]]
        )
    return summary


def check_outputs(w: Workload, out: Path, expected: List[Tuple[float, int]],
                  reference: Optional[dict]) -> List[str]:
    """Every violated claim of one run, as messages; empty means correct.

    ``expected`` is the oracle for the run's f; ``reference``, given at
    seed 0 only, is the run recorded when the benchmark was defined.
    """
    errors: List[str] = []
    try:
        s = summarize(w, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"]

    radii = s["radii"]
    if [m for _, m in radii] != [m for _, m in expected]:
        errors.append(f"multiplicities {[m for _, m in radii]} != oracle "
                      f"{[m for _, m in expected]}")
    else:
        for (r, _), (r_ex, _) in zip(radii, expected):
            tol = w.radius_rtol * r_ex if w.radius_rtol else w.radius_atol
            if abs(r - r_ex) > tol:
                errors.append(f"radius {r!r} off oracle {r_ex!r} by more than {tol:.3g}")

    mu = sum(m for _, m in expected)
    if "index" in s:
        rep = s["index"]
        if (rep["mu"], rep["sum_m"], rep["verdict"]) != (mu, mu, "PASS"):
            errors.append(f"index report mu={rep['mu']} sum_m={rep['sum_m']} "
                          f"{rep['verdict']}, expected mu={mu} sum_m={mu} PASS")
        if rep["n_neg_at_r_min"] != 0:
            errors.append(f"n_neg at r_min is {rep['n_neg_at_r_min']}, expected 0")
    if "n_neg" in s:
        n = s["n_neg"]
        if n[0] != 0 or n[-1] != mu or any(b < a for a, b in zip(n, n[1:])):
            errors.append("scan n_neg is not a nondecreasing step from 0 to mu")
    for b in s.get("crossings", []):
        if not np.all(np.linalg.eigvalsh(b["gamma_fd"]) < 0.0):
            errors.append(f"crossing form at {b['r_star']!r} not negative definite")
        if abs(b["signature"]) != b["multiplicity"]:
            errors.append(f"|signature| {abs(b['signature'])} != multiplicity "
                          f"{b['multiplicity']} at {b['r_star']!r}")
        if not b["agreement"] <= w.agreement_max:
            errors.append(f"crossing-form agreement {b['agreement']} > "
                          f"{w.agreement_max} at {b['r_star']!r}")
    if reference is not None and not errors:
        errors.extend(_check_reference(s, reference))
    return errors


# ---------------------------------------------------------------------------
# Reference run at seed 0
# ---------------------------------------------------------------------------

def _record(s: dict) -> dict:
    rec = {"radii": [[r, m] for r, m in s["radii"]]}
    if "index" in s:
        rec["mu"] = s["index"]["mu"]
    if "n_neg" in s:
        rec["n_neg"] = s["n_neg"]
    return rec


def load_reference(w: Workload) -> dict:
    return json.loads((REFERENCE_DIR / f"{w.name}.json").read_text())


def _check_reference(s: dict, ref: dict) -> List[str]:
    """Seed 0 must reproduce the recorded run: radii within the bisection
    tolerance in force when it was recorded, every integer exactly."""
    got = _record(s)
    errors = []
    if [m for _, m in got["radii"]] != [m for _, m in ref["radii"]]:
        errors.append("multiplicities differ from the reference")
    elif any(abs(a[0] - b[0]) > ref["bisection_tol"]
             for a, b in zip(got["radii"], ref["radii"])):
        errors.append(f"radii moved beyond {ref['bisection_tol']} from the reference")
    for key in ("mu", "n_neg"):
        if got.get(key) != ref.get(key):
            errors.append(f"{key} differs from the reference")
    return errors
