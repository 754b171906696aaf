"""Configuration parsing, subcommand dispatch, CSV and report emission.

Config files are flat ``section.key = value`` assignments, one per
line, with ``#`` comments.  Every key is validated against the schema
before any computation starts; unknown keys are hard errors so typos
cannot silently fall back to defaults.

Exit codes: 0 success with all verifications passing, 1 usage or
configuration error (including a mesh numpy cannot allocate, an output
directory that cannot be created or an output file that cannot be
written), 2 verification failure (index identity violated, negative
count not monotone, crossing form not negative definite, bifurcation
not confirmed) or numerical breakdown (an inertia factorization still
refused after its nudged retries, a refused count of the r = 1 check,
a refused kernel factorization, an unconverged kernel eigensolve), 3
degenerate endpoint (the pencil (H(1), S) has an eigenvalue within
KERNEL_THRESHOLD_AT_ONE of zero).  Each failure prints one line to
stderr; an unconfirmed bifurcation prints one per radius, naming each
direction's failure or intercept.

``Pipeline.scan`` runs the grid inside ``spectral._kept_heap``: on glibc
the memory each count's factorization frees stays in the heap for the
next count, and is trimmed when the scan ends (a 1D scan factors
nothing; see ``spectral.inertia``).  Nothing else runs inside it, so
the stages after the scan, and any library caller, keep the
allocator's usual policy.  Only where the memory comes from
changes; every count and output is the same.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import List, Optional, get_type_hints

import numpy as np

from . import branch as branch_mod
from . import conjugate as conj_mod
from . import fem, metric, problem
from .conjugate import DegenerateRadiusOneError, VerificationError
from .fem import Assembler
from .spectral import FactorizationError, _kept_heap

__all__ = ["RunConfig", "ConfigError", "load_config", "run", "main", "main_entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_DEGENERATE = 3

# The stages in pipeline order, then ``all`` of them.
SUBCOMMANDS = ("scan", "conjugate", "crossing", "verify-index", "bifurcate", "all")


class ConfigError(Exception):
    pass


def _to_bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("true", "yes", "1", "on"):
        return True
    if val in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(kw_only=True)
class RunConfig:
    """Field ``section_key`` holds config key ``section.key``, converted
    by its annotation; a field without a default is a required key.
    ``models``, no config key, holds the (MetricModel, ProblemSpec) that
    ``load_config`` built while validating."""

    metric_kappa: float = 0.0
    problem_f: str
    problem_cubic_b: float = 0.0
    mesh_dim: int
    mesh_resolution: int
    mesh_dump: bool = False
    scan_r_min: float = 1e-3
    scan_grid_points: int = 200
    branch_steps: int = 50
    branch_step_size: float = 1e-3
    output_dir: str = "out"
    models: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


_TYPES = get_type_hints(RunConfig)
# config key -> its RunConfig field
_KEYS = {f.name.replace("_", ".", 1): f for f in fields(RunConfig) if f.init}


def load_config(path) -> RunConfig:
    """Parse and fully validate a config file; raises ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        name = _KEYS[key].name
        if name in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        conv = _to_bool if _TYPES[name] is bool else _TYPES[name]
        try:
            values[name] = conv(text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    for key, fld in _KEYS.items():
        if fld.name not in values and fld.default is MISSING:
            raise ConfigError(f"missing required config key {key!r}")

    cfg = RunConfig(**values)
    cfg.models = _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    """Check every key; returns the config's models (see ``_models``)."""
    if cfg.mesh_dim not in (1, 2):
        raise ConfigError(f"mesh.dim must be 1 or 2, got {cfg.mesh_dim}")
    min_resolution = 2 if cfg.mesh_dim == 1 else 1
    if cfg.mesh_resolution < min_resolution:
        raise ConfigError(
            f"mesh.resolution must be >= {min_resolution} in {cfg.mesh_dim}D"
        )
    for key in ("metric.kappa", "problem.cubic_b", "scan.r_min", "branch.step_size"):
        if not np.isfinite(getattr(cfg, key.replace(".", "_"))):
            raise ConfigError(f"{key} must be finite")
    if cfg.scan_r_min < conj_mod.R_MIN_FLOOR:
        raise ConfigError(f"scan.r_min must be >= {conj_mod.R_MIN_FLOOR}")
    if not cfg.scan_r_min < 1.0:
        raise ConfigError("scan.r_min must be < 1")
    if cfg.scan_grid_points < 2:
        raise ConfigError("scan.grid_points must be >= 2")
    try:
        grid = _scan_grid(cfg)
    except (MemoryError, ValueError) as exc:  # numpy refuses the allocation
        raise ConfigError(f"scan.grid_points = {cfg.scan_grid_points}: {exc}") from exc
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError(
            f"scan.r_min = {cfg.scan_r_min!r} leaves no room for "
            f"{cfg.scan_grid_points} strictly ascending grid points up to 1"
        )
    if cfg.branch_steps < 2:
        raise ConfigError("branch.steps must be >= 2")
    if cfg.branch_step_size <= 0.0:
        raise ConfigError("branch.step_size must be positive")
    met, spec = _models(cfg)
    # Center, axis ends and a diagonal point of the unit ball.
    d = cfg.mesh_dim
    probe = np.vstack([np.zeros(d), np.eye(d), -np.eye(d), np.full(d, d ** -0.5)])
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(spec.f(probe))):
            raise ConfigError("problem.f is not finite on the unit ball")
    return met, spec


def _scan_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.scan_r_min, 1.0, cfg.scan_grid_points)


def _models(cfg: RunConfig):
    """(MetricModel, ProblemSpec) of a config.  A value the library
    rejects raises ConfigError naming its key."""
    try:
        met = metric.MetricModel(cfg.metric_kappa)
    except ValueError as exc:
        raise ConfigError(f"metric.kappa: {exc}") from exc
    try:
        f = problem.parse_field(cfg.problem_f, cfg.mesh_dim)
    except ValueError as exc:
        raise ConfigError(f"problem.f: {exc}") from exc
    return met, problem.ProblemSpec(f, cfg.problem_cubic_b)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_text(path: Path, text: str):
    """Write ``text`` to ``path`` as a new file.

    An existing regular file is unlinked first: truncating it in place
    makes ext4 (``auto_da_alloc``) flush it when it is closed, about
    65 ms a file on a rerun into the same directory.  A directory or a
    symlink at ``path`` is left to the write, which fails on the one and
    follows the other.
    """
    if path.is_file() and not path.is_symlink():
        path.unlink()
    path.write_text(text)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _write_text(path, "\n".join(lines) + "\n")


class Pipeline:
    """Shared state across the pipeline stages of one run."""

    def __init__(self, cfg: RunConfig, out_dir: Path, threads: int = 1):
        self.cfg = cfg
        self.out = out_dir
        self.threads = threads
        mesh = fem.build_mesh(cfg.mesh_dim, cfg.mesh_resolution)
        self.assembler = Assembler(mesh, *cfg.models)
        self._scan = None
        self._conjugates = None

    # -- stages -------------------------------------------------------------

    def scan(self) -> conj_mod.ScanResult:
        if self._scan is None:
            grid = _scan_grid(self.cfg)
            with _kept_heap():
                self._scan = conj_mod.scan(self.assembler, grid, threads=self.threads)
        return self._scan

    def conjugates(self) -> List[conj_mod.ConjugateRadius]:
        if self._conjugates is None:
            self._conjugates = conj_mod.find_conjugate_radii(self.assembler, self.scan())
        return self._conjugates

    def crossing_reports(self) -> List[conj_mod.CrossingFormReport]:
        return [conj_mod.verify_crossing(self.assembler, cj) for cj in self.conjugates()]

    def index_report(self) -> conj_mod.IndexReport:
        return conj_mod.verify_index(self.scan(), self.conjugates())

    def branch_traces(self):
        traces = []
        for cj in self.conjugates():
            per_radius = []
            for direction in (+1, -1):
                per_radius.append(
                    branch_mod.trace_branch(
                        self.assembler,
                        cj.r_star,
                        cj.kernel_basis[:, 0],
                        direction,
                        self.cfg.branch_steps,
                        self.cfg.branch_step_size,
                    )
                )
            traces.append((cj, per_radius))
        return traces

    # -- emission -----------------------------------------------------------

    def write_mesh_dump(self):
        mesh = self.assembler.mesh
        coords = ["x%d" % (i + 1) for i in range(mesh.dim)]
        _write_csv(self.out / "nodes.csv", coords, mesh.nodes)
        _write_csv(
            self.out / "elements.csv",
            ["n%d" % i for i in range(mesh.dim + 1)],
            mesh.elements,
        )

    def write_scan(self):
        sc = self.scan()
        _write_csv(self.out / "scan.csv", ["r", "n_neg"], zip(sc.r, sc.n_neg))

    def write_conjugates(self):
        rows = [
            (cj.r_star, cj.multiplicity, cj.bracket_width) for cj in self.conjugates()
        ]
        _write_csv(
            self.out / "conjugate.csv",
            ["r_star", "multiplicity", "bracket_width"],
            rows,
        )

    def write_crossings(self, reports):
        rows = []
        for rep in reports:
            m = rep.multiplicity
            for i in range(m):
                for j in range(m):
                    rows.append(
                        (
                            rep.r_star,
                            i + 1,
                            j + 1,
                            rep.gamma_fd[i, j],
                            rep.gamma_bd[i, j],
                            rep.signature,
                            rep.agreement,
                        )
                    )
        _write_csv(
            self.out / "crossing.csv",
            ["r_star", "i", "j", "gamma_fd", "gamma_bd", "signature", "agreement"],
            rows,
        )

    def write_index_report(self, rep: conj_mod.IndexReport):
        verdict = "PASS" if rep.identity_holds and rep.morse_index_small_r == 0 else "FAIL"
        lines = [
            f"mu={rep.morse_index_at_1} sum_m={rep.sum_m} {verdict}",
            f"n_neg_at_r_min={rep.morse_index_small_r}",
            f"corollary_bound={rep.corollary_bound}",
            "conjugate_radii:",
        ]
        for r_star, m in rep.conjugate_list:
            lines.append(f"r_star={_fmt(r_star)} multiplicity={m}")
        _write_text(self.out / "index_report.txt", "\n".join(lines) + "\n")

    def write_branches(self, traces):
        for cj, pair in traces:
            samples = sorted(
                (s for trace in pair for s in trace.samples), key=lambda s: s.r
            )
            rows = [
                (s.r, s.h1_norm, s.residual_norm, s.newton_iters, s.converged)
                for s in samples
            ]
            _write_csv(
                self.out / f"branch_{cj.r_star:.6f}.csv",
                ["r", "h1_norm", "residual_norm", "newton_iters", "converged"],
                rows,
            )


def _trace_outcome(trace: branch_mod.BranchTrace) -> str:
    """Why one direction did not confirm: its failure or its intercept."""
    if trace.failure is not None:
        why = trace.failure
    elif trace.intercept is None:
        why = "no intercept"
    else:
        why = f"intercept {trace.intercept:.8f}"
    return f"{trace.direction:+d}: {why}"


def run(subcommand: str, config_path, out_dir=None, threads: int = 1) -> int:
    """Execute one pipeline stage (or ``all``); returns the exit code."""
    if subcommand not in SUBCOMMANDS:
        print(f"error: unknown subcommand {subcommand!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    try:
        pipe = Pipeline(cfg, out, threads=threads)
    except (MemoryError, ValueError) as exc:  # numpy refuses the mesh arrays
        print(f"error: mesh.resolution = {cfg.mesh_resolution}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if cfg.mesh_dump:
            pipe.write_mesh_dump()
        return _run_stages(pipe, subcommand)
    except OSError as exc:  # only the output writes touch the file system
        where = exc.filename or out
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


def _run_stages(pipe: Pipeline, subcommand: str) -> int:
    """The stages of one subcommand; returns the exit code."""
    stages = SUBCOMMANDS[:-1] if subcommand == "all" else (subcommand,)
    code = EXIT_OK
    try:
        if "verify-index" in stages:
            # Police the r = 1 assumption before heavy work;
            # verify_index does not check it again.
            conj_mod.endpoint_kernel_gap(pipe.assembler)
        if "scan" in stages:
            pipe.write_scan()
        if "conjugate" in stages:
            pipe.write_conjugates()
        if "crossing" in stages:
            reports = pipe.crossing_reports()
            pipe.write_crossings(reports)
        if "verify-index" in stages:
            rep = pipe.index_report()
            pipe.write_index_report(rep)
            if not rep.identity_holds or rep.morse_index_small_r != 0:
                print(
                    f"verification failure: mu={rep.morse_index_at_1} "
                    f"sum_m={rep.sum_m} n_neg(r_min)={rep.morse_index_small_r}",
                    file=sys.stderr,
                )
                code = EXIT_VERIFY
        if "bifurcate" in stages:
            traces = pipe.branch_traces()
            pipe.write_branches(traces)
            for cj, pair in traces:
                if not any(t.confirmed for t in pair):
                    print(
                        f"verification failure: no confirmed branch at "
                        f"r* = {cj.r_star:.8f} "
                        f"({'; '.join(_trace_outcome(t) for t in pair)})",
                        file=sys.stderr,
                    )
                    code = EXIT_VERIFY
    except DegenerateRadiusOneError as exc:
        _write_text(pipe.out / "index_report.txt", f"ABORT degenerate_at_r1: {exc}\n")
        print(f"degenerate endpoint: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except FactorizationError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    return code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="smalescan",
        description="Conjugate radii, crossing forms, index identity and "
        "bifurcation for Dirichlet problems on shrinking balls.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument(
        "--threads", type=int, default=1, help="scan worker threads (default 1)"
    )
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.threads < 1:
        print(f"error: thread count must be >= 1, got {args.threads}", file=sys.stderr)
        return EXIT_USAGE
    return run(args.subcommand, args.config, out_dir=args.out, threads=args.threads)


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
