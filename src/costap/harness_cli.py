"""Scenario files, experiment orchestration and machine-readable output.

Scenario schema (JSON, angles in radians):

    {"dims": {"M": 5, "N": 8, "L": 8},
     "target": {"azimuth": 0.0, "elevation": 1.047, "doppler": -0.1443},
     "kappa": 1.0, "power": 1.0,
     "noise": {"decay": 0.005},
     "interferers": [{"azimuth": 0.39, "elevation": 1.047,
                      "phase_rate": 0.02, "power": 1.0}],
     "clutter": {"patches": 25, "elevation": 0.3,
                 "azimuth_span": [-1.5708, 1.5708],
                 "patch_power": 1.0, "doppler_slope": 1.0},
     "seed": 1729}

Omitted fields take the defaults of the config dataclasses (README lists them).

A trace has one row per iteration with the columns TRACE_COLUMNS
(rescaled_objective empty when not rescaling): in CSV a header line and
one line per row; in JSON an object of solver, lambda_mode, rescaled and
seed with a "records" list of one object per row. Comparison tables have
the TableRow fields as columns and a JSON "rows" list. One token rule
holds throughout: integers print as integers, other numbers with 17
significant digits (bit-reproducible, parse back exactly), None as an
empty CSV cell or JSON null, and non-finite JSON numbers as NaN,
Infinity and -Infinity, as Python's json reads them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .am_driver import (
    LAMBDA_MODES,
    SOLVERS,
    IterateTrace,
    RunReport,
    check_run_args,
    draw_waveform,
    run,
)
from .errors import CostapError, ParseError, ValidationError, check_int
from .radar_model import FILE_PATHS, ScenarioConfig

# trace column -> IterateRecord attribute, in file order
_TRACE_FIELDS = {
    "iter": "iteration", "objective": "full_objective",
    "clutter_objective": "clutter_objective", "power": "power",
    "capon_residual": "capon_residual", "multiplier": "multiplier",
    "step_w": "step_w", "step_s": "step_s", "drift": "drift",
    "rescaled_objective": "rescaled_objective",
}
TRACE_COLUMNS = tuple(_TRACE_FIELDS)
_TRACE_META = ("solver", "lambda_mode", "rescaled", "seed")  # JSON only


@dataclass(frozen=True)
class ExperimentSpec:
    """One comparison experiment: which solvers, how many trials."""

    scenario: ScenarioConfig
    solvers: tuple[str, ...]
    lambda_mode: str = "root"
    rescale: bool = False
    trials: int = 1
    max_iter: int = 20
    seed: int = 0

    def __post_init__(self):
        check_int("trials", self.trials, 1)
        check_int("seed", self.seed, 0)
        if not self.solvers:
            raise ValidationError("solvers", "must be nonempty")
        for solver in self.solvers:
            check_run_args(solver, self.max_iter, self.lambda_mode)


@dataclass(frozen=True)
class TableRow:
    algorithm: str
    mean_final_objective: float
    std_final_objective: float
    trials: int


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[TableRow, ...]
    failures: tuple[tuple[str, int, str], ...] = ()


_TABLE_COLUMNS = tuple(f.name for f in dataclasses.fields(TableRow))


def default_scenario_path() -> Path:
    """Location of the bundled demo scenario file."""
    return Path(str(resources.files("costap").joinpath("data/scenario_default.json")))


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    return scenario_from_dict(doc)


def _lookup(doc: dict, path: str, prefix: str):
    """(label, value) of the dotted `path` below `doc`; the value is MISSING
    when the key or one of its enclosing objects is absent, and the label
    then names the outermost absent one."""
    *sections, key = path.split(".")
    for name in sections:
        prefix += name
        if name not in doc:
            return prefix, dataclasses.MISSING
        doc = doc[name]
        if not isinstance(doc, dict):
            raise ValidationError(prefix, "must be an object")
        prefix += "."
    return prefix + key, doc.get(key, dataclasses.MISSING)


def _parse(kind, value, label: str):
    """`value` from the scenario file as the annotated type `kind`."""
    if value is None:
        raise ValidationError(label, "is required")
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            raise ValidationError(label, f"must be {'an integer' if kind is int else 'a number'}, "
                                         f"got {value!r}")
        try:
            return kind(value)
        except OverflowError:
            raise ValidationError(label, "is too large for a float") from None
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValidationError(label, "must be an object")
        return _read(kind, value, label + ".")
    items = typing.get_args(kind)  # tuple[T, ...] or a fixed-length tuple
    if items[-1] is Ellipsis:
        if not isinstance(value, list):
            raise ValidationError(label, f"must be a list, got {value!r}")
        items = items[:1] * len(value)
    elif not isinstance(value, (list, tuple)) or len(value) != len(items):
        raise ValidationError(label, f"must be a list of {len(items)} values, got {value!r}")
    return tuple(_parse(t, v, f"{label}[{i}]") for i, (t, v) in enumerate(zip(items, value)))


def _read(cls, doc: dict, prefix: str = ""):
    """Build the config dataclass `cls` from its scenario-file object: each
    field by its annotated type at its file path (FILE_PATHS), absent
    fields at their dataclass defaults."""
    kwargs, hints = {}, typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        label, value = _lookup(doc, FILE_PATHS.get(f.name, f.name), prefix)
        if value is not dataclasses.MISSING:
            kwargs[f.name] = _parse(hints[f.name], value, label)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValidationError(label, "is required")
    return cls(**kwargs)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig; absent fields take defaults."""
    return _read(ScenarioConfig, doc)


def _splitmix64(seed: int, index: int) -> int:
    """Independent per-trial seed stream (splitmix64 finalizer)."""
    mask = (1 << 64) - 1
    z = (int(seed) + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def _trial_waveform(cfg: ScenarioConfig, seed: int, trial: int) -> np.ndarray:
    return draw_waveform(cfg.N, cfg.power, np.random.default_rng(_splitmix64(seed, trial)))


def _label(solver: str, lambda_mode: str, rescaled: bool) -> str:
    base = f"{solver}[{lambda_mode}]"
    return base + "+rescaled" if rescaled else base


def run_comparison(spec: ExperimentSpec):
    """Run every requested solver from one shared start per trial.

    Returns (traces, table): traces maps solver name to the per-trial
    trace list (None for failed cells); the table has one row per
    solver, plus a rescaled row per solver when spec.rescale is set.
    Failures are recorded per (solver, trial) without aborting the rest.
    """
    cfg = spec.scenario
    traces: dict[str, list[IterateTrace | None]] = {s: [] for s in spec.solvers}
    failures: list[tuple[str, int, str]] = []
    for trial in range(spec.trials):
        s0 = _trial_waveform(cfg, spec.seed, trial)
        for solver in spec.solvers:
            try:
                report: RunReport = run(
                    cfg, solver, max_iter=spec.max_iter,
                    lambda_mode=spec.lambda_mode, rescale=spec.rescale,
                    init_waveform=s0,
                )
                traces[solver].append(report.trace)
            except CostapError as exc:
                traces[solver].append(None)
                failures.append((solver, trial, str(exc)))

    rows: list[TableRow] = []
    for solver in spec.solvers:
        finals = [t.records[-1].full_objective for t in traces[solver] if t is not None]
        rows.append(_table_row(_label(solver, spec.lambda_mode, False), finals))
        if spec.rescale:
            rescaled = [t.records[-1].rescaled_objective for t in traces[solver]
                        if t is not None and t.records[-1].rescaled_objective is not None]
            rows.append(_table_row(_label(solver, spec.lambda_mode, True), rescaled))
    return traces, ComparisonTable(rows=tuple(rows), failures=tuple(failures))


def _table_row(label: str, finals: list[float]) -> TableRow:
    arr = np.asarray(finals, dtype=float)
    if arr.size == 0:
        return TableRow(label, float("nan"), float("nan"), 0)
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return TableRow(label, float(np.mean(arr)), std, int(arr.size))


def _cell(value, fmt: str) -> str:
    """One value as a CSV cell or a JSON token (see module docstring)."""
    if value is None:
        return "" if fmt == "csv" else "null"
    if isinstance(value, (str, bool)):
        return json.dumps(value) if fmt == "json" else str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if fmt == "json" and not np.isfinite(value):
        return "NaN" if np.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    return f"{value:.17g}"


def _write(path, fmt: str, columns, rows, key: str, meta=()) -> None:
    """Write rows of values under `columns`: a CSV header and one line per
    row, or a JSON object of the `meta` (name, value) pairs and a list
    `key` of one object per row."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(v, fmt) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        head = "".join(f'  "{name}": {_cell(v, fmt)},\n' for name, v in meta)
        items = ",\n".join(
            "    {" + ", ".join(f'"{c}": {_cell(v, fmt)}' for c, v in zip(columns, row)) + "}"
            for row in rows)
        text = "{\n" + head + f'  "{key}": [\n' + items + "\n  ]\n}\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    Path(path).write_text(text)


def emit_trace(trace: IterateTrace, path, fmt: str = "csv") -> None:
    """Write a per-iteration trace as CSV or JSON (see module docstring)."""
    rows = [[getattr(r, attr) for attr in _TRACE_FIELDS.values()] for r in trace.records]
    meta = [(name, getattr(trace, name)) for name in _TRACE_META]
    _write(path, fmt, TRACE_COLUMNS, rows, "records", meta)


def read_trace(path, fmt: str = "csv"):
    """Parse an emitted trace back into (metadata, rows of floats/None).
    Raises ParseError, naming the line or key, for a malformed file."""
    text = Path(path).read_text()
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
            raise ParseError(f"{path}: line 1: expected the header {','.join(TRACE_COLUMNS)}")
        rows = []
        for n, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(TRACE_COLUMNS):
                raise ParseError(f"{path}: line {n}: expected {len(TRACE_COLUMNS)} cells, "
                                 f"got {len(cells)}")
            try:
                values = [int(cells[0])] + [None if c == "" else float(c) for c in cells[1:]]
            except ValueError as exc:
                raise ParseError(f"{path}: line {n}: {exc}") from None
            rows.append(dict(zip(TRACE_COLUMNS, values)))
        return {}, rows
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from None
        for key in (*_TRACE_META, "records"):
            if not isinstance(doc, dict) or key not in doc:
                raise ParseError(f"{path}: missing key {key!r}")
        return {k: doc[k] for k in _TRACE_META}, doc["records"]
    raise ValueError(f"unknown trace format {fmt!r}")


def emit_table(table: ComparisonTable, path, fmt: str = "csv") -> None:
    """Write a comparison table as CSV or JSON, by the trace's token rule."""
    rows = [[getattr(row, name) for name in _TABLE_COLUMNS] for row in table.rows]
    _write(path, fmt, _TABLE_COLUMNS, rows, "rows")


def _print_table(table: ComparisonTable) -> None:
    width = max([len(r.algorithm) for r in table.rows] + [9])
    print(f"{'algorithm':<{width}}  {'mean_final':>14}  {'std':>12}  trials")
    for r in table.rows:
        print(f"{r.algorithm:<{width}}  {r.mean_final_objective:>14.6e}  "
              f"{r.std_final_objective:>12.4e}  {r.trials:>6}")
    for solver, trial, message in table.failures:
        print(f"FAILED {solver} trial {trial}: {message}", file=sys.stderr)


def _load_cfg(args) -> ScenarioConfig:
    path = args.scenario if args.scenario else default_scenario_path()
    cfg = load_scenario(path)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _check_out(path, directory: bool) -> None:
    """Reject an --out location that cannot be written, before any run.

    A trace file needs an existing directory; a results directory is
    created with its parents, so its nearest existing ancestor must be a
    directory and the path itself, if it exists, too.
    """
    if path is None:
        return
    out = Path(path)
    if out.is_dir() != directory and out.exists():
        kind = "a directory" if out.is_dir() else "not a directory"
        raise ValidationError("--out", f"{path} is {kind}")
    target = out if directory else out.parent
    existing = target
    while not existing.exists():
        existing = existing.parent
    if not directory and existing != target:
        raise ValidationError("--out", f"directory {target} does not exist")
    if not existing.is_dir():
        raise ValidationError("--out", f"{existing} is not a directory")
    if not os.access(existing, os.W_OK):
        raise ValidationError("--out", f"directory {existing} is not writable")


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    _check_out(args.out, directory=False)
    report = run(cfg, args.solver, max_iter=args.iters,
                 lambda_mode=args.lambda_mode, rescale=args.rescale)
    last = report.trace.records[-1]
    print(f"solver={args.solver} iterations={last.iteration} "
          f"final_objective={last.full_objective:.12e} power={last.power:.6f} "
          f"monotonicity_violations={report.monotonicity_violations}")
    if args.out:
        emit_trace(report.trace, args.out, args.format)
        print(f"trace written to {args.out}")
    if report.monotonicity_violations:
        print(f"monotone descent violated {report.monotonicity_violations} times",
              file=sys.stderr)
        return 3
    return 0


def _run_experiment(args, default_trials: int, write_traces: bool) -> int:
    cfg = _load_cfg(args)
    spec = ExperimentSpec(
        scenario=cfg,
        solvers=tuple(args.solver) if args.solver else SOLVERS,
        lambda_mode=args.lambda_mode,
        rescale=args.rescale,
        trials=args.trials if args.trials is not None else default_trials,
        max_iter=args.iters,
        seed=args.seed if args.seed is not None else cfg.seed,
    )
    _check_out(args.out, directory=True)
    traces, table = run_comparison(spec)
    _print_table(table)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if write_traces:
            for solver, trial_traces in traces.items():
                for t, trace in enumerate(trial_traces):
                    if trace is None:
                        continue
                    name = f"trace_{solver}_trial{t:03d}.{args.format}"
                    emit_trace(trace, out_dir / name, args.format)
        emit_table(table, out_dir / f"comparison.{args.format}", args.format)
        print(f"results written to {out_dir}")
    return 3 if table.failures else 0


def _add_common(p: argparse.ArgumentParser, multi_solver: bool) -> None:
    p.add_argument("--scenario", metavar="PATH", default=None,
                   help="scenario JSON (default: bundled demo scenario)")
    if multi_solver:
        p.add_argument("--solver", action="append", choices=SOLVERS,
                       help="solver(s) to run; repeatable (default: all four)")
    else:
        p.add_argument("--solver", choices=SOLVERS, default="qcqp")
    p.add_argument("--iters", type=int, default=20, metavar="K")
    p.add_argument("--lambda-mode", choices=LAMBDA_MODES, default="root",
                   dest="lambda_mode")
    p.add_argument("--rescale", action="store_true",
                   help="also record the full-power rescaled objective")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costap",
        description="Joint receive-filter and waveform co-design experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single solver, single run")
    _add_common(p_run, multi_solver=False)
    p_run.set_defaults(func=_cmd_run)

    for name, help_text, trials, write_traces in (
            ("compare", "all solvers from one shared start", 1, True),
            ("montecarlo", "multi-trial mean comparison table", 50, False)):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, multi_solver=True)
        p.add_argument("--trials", type=int, default=None, metavar="T")
        p.set_defaults(func=functools.partial(_run_experiment, default_trials=trials,
                                              write_traces=write_traces))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CostapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
