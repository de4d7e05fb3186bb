"""Batch command-line front end.

Commands map one-to-one onto the package layers: ``dist`` tabulates
the closed-form joint law, ``survival`` sums the exact time-domain
survival laws of the crossing times, ``functional`` evaluates the
windowed crossing transforms, ``simulate`` runs the Monte Carlo oracle,
``validate`` runs the full oracle-agreement battery, and ``predict``
packages the crash-forecast outputs (the same survival laws and the exact
crossing-level law).  Each command is declared once, with its help line and
its config keys, and every input has one source.  One flat parser (a
``COMMAND`` positional plus four options, in any order) serves them all; it
is built once per process and reused by every :func:`main` call.  Only
``simulate`` and ``validate`` draw samples, so only they read ``--seed``;
``--perturb-c`` belongs to ``validate`` and is refused elsewhere.

Conventions shared by every command: JSON configs carry a
``schema_version`` and reject unknown keys; numeric CSV cells print with
12 significant digits and LF line endings; reruns with the same config
and seed produce byte-identical output.  Exit codes: 0 ok, 1 validation
failure, 2 table-invariant failure, 3 inversion failure, 4 divergence,
64 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import closedform, fluctuation, montecarlo, timedomain
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    InversionError,
    RunawaySimulationError,
    TableInvariantError,
    UnsupportedLawError,
)
from .model import ProcessModel, TransformArgs, _config_number, _level_bound, _table_times, load_model
from .validation import run_battery

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_TABLE = 2
_EXIT_INVERSION = 3
_EXIT_DIVERGENCE = 4
_EXIT_USAGE = 64


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace, dict, ProcessModel], int]
    summary: str
    keys: frozenset[str]


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, summary: str, *keys: str):
    """Register ``run(ns, config, model)`` as command ``name``, reading config ``keys``."""
    def register(run):
        _COMMANDS[name] = _Command(run, summary, frozenset(keys))
        return run
    return register


def _fmt(x: float) -> str:
    return f"{x:.11e}"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # table-invariant failures, so usage errors leave with 64.
    def error(self, message):
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    # Building costs more than a small command's body (argparse checks each
    # option's help formatting) and the parser keeps no per-call state, so
    # one instance serves every call in the process.
    epilog = "commands:\n" + "\n".join(f"  {name:<12}{cmd.summary}" for name, cmd in _COMMANDS.items())
    parser = _Parser(prog="crosswatch", description=__doc__.splitlines()[0], epilog=epilog,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", metavar="COMMAND", choices=tuple(_COMMANDS),
                        help="one of the commands listed below")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=_nonnegative_int, default=0,
                        help="Monte Carlo seed, read by simulate and validate (default 0)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--perturb-c", type=float, default=None, metavar="EPS",
                        help="validate only: shift the composite ratio c (negative control)")
    return parser


# ---------------------------------------------------------------------------
# configuration plumbing


def _load_config(path: str, command: str) -> tuple[dict, ProcessModel]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be a JSON object")
    allowed = {"schema_version", "model"} | _COMMANDS[command].keys
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} for command {command!r}")
    if raw.get("schema_version") != 1:
        raise ConfigError(f"unsupported schema_version {raw.get('schema_version')!r}")
    if "model" not in raw or not isinstance(raw["model"], Mapping):
        raise ConfigError('config needs a "model" object')
    model_cfg = dict(raw["model"])
    model_cfg.setdefault("schema_version", 1)
    return dict(raw), load_model(model_cfg)


def _parse_args_section(section) -> TransformArgs:
    if not isinstance(section, Mapping):
        raise ConfigError('"args" must be an object')
    allowed = {"theta", "u", "v", "w", "x", "y"}
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown args key(s) {unknown}")
    if "theta" not in section:
        raise ConfigError('"args" needs at least "theta"')
    return TransformArgs(**{key: _config_number(value, f"args.{key}") for key, value in section.items()})


def _resolve_grid(config: Mapping) -> np.ndarray:
    if "t_grid" not in config:
        raise ConfigError('this command needs a time grid ("t_grid" key)')
    raw = config["t_grid"]
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
        raise ConfigError("t_grid must be a nonempty array of times")
    try:
        return _table_times([_config_number(v, "each t_grid entry") for v in raw])
    except DomainError as exc:
        raise ConfigError(f"bad t_grid: {exc}") from exc


def _resolve_n_paths(config: Mapping) -> int:
    raw = config.get("n_paths", 100_000)
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ConfigError(f"n_paths must be a positive integer, got {raw!r}")
    return raw


def _write_output(ns, text: str) -> None:
    if ns.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(ns.out, "w", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {ns.out!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


@_command("dist", "closed-form joint table P{A_nu=r, tau_pre>t}", "t_grid", "r_max")
def cmd_dist(ns, config: dict, model: ProcessModel) -> int:
    grid = _resolve_grid(config)
    if config.get("r_max") is None:
        raise ConfigError('dist needs a level bound ("r_max" key)')
    r_max = _level_bound(config["r_max"])
    table = closedform.dist_table(model, grid, r_max)
    levels = [f",{r}," for r in range(r_max + 1)]
    lines = ["t,r,probability"]
    for t, row in zip(grid.tolist(), table.tolist()):
        stamp = _fmt(t)
        lines.extend(f"{stamp}{level}{p:.11e}" for level, p in zip(levels, row))
    _write_output(ns, "\n".join(lines) + "\n")
    return _EXIT_OK


@_command("survival", "exact survival curves of tau_pre and tau_cross", "t_grid")
def cmd_survival(ns, config: dict, model: ProcessModel) -> int:
    grid = _resolve_grid(config)
    pre, cross = timedomain._survival_laws(model, grid)
    lines = ["t,survival_pre,survival_cross"]
    lines.extend(
        f"{_fmt(t)},{_fmt(p)},{_fmt(c)}" for t, p, c in zip(grid.tolist(), pre.tolist(), cross.tolist())
    )
    _write_output(ns, "\n".join(lines) + "\n")
    return _EXIT_OK


def _complex_json(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


@_command("functional", "windowed crossing transforms G1/G2/G", "args")
def cmd_functional(ns, config: dict, model: ProcessModel) -> int:
    if "args" not in config:
        raise ConfigError('functional needs an "args" object')
    args = _parse_args_section(config["args"])
    g1, g2 = fluctuation._g_parts(model, args)
    values = {"G1": g1, "G2": g2, "G": g1 + g2}
    payload = {
        "schema_version": 1,
        "args": {
            "theta": float(args.theta),
            "u": float(np.real(args.u)), "v": float(np.real(args.v)),
            "w": float(np.real(args.w)), "x": float(np.real(args.x)),
            "y": float(np.real(args.y)),
        },
        "values": {key: _complex_json(val) for key, val in values.items()},
    }
    _write_output(ns, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return _EXIT_OK


@_command("simulate", "Monte Carlo crossing estimates", "args", "n_paths")
def cmd_simulate(ns, config: dict, model: ProcessModel) -> int:
    n_paths = _resolve_n_paths(config)
    sample = montecarlo._crossing_sample(model, n_paths, ns.seed)

    def row(name: str, est: montecarlo.EstimateWithCI) -> str:
        return f"{name},{_fmt(est.mean)},{_fmt(est.std_error)},{est.n_samples}"

    columns = dict(sample, overshoot=sample["a_cross"] - model.threshold)
    lines = ["quantity,mean,std_error,n"]
    for key in ("nu", "a_pre", "a_cross", "overshoot", "tau_pre", "tau_cross"):
        lines.append(row(key, montecarlo._estimate(columns[key])))
    if "args" in config:
        args = _parse_args_section(config["args"])
        estimates = (montecarlo._sample_functionals(sample, args) if args.y == 1  # y = 1 needs no new draws
                     else montecarlo.estimate_functionals(model, args, n_paths, ns.seed))
        lines += [row(which, est) for which, est in estimates.items()]
    _write_output(ns, "\n".join(lines) + "\n")
    return _EXIT_OK


@_command("validate", "oracle-agreement battery", "n_paths")
def cmd_validate(ns, config: dict, model: ProcessModel) -> int:
    n_paths = _resolve_n_paths(config)
    shift = 0.0 if ns.perturb_c is None else _config_number(ns.perturb_c, "--perturb-c")
    report = run_battery(model, seed=ns.seed, c_shift=shift, n_paths=n_paths)
    _write_output(ns, json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    if not report["all_passed"]:
        failed = ", ".join(report["failed_checks"])
        print(f"validation failed: {failed}", file=sys.stderr)
        return _EXIT_VALIDATION
    return _EXIT_OK


@_command("predict", "exact crash-forecast curves and crossing-level law", "horizon", "t_steps")
def cmd_predict(ns, config: dict, model: ProcessModel) -> int:
    if "horizon" not in config:
        raise ConfigError('predict needs a "horizon" key (forecast window length)')
    horizon = _config_number(config["horizon"], "horizon")
    if horizon < 0.0:
        raise ConfigError(f"horizon must be a nonnegative number, got {horizon!r}")
    t_steps = config.get("t_steps", 101)
    if isinstance(t_steps, bool) or not isinstance(t_steps, int) or t_steps < 1:
        raise ConfigError(f"t_steps must be a positive integer, got {t_steps!r}")
    grid = np.linspace(0.0, horizon, t_steps) if horizon > 0 else np.array([0.0])

    precrash, cross = timedomain._survival_laws(model, grid)
    times = grid.tolist()

    lines = ["quantity,arg,value"]
    lines.extend(f"crash_prob,{_fmt(t)},{_fmt(p)}" for t, p in zip(times, (1.0 - cross).tolist()))
    lines.extend(f"precrash_survival,{_fmt(t)},{_fmt(p)}" for t, p in zip(times, precrash.tolist()))

    m = model.threshold
    levels, expected = timedomain.crossing_level_law(model, m + 200)
    levels = levels.tolist()
    # a level below the cut is skipped, not an end: a lattice pmf can dip and rise again
    lines.extend(
        f"overshoot_pmf,{r},{_fmt(levels[r])}" for r in range(m + 1, m + 201) if levels[r] >= 1e-9
    )
    lines.append(f"expected_overshoot,,{_fmt(expected)}")
    _write_output(ns, "\n".join(lines) + "\n")
    return _EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.perturb_c is not None and ns.command != "validate":
        parser.error(f"--perturb-c applies to validate only, not {ns.command}")
    try:
        config, model = _load_config(ns.config, ns.command)
        return _COMMANDS[ns.command].run(ns, config, model)
    except TableInvariantError as exc:
        print(f"table invariant violated: {exc}", file=sys.stderr)
        for cell in exc.cells[:10]:
            print(f"  offending cell: {cell}", file=sys.stderr)
        return _EXIT_TABLE
    except InversionError as exc:
        print(f"inversion failed: {exc}", file=sys.stderr)
        return _EXIT_INVERSION
    except (DivergenceError, RunawaySimulationError) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return _EXIT_DIVERGENCE
    except (ConfigError, DomainError, UnsupportedLawError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except MemoryError as exc:  # a size key (n_paths, t_steps, r_max) too large for this host
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
