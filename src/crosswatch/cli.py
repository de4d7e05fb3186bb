"""Batch command-line front end.

Commands map one-to-one onto the package layers: ``dist`` tabulates
the closed-form joint law, ``survival`` sums the exact time-domain
survival laws of the crossing times, ``functional`` evaluates the
windowed crossing transforms, ``simulate`` runs the Monte Carlo oracle,
``validate`` runs the full oracle-agreement battery, and ``predict``
packages the crash-forecast outputs (the same survival laws and the exact
crossing-level law).  No command has an option of its own, so one flat
parser (a ``COMMAND`` positional plus the shared options, in any order)
serves them all; it is built once per process and reused by every
:func:`main` call.

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
from typing import Mapping, Sequence

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
from .model import ProcessModel, TransformArgs, _config_number, load_model
from .validation import run_battery

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_TABLE = 2
_EXIT_INVERSION = 3
_EXIT_DIVERGENCE = 4
_EXIT_USAGE = 64

_COMMAND_HELP = {
    "dist": "closed-form joint table P{A_nu=r, tau_pre>t}",
    "survival": "exact survival curves of tau_pre and tau_cross",
    "functional": "windowed crossing transforms G1/G2/G",
    "simulate": "Monte Carlo crossing estimates",
    "validate": "oracle-agreement battery",
    "predict": "exact crash-forecast curves and crossing-level law",
}

_COMMAND_KEYS = {
    "dist": {"t_grid", "r_max"},
    "survival": {"t_grid"},
    "functional": {"args", "which"},
    "simulate": {"args", "n_paths"},
    "validate": {"n_paths", "perturb_c"},
    "predict": {"horizon", "t_steps"},
}


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


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _grid_spec(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like a:b:n, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}") from exc
    if count < 1 or stop < start or start < 0.0:
        raise argparse.ArgumentTypeError(f"grid needs 0 <= a <= b and n >= 1, got {text!r}")
    return np.linspace(start, stop, count)


@functools.cache
def _build_parser() -> _Parser:
    # Building costs more than a small command's body (argparse checks each
    # option's help formatting) and the parser keeps no per-call state, so
    # one instance serves every call in the process.
    epilog = "commands:\n" + "\n".join(f"  {name:<12}{text}" for name, text in _COMMAND_HELP.items())
    parser = _Parser(prog="crosswatch", description=__doc__.splitlines()[0], epilog=epilog,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", metavar="COMMAND", choices=tuple(_COMMAND_HELP),
                        help="one of the commands listed below")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=_nonnegative_int, default=0, help="simulation seed (default 0)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--check-mc", type=_positive_int, default=None, metavar="N",
                        help="cross-check analytic values with an N-path simulation")
    parser.add_argument("--exponent-form", choices=("delta", "tau"), default="delta",
                        help="damp the crossing gap (delta) or the crossing time (tau)")
    parser.add_argument("--t-grid", type=_grid_spec, default=None, metavar="A:B:N",
                        help="uniform time grid, overrides the config")
    parser.add_argument("--r-max", type=_nonnegative_int, default=None,
                        help="largest tabulated crossing level, overrides the config")
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
    allowed = {"schema_version", "model"} | _COMMAND_KEYS[command]
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


def _parse_args_section(section, exponent_form: str) -> TransformArgs:
    if not isinstance(section, Mapping):
        raise ConfigError('"args" must be an object')
    allowed = {"theta", "u", "v", "w", "x", "y"}
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown args key(s) {unknown}")
    if "theta" not in section:
        raise ConfigError('"args" needs at least "theta"')
    values = {"u": 1.0, "v": 1.0, "w": 0.0, "x": 0.0, "y": 1.0}
    for key in values:
        if key in section:
            values[key] = _config_number(section[key], f"args.{key}")
    args = TransformArgs(theta=_config_number(section["theta"], "args.theta"), **values)
    if exponent_form == "tau":
        # exp(-w*tau_pre - x*tau_cross) = exp(-(w+x)*tau_pre - x*(tau_cross - tau_pre))
        args = TransformArgs(theta=args.theta, u=args.u, v=args.v,
                             w=args.w + args.x, x=args.x, y=args.y)
    return args


def _resolve_grid(ns, config: Mapping, required: bool = True) -> np.ndarray | None:
    if ns.t_grid is not None:
        return ns.t_grid
    if "t_grid" in config:
        raw = config["t_grid"]
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
            raise ConfigError("t_grid must be a nonempty array of times")
        grid = np.asarray([_config_number(v, "each t_grid entry") for v in raw])
        if np.any(grid < 0.0) or np.any(np.diff(grid) < 0.0):
            raise ConfigError("t_grid must be nonnegative and sorted")
        return grid
    if required:
        raise ConfigError('this command needs a time grid ("t_grid" key or --t-grid)')
    return None


def _resolve_n_paths(ns, config: Mapping, default: int) -> int:
    if ns.check_mc is not None:
        return ns.check_mc
    raw = config.get("n_paths", default)
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ConfigError(f"n_paths must be a positive integer, got {raw!r}")
    return raw


def _write_output(ns, text: str) -> None:
    if ns.out is None:
        sys.stdout.write(text)
    else:
        with open(ns.out, "w", newline="\n") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_dist(ns) -> int:
    config, model = _load_config(ns.config, "dist")
    grid = _resolve_grid(ns, config)
    r_max = ns.r_max if ns.r_max is not None else config.get("r_max")
    if r_max is None:
        raise ConfigError('dist needs a level bound ("r_max" key or --r-max)')
    if isinstance(r_max, bool) or not isinstance(r_max, int) or r_max < 0:
        raise ConfigError(f"r_max must be a nonnegative integer, got {r_max!r}")
    table = closedform.dist_table(model, grid, r_max)
    levels = [f",{r}," for r in range(r_max + 1)]
    lines = ["t,r,probability"]
    for t, row in zip(grid.tolist(), table.tolist()):
        stamp = _fmt(t)
        lines.extend(f"{stamp}{level}{p:.11e}" for level, p in zip(levels, row))
    _write_output(ns, "\n".join(lines) + "\n")
    return _EXIT_OK


def cmd_survival(ns) -> int:
    config, model = _load_config(ns.config, "survival")
    grid = _resolve_grid(ns, config)
    pre, cross = timedomain._survival_laws(model, grid)
    lines = ["t,survival_pre,survival_cross"]
    lines.extend(
        f"{_fmt(t)},{_fmt(p)},{_fmt(c)}" for t, p, c in zip(grid, pre, cross)
    )
    _write_output(ns, "\n".join(lines) + "\n")
    return _EXIT_OK


def _complex_json(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def cmd_functional(ns) -> int:
    config, model = _load_config(ns.config, "functional")
    if "args" not in config:
        raise ConfigError('functional needs an "args" object')
    args = _parse_args_section(config["args"], ns.exponent_form)
    which = config.get("which", "G")
    if which not in ("G1", "G2", "G"):
        raise ConfigError(f'which must be one of "G1", "G2", "G", got {which!r}')
    g1 = fluctuation.g1_star(model, args)
    g2 = fluctuation.g2_star(model, args)
    values = {"G1": g1, "G2": g2, "G": g1 + g2}
    payload = {
        "schema_version": 1,
        "which": which,
        "exponent_form": ns.exponent_form,
        "args": {
            "theta": float(args.theta),
            "u": float(np.real(args.u)), "v": float(np.real(args.v)),
            "w": float(np.real(args.w)), "x": float(np.real(args.x)),
            "y": float(np.real(args.y)),
        },
        "value": _complex_json(values[which]),
        "values": {key: _complex_json(val) for key, val in values.items()},
    }
    if ns.check_mc is not None:
        checks = {}
        for key, est in montecarlo.estimate_functionals(model, args, ns.check_mc, ns.seed).items():
            lo, hi = est.ci()
            checks[key] = {
                "mean": est.mean,
                "std_error": est.std_error,
                "n": est.n_samples,
                "ci95": [lo, hi],
            }
        payload["check_mc"] = checks
    _write_output(ns, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return _EXIT_OK


def cmd_simulate(ns) -> int:
    config, model = _load_config(ns.config, "simulate")
    n_paths = _resolve_n_paths(ns, config, default=100_000)
    sample = montecarlo._crossing_sample(model, n_paths, ns.seed)

    def row(name: str, est: montecarlo.EstimateWithCI) -> str:
        return f"{name},{_fmt(est.mean)},{_fmt(est.std_error)},{est.n_samples}"

    columns = dict(sample, overshoot=sample["a_cross"] - model.threshold)
    lines = ["quantity,mean,std_error,n"]
    for key in ("nu", "a_pre", "a_cross", "overshoot", "tau_pre", "tau_cross"):
        lines.append(row(key, montecarlo._estimate(columns[key])))
    if "args" in config:
        args = _parse_args_section(config["args"], ns.exponent_form)
        estimates = (montecarlo._sample_functionals(sample, args) if args.y == 1  # y = 1 needs no new draws
                     else montecarlo.estimate_functionals(model, args, n_paths, ns.seed))
        lines += [row(which, est) for which, est in estimates.items()]
    _write_output(ns, "\n".join(lines) + "\n")
    return _EXIT_OK


def cmd_validate(ns) -> int:
    config, model = _load_config(ns.config, "validate")
    n_paths = _resolve_n_paths(ns, config, default=100_000)
    shift = _config_number(ns.perturb_c if ns.perturb_c is not None else config.get("perturb_c", 0.0), "perturb_c")
    report = run_battery(model, seed=ns.seed, c_shift=shift, n_paths=n_paths)
    _write_output(ns, json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    if not report["all_passed"]:
        failed = ", ".join(report["failed_checks"])
        print(f"validation failed: {failed}", file=sys.stderr)
        return _EXIT_VALIDATION
    return _EXIT_OK


def cmd_predict(ns) -> int:
    config, model = _load_config(ns.config, "predict")
    if "horizon" not in config:
        raise ConfigError('predict needs a "horizon" key (forecast window length)')
    horizon = _config_number(config["horizon"], "horizon")
    if horizon < 0.0:
        raise ConfigError(f"horizon must be a nonnegative number, got {horizon!r}")
    t_steps = config.get("t_steps", 101)
    if isinstance(t_steps, bool) or not isinstance(t_steps, int) or t_steps < 1:
        raise ConfigError(f"t_steps must be a positive integer, got {t_steps!r}")
    grid = ns.t_grid
    if grid is None:
        grid = np.linspace(0.0, horizon, t_steps) if horizon > 0 else np.array([0.0])

    precrash, cross = timedomain._survival_laws(model, grid)
    crash = 1.0 - cross

    lines = ["quantity,arg,value"]
    lines.extend(f"crash_prob,{_fmt(t)},{_fmt(p)}" for t, p in zip(grid, crash))
    lines.extend(f"precrash_survival,{_fmt(t)},{_fmt(p)}" for t, p in zip(grid, precrash))

    m = model.threshold
    levels, expected = timedomain.crossing_level_law(model, m + 200)
    # a level below the cut is skipped, not an end: a lattice pmf can dip and rise again
    lines.extend(
        f"overshoot_pmf,{r},{_fmt(levels[r])}" for r in range(m + 1, m + 201) if levels[r] >= 1e-9
    )
    lines.append(f"expected_overshoot,,{_fmt(expected)}")
    _write_output(ns, "\n".join(lines) + "\n")
    return _EXIT_OK


_COMMANDS = {
    "dist": cmd_dist,
    "survival": cmd_survival,
    "functional": cmd_functional,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "predict": cmd_predict,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return _COMMANDS[ns.command](ns)
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


if __name__ == "__main__":
    sys.exit(main())
