"""Batch front-end: read a run config, execute one experiment, emit tables.

Config format: INI sections [params], [space], [experiment].  [params]
carries either the full laboratory set (nu, omega_ge, omega_L, Omega_R,
eta) or the reduced balanced set (nu, delta_breve, eta_breve, lambda);
exactly one of the two.  Keys are case-insensitive.  All frequencies in
units of nu, canonically nu = 1.

Outputs: one CSV per result table (17 significant digits, LF endings)
plus metadata.json echoing the config, the engine version and every
tolerance in play, written atomically.  Identical configs produce
byte-identical files; nothing wall-clock-dependent is recorded.

Exit codes: 0 success, 2 config error, 3 numerical diagnostic.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .operators import SpaceConfig
from .hamiltonians import ModelParams
from .experiments import (
    EXPERIMENTS, ConfigError, DiagnosticError, Options, _finite_float,
)

_FULL_KEYS = ("nu", "omega_ge", "omega_l", "omega_r", "eta")
_REDUCED_KEYS = ("nu", "delta_breve", "eta_breve", "lambda")


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    space: SpaceConfig
    experiment: str
    options: dict
    raw: dict  # config echo for the metadata file


def _parse_params(items: dict) -> ModelParams:
    keys = set(items)
    if keys == set(_FULL_KEYS):
        names = _FULL_KEYS
    elif keys == set(_REDUCED_KEYS):
        names = _REDUCED_KEYS
    else:
        raise ConfigError(
            "[params] must contain exactly the full set "
            f"{_FULL_KEYS} or the reduced set {_REDUCED_KEYS}; got {sorted(keys)}")
    vals = {k: _finite_float(items[k], f"[params] {k}") for k in names}
    try:
        if names is _FULL_KEYS:
            return ModelParams(nu=vals["nu"], omega_ge=vals["omega_ge"],
                               omega_L=vals["omega_l"], Omega_R=vals["omega_r"],
                               eta=vals["eta"])
        return ModelParams.from_balanced(
            vals["nu"], vals["delta_breve"], vals["eta_breve"], vals["lambda"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    except OverflowError:
        raise ConfigError(
            "[params] overflow inverting the balanced parametrization")


def _parse_space(items: dict) -> SpaceConfig:
    known = {"n_max", "interior_margin"}
    unknown = set(items) - known
    if unknown:
        raise ConfigError(f"unknown [space] keys: {sorted(unknown)}")
    try:
        n_max = int(items.get("n_max", 40))
        margin = int(items.get("interior_margin", 10))
    except ValueError:
        raise ConfigError("[space] n_max and interior_margin must be integers")
    try:
        return SpaceConfig(n_max=n_max, interior_margin=margin)
    except ValueError as exc:
        raise ConfigError(str(exc))


def parse_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    sections = cp.sections()
    if not sections:
        raise ConfigError("empty config")
    unknown = set(sections) - {"params", "space", "experiment"}
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    for required in ("params", "experiment"):
        if required not in sections:
            raise ConfigError(f"missing [{required}] section")

    params = _parse_params(dict(cp.items("params")))
    space = _parse_space(dict(cp.items("space")) if "space" in sections else {})
    exp_items = dict(cp.items("experiment"))
    name = exp_items.pop("name", None)
    if name is None:
        raise ConfigError("[experiment] needs a name key")
    name = name.strip()
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; valid: {', '.join(sorted(EXPERIMENTS))}")
    raw = {s: dict(cp.items(s)) for s in sections}
    return RunConfig(params=params, space=space, experiment=name,
                     options=exp_items, raw=raw)


# -- output writers -----------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    out_dir = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(table) -> str:
    names, series = [], []
    for name, vals in table.columns.items():
        arr = np.asarray(vals)
        if np.iscomplexobj(arr):
            if np.any(arr.imag != 0):
                names += [f"{name}_re", f"{name}_im"]
                series += [arr.real, arr.imag]
                continue
            arr = arr.real
        names.append(name)
        series.append(arr)
    lines = [",".join(names)]
    for i in range(table.n_rows):
        lines.append(",".join(format(float(col[i]), ".17g") for col in series))
    return "\n".join(lines) + "\n"


def write_tables(tables, out_dir: str) -> list:
    paths = []
    for table in tables:
        path = os.path.join(out_dir, f"{table.name}.csv")
        _atomic_write(path, _csv_text(table))
        paths.append(path)
    return paths


def write_metadata(cfg: RunConfig, tables, out_dir: str,
                   diagnostic: str | None = None) -> str:
    meta = {
        "engine_version": __version__,
        "config": cfg.raw,
        "params": dataclasses.asdict(cfg.params),
        "space": dataclasses.asdict(cfg.space),
        "experiment": cfg.experiment,
        "tables": {t.name: t.metadata for t in tables},
    }
    if diagnostic is not None:
        meta["diagnostic"] = diagnostic
    path = os.path.join(out_dir, "metadata.json")
    _atomic_write(path, json.dumps(meta, indent=2, sort_keys=True,
                                   default=float) + "\n")
    return path


# -- entry point --------------------------------------------------------------

def _run(config_path: str, out_dir: str, threads: int) -> int:
    try:
        cfg = parse_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    fn = EXPERIMENTS[cfg.experiment]
    os.makedirs(out_dir, exist_ok=True)

    diagnostic = None
    try:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                # pool.map preserves argument order, so tables stay
                # deterministic regardless of scheduling
                tables = fn(cfg.params, cfg.space, Options(cfg.options),
                            lambda f, xs: list(pool.map(f, xs)))
        else:
            tables = fn(cfg.params, cfg.space, Options(cfg.options), map)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DiagnosticError as exc:
        tables = exc.tables
        diagnostic = str(exc)
    except ArithmeticError as exc:
        # finite input whose numbers leave the floating-point range
        tables = []
        diagnostic = f"{type(exc).__name__}: {exc}"

    write_tables(tables, out_dir)
    write_metadata(cfg, tables, out_dir, diagnostic)
    if diagnostic is not None:
        print(f"numerical diagnostic: {diagnostic}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iontrap",
        description="Deterministic batch experiments for the driven "
                    "trapped-ion toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser(
        "run", help="execute the experiment named in a config file")
    run_p.add_argument("config", help="path to an INI run configuration")
    run_p.add_argument("--out", default=".",
                       help="output directory (default: current directory)")
    run_p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sweep points (default 1)")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    return _run(args.config, args.out, args.threads)


if __name__ == "__main__":
    sys.exit(main())
