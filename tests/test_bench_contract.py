"""The benchmark's contract with the package: every part runs and checks clean.

``bench/workloads.py`` calls the package the way a command-line user and
the demos do (``cli.parse_config``, the experiments, ``Regime.of``,
``regime_series``, ``decompose``, ``solve``, ``residual_norm``).  One pass
of each of its four parts at seed 1, with its own check, catches a change
of any of those calls before a benchmark run does.  The module is loaded
by path and nothing is written under ``bench/``.  The benchmark's
``setup_s`` times ``import iontrap``, so the arrays the package builds at
import are held to small constants too.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from iontrap import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.modules[spec.name] = module  # its dataclasses look the module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)
        sys.dont_write_bytecode = saved


@pytest.mark.parametrize("part", ["time-sweep", "oracle-selfcheck",
                                  "param-scan", "perturbative"])
def test_one_pass_checks_clean(workloads, part, tmp_path):
    work = workloads.PARTS[part]
    cfgs = {}
    for key, text in work.configs(1).items():
        path = tmp_path / f"{key}.ini"
        path.write_text(text, encoding="utf-8")
        cfgs[key] = cli.parse_config(str(path))
    result = work.run_pass(cfgs, lambda f, xs: list(map(f, xs)),
                           str(tmp_path / "out"))
    errors = {key: run.error for key, run in result.runs.items() if run.error}
    assert errors == {}
    attempted, failed = work.check(cfgs, result)
    assert attempted > 0 and failed == 0


def test_selftest_rebuilds_a_solution_from_operators(tmp_path, monkeypatch):
    # bench/selftest.py is the one caller of PerturbativeSolution(order, C,
    # Z): its perturbative cases rebuild a spoiled solution from Operators
    path = ROOT / "bench" / "selftest.py"
    spec = importlib.util.spec_from_file_location("bench_selftest", path)
    selftest = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(os, "environ", dict(os.environ))  # it pins BLAS
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        spec.loader.exec_module(selftest)
    finally:
        sys.path[:] = saved_path
    try:
        problems, _, _ = selftest.check_part("perturbative", 1, str(tmp_path))
    finally:
        for name in ("workloads", "tracing"):
            if name not in saved_modules:
                sys.modules.pop(name, None)
    assert problems == []


# Every module of the package, imported in a fresh interpreter; the bytes
# of the numpy arrays each holds at module level, alone or one level down
# in a dict, list or tuple, by qualified name.
_ARRAYS_AT_IMPORT = """
import importlib, json, pkgutil
import numpy as np
import iontrap
sizes = {}
for info in [None, *pkgutil.iter_modules(iontrap.__path__)]:
    name = "iontrap" + ("" if info is None else "." + info.name)
    for key, value in vars(importlib.import_module(name)).items():
        held = (value.values() if isinstance(value, dict)
                else value if isinstance(value, (list, tuple)) else [value])
        size = sum(a.nbytes for a in held if isinstance(a, np.ndarray))
        if size:
            sizes[name + "." + key] = size
print(json.dumps(sizes))
"""


def test_import_builds_no_tables():
    # set-up time is the import: a table built at import costs every run
    # of the CLI, so the arrays made at import stay small constants
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _ARRAYS_AT_IMPORT], env=env,
                         capture_output=True, text=True, check=True).stdout
    sizes = json.loads(out)
    assert "iontrap.operators._TAYLOR_BLOCKS" in sizes  # the probe sees them
    assert sum(sizes.values()) <= 1024, sizes
