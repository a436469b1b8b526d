"""Self-test of the benchmark's correctness checks and tracer.

    python3 bench/selftest.py [SEED]

Runs one pass of every workload part, asserts that its untimed check
finds no failure, then injects corrupted results into copies of the pass
and asserts that the check counts exactly the operations that were
spoiled.  It then checks that each workload counts what its parts count.
It also traces one small call and asserts that spans nest and that the
wrappers are removed again.  Exits 0 when every assertion holds.
"""

import copy
import os
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import iontrap  # noqa: E402
from iontrap import cli, experiments, hamiltonians  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def _table(result, key, name=None):
    tables = result.runs[key].tables
    return tables[0] if name is None else next(t for t in tables if t.name == name)


def _bump(table, column, index, delta):
    table.columns[column][index] += delta


def _swap_levels(result):
    cols = _table(result, "spectrum").columns
    cols["E_minus_exact"][3], cols["E_plus_exact"][3] = (
        cols["E_plus_exact"][3], cols["E_minus_exact"][3])


def _fail_experiment(key):
    def corrupt(result):
        result.runs[key] = workloads.ExperimentRun([], "injected failure")
    return corrupt


def _scale_residual(result):
    _table(result, "near_resonant").columns["R3"][0] *= 10.0


def _spoil_constant(result):
    h0, sol = result.runs["eta_much_less"].solution
    c = list(sol.C)
    c[1] = c[1] + iontrap.annihilation(h0.space)
    result.runs["eta_much_less"].solution = (h0, type(sol)(sol.order, tuple(c), sol.Z))


# part -> [(description, corruption, failures it must add)]
CASES = {
    "time-sweep": [
        ("evolve mean_n off by 1e-6",
         lambda r: _bump(_table(r, "evolve"), "mean_n", 5, 1e-6), 1),
        ("compare-rwa err_e1 off by 1e-5",
         lambda r: _bump(_table(r, "compare-rwa"), "err_e1", 7, 1e-5), 1),
        ("evolve raised", _fail_experiment("evolve"), 121),
    ],
    "param-scan": [
        ("spectrum level 4 mispaired", _swap_levels, 1),
        ("anticrossing gap off by 1e-2",
         lambda r: _bump(_table(r, "anticrossing", "anticrossing_n2"), "gap", 3, 1e-2), 1),
        ("limits distance off by 1e-6",
         lambda r: _bump(_table(r, "limits"), "dist_identity", 2, 1e-6), 1),
        ("spectrum raised", _fail_experiment("spectrum"), 11),
    ],
    "oracle-selfcheck": [
        ("frame-chain error above 1e-6",
         lambda r: _bump(_table(r, "strong"), "interior_err", 2, 2e-6), 1),
        ("weak drive raised", _fail_experiment("weak"), 4),
    ],
    "perturbative": [
        ("third-order residual scaled", _scale_residual, 4),
        ("second-order constant not commuting with H0", _spoil_constant, 1),
        ("near-resonant run raised", _fail_experiment("near_resonant"), 30),
    ],
}


def check_part(name, seed, out_dir) -> tuple:
    """Problems found, and the part's clean configs and pass."""
    workload = workloads.PARTS[name]
    cfgs = {}
    for key, text in workload.configs(seed).items():
        path = os.path.join(out_dir, f"{name}-{key}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        cfgs[key] = cli.parse_config(path)
    result = workload.run_pass(cfgs, map, os.path.join(out_dir, name))
    attempted, base = workload.check(cfgs, result)
    problems = [] if base == 0 else [f"{name}: clean pass has {base} failures"]
    for label, corrupt, expected in CASES[name]:
        spoiled = copy.deepcopy(result)
        corrupt(spoiled)
        _, failed = workload.check(cfgs, spoiled)
        status = "ok" if failed == expected else "WRONG"
        print(f"  {name:17s} {label:46s} counted {failed} (want {expected}) {status}")
        if failed != expected:
            problems.append(f"{name}: {label}: counted {failed}, want {expected}")
    return problems, cfgs, result


def check_composite(workload, clean) -> list:
    """A workload counts what its parts count; one part's failure shows."""
    cfgs = {f"{part.name}.{key}": cfg for part in workload.parts
            for key, cfg in clean[part.name][0].items()}
    result = workloads.PassResult({part.name: clean[part.name][1]
                                   for part in workload.parts})
    want = [part.check(*clean[part.name]) for part in workload.parts]
    problems = []
    if workload.check(cfgs, result) != tuple(map(sum, zip(*want))):
        problems.append(f"{workload.name}: does not count as its parts do")
    first = workload.parts[0]
    spoiled = copy.deepcopy(result)
    _fail_experiment(next(iter(clean[first.name][0])))(spoiled.runs[first.name])
    _, failed = workload.check(cfgs, spoiled)
    expected = first.check(clean[first.name][0], spoiled.runs[first.name])[1]
    print(f"  {workload.name:17s} {first.name + ' part raised':46s} "
          f"counted {failed} (want {expected}) {'ok' if failed == expected else 'WRONG'}")
    if failed != expected or failed == 0:
        problems.append(f"{workload.name}: a raised part counted {failed}")
    return problems


def check_tracer() -> list:
    problems = []
    tracer = Tracer()
    original = hamiltonians.bh
    tracer.install()
    try:
        space = iontrap.SpaceConfig(n_max=8, interior_margin=2)
        p = iontrap.ModelParams.from_balanced(1.0, 1.0, 0.0, 0.05)
        experiments.EXPERIMENTS["spectrum"](
            p, space, experiments.Options({"n_levels": "2"}), map)
    finally:
        tracer.uninstall()
    if hamiltonians.bh is not original or iontrap.bh is not original:
        problems.append("tracer: hamiltonians.bh not restored")
    if np.linalg.eigh.__module__ != "numpy.linalg":
        problems.append("tracer: numpy.linalg.eigh not restored")
    spans = tracer.take()
    calls, self_s, incl_s = self_times(spans)
    for name in ("experiments.spectrum", "hamiltonians.bh", "oracle.exact_eigs",
                 "kernel.eigh"):
        if calls.get(name, 0) < 1:
            problems.append(f"tracer: no span for {name}")
    if any(s[1] < 0 for s in spans if s[0] == "kernel.eigh"):
        problems.append("tracer: kernel.eigh span without a parent")
    if any(v < -1e-6 for v in self_s.values()):
        problems.append("tracer: negative self time")
    if abs(sum(self_s.values()) - incl_s["experiments.spectrum"]) > 1e-6:
        problems.append("tracer: self times do not add up to the root span")
    print(f"  tracer: {len(spans)} spans, {len(calls)} names, wrappers removed")
    return problems


def main(argv) -> int:
    seed = int(argv[0]) if argv else 0
    problems = check_tracer()
    out = BENCH.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as out_dir:
        clean = {}
        for name in workloads.PARTS:
            t0 = time.perf_counter()
            found, *clean[name] = check_part(name, seed, out_dir)
            problems += found
            print(f"  {name}: {time.perf_counter() - t0:.1f} s")
        for workload in workloads.WORKLOADS.values():
            problems += check_composite(workload, clean)
    for line in problems:
        print("FAIL " + line)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
