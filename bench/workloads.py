"""The benchmark workloads: seeded inputs, one timed pass, its check.

Inputs are drawn from the seed with the standard library's ``random``
module and written as INI configs, which the pass reads back through
``iontrap.cli.parse_config``; the library sees only what a command-line
user could hand it.  A pass runs the experiments (or, for the engine, the
calls of ``demos/perturbation_engine.py``) through a caller-supplied
order-preserving mapper and writes every table with ``cli.write_tables``.

Library functions are always looked up as module attributes at call time
(``iontrap.engine.solve``, never a name bound at import), so the traced
run sees the wrappers it installs.

There are four parts, one per kind of sweep, and two workloads, each of
which runs two parts one after another in every pass: ``evolution``
(``time-sweep`` and ``oracle-selfcheck``) and ``scan`` (``param-scan``
and ``perturbative``).  Pairing them makes every run long enough to
average over the speed drift of a shared machine.

Each part's ``check`` recomputes the pass's numbers by a route that
does not share the timed code path and returns ``(attempted, failed)``.
It runs untimed and with tracing paused.
"""

from __future__ import annotations

import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from iontrap import cli, closedforms, engine, experiments, hamiltonians, operators


@dataclass
class ExperimentRun:
    """Tables of one experiment call, or the error that replaced them."""

    tables: list
    error: str | None = None
    solution: tuple | None = None  # (h0, PerturbativeSolution) for the engine check


@dataclass
class PassResult:
    runs: dict
    bytes_written: int = 0
    extras: dict = field(default_factory=dict)


def _ini(params: dict, space: dict, experiment: dict) -> str:
    out = []
    for section, items in (("params", params), ("space", space),
                           ("experiment", experiment)):
        out.append(f"[{section}]")
        out += [f"{k} = {v}" for k, v in items.items()]
        out.append("")
    return "\n".join(out)


def _resonant_lab_params(rng: random.Random) -> dict:
    """Full laboratory set on the resonance nu = delta_breve = 1."""
    omega_r = rng.uniform(0.2, 0.45)
    omega_l = rng.uniform(0.8, 1.2)
    delta = math.sqrt(1.0 - 4.0 * omega_r ** 2)
    return {"nu": 1.0, "omega_ge": repr(omega_l + delta),
            "omega_L": repr(omega_l), "Omega_R": repr(omega_r),
            "eta": repr(rng.uniform(0.1, 0.2))}


def _reduced(delta_breve: float, eta_breve: float, lam: float) -> dict:
    """Reduced balanced set of [params]."""
    return {"nu": 1.0, "delta_breve": repr(delta_breve),
            "eta_breve": repr(eta_breve), "lambda": repr(lam)}


def _write_outputs(tables, cfg, out_dir: str, error: str | None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    paths = list(cli.write_tables(tables, out_dir))
    if cfg is not None:
        paths.append(cli.write_metadata(cfg, tables, out_dir, error))
    return sum(os.path.getsize(p) for p in paths)


def run_experiment(cfg, mapper, out_dir: str) -> tuple[ExperimentRun, int]:
    """One CLI experiment through the public API, outputs written as the CLI does."""
    fn = experiments.EXPERIMENTS[cfg.experiment]
    try:
        tables = fn(cfg.params, cfg.space, experiments.Options(cfg.options),
                    mapper)
        run = ExperimentRun(list(tables))
    except experiments.DiagnosticError as exc:
        run = ExperimentRun(list(exc.tables), f"DiagnosticError: {exc}")
    except Exception:  # a failed operation is counted, the run goes on
        run = ExperimentRun([], traceback.format_exc())
    written = _write_outputs(run.tables, cfg, out_dir, run.error) if run.tables else 0
    return run, written


def _table(run: ExperimentRun, name: str):
    for table in run.tables:
        if table.name == name:
            return table
    return None


def _close(a: float, b: float, atol: float, rtol: float = 1e-9) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def _interior(m: np.ndarray, space) -> np.ndarray:
    k = 2 * (space.n_max - space.interior_margin + 1)
    return m[:k, :k]


def _dist(a: np.ndarray, b: np.ndarray, space) -> float:
    return float(np.linalg.norm(_interior(a, space) - _interior(b, space), 2))


def _eig_fn(h: np.ndarray):
    """t -> exp(-i h t) from one factorization of a hermitian matrix."""
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    vd = v.conj().T
    return lambda t: (v * np.exp(-1j * t * w)) @ vd


class Workload:
    """One benchmark workload; BENCHMARK.json says why it was chosen."""

    name = ""

    def configs(self, seed: int) -> dict:
        """Config name -> INI text, a pure function of the seed."""
        raise NotImplementedError

    def run_pass(self, cfgs: dict, mapper, out_dir: str) -> PassResult:
        runs, written = {}, 0
        for key, cfg in cfgs.items():
            runs[key], n = run_experiment(cfg, mapper, os.path.join(out_dir, key))
            written += n
        return PassResult(runs, written)

    def check(self, cfgs: dict, result: PassResult) -> tuple[int, int]:
        raise NotImplementedError


# -- time-sweep -----------------------------------------------------------------

class TimeSweep(Workload):
    name = "time-sweep"
    SPACE = {"n_max": 60, "interior_margin": 15}

    def configs(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        params = _resonant_lab_params(rng)
        evolve = {"name": "evolve", "t_max": 6.0, "t_steps": 121,
                  "initial_n": rng.randint(0, 5),
                  "initial_spin": rng.choice("ge")}
        compare = {"name": "compare-rwa", "t_max": 3.0, "t_steps": 61}
        return {"evolve": _ini(params, self.SPACE, evolve),
                "compare-rwa": _ini(params, self.SPACE, compare)}

    def check(self, cfgs, result):
        attempted = failed = 0
        for key, expected, checker in (("evolve", 121, _check_evolve),
                                       ("compare-rwa", 61, _check_compare_rwa)):
            cfg, run = cfgs[key], result.runs[key]
            table = _table(run, key.replace("-", "_"))
            attempted += expected
            if run.error is not None or table is None or table.n_rows != expected:
                failed += expected
                continue
            failed += checker(cfg, table)
        return attempted, failed


def _check_evolve(cfg, table) -> int:
    """psi(t) = R_t^dag exp(-i rfh t) psi0, with no t_delta and no bh."""
    p, space = cfg.params, cfg.space
    n0 = int(cfg.options["initial_n"])
    spin = 1 if cfg.options["initial_spin"] == "e" else 0
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[2 * n0 + spin] = 1.0
    prop = _eig_fn(hamiltonians.rfh(p, space).mat)
    sz = np.tile([-1.0, 1.0], space.n_max + 1)
    p_exc = (1.0 + sz) / 2.0
    n_diag = np.repeat(np.arange(space.n_max + 1, dtype=float), 2)
    bad = 0
    for i, t in enumerate(table.columns["t"]):
        # R_t = exp(i omega_L t sigma_z / 2) is diagonal
        psi = np.exp(-0.5j * p.omega_L * t * sz) * (prop(t) @ psi0)
        prob = np.abs(psi) ** 2
        want = (prob @ p_exc, prob @ n_diag, abs(np.vdot(psi0, psi)) ** 2)
        got = (table.columns["p_excited"][i], table.columns["mean_n"][i],
               table.columns["survival"][i])
        bad += not all(_close(g, w, 1e-9) for g, w in zip(got, want))
    return bad


def _check_compare_rwa(cfg, table) -> int:
    """Errors recomputed with the closed-form-series bh and the evolutors'
    generators diagonalized, instead of the closed forms themselves."""
    p, space = cfg.params, cfg.space
    exact = _eig_fn(hamiltonians.bh(p, space, route="closed_form").mat)
    a = operators.annihilation(space).mat
    sp, sm = operators.pauli("+", space).mat, operators.pauli("-", space).mat
    ad = a.conj().T
    gen = (hamiltonians.bh_reference(p, space).mat
           + 1j * p.lam * p.nu * (a @ sp - ad @ sm))
    rwa = _eig_fn(gen)
    rot = _eig_fn(0.5 * p.lam * (a @ sm + ad @ sp))(1.0)  # exp(i Z1)
    bad = 0
    for i, t in enumerate(table.columns["t"]):
        ref, u_rwa = exact(t), rwa(t)
        u_e1 = rot.conj().T @ u_rwa @ rot
        ok = (_close(table.columns["err_rwa"][i], _dist(u_rwa, ref, space), 1e-7)
              and _close(table.columns["err_e1"][i], _dist(u_e1, ref, space), 1e-7))
        bad += not ok
    return bad


# -- param-scan -------------------------------------------------------------------

class ParamScan(Workload):
    name = "param-scan"
    SPACE = {"n_max": 120, "interior_margin": 30}
    LIMIT_POINTS = 8

    def configs(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        anti = _reduced(1.0, rng.uniform(0.0, 0.03), rng.uniform(0.03, 0.07))
        spec = _reduced(rng.uniform(0.97, 1.03), rng.uniform(0.0, 0.02),
                        rng.uniform(0.02, 0.08))
        lim = {"nu": 1.0, "omega_ge": 1.9, "omega_L": 1.0,
               "Omega_R": repr(rng.uniform(0.1, 1.0)),
               "eta": repr(rng.uniform(0.05, 0.2))}
        inner = sorted(10.0 ** rng.uniform(-3.0, 3.0)
                       for _ in range(self.LIMIT_POINTS - 2))
        grid = ",".join(repr(d) for d in [1e-6, *inner, 1e6])
        return {
            "anticrossing": _ini(anti, self.SPACE, {
                "name": "anticrossing", "levels": "1,2,3", "points": 13}),
            "spectrum": _ini(spec, self.SPACE, {
                "name": "spectrum", "n_levels": 10}),
            "limits": _ini(lim, self.SPACE, {
                "name": "limits", "delta_grid": grid}),
        }

    def check(self, cfgs, result):
        attempted = failed = 0
        for key, expected, checker in (
                ("anticrossing", 39, _check_anticrossing),
                ("spectrum", 11, _check_spectrum),
                ("limits", self.LIMIT_POINTS, _check_limits)):
            run = result.runs[key]
            attempted += expected
            if run.error is not None or not run.tables:
                failed += expected
                continue
            failed += checker(cfgs[key], run.tables, expected)
        return attempted, failed


def _check_anticrossing(cfg, tables, expected) -> int:
    """Each exact gap against the second-order pair formula
    2 sqrt(B^2 + lam^2 nu^2 n), B = offset + lam^2 nu n / 2, and the
    parabola-refined minimum against the predicted shift (criterion 6)."""
    p = cfg.params
    lam, nu = p.lam, p.nu
    rows = bad = 0
    for table in tables:
        n = table.metadata["n"]
        tol = 2.0 * lam ** 3 * nu * n * n
        for off, gap in zip(table.columns["offset"], table.columns["gap"]):
            b = off + 0.5 * lam ** 2 * nu * n
            want = 2.0 * math.sqrt(b * b + lam ** 2 * nu ** 2 * n)
            rows += 1
            bad += not _close(gap, want, tol, 0.0)
        if abs(table.metadata["argmin"] + 0.5 * lam ** 2 * nu * n) > lam ** 3 * nu * n:
            bad += 1
    return bad + max(0, expected - rows)


def _check_spectrum(cfg, tables, expected) -> int:
    """Exact levels re-identified by overlap with the unperturbed pair
    span{|n-1,e>, |n,g>}, so a sorted-index mispairing is counted."""
    (table,) = tables
    p, space = cfg.params, cfg.space
    w, v = np.linalg.eigh(hamiltonians.bh(p, space).mat)
    weight = np.abs(v) ** 2  # weight[basis index, eigenvector]
    bad = 0
    e0 = w[int(np.argmax(weight[0]))]  # |0,g> has flat index 0
    bad += not _close(table.metadata["E0_exact"], e0, 1e-9)
    for i, n in enumerate(table.columns["n"]):
        overlap = weight[2 * (n - 1) + 1] + weight[2 * n]
        pick = np.argsort(overlap)[-2:]
        lo, hi = sorted(w[pick])
        ok = (overlap[pick].min() >= 0.8
              and _close(table.columns["E_minus_exact"][i], lo, 1e-9)
              and _close(table.columns["E_plus_exact"][i], hi, 1e-9))
        bad += not ok
    return bad + max(0, expected - 1 - table.n_rows)


def _check_limits(cfg, tables, expected) -> int:
    """Distances recomputed from the factored transform t3 t2 t1."""
    (table,) = tables
    p, space = cfg.params, cfg.space
    eye = np.eye(space.dim)
    bad = 0
    for i, big_delta in enumerate(table.columns["Delta"]):
        pd = hamiltonians.ModelParams(nu=p.nu, omega_ge=p.omega_ge,
                                      omega_L=p.omega_L,
                                      Omega_R=p.delta / big_delta, eta=p.eta)
        t1 = hamiltonians.t1(pd, space).mat
        td = hamiltonians.t3(pd, space).mat @ hamiltonians.t2(pd, space).mat @ t1
        ok = (_close(table.columns["dist_identity"][i],
                     float(np.linalg.norm(td - eye, 2)), 1e-9, 1e-7)
              and _close(table.columns["dist_strong_field"][i],
                         float(np.linalg.norm(td - t1, 2)), 1e-9, 1e-7))
        bad += not ok
    return bad + max(0, expected - table.n_rows)


# -- oracle-selfcheck ---------------------------------------------------------------

FRAME_CHAIN_TOL = 1e-6


class OracleSelfcheck(Workload):
    name = "oracle-selfcheck"
    SPACE = {"n_max": 40, "interior_margin": 10}

    def configs(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        opts = {"name": "frame-chain", "t_max": 2.0, "t_steps": 5}
        weak = {"nu": 1.0, "omega_ge": 1.9, "omega_L": 1.0,
                "Omega_R": repr(rng.uniform(0.25, 1.0)),
                "eta": repr(rng.uniform(0.05, 0.15))}
        strong = {"nu": 1.0, "omega_ge": 1.3, "omega_L": 1.0,
                  "Omega_R": repr(rng.uniform(2.5, 5.0)),
                  "eta": repr(rng.uniform(0.05, 0.15))}
        return {"weak": _ini(weak, self.SPACE, opts),
                "strong": _ini(strong, self.SPACE, opts)}

    def run_pass(self, cfgs, mapper, out_dir):
        result = super().run_pass(cfgs, mapper, out_dir)
        errs = [e for run in result.runs.values() for table in run.tables
                for e in table.columns.get("interior_err", [])]
        result.extras["err_max"] = max(errs) if errs else float("nan")
        return result

    def check(self, cfgs, result):
        """Every interior error within the acceptance tolerance 1e-6."""
        attempted = failed = 0
        for key in cfgs:
            run = result.runs[key]
            attempted += 4
            table = _table(run, "frame_chain")
            if run.error is not None or table is None:
                failed += 4
                continue
            errs = table.columns["interior_err"]
            failed += sum(not (0.0 <= e <= FRAME_CHAIN_TOL) for e in errs)
            failed += max(0, 4 - len(errs))
        return attempted, failed


# -- perturbative -----------------------------------------------------------------

class Perturbative(Workload):
    name = "perturbative"
    SPACE = {"n_max": 120, "interior_margin": 30}
    ORDER = 6
    GRID = (0.02, 0.04, 0.08, 0.16)

    def configs(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        less = _reduced(1.0, 0.0, rng.uniform(0.03, 0.08))
        near = _reduced(rng.uniform(1.02, 1.08), rng.uniform(0.01, 0.04),
                        rng.uniform(0.03, 0.08))
        return {
            "eta_much_less": _ini(less, self.SPACE, {
                "name": "residual-order", "regime": "eta_much_less"}),
            "near_resonant": _ini(near, self.SPACE, {
                "name": "residual-order", "regime": "near_resonant"}),
        }

    def run_pass(self, cfgs, mapper, out_dir):
        """The calls of demos/perturbation_engine.py, carried to N = 6."""
        runs, written = {}, 0
        for kind, cfg in cfgs.items():
            try:
                regime = closedforms.Regime.of(kind, cfg.params)
                h0, series = closedforms.regime_series(cfg.params, regime,
                                                       cfg.space)
                spec = engine.decompose(h0)
                sol = engine.solve(spec, series, self.ORDER)
                cols = {"lam": list(self.GRID)}
                for n in range(1, self.ORDER + 1):
                    cols[f"R{n}"] = list(mapper(
                        lambda lam, n=n: engine.residual_norm(
                            spec, series, sol, lam, upto=n),
                        self.GRID))
                table = experiments.ResultTable(f"residuals_{kind}", cols,
                                                {"regime": kind})
                run = ExperimentRun([table], solution=(h0, sol))
            except Exception:
                run = ExperimentRun([], traceback.format_exc())
            if run.tables:
                written += _write_outputs(run.tables, None, out_dir, None)
            runs[kind] = run
        return PassResult(runs, written)

    def check(self, cfgs, result):
        """[C_n, H0] = 0 for every order, and each order's residual falls
        like lam^(n+1) between the two smallest grid points."""
        attempted = failed = 0
        per_regime = self.ORDER + self.ORDER * len(self.GRID)
        for kind in cfgs:
            run = result.runs[kind]
            attempted += per_regime
            if run.error is not None or not run.tables:
                failed += per_regime
                continue
            h0, sol = run.solution
            h = h0.mat
            scale = max(1.0, float(np.linalg.norm(h)))
            for c in sol.C:
                comm = c.mat @ h - h @ c.mat
                failed += not float(np.linalg.norm(comm)) <= 1e-9 * scale * max(
                    1.0, float(np.linalg.norm(c.mat)))
            cols = run.tables[0].columns
            for n in range(1, self.ORDER + 1):
                r = cols[f"R{n}"]
                finite = all(math.isfinite(x) and x > 0 for x in r)
                slope = (math.log2(r[1] / r[0]) if finite else -math.inf)
                if not slope >= n + 0.5:
                    failed += len(r)
        return attempted, failed


# -- the benchmark's workloads: parts run one after another in each pass ---------

class Composite(Workload):
    """Several parts run one after another as one pass.

    A part's config keys are prefixed with its name (``time-sweep.evolve``);
    each part draws its own inputs from the seed, runs in its own output
    directory and is checked by its own ``check``.
    """

    def __init__(self, name: str, parts: list):
        self.name, self.parts = name, parts

    def configs(self, seed):
        return {f"{part.name}.{key}": text for part in self.parts
                for key, text in part.configs(seed).items()}

    def split(self, cfgs: dict) -> dict:
        """Part name -> that part's configs under their own keys."""
        out = {part.name: {} for part in self.parts}
        for key, cfg in cfgs.items():
            part, sub = key.split(".", 1)
            out[part][sub] = cfg
        return out

    def run_pass(self, cfgs, mapper, out_dir):
        runs, written, extras = {}, 0, {}
        subs = self.split(cfgs)
        for part in self.parts:
            t0 = time.perf_counter()
            runs[part.name] = part.run_pass(subs[part.name], mapper,
                                            os.path.join(out_dir, part.name))
            extras[f"part.{part.name}.s"] = time.perf_counter() - t0
            written += runs[part.name].bytes_written
            extras.update(runs[part.name].extras)
        return PassResult(runs, written, extras)

    def check(self, cfgs, result):
        attempted = failed = 0
        subs = self.split(cfgs)
        for part in self.parts:
            a, f = part.check(subs[part.name], result.runs[part.name])
            attempted += a
            failed += f
        return attempted, failed


PARTS = {w.name: w for w in (TimeSweep(), ParamScan(), OracleSelfcheck(),
                             Perturbative())}

WORKLOADS = {w.name: w for w in (
    Composite("evolution", [PARTS["time-sweep"], PARTS["oracle-selfcheck"]]),
    Composite("scan", [PARTS["param-scan"], PARTS["perturbative"]]))}
