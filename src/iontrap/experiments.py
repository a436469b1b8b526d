"""Named batch experiments behind the command line runner.

Each experiment takes the model parameters, a space, an option mapping
(raw strings from the config file) and an order-preserving map function,
and returns a list of ResultTable objects.  Bad options raise
ConfigError; numerical trouble discovered mid-run (an ambiguous level
pairing or degeneracy, an inconclusive fit, a broken self-check) raises
DiagnosticError, which still carries whatever tables were produced so
the runner can write them before reporting the failure.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    ConfigError, SpaceConfig, basis_vector, number, pauli,
    op_norm, interior_distance, EXCITED, GROUND, _require_interior_level,
)
from .hamiltonians import (
    ModelParams, bh, ith_terms, _require_rabi, _t1_gauge, _t_delta_gauge,
)
from .engine import ClusterAmbiguityError, decompose, solve, residual_norm
from .closedforms import (
    Regime, regime_series, spectrum_second_order,
    anticrossing_shift, rwa_evolutor_fn, first_order_evolutor_fn,
)
from .oracle import (
    OverlapAmbiguityError, exact_eigs, exact_propagator_fn,
    frame_chain_fn, time_ordered_sweep, fit_order, scan_gap,
    _rung_levels, _CONCLUSIVE_R2, _STEPS_PER_UNIT,
)


class DiagnosticError(RuntimeError):
    """A numerical self-check failed; partial tables ride along."""

    def __init__(self, message: str, tables=()):
        super().__init__(message)
        self.tables = list(tables)


@dataclass(frozen=True)
class ResultTable:
    """Equal-length named series plus the knobs that produced them."""

    name: str
    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.columns:
            raise ValueError("a result table needs at least one column")
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))


# ASCII decimal literals only: float() and int() also read "0_05" as 5.0
# and take every Unicode digit, which \d matches too
_FLOAT = re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*", re.ASCII)
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _finite_float(raw, what: str) -> float:
    """float(raw), or ConfigError naming ``what`` unless raw is an ASCII
    decimal literal of a finite number."""
    text = str(raw)
    value = float(text) if _FLOAT.fullmatch(text) else math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {raw!r}")
    return value


def _integer(raw, what: str) -> int:
    """int(raw), or ConfigError naming ``what`` unless raw is written as
    an ASCII decimal integer (so ``1e1``, ``2.0`` and ``1_0`` are refused)."""
    try:
        if _INTEGER.fullmatch(str(raw)):
            return int(raw)
    except ValueError:  # past int()'s digit limit
        pass
    raise ConfigError(f"{what} must be a finite integer, got {raw!r}")


class Options:
    """Typed access to the [experiment] options with leftover detection."""

    def __init__(self, raw: dict):
        self._raw = dict(raw)

    def get_float(self, key: str, default: float) -> float:
        raw = self._raw.pop(key, None)
        if raw is None:
            return default
        return _finite_float(raw, f"option {key!r}")

    def get_int(self, key: str, default: int) -> int:
        raw = self._raw.pop(key, None)
        if raw is None:
            return default
        return _integer(raw, f"option {key!r}")

    def get_str(self, key: str, default: str, choices=None) -> str:
        val = str(self._raw.pop(key, default)).strip()
        if choices is not None and val not in choices:
            raise ConfigError(
                f"option {key!r} must be one of {sorted(choices)}, got {val!r}")
        return val

    def _get_list(self, key: str, default: tuple, parse) -> tuple:
        raw = self._raw.pop(key, None)
        if raw is None:
            return tuple(default)
        vals = tuple(parse(tok, f"each entry of option {key!r}")
                     for tok in str(raw).split(",") if tok.strip())
        if not vals:
            raise ConfigError(f"option {key!r} is empty")
        return vals

    def get_floats(self, key: str, default: tuple) -> tuple:
        return self._get_list(key, default, _finite_float)

    def get_ints(self, key: str, default: tuple) -> tuple:
        return self._get_list(key, default, _integer)

    def finish(self):
        if self._raw:
            raise ConfigError(
                f"unknown experiment options: {sorted(self._raw)}")


def _time_grid(opts: Options, t_max_default: float, steps_default: int):
    t_max = opts.get_float("t_max", t_max_default)
    steps = opts.get_int("t_steps", steps_default)
    if t_max <= 0 or steps < 2:
        raise ConfigError("need t_max > 0 and t_steps >= 2")
    return np.linspace(0.0, t_max, steps)


# criterion 1's tolerance, the error a time sweep may carry
_PHASE_TOL = 1e-6


def _check_phase_budget(energies: np.ndarray, t_max: float) -> None:
    """DiagnosticError when the phases E t lose more than _PHASE_TOL.

    A phase E t is known to about eps |E| t, so a sweep whose largest
    energy times its last time exceeds _PHASE_TOL / eps has no digit it
    can vouch for at that tolerance.  Checked before the sweep runs.
    """
    loss = np.finfo(float).eps * float(np.abs(energies).max()) * t_max
    if loss > _PHASE_TOL:
        raise DiagnosticError(
            f"phase budget exceeded: eps * max|E| * t_max = {loss:.3e} > "
            f"{_PHASE_TOL:.0e}")


# -- the experiments ----------------------------------------------------------

def spectrum(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Second-order level formula against exact diagonalization.

    Each exact level is paired by overlap with ``_rung_levels``: E0 with
    |0,g>, rung n with span{|n-1,e>, |n,g>}.  A projection under the
    oracle's threshold is a DiagnosticError, an ambiguous level pairing,
    with the rungs paired so far.  Rungs past the interior are refused by
    ``_require_interior_level``.  The levels come from one ``exact_eigs``
    of ``bh`` for rungs 0 through n_levels, its pairs certified against
    the whole array by ``oracle._window_pairs``.
    """
    n_levels = opts.get_int("n_levels", 10)
    opts.finish()
    _require_rabi(p)
    _require_interior_level(n_levels, 0, space, "option 'n_levels'")
    spec = spectrum_second_order(p, n_levels)
    values, vectors = exact_eigs(bh(p, space), range(n_levels + 1))
    cols = {"n": [], "E_minus": [], "E_plus": [],
            "E_minus_exact": [], "E_plus_exact": [],
            "err_minus": [], "err_plus": []}
    meta = {"n_levels": n_levels, "E0": spec.E0}
    try:
        (e0,) = _rung_levels(0, values, vectors)
        meta.update(E0_exact=e0, err_E0=abs(spec.E0 - e0))
        for n, e_minus, e_plus in spec.levels:
            lo, hi = _rung_levels(n, values, vectors)
            cols["n"].append(n)
            cols["E_minus"].append(e_minus)
            cols["E_plus"].append(e_plus)
            cols["E_minus_exact"].append(lo)
            cols["E_plus_exact"].append(hi)
            cols["err_minus"].append(abs(e_minus - lo))
            cols["err_plus"].append(abs(e_plus - hi))
    except OverlapAmbiguityError as exc:
        raise DiagnosticError(f"ambiguous level pairing: {exc}",
                              [ResultTable("spectrum", cols, meta)])
    return [ResultTable("spectrum", cols, meta)]


def evolve(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Lab-frame dynamics of a Fock x spin basis state, no approximation.

    The frame chain is factored once; each time propagates the state, not
    the full unitary.  sigma_z and n are diagonal, so P(e) and <n> are
    weighted sums of |psi|^2.  norm_defect, the largest |<psi|psi> - 1|
    over the sweep, records how far rounding took the state off the unit
    sphere.  A sweep whose phases E t exceed the budget of
    ``_check_phase_budget`` is a diagnostic before it runs.  An initial_n
    past the interior is refused by ``_require_interior_level``.
    """
    ts = _time_grid(opts, 6.0, 121)
    n0 = opts.get_int("initial_n", 0)
    spin_name = opts.get_str("initial_spin", "g", choices={"g", "e"})
    opts.finish()
    _require_rabi(p)
    _require_interior_level(n0, 0, space, "option 'initial_n'")
    spin = GROUND if spin_name == "g" else EXCITED
    psi0 = basis_vector(space, n0, spin)
    n_diag = number(space).mat.diagonal().real
    # P(excited) weights: spin-z in the +1 eigenspace
    p_exc = 0.5 * (1.0 + pauli("z", space).mat.diagonal().real)
    chain = frame_chain_fn(p, space)
    _check_phase_budget(chain.eigenvalues, float(ts[-1]))

    def point(t):
        psi = chain.apply(float(t), psi0)
        prob = np.abs(psi) ** 2
        return (float(prob @ p_exc), float(prob @ n_diag),
                float(abs(psi0.conj() @ psi) ** 2), float(prob.sum()))

    rows = list(mapper(point, ts))
    cols = {"t": [float(t) for t in ts],
            "p_excited": [r[0] for r in rows],
            "mean_n": [r[1] for r in rows],
            "survival": [r[2] for r in rows]}
    meta = {"initial_n": n0, "initial_spin": spin_name,
            "norm_defect": max(abs(r[3] - 1.0) for r in rows)}
    return [ResultTable("evolve", cols, meta)]


def compare_rwa(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Interior-norm error of the RWA and first-order evolutors.

    The RWA evolutor is a closed form at resonance, so its builder, which
    refuses nu != delta_breve, runs first.  All three propagators
    are built before the sweep, so a sweep past the phase budget of
    ``_check_phase_budget`` fails before any point runs.  The budget
    holds the energies of bh and of H0 + C1, which the RWA evolutor shares.
    """
    ts = _time_grid(opts, 3.0, 61)
    opts.finish()
    _require_rabi(p)
    rwa = rwa_evolutor_fn(p, space)
    exact = exact_propagator_fn(bh(p, space))
    first = first_order_evolutor_fn(p, space)
    for spec in (exact, first):
        _check_phase_budget(spec.eigenvalues, float(ts[-1]))

    def point(t):
        t = float(t)
        ref = exact(t)
        return (interior_distance(rwa(t), ref),
                interior_distance(first(t), ref))

    rows = list(mapper(point, ts))
    cols = {"t": [float(t) for t in ts],
            "err_rwa": [r[0] for r in rows],
            "err_e1": [r[1] for r in rows]}
    final_ratio = (cols["err_rwa"][-1] / cols["err_e1"][-1]
                   if cols["err_e1"][-1] > 0 else float("inf"))
    meta = {"final_ratio": final_ratio, "lam": p.lam}
    return [ResultTable("compare_rwa", cols, meta)]


def residual_order(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Interaction-frame residual scaling for the first two orders.

    lambda_grid needs at least four entries, all positive, to fit an order;
    any other grid is a config error before anything is solved.  The
    metadata's R2_ge_R1 lists the grid points where second order does not
    improve on first (R2 >= R1): past them the fitted R2 slope describes a
    series that has stopped converging, however clean the power law.
    clusters and min_cluster_gap are the cluster count of ``decompose(h0)``
    and the smallest eigenvalue gap between adjacent clusters (None for a
    single cluster).  An
    ambiguous degeneracy, an inconclusive fit or a slope below N + 0.7 is
    a DiagnosticError.
    """
    regime = Regime(opts.get_str("regime", "eta_much_less"))
    grid = opts.get_floats("lambda_grid", (0.02, 0.04, 0.08, 0.16))
    opts.finish()
    _require_rabi(p)
    if len(grid) < 4 or any(lam <= 0 for lam in grid):
        raise ConfigError("lambda_grid needs at least 4 entries, all positive")
    try:
        h0, series = regime_series(p, regime, space)
        spec = decompose(h0)
    except ClusterAmbiguityError as exc:
        raise DiagnosticError(f"ambiguous degeneracy: {exc}")
    sol = solve(spec, series, 2)

    def point(lam):
        return (residual_norm(spec, series, sol, lam, upto=1),
                residual_norm(spec, series, sol, lam, upto=2))

    rows = list(mapper(point, grid))
    cols = {"lam": list(grid),
            "R1": [r[0] for r in rows],
            "R2": [r[1] for r in rows]}
    w, clusters = spec.eigenvalues, spec.clusters
    meta = {"regime": regime.kind, "clusters": len(clusters),
            "min_cluster_gap": min((float(w[hi[0]] - w[lo[-1]]) for lo, hi
                                    in zip(clusters, clusters[1:])), default=None),
            "R2_ge_R1": [lam for lam, (r1, r2) in zip(grid, rows) if r2 >= r1]}
    for label, idx in (("R1", 0), ("R2", 1)):
        try:
            fit = fit_order(lambda lam, i=idx: rows[grid.index(lam)][i], grid)
        except ValueError as exc:  # a vanishing residual has no order
            raise DiagnosticError(f"no {label} fit: {exc}",
                                  [ResultTable("residual_order", cols, meta)])
        meta[f"{label}_slope"] = fit.slope
        meta[f"{label}_r_squared"] = fit.r_squared
        meta[f"{label}_conclusive"] = fit.conclusive
    meta["r_squared_threshold"] = _CONCLUSIVE_R2
    tables = [ResultTable("residual_order", cols, meta)]
    if not (meta["R1_conclusive"] and meta["R2_conclusive"]):
        raise DiagnosticError("inconclusive fit: residual-order r^2 below "
                              f"{_CONCLUSIVE_R2}", tables)
    for n in (1, 2):  # criterion 3: order N needs a slope of N + 0.7
        if meta[f"R{n}_slope"] < n + 0.7:
            raise DiagnosticError(
                f"uncertified order: residual-order R{n} slope "
                f"{meta[f'R{n}_slope']:.3f} below {n + 0.7}", tables)
    return tables


def anticrossing(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Avoided-crossing scan around each requested pair level.

    Given ``offsets`` must hold at least three distinct values, as the
    default window of ``points`` >= 5 does; fewer is a ConfigError.
    A scan whose smallest gap lies at its lowest or highest offset has
    not bracketed the minimum, so its argmin would only be the window's
    edge, in whatever order the offsets are given:
    that is a DiagnosticError naming the rung, with the tables scanned so
    far, that rung's included.  So is a scan whose gaps are all equal,
    its window below the rounding of delta_breve = nu + 2 offset.  Rungs
    past the interior are refused by ``_require_interior_level`` first.
    """
    levels = opts.get_ints("levels", (1, 2, 3))
    offsets_raw = opts.get_floats("offsets", ())
    points = opts.get_int("points", 13)
    opts.finish()
    _require_rabi(p)
    for n in levels:
        _require_interior_level(n, 1, space, "each entry of option 'levels'")
    if len(set(levels)) != len(levels):  # each rung names one table
        raise ConfigError(f"levels must not repeat a rung; got {levels}")
    if points < 5:
        raise ConfigError("points must be at least 5")
    distinct = len(set(offsets_raw))
    if offsets_raw and distinct < 3:  # no parabola, no bracketed minimum
        raise ConfigError(
            f"option 'offsets' must hold at least 3 distinct values, "
            f"got {distinct}")

    def one_scan(n):
        shift = anticrossing_shift(n, p)
        if offsets_raw:
            offsets = offsets_raw
        else:
            half = 6.0 * p.lam ** 3 * p.nu
            offsets = np.linspace(-shift - half, -shift + half, points)
        scan = scan_gap(n, p, offsets, space)
        cols = {"offset": list(scan.detuning_offsets),
                "gap": list(scan.gaps)}
        meta = {"n": n, "argmin": scan.argmin, "predicted_argmin": -shift,
                "min_gap": min(scan.gaps),
                "exchange_splitting": 2.0 * p.lam * p.nu * math.sqrt(n)}
        return ResultTable(f"anticrossing_n{n}", cols, meta)

    tables = []
    for n in levels:
        try:
            tables.append(one_scan(n))
        except OverlapAmbiguityError as exc:
            raise DiagnosticError(f"ambiguous level pairing at n={n}: {exc}",
                                  tables)
        gaps, offsets = tables[-1].columns["gap"], tables[-1].columns["offset"]
        if min(gaps) == max(gaps):
            raise DiagnosticError(
                f"unresolved window at n={n}: delta_breve does not resolve "
                f"the scan window of width {max(offsets) - min(offsets):.3e}, "
                "so every offset gives the same gap", tables)
        if offsets[int(np.argmin(gaps))] in (min(offsets), max(offsets)):
            raise DiagnosticError(
                f"missed minimum at n={n}: the smallest gap is at the edge "
                "of the scan window", tables)
    return tables


def limits(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Balanced-transform limits over the dimensionless detuning.

    delta_grid holds |Delta|; the drive is Omega_R = |delta| / |Delta|.
    Every entry's drive is made before the sweep, so an entry whose drive
    the model rejects (one so small that Omega_R overflows) is a config
    error naming it.  The distances of t_delta from 1 and from t1 are
    measured in the Fock phase gauge, where all three are real: the gauge
    is a diagonal unitary with exact phases, so it leaves the spectral
    norms as they are.  t1 depends on eta alone and is built once.
    """
    grid = opts.get_floats("delta_grid", (1e-6, 1.0, 1e6))
    opts.finish()
    if p.delta == 0:
        raise ConfigError("limits needs a nonzero detuning omega_ge - omega_L")
    if any(d <= 0 for d in grid):
        raise ConfigError("delta_grid entries must be positive")
    drives = []
    for big_delta in grid:
        try:
            drives.append(
                dataclasses.replace(p, Omega_R=abs(p.delta) / big_delta))
        except ValueError as exc:
            raise ConfigError(
                f"delta_grid entry {big_delta!r} gives no valid drive "
                f"Omega_R = |delta| / Delta: {exc}")
    eye = np.eye(space.dim)
    strong = _t1_gauge(p.eta, space)

    def point(pd):
        td = _t_delta_gauge(pd, space)
        return op_norm(td - eye), op_norm(td - strong)

    rows = list(mapper(point, drives))
    cols = {"Delta": list(grid),
            "dist_identity": [r[0] for r in rows],
            "dist_strong_field": [r[1] for r in rows]}
    return [ResultTable("limits", cols, {"eta": p.eta, "delta": p.delta})]


def frame_chain(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Self-check: algebraic frame chain against stepwise integration.

    One time-ordered sweep of sixth-order Magnus steps, 40 per unit time
    (``oracle._STEPS_PER_UNIT``: 80 steps at the default t_max 2),
    reaches every time, each continuing from the one before; the points
    compare the chain with the sweep's propagators, and an interior error
    above criterion 1's _PHASE_TOL is a DiagnosticError.  So is a sweep
    past the phase budget of ``_check_phase_budget`` over the chain's
    energies and its rates omega_L sigma_z / 2, checked before any step
    is taken.  At the default density criterion 1's strong and weak
    drives leave interior errors of 9.7e-10 and 4.0e-13 at t = 2.
    unitarity_defect, the largest entry of |U^dag U - 1| over the swept
    propagators, records how far the integrator's steps, unitary only to
    rounding, drifted from the unitary group.
    """
    ts = [float(t) for t in _time_grid(opts, 2.0, 5)[1:]]  # skip t = 0
    opts.finish()
    _require_rabi(p)
    chain = frame_chain_fn(p, space)
    _check_phase_budget(np.concatenate((chain.eigenvalues, chain.rates)),
                        ts[-1])
    stepped = time_ordered_sweep(ith_terms(p, space), ts, space)

    eye = np.eye(space.dim)

    def point(pair):
        t, u = pair
        return (interior_distance(chain(t), u),
                float(np.abs(u.mat.conj().T @ u.mat - eye).max()))

    rows = list(mapper(point, zip(ts, stepped)))
    errs = [r[0] for r in rows]
    cols = {"t": ts, "interior_err": errs}
    meta = {"steps_per_unit": _STEPS_PER_UNIT, "order": 6,
            "tolerance": _PHASE_TOL,
            "unitarity_defect": max(r[1] for r in rows)}
    tables = [ResultTable("frame_chain", cols, meta)]
    worst = max(errs)
    if worst > _PHASE_TOL:
        raise DiagnosticError(
            f"frame-chain self-check violated: max interior error "
            f"{worst:.3e} exceeds tolerance {_PHASE_TOL:.3e}", tables)
    return tables


EXPERIMENTS = {
    "spectrum": spectrum,
    "evolve": evolve,
    "compare-rwa": compare_rwa,
    "residual-order": residual_order,
    "anticrossing": anticrossing,
    "limits": limits,
    "frame-chain": frame_chain,
}
