"""Named batch experiments behind the command line runner.

Each experiment takes the model parameters, a space, an option mapping
(raw strings from the config file) and an order-preserving map function,
and returns a list of ResultTable objects.  Bad options raise
ConfigError; numerical trouble discovered mid-run (ambiguous level
pairing, an inconclusive fit, a broken self-check) raises
DiagnosticError, which still carries whatever tables were produced so
the runner can write them before reporting the failure.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    SpaceConfig, identity, basis_vector, number, pauli,
    op_norm, interior_distance, EXCITED, GROUND,
)
from .hamiltonians import ModelParams, bh, t_delta, t1, ith_fn
from .engine import decompose, solve, residual_norm
from .closedforms import (
    REGIME_KINDS, Regime, regime_series, spectrum_second_order,
    anticrossing_shift, rwa_evolutor_fn, first_order_evolutor_fn,
)
from .oracle import (
    OverlapAmbiguityError, exact_eigs, exact_propagator_fn,
    frame_chain_fn, time_ordered_sweep, fit_order, scan_gap,
    _rung_levels,
)


class ConfigError(ValueError):
    """The run configuration asks for something outside the contracts."""


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


def _finite_float(raw, what: str) -> float:
    """float(raw), or ConfigError naming ``what`` unless it is a finite number."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {raw!r}")
    return value


class Options:
    """Typed access to the [experiment] options with leftover detection."""

    def __init__(self, raw: dict):
        self._raw = dict(raw)

    def _pop(self, key, default):
        return self._raw.pop(key, default)

    def get_float(self, key: str, default: float) -> float:
        raw = self._pop(key, None)
        if raw is None:
            return default
        return _finite_float(raw, f"option {key!r}")

    def get_int(self, key: str, default: int) -> int:
        raw = self._pop(key, None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"option {key!r} must be an integer, got {raw!r}")

    def get_str(self, key: str, default: str, choices=None) -> str:
        val = str(self._pop(key, default)).strip()
        if choices is not None and val not in choices:
            raise ConfigError(
                f"option {key!r} must be one of {sorted(choices)}, got {val!r}")
        return val

    def get_floats(self, key: str, default: tuple) -> tuple:
        raw = self._pop(key, None)
        if raw is None:
            return tuple(default)
        vals = tuple(_finite_float(tok, f"each entry of option {key!r}")
                     for tok in str(raw).split(",") if tok.strip())
        if not vals:
            raise ConfigError(f"option {key!r} is empty")
        return vals

    def get_ints(self, key: str, default: tuple) -> tuple:
        vals = self.get_floats(key, default)
        out = tuple(int(v) for v in vals)
        if any(o != v for o, v in zip(out, vals)):
            raise ConfigError(f"option {key!r} must be integers")
        return out

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


def _as_config_error(exc: ValueError) -> ConfigError:
    return ConfigError(str(exc))


# -- the experiments ----------------------------------------------------------

def spectrum(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Second-order level formula against exact diagonalization."""
    n_levels = opts.get_int("n_levels", 10)
    opts.finish()
    try:
        spec = spectrum_second_order(p, n_levels)
    except ValueError as exc:
        raise _as_config_error(exc)
    values, vectors = exact_eigs(bh(p, space))
    cols = {"n": [], "E_minus": [], "E_plus": [],
            "E_minus_exact": [], "E_plus_exact": [],
            "err_minus": [], "err_plus": []}
    meta = {"n_levels": n_levels, "E0": spec.E0, "E0_exact": float(values[0]),
            "err_E0": abs(spec.E0 - float(values[0]))}
    for n, e_minus, e_plus in spec.levels:
        try:
            lo, hi = _rung_levels(n, values, vectors, space)
        except OverlapAmbiguityError as exc:
            raise DiagnosticError(f"ambiguous level pairing: {exc}",
                                  [ResultTable("spectrum", cols, meta)])
        cols["n"].append(n)
        cols["E_minus"].append(e_minus)
        cols["E_plus"].append(e_plus)
        cols["E_minus_exact"].append(lo)
        cols["E_plus_exact"].append(hi)
        cols["err_minus"].append(abs(e_minus - lo))
        cols["err_plus"].append(abs(e_plus - hi))
    return [ResultTable("spectrum", cols, meta)]


def evolve(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Lab-frame dynamics of a Fock x spin basis state, no approximation.

    The frame chain is factored once; each time propagates the state, not
    the full unitary.  sigma_z and n are diagonal, so P(e) and <n> are
    weighted sums of |psi|^2.  norm_defect, the largest |<psi|psi> - 1|
    over the sweep, records how far rounding took the state off the unit
    sphere.
    """
    ts = _time_grid(opts, 6.0, 121)
    n0 = opts.get_int("initial_n", 0)
    spin_name = opts.get_str("initial_spin", "g", choices={"g", "e"})
    opts.finish()
    if not 0 <= n0 <= space.n_max:
        raise ConfigError(f"initial_n must be in 0..{space.n_max}")
    spin = GROUND if spin_name == "g" else EXCITED
    psi0 = basis_vector(space, n0, spin)
    n_diag = number(space).mat.diagonal().real
    # P(excited) weights: spin-z in the +1 eigenspace
    p_exc = 0.5 * (1.0 + pauli("z", space).mat.diagonal().real)
    chain = frame_chain_fn(p, space)

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

    All three propagators are built before the sweep, so parameters
    outside the evolutors' resonance windows fail before any point runs.
    """
    ts = _time_grid(opts, 3.0, 61)
    opts.finish()
    exact = exact_propagator_fn(bh(p, space))
    try:
        rwa = rwa_evolutor_fn(p, space)
        first = first_order_evolutor_fn(p, space)
    except ValueError as exc:
        raise _as_config_error(exc)

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
    """Interaction-frame residual scaling for the first two orders."""
    kind = opts.get_str("regime", "eta_much_less",
                        choices=set(REGIME_KINDS))
    grid = opts.get_floats("lambda_grid", (0.02, 0.04, 0.08, 0.16))
    opts.finish()
    try:
        regime = Regime.of(kind, p)
        h0, series = regime_series(p, regime, space)
    except ValueError as exc:
        raise _as_config_error(exc)
    spec = decompose(h0)
    sol = solve(spec, series, 2)

    def point(lam):
        return (residual_norm(spec, series, sol, lam, upto=1),
                residual_norm(spec, series, sol, lam, upto=2))

    rows = list(mapper(point, grid))
    cols = {"lam": list(grid),
            "R1": [r[0] for r in rows],
            "R2": [r[1] for r in rows]}
    meta = {"regime": kind}
    for label, idx in (("R1", 0), ("R2", 1)):
        fit = fit_order(lambda lam, i=idx: rows[grid.index(lam)][i], grid)
        meta[f"{label}_slope"] = fit.slope
        meta[f"{label}_r_squared"] = fit.r_squared
        meta[f"{label}_conclusive"] = fit.conclusive
    meta["r_squared_threshold"] = 0.95
    tables = [ResultTable("residual_order", cols, meta)]
    if not (meta["R1_conclusive"] and meta["R2_conclusive"]):
        raise DiagnosticError(
            "inconclusive fit: residual-order r^2 below 0.95", tables)
    return tables


def anticrossing(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Avoided-crossing scan around each requested pair level."""
    levels = opts.get_ints("levels", (1, 2, 3))
    offsets_raw = opts.get_floats("offsets", ())
    points = opts.get_int("points", 13)
    opts.finish()
    if any(n < 1 for n in levels):
        raise ConfigError("levels must be positive integers")
    if points < 5:
        raise ConfigError("points must be at least 5")

    def one_scan(n):
        try:
            shift = anticrossing_shift(n, p)
        except ValueError as exc:
            raise _as_config_error(exc)
        if offsets_raw:
            offsets = offsets_raw
        else:
            half = 6.0 * p.lam ** 3 * p.nu
            offsets = np.linspace(-shift - half, -shift + half, points)
        try:
            scan = scan_gap(n, p, offsets, space)
        except ValueError as exc:
            raise _as_config_error(exc)
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
            raise DiagnosticError(f"cluster ambiguity at n={n}: {exc}", tables)
    return tables


def limits(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Balanced-transform limits over the dimensionless detuning."""
    grid = opts.get_floats("delta_grid", (1e-6, 1.0, 1e6))
    opts.finish()
    if p.delta == 0:
        raise ConfigError("limits needs a nonzero detuning omega_ge - omega_L")
    if any(d <= 0 for d in grid):
        raise ConfigError("delta_grid entries must be positive")
    eye = identity(space)

    def point(big_delta):
        pd = dataclasses.replace(p, Omega_R=p.delta / big_delta)
        td = t_delta(pd, space)
        return op_norm(td - eye), op_norm(td - t1(pd, space))

    rows = list(mapper(point, grid))
    cols = {"Delta": list(grid),
            "dist_identity": [r[0] for r in rows],
            "dist_strong_field": [r[1] for r in rows]}
    return [ResultTable("limits", cols, {"eta": p.eta, "delta": p.delta})]


def frame_chain(p: ModelParams, space: SpaceConfig, opts: Options, mapper):
    """Self-check: algebraic frame chain against stepwise integration.

    One time-ordered sweep reaches every time, each continuing from the
    one before; the points compare the chain with the sweep's propagators.
    """
    ts = [float(t) for t in _time_grid(opts, 2.0, 5)[1:]]  # skip t = 0
    steps_per_unit = opts.get_float("steps_per_unit", 200.0)
    order = opts.get_int("order", 4)
    tol = opts.get_float("tolerance", 1e-6)
    opts.finish()
    if order not in (2, 4) or steps_per_unit <= 0:
        raise ConfigError("need order 2 or 4 and steps_per_unit > 0")
    chain = frame_chain_fn(p, space)
    stepped = time_ordered_sweep(ith_fn(p, space), ts, space,
                                 steps_per_unit, order)

    def point(pair):
        t, u = pair
        return interior_distance(chain(t), u)

    errs = list(mapper(point, zip(ts, stepped)))
    cols = {"t": ts, "interior_err": errs}
    meta = {"steps_per_unit": steps_per_unit, "order": order, "tolerance": tol}
    tables = [ResultTable("frame_chain", cols, meta)]
    worst = max(errs)
    if worst > tol:
        raise DiagnosticError(
            f"frame-chain self-check violated: max interior error "
            f"{worst:.3e} exceeds tolerance {tol:.3e}", tables)
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
