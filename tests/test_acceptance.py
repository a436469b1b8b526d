"""Acceptance gates: ten criteria, one test and one printed verdict each.

Every criterion is computed by a pure function of the space so the
truncation-robustness gate (criterion 10) can replay criteria 1-6 on a
larger box.  All interior norms are measured on the fixed window
fock <= 30, which keeps quantities comparable across spaces.

Criteria 4 and 5 assert an order in lam, so each is measured where that
order is the leading one.  Criterion 4 fits the rotating-wave error at
nu t = 3 on its own grid below lam* ~ 0.009: above it the second-order
secular phase outgrows the first-order defect, which |sin nu t| = 0.14
suppresses at that time.  Criterion 5 fits the worst level error for
n <= 10 rather than bounding it by a fixed multiple of lam^3 nu: the
formula's remainder is about n^(3/2) lam^3 nu / 4, third order at every
n but not under one constant up to n = 10.  All ten gates pass.
"""

import functools
import math

import numpy as np
import pytest

from iontrap import (
    SpaceConfig, Operator, ModelParams, JCParams,
    annihilation, pauli, identity, hermitize, commutator,
    op_norm, interior_norm, interior_distance,
    ith_terms, bh, bh_reference, jc_constants,
    Regime, regime_series, bh_first_second_order,
    jc_evolutor, jc_evolutor_breve, rwa_evolutor_fn, first_order_evolutor_fn,
    sandwich, exp_z1, y1_relation,
    spectrum_second_order, levels_first_order, levels_rwa,
    anticrossing_shift,
    exact_eigs, exact_propagator_fn, time_ordered_sweep, frame_chain_fn,
    fit_order, scan_gap,
)
from iontrap.engine import decompose, solve, residual_norm
from iontrap.operators import expm
from iontrap.oracle import _rung_levels

DESK = SpaceConfig(n_max=40, interior_margin=10)
BIG = SpaceConfig(n_max=60, interior_margin=15)
WINDOW = DESK.n_interior  # fock <= 30 at both spaces
GRID = (0.02, 0.04, 0.08, 0.16)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


def resonant(lam: float) -> ModelParams:
    return ModelParams.from_balanced(1.0, 1.0, 0.0, lam)


# -- criterion computations, parameterized by the space ------------------------

@functools.lru_cache(maxsize=None)
def crit1(space: SpaceConfig):
    """Frame chain against time-ordered integration, both drive strengths."""
    points = {
        "weak": ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0,
                            Omega_R=0.25, eta=0.1),
        "strong": ModelParams(nu=1.0, omega_ge=1.3, omega_L=1.0,
                              Omega_R=5.0, eta=0.1),
    }
    scalars = {}
    for tag, p in points.items():
        chain = frame_chain_fn(p, space)(2.0)
        stepped = time_ordered_sweep(ith_terms(p, space), [2.0], space,
                                     steps_per_unit=200)[0]
        scalars[f"err_{tag}"] = interior_distance(chain, stepped, WINDOW)
    ok = all(v <= 1e-6 for v in scalars.values())
    detail = ", ".join(f"{k}={v:.3e}" for k, v in scalars.items()) + " (<= 1e-6)"
    return ok, scalars, detail


def _regime_points():
    return (
        ("eta_much_less", resonant(0.05)),
        ("eta_much_less", ModelParams.from_balanced(1.0, GOLDEN, 0.0005, 0.05)),
        ("eta_comparable", ModelParams.from_balanced(1.0, 2.0, 0.05, 0.05)),
        ("eta_comparable", ModelParams.from_balanced(1.0, GOLDEN, 0.05, 0.05)),
        ("eta_much_greater", ModelParams.from_balanced(1.0, GOLDEN, 0.08, 0.002)),
        ("near_resonant", ModelParams.from_balanced(1.0, 1.05, 0.025, 0.05)),
    )


@functools.lru_cache(maxsize=None)
def crit2(space: SpaceConfig):
    """Engine constants commute with H0 and reproduce the printed forms."""
    worst_comm, worst_match = 0.0, 0.0
    for kind, p in _regime_points():
        regime = Regime.of(kind, p)
        h0, series = regime_series(p, regime, space)
        sol = solve(decompose(h0), series, 2)
        c1_eng = p.lam * sol.C[0]
        c2_eng = p.lam ** 2 * sol.C[1]
        scale = op_norm(h0)
        for c_eng in (c1_eng, c2_eng):
            worst_comm = max(
                worst_comm,
                interior_norm(commutator(c_eng, h0), WINDOW) / scale)
        c1, z1, c2 = bh_first_second_order(p, regime, space)
        for eng, printed in ((c1_eng, c1), (p.lam * sol.Z[0], z1),
                             (c2_eng, c2)):
            worst_match = max(worst_match,
                              interior_distance(eng, printed, WINDOW))
    scalars = {"worst_commutator": worst_comm, "worst_printed_match": worst_match}
    ok = worst_comm <= 1e-9 and worst_match <= 1e-8
    detail = (f"commutator={worst_comm:.3e} (<= 1e-9), "
              f"printed match={worst_match:.3e} (<= 1e-8)")
    return ok, scalars, detail


@functools.lru_cache(maxsize=None)
def crit3(space: SpaceConfig):
    """Residual scaling of the resonant balanced problem."""
    p = resonant(0.05)
    h0, series = regime_series(p, Regime.of("eta_much_less", p), space)
    spec = decompose(h0)
    sol = solve(spec, series, 2)
    fits = [fit_order(lambda lam: residual_norm(spec, series, sol, lam,
                                                upto=n, n_keep=WINDOW), GRID)
            for n in (1, 2)]
    scalars = {"R1_slope": fits[0].slope, "R2_slope": fits[1].slope,
               "R1_r2": fits[0].r_squared, "R2_r2": fits[1].r_squared}
    ok = (fits[0].slope >= 1.7 and fits[1].slope >= 2.7
          and all(f.r_squared >= 0.95 for f in fits))
    detail = (f"R1 slope={fits[0].slope:.3f} (>= 1.7), "
              f"R2 slope={fits[1].slope:.3f} (>= 2.7), "
              f"r^2={min(f.r_squared for f in fits):.5f} (>= 0.95)")
    return ok, scalars, detail


# Criterion 4's grid sits below lam* (see crit4), one fortieth of GRID.
GRID_RWA = tuple(lam / 40 for lam in GRID)


@functools.lru_cache(maxsize=None)
def crit4(space: SpaceConfig):
    """First-order failure of the rotating wave evolutor at nu t = 3.

    The first-order defect of the RWA is the counter-rotating integral of
    ``y1_relation``, (lam/2)(e^{2 i nu t} - 1) a sigma_- + h.c., of size
    lam |sin nu t| sqrt(n) on Fock level n.  Both evolutors also miss the
    second-order secular phase, about lam^2 nu n t.  On the window
    (n <= 30) the first-order term leads only below
    lam* ~ |sin nu t| / (sqrt(30) nu t) = 0.141 / 16.4 ~ 0.009, so the
    slopes are fitted on GRID_RWA, which lies well below lam*.  On GRID
    the RWA slope would read the lam^2 term (1.59 at nu t = 3).  The
    ratio is taken at GRID_RWA[1] rather than at the smallest lam, where
    the corrected error (~1e-5) is small enough for eigensolver rounding
    to show in criterion 10's comparison.
    """
    t = 3.0

    def err(builder, lam):
        p = resonant(lam)
        return interior_distance(builder(p, space)(t),
                                 exact_propagator_fn(bh(p, space))(t), WINDOW)

    fit_rwa = fit_order(lambda lam: err(rwa_evolutor_fn, lam), GRID_RWA)
    fit_e1 = fit_order(lambda lam: err(first_order_evolutor_fn, lam), GRID_RWA)
    ratio = fit_rwa.residuals[1] / fit_e1.residuals[1]
    scalars = {"slope_rwa": fit_rwa.slope, "slope_e1": fit_e1.slope,
               "ratio": ratio}
    ok = 0.7 <= fit_rwa.slope <= 1.3 and fit_e1.slope >= 1.7 and ratio > 5.0
    detail = (f"slope_rwa={fit_rwa.slope:.3f} (in [0.7, 1.3]), "
              f"slope_e1={fit_e1.slope:.3f} (>= 1.7), "
              f"ratio={ratio:.2f} at lam={GRID_RWA[1]} (> 5)")
    return ok, scalars, detail


def _worst_level_error(p: ModelParams, space: SpaceConfig, n_levels: int):
    """max |E_formula - E_exact| over E0 and the rungs n <= n_levels."""
    values, vectors = exact_eigs(bh(p, space))
    worst = abs(spectrum_second_order(p, 0).E0 - values[0])
    for n, e_lo, e_hi in spectrum_second_order(p, n_levels).levels:
        lo, hi = _rung_levels(n, values, vectors)
        worst = max(worst, abs(lo - e_lo), abs(hi - e_hi))
    return worst


@functools.lru_cache(maxsize=None)
def crit5(space: SpaceConfig):
    """Second-order level formula against exact diagonalization, n <= 10.

    A second-order formula promises an O(lam^3) remainder at each n, not
    one constant for all n: at resonance the remainder is about
    n^(3/2) lam^3 nu / 4 (excess per lam^3 nu 7.9 to 8.5 at n = 10 for any
    lam).  So the gate fits the order of the worst error, by crit3's rule,
    on two families.  The resonant one probes A_n; there B_n reaches the
    energies only at lam^3.  The near-resonant one, delta_breve =
    nu (1 + lam/2), counts the detuning as O(lam) as
    ``regime_series("near_resonant")`` does, so B_n enters at second
    order; at a fixed detuning lam^2 (delta_breve - nu) / 4 would be left
    over.  It passes through the point (1.05, 0.1).  At lam = 0.16 the
    exact levels of rungs n = 10 and 11 cross on the near-resonant
    family, so levels are paired by overlap with each rung's subspace,
    never by sorted index.
    """
    families = {
        "resonant": resonant,
        "near": lambda lam: ModelParams.from_balanced(
            1.0, 1.0 + 0.5 * lam, 0.0, lam),
    }
    scalars = {}
    rwa_gap = 0.0
    for tag, family in families.items():
        fit = fit_order(
            lambda lam: _worst_level_error(family(lam), space, 10), GRID)
        scalars[f"slope_{tag}"] = fit.slope
        scalars[f"r2_{tag}"] = fit.r_squared
        scalars[f"excess_{tag}"] = max(
            err / (lam ** 3 * family(lam).nu)
            for lam, err in zip(fit.lambdas, fit.residuals))
        # first-order truncation must equal the rotating-wave levels
        for lam in fit.lambdas:
            p = family(lam)
            for a, b in zip(levels_first_order(p, 10), levels_rwa(p, 10)):
                rwa_gap = max(rwa_gap, max(abs(x - y) for x, y in zip(a, b)))
    scalars["rwa_gap"] = rwa_gap
    r2 = min(scalars[f"r2_{tag}"] for tag in families)
    ok = (all(scalars[f"slope_{tag}"] >= 2.7 for tag in families)
          and r2 >= 0.95 and rwa_gap <= 1e-12)
    detail = "; ".join(
        f"{tag}: slope={scalars[f'slope_{tag}']:.3f} (>= 2.7), "
        f"max |E_formula - E_exact| / (lam^3 nu)="
        f"{scalars[f'excess_{tag}']:.2f}" for tag in families)
    detail += (f"; r^2={r2:.5f} (>= 0.95), "
               f"first-order vs RWA = {rwa_gap:.1e} (<= 1e-12)")
    return ok, scalars, detail


@functools.lru_cache(maxsize=None)
def crit6(space: SpaceConfig):
    """Anticrossing argmin sits at the second-order shift."""
    base = ModelParams.from_balanced(1.0, 1.0, 0.02, 0.05)
    lam = base.lam
    scalars = {}
    ok = True
    for n in (1, 2, 3):
        shift = anticrossing_shift(n, base)
        offsets = np.linspace(-shift - 6 * lam ** 3, -shift + 6 * lam ** 3, 13)
        scan = scan_gap(n, base, offsets, space)
        err = abs(scan.argmin + shift)
        scalars[f"argmin_err_n{n}"] = err
        ok = ok and err <= lam ** 3 * base.nu * n
    detail = ", ".join(f"n={n}: {scalars[f'argmin_err_n{n}']:.2e}"
                       for n in (1, 2, 3)) + " (<= lam^3 nu n)"
    return ok, scalars, detail


def crit7():
    """lambda and eta_breve stay bounded over six decades of drive."""
    eta = 0.1
    max_lam, max_eb = 0.0, 0.0
    for w in np.logspace(-3, 3, 121):
        p = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0,
                        Omega_R=float(w), eta=eta)
        max_lam = max(max_lam, abs(p.lam))
        max_eb = max(max_eb, abs(p.eta_breve))
    scalars = {"max_lam": max_lam, "max_eta_breve": max_eb}
    ok = max_lam <= eta / 2 + 1e-15 and max_eb <= eta + 1e-15
    detail = (f"max |lam|={max_lam:.15f} (<= eta/2={eta / 2}), "
              f"max |eta_breve|={max_eb:.15f} (<= eta={eta})")
    return ok, scalars, detail


def crit8(space: SpaceConfig):
    """Closed-form evolutors against expm on seeded (lam, t) draws."""
    rng = np.random.default_rng(20240817)
    draws = tuple((float(0.01 + 0.14 * u), float(0.1 + 5.9 * v))
                  for u, v in rng.uniform(size=(5, 2)))
    a = annihilation(space)
    worst = 0.0
    for lam, t in draws:
        pj = JCParams(nu=1.0, omega=1.0, lam=lam)
        _, s_const = jc_constants(pj, space)
        worst = max(worst, interior_distance(
            jc_evolutor(t, pj, space), exact_propagator_fn(s_const)(t), WINDOW))
        p = resonant(lam)
        gen = hermitize(1j * lam * p.nu * (
            a @ pauli("+", space) - a.dag @ pauli("-", space)))
        worst = max(worst, interior_distance(
            jc_evolutor_breve(t, p, space), exact_propagator_fn(gen)(t), WINDOW))
        z1 = -0.5 * lam * (a @ pauli("-", space) + a.dag @ pauli("+", space))
        worst = max(worst, interior_distance(
            exp_z1(p, space), expm(1j * z1), WINDOW))
        u = exp_z1(p, space)
        want = u.dag @ exact_propagator_fn(bh_reference(p, space))(t) @ u
        worst = max(worst, interior_distance(sandwich(t, p, space), want,
                                             WINDOW))
    scalars = {"worst_evolutor_err": worst}
    ok = worst <= 1e-9
    return ok, scalars, f"worst evolutor vs expm = {worst:.3e} (<= 1e-9)"


def crit9(space: SpaceConfig):
    """Composing out the first oscillating term sharpens the RWA."""
    t = 1.0

    def err(lam):
        p = resonant(lam)
        return interior_distance(y1_relation(t, p, space),
                                 exact_propagator_fn(bh(p, space))(t), WINDOW)

    fit = fit_order(err, GRID)
    scalars = {"y1_slope": fit.slope}
    ok = fit.slope >= 1.7 and fit.r_squared >= 0.95
    return ok, scalars, (f"slope={fit.slope:.3f} (>= 1.7), "
                         f"r^2={fit.r_squared:.5f}")


# -- the ten gates -------------------------------------------------------------

class TestAcceptance:
    def test_criterion_01_frame_chain_exactness(self):
        ok, _, detail = crit1(DESK)
        report(1, ok, detail)
        assert ok, detail

    def test_criterion_02_constants_of_motion(self):
        ok, _, detail = crit2(DESK)
        report(2, ok, detail)
        assert ok, detail

    def test_criterion_03_residual_order(self):
        ok, _, detail = crit3(DESK)
        report(3, ok, detail)
        assert ok, detail

    def test_criterion_04_rwa_first_order_failure(self):
        ok, _, detail = crit4(DESK)
        report(4, ok, detail)
        assert ok, detail

    def test_criterion_05_spectrum_formula(self):
        ok, _, detail = crit5(DESK)
        report(5, ok, detail)
        assert ok, detail

    def test_criterion_06_anticrossing_shift(self):
        ok, _, detail = crit6(DESK)
        report(6, ok, detail)
        assert ok, detail

    def test_criterion_07_bounded_couplings(self):
        ok, _, detail = crit7()
        report(7, ok, detail)
        assert ok, detail

    def test_criterion_08_closed_form_evolutors(self):
        ok, _, detail = crit8(DESK)
        report(8, ok, detail)
        assert ok, detail

    def test_criterion_09_y1_relation(self):
        ok, _, detail = crit9(DESK)
        report(9, ok, detail)
        assert ok, detail

    def test_criterion_10_truncation_robustness(self):
        stable = True
        status_kept = True
        worst_shift = 0.0
        flipped = []
        for idx, crit in enumerate((crit1, crit2, crit3, crit4, crit5, crit6),
                                   start=1):
            ok_desk, scalars_desk, _ = crit(DESK)
            ok_big, scalars_big, _ = crit(BIG)
            if ok_desk != ok_big:
                status_kept = False
                flipped.append(idx)
            for key in scalars_desk:
                shift = abs(scalars_big[key] - scalars_desk[key])
                worst_shift = max(worst_shift, shift)
                stable = stable and shift <= 1e-6
        ok = stable and status_kept
        detail = (f"max scalar shift={worst_shift:.3e} (<= 1e-6), "
                  f"status flips={flipped or 'none'}")
        report(10, ok, detail)
        assert ok, detail
