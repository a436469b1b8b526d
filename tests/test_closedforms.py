"""Printed-formula constants, closed-form evolutors, second-order spectrum."""

import math

import numpy as np
import pytest

from iontrap import (
    ConfigError, SpaceConfig, Operator, ModelParams, JCParams,
    annihilation, number, pauli, identity, basis_vector,
    op_norm, commutator, interior_norm, interior_distance, hermitize, expm,
    GROUND, EXCITED,
    bh, bh_reference, jc_constants,
    decompose, solve, ClusterAmbiguityError,
    REGIME_KINDS, Regime, SecondOrderSpectrum,
    regime_series, bh_first_second_order,
    jc_evolutor, jc_evolutor_breve, rwa_evolutor_fn, first_order_evolutor_fn,
    exp_z1, sandwich, y1_relation,
    spectrum_second_order, levels_first_order, levels_rwa,
    transition_probability, anticrossing_shift, exact_eigs,
    exact_propagator_fn, fit_order,
)
from iontrap.oracle import _rung_levels

SPACE = SpaceConfig()

GOLDEN = (1 + math.sqrt(5)) / 2

# the six regime points the printed formulas are checked at
POINT_RES = ModelParams(nu=1.0, omega_ge=1.0, omega_L=1.0, Omega_R=0.5, eta=0.1)
POINT_OFF = ModelParams.from_balanced(1.0, GOLDEN, 0.0005, 0.05)
POINT_TWO_PHOTON = ModelParams.from_balanced(1.0, 2.0, 0.05, 0.05)
POINT_COMPARABLE = ModelParams.from_balanced(1.0, GOLDEN, 0.05, 0.05)
POINT_GREATER = ModelParams.from_balanced(1.0, GOLDEN, 0.08, 0.002)
POINT_NEAR = ModelParams.from_balanced(1.0, 1.05, 0.025, 0.05)


def level_errors(p, n_levels):
    """(n, |formula - exact|) per rung, the larger of the pair's two errors;
    the exact pair is the one ``oracle._rung_levels`` matches by overlap."""
    values, vectors = exact_eigs(bh(p, SPACE))
    out = []
    for n, e_lo, e_hi in spectrum_second_order(p, n_levels).levels:
        lo, hi = _rung_levels(n, values, vectors)
        out.append((n, max(abs(lo - e_lo), abs(hi - e_hi))))
    return out


def fit_slope(xs, ys):
    """Least-squares slope of log ys against log xs."""
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def exact_evolutor(h: Operator, t: float) -> Operator:
    return expm((-1j * t) * h)


class TestRegime:
    def test_kinds_are_exposed(self):
        assert set(REGIME_KINDS) == {
            "eta_much_less", "eta_comparable", "eta_much_greater",
            "near_resonant"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown regime kind"):
            Regime(kind="eta_resonant")

    def test_validate_reads_resonance_off_parameters(self):
        regime = Regime(kind="eta_much_less")
        assert regime.validate(POINT_RES) is True
        assert regime.validate(POINT_OFF) is False
        assert Regime.of("eta_much_less", POINT_RES) == regime
        # the engine's tolerance: a mismatch of 5e-9 is resonance
        near = ModelParams.from_balanced(1.0, 1.0 + 5e-9, 0.0, 0.05)
        assert regime.validate(near) is True

    def test_near_resonant_window(self):
        far = ModelParams.from_balanced(1.0, 1.25, 0.02, 0.05)
        with pytest.raises(ValueError):
            Regime.of("near_resonant", far)
        Regime.of("near_resonant", POINT_NEAR)  # inside the default window

    @pytest.mark.parametrize("ratio", [1.09, 0.91, 1.11, 0.89])
    def test_near_window_edges(self, ratio):
        # |nu - delta_breve| <= 0.1 nu decides all three; 1.1 nu itself is
        # no edge to test, since |1 - 1.1| rounds to 0.10000000000000009
        p = ModelParams.from_balanced(1.0, ratio, 0.0, 0.05)
        space = SpaceConfig(n_max=8, interior_margin=2)
        for call in (lambda: Regime.of("near_resonant", p),
                     lambda: first_order_evolutor_fn(p, space),
                     lambda: spectrum_second_order(p, 2)):
            if abs(ratio - 1.0) < 0.1:
                call()
            else:
                with pytest.raises(ConfigError, match="nearly resonant window"):
                    call()


class TestRegimeSeries:
    def test_lam_zero_rejected(self):
        p = ModelParams.from_balanced(1.0, GOLDEN, 0.0, 0.0)
        with pytest.raises(ValueError):
            regime_series(p, Regime(kind="eta_much_less"), SPACE)

    def test_much_less_is_single_term(self):
        h0, series = regime_series(POINT_OFF, Regime.of("eta_much_less", POINT_OFF), SPACE)
        assert len(series.terms) == 1
        assert op_norm(h0 - bh_reference(POINT_OFF, SPACE)) == 0.0

    def test_quadratic_term_weight(self):
        p = POINT_COMPARABLE
        h0, series = regime_series(p, Regime.of("eta_comparable", p), SPACE)
        assert len(series.terms) == 2
        # <0,e| term2 |2,g> = -(eta_breve/lam) nu sqrt(2)
        v_out = basis_vector(SPACE, 0, EXCITED)
        v_in = basis_vector(SPACE, 2, GROUND)
        got = v_out.conj() @ series.terms[1].mat @ v_in
        want = -(p.eta_breve / p.lam) * p.nu * math.sqrt(2)
        assert abs(got - want) < 1e-13

    def test_regroupings_agree(self):
        # all regimes describe the same Hamiltonian once lam is restored
        p = POINT_NEAR
        h0c, sc = regime_series(p, Regime.of("eta_comparable", p), SPACE)
        h0n, sn = regime_series(p, Regime.of("near_resonant", p), SPACE)
        full_c = h0c + sc.evaluate(p.lam)
        full_n = h0n + sn.evaluate(p.lam)
        assert op_norm(full_c - full_n) < 1e-12

    def test_near_resonant_reference_is_degenerate_ladder(self):
        h0, _ = regime_series(POINT_NEAR, Regime.of("near_resonant", POINT_NEAR), SPACE)
        # |n-1,e> and |n,g> share the reference eigenvalue
        va = basis_vector(SPACE, 3, EXCITED)
        vb = basis_vector(SPACE, 4, GROUND)
        ea = va.conj() @ h0.mat @ va
        eb = vb.conj() @ h0.mat @ vb
        assert abs(ea - eb) < 1e-14


class TestPrintedVersusEngine:
    """Hand formulas against the recursion, interior norm, per regime."""

    POINTS = (
        ("eta_much_less", POINT_RES),
        ("eta_much_less", POINT_OFF),
        ("eta_comparable", POINT_TWO_PHOTON),
        ("eta_comparable", POINT_COMPARABLE),
        ("eta_much_greater", POINT_GREATER),
        ("near_resonant", POINT_NEAR),
    )

    @pytest.mark.parametrize("kind,p", POINTS,
                             ids=[f"{k}-db{p.delta_breve:.3f}" for k, p in POINTS])
    def test_engine_reproduces_printed_constants(self, kind, p):
        regime = Regime.of(kind, p)
        h0, series = regime_series(p, regime, SPACE)
        sol = solve(decompose(h0), series, 2)
        c1, z1, c2 = bh_first_second_order(p, regime, SPACE)
        assert interior_distance(p.lam * sol.C[0], c1) < 1e-8
        assert interior_distance(p.lam * sol.Z[0], z1) < 1e-8
        assert interior_distance(p.lam ** 2 * sol.C[1], c2) < 1e-8

    @pytest.mark.parametrize("kind,p", POINTS,
                             ids=[f"{k}-db{p.delta_breve:.3f}" for k, p in POINTS])
    def test_printed_constants_commute_with_reference(self, kind, p):
        regime = Regime.of(kind, p)
        h0, _ = regime_series(p, regime, SPACE)
        c1, _, c2 = bh_first_second_order(p, regime, SPACE)
        bound = 1e-9 * op_norm(h0)
        assert interior_norm(commutator(c1, h0)) <= bound
        assert interior_norm(commutator(c2, h0)) <= bound

    def test_first_order_vanishes_off_resonance(self):
        regime = Regime.of("eta_much_less", POINT_OFF)
        c1, _, _ = bh_first_second_order(POINT_OFF, regime, SPACE)
        assert op_norm(c1) == 0.0

    def test_two_photon_exchange_entry(self):
        # exactly on 2 nu = delta_breve the second order picks up the
        # two-quantum exchange with amplitude -lam eta_breve nu sqrt(2)
        p = POINT_TWO_PHOTON
        regime = Regime.of("eta_comparable", p)
        _, _, c2 = bh_first_second_order(p, regime, SPACE)
        v_out = basis_vector(SPACE, 0, EXCITED)
        v_in = basis_vector(SPACE, 2, GROUND)
        got = v_out.conj() @ c2.mat @ v_in
        want = -p.lam * p.eta_breve * p.nu * math.sqrt(2)
        assert abs(got - want) < 1e-13

    def test_two_photon_term_absent_off_two_photon_resonance(self):
        p = POINT_COMPARABLE
        _, _, c2 = bh_first_second_order(p, Regime.of("eta_comparable", p), SPACE)
        v_out = basis_vector(SPACE, 0, EXCITED)
        v_in = basis_vector(SPACE, 2, GROUND)
        assert abs(v_out.conj() @ c2.mat @ v_in) < 1e-15

    @pytest.mark.parametrize("nu,offset", [(0.1, 5e-9), (10.0, 5e-8)])
    def test_engine_agrees_away_from_unit_nu(self, nu, offset):
        # both decide nu = delta_breve by the same absolute test: at
        # nu = 0.1 a mismatch of 5e-9 is a degeneracy, so C1 is the
        # exchange; at nu = 10 one of 5e-8 is not, so C1 = 0 and Z1
        # divides by the mismatch
        space = SpaceConfig(n_max=20, interior_margin=5)
        p = ModelParams.from_balanced(nu, nu + offset, 0.0, 0.05)
        regime = Regime.of("eta_much_less", p)
        h0, series = regime_series(p, regime, space)
        sol = solve(decompose(h0), series, 2)
        c1, z1, c2 = bh_first_second_order(p, regime, space)
        assert interior_distance(p.lam * sol.C[0], c1) <= 1e-12
        assert (interior_distance(p.lam * sol.Z[0], z1)
                <= 1e-5 * interior_norm(z1))
        assert (interior_distance(p.lam ** 2 * sol.C[1], c2)
                <= 1e-5 * interior_norm(c2))

    @pytest.mark.parametrize("nu", [1.0, 10.0])
    def test_ambiguous_mismatch_raises_on_both_routes(self, nu):
        space = SpaceConfig(n_max=20, interior_margin=5)
        p = ModelParams.from_balanced(nu, nu + 2e-8, 0.0, 0.05)
        with pytest.raises(ClusterAmbiguityError):
            Regime.of("eta_much_less", p)
        with pytest.raises(ClusterAmbiguityError):
            bh_first_second_order(p, Regime(kind="eta_much_less"), space)
        with pytest.raises(ClusterAmbiguityError):
            decompose(bh_reference(p, space))

    def test_hermiticity(self):
        for kind, p in self.POINTS:
            for o in bh_first_second_order(p, Regime.of(kind, p), SPACE):
                assert op_norm(o - o.dag) < 1e-12 * max(1.0, op_norm(o))


class TestClosedFormEvolutors:
    """Closed forms against expm of their generators (criterion-8 shape)."""

    # five seeded (lam, t) draws on lam in [0.01, 0.15], t in [0.1, 6]
    rng = np.random.default_rng(20240817)
    DRAWS = tuple(
        (float(0.01 + 0.14 * u), float(0.1 + 5.9 * v))
        for u, v in rng.uniform(size=(5, 2)))

    @pytest.mark.parametrize("lam,t", DRAWS)
    def test_jc_evolutor(self, lam, t):
        p = JCParams(nu=1.0, omega=1.0, lam=lam)
        _, s_const = jc_constants(p, SPACE)
        assert interior_distance(jc_evolutor(t, p, SPACE),
                                 exact_evolutor(s_const, t)) < 1e-9

    @pytest.mark.parametrize("lam,t", DRAWS)
    def test_jc_evolutor_breve(self, lam, t):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
        a = annihilation(SPACE)
        gen = hermitize(1j * lam * p.nu * (
            a @ pauli("+", SPACE) - a.dag @ pauli("-", SPACE)))
        assert interior_distance(jc_evolutor_breve(t, p, SPACE),
                                 exact_evolutor(gen, t)) < 1e-9

    @pytest.mark.parametrize("lam,t", DRAWS)
    def test_exp_z1(self, lam, t):
        del t
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
        a = annihilation(SPACE)
        z1 = -0.5 * lam * (a @ pauli("-", SPACE) + a.dag @ pauli("+", SPACE))
        assert interior_distance(exp_z1(p, SPACE), expm(1j * z1)) < 1e-9

    @pytest.mark.parametrize("lam,t", DRAWS)
    def test_sandwich(self, lam, t):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
        u = exp_z1(p, SPACE)
        want = u.dag @ exact_evolutor(bh_reference(p, SPACE), t) @ u
        assert interior_distance(sandwich(t, p, SPACE), want) < 1e-9

    def test_identity_at_t_zero(self):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.1)
        one = identity(SPACE)
        assert op_norm(jc_evolutor_breve(0.0, p, SPACE) - one) < 1e-14
        assert op_norm(rwa_evolutor_fn(p, SPACE)(0.0) - one) < 1e-14
        assert op_norm(sandwich(0.0, p, SPACE) - one) < 1e-14
        pj = JCParams(nu=1.0, omega=1.0, lam=0.1)
        assert op_norm(jc_evolutor(0.0, pj, SPACE) - one) < 1e-14

    def test_interior_unitarity(self):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.12)
        for u in (jc_evolutor_breve(2.7, p, SPACE), sandwich(2.7, p, SPACE),
                  exp_z1(p, SPACE), y1_relation(2.7, p, SPACE)):
            prod = u.dag @ u
            assert interior_norm(prod - identity(SPACE)) < 1e-10

    def test_unitary_on_the_truncation_edge(self):
        # |n_max, e> has no exchange partner in the space, so its entry is
        # 1; cos(lam nu t sqrt(n_max + 1)) there left a defect of 0.67
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.05)
        pj = JCParams(nu=1.0, omega=1.0, lam=0.05)
        one = identity(SPACE)
        for u in (rwa_evolutor_fn(p, SPACE)(3.0), jc_evolutor(3.0, pj, SPACE),
                  jc_evolutor_breve(3.0, p, SPACE)):
            assert op_norm(u.dag @ u - one) <= 1e-12
        # and the truncated generator's exponential on the whole space
        a = annihilation(SPACE)
        gen = hermitize(1j * p.lam * p.nu * (
            a @ pauli("+", SPACE) - a.dag @ pauli("-", SPACE)))
        assert op_norm(jc_evolutor_breve(3.0, p, SPACE)
                       - exact_evolutor(gen, 3.0)) <= 1e-12

    def test_rwa_evolutor_equals_exponential_product(self):
        for p in (POINT_RES, ModelParams.from_balanced(1.0, 1.0, 0.0, 0.12)):
            u = rwa_evolutor_fn(p, SPACE)
            for t in (0.0, 0.7, 2.0, -1.3):
                want = (exact_evolutor(bh_reference(p, SPACE), t)
                        @ jc_evolutor_breve(t, p, SPACE))
                assert op_norm(u(t) - want) < 1e-13

    def test_rwa_evolutor_is_the_phased_exchange_evolutor(self):
        # the builder's closure forms jc_evolutor_breve's blocks itself,
        # without its resonance check, and bit for bit
        for p in (POINT_RES, ModelParams.from_balanced(1.0, 1.0, 0.0, 0.12)):
            u = rwa_evolutor_fn(p, SPACE)
            h0 = bh_reference(p, SPACE).mat.diagonal()
            for t in (0.0, 0.7, 2.0, -1.3):
                want = (np.exp(-1j * t * h0)[:, None]
                        * jc_evolutor_breve(t, p, SPACE).mat)
                assert np.array_equal(u(t).mat, want)

    def test_lam_zero_reductions(self):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.0)
        free = exact_evolutor(bh_reference(p, SPACE), 1.8)
        assert op_norm(rwa_evolutor_fn(p, SPACE)(1.8) - free) < 1e-13
        assert op_norm(sandwich(1.8, p, SPACE) - free) < 1e-13
        assert op_norm(y1_relation(1.8, p, SPACE) - free) < 1e-13

    def test_resonance_gates(self):
        # one rule and one message, naming the closed form that needs it;
        # y1_relation's is the rwa_evolutor_fn it builds first
        off = ModelParams.from_balanced(1.0, 1.05, 0.0, 0.1)
        tail = ("is a closed form at resonance nu = delta_breve; "
                f"got nu=1.0, delta_breve={off.delta_breve!r}")
        for name, call in (
                ("jc_evolutor_breve", lambda: jc_evolutor_breve(1.0, off, SPACE)),
                ("sandwich", lambda: sandwich(1.0, off, SPACE)),
                ("rwa_evolutor_fn", lambda: y1_relation(1.0, off, SPACE)),
                ("rwa_evolutor_fn", lambda: rwa_evolutor_fn(off, SPACE)),
                ("exp_z1", lambda: exp_z1(off, SPACE))):
            with pytest.raises(ConfigError) as info:
                call()
            assert str(info.value) == f"{name} {tail}"
        with pytest.raises(ConfigError) as info:
            jc_evolutor(1.0, JCParams(nu=1.0, omega=1.2, lam=0.1), SPACE)
        assert str(info.value) == ("jc_evolutor is a closed form at resonance "
                                   "nu = omega; got nu=1.0, omega=1.2")

    def test_resonance_is_exact_to_1e_12(self):
        space = SpaceConfig(n_max=8, interior_margin=2)
        rwa_evolutor_fn(ModelParams.from_balanced(1.0, 1.0 + 1e-13, 0.0, 0.1),
                        space)
        with pytest.raises(ConfigError, match="closed form at resonance"):
            rwa_evolutor_fn(
                ModelParams.from_balanced(1.0, 1.0 + 1e-11, 0.0, 0.1), space)

    def test_vacuum_is_frozen_under_exchange(self):
        # |0,g> has no exchange partner, so the JC evolutor fixes it
        p = JCParams(nu=1.0, omega=1.0, lam=0.1)
        v0 = basis_vector(SPACE, 0, GROUND)
        amp = v0.conj() @ jc_evolutor(3.3, p, SPACE).mat @ v0
        assert abs(amp - 1.0) < 1e-14

    def test_sandwich_composes(self):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.09)
        lhs = sandwich(1.1 + 0.7, p, SPACE)
        rhs = sandwich(1.1, p, SPACE) @ sandwich(0.7, p, SPACE)
        assert interior_distance(lhs, rhs) < 1e-12

    def test_sandwich_edge_transition_amplitude(self):
        # bottom rung |0,g> -> |1,e>, where kappa reduces to -i cos sin
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.1)
        t = 0.9
        u = sandwich(t, p, SPACE)
        assert np.isfinite(u.mat).all()
        v_out = basis_vector(SPACE, 1, EXCITED)
        v_in = basis_vector(SPACE, 0, GROUND)
        kappa1 = -1j * math.cos(0.05) * math.sin(0.05)
        osc = np.exp(2j * p.nu * t)
        want = (np.exp(-1j * p.lam ** 2 * p.nu * t) * kappa1 * (1.0 - osc)
                * np.exp(-1j * p.nu * 1.5 * t))
        got = v_out.conj() @ u.mat @ v_in
        assert abs(got - want) < 1e-13


class TestFirstOrderEvolutor:
    def test_near_resonance_gate(self):
        far = ModelParams.from_balanced(1.0, 1.2, 0.0, 0.05)
        with pytest.raises(ValueError):
            first_order_evolutor_fn(far, SPACE)

    @pytest.mark.parametrize("p", [POINT_RES, POINT_NEAR],
                             ids=["resonant", "near-resonant"])
    def test_factored_form_equals_rotated_exponential(self, p):
        a = annihilation(SPACE)
        sp, sm = pauli("+", SPACE), pauli("-", SPACE)
        rot = expm(-0.5j * p.lam * (a @ sm + a.dag @ sp))  # exp(i Z1)
        gen = bh_reference(p, SPACE) + 1j * p.lam * p.nu * (a @ sp - a.dag @ sm)
        u = first_order_evolutor_fn(p, SPACE)
        for t in (0.0, 0.7, 2.0, -1.3):
            want = rot.dag @ exact_evolutor(gen, t) @ rot
            assert op_norm(u(t) - want) < 1e-12

    def test_unitary(self):
        u = first_order_evolutor_fn(POINT_NEAR, SPACE)(2.0)
        assert op_norm(u.dag @ u - identity(SPACE)) < 1e-12

    def test_error_is_second_order(self):
        # against the exact balanced propagator the defect shrinks as lam^2
        t = 3.0
        errs = []
        lams = (0.02, 0.04, 0.08, 0.16)
        for lam in lams:
            p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
            exact = exact_evolutor(bh(p, SPACE), t)
            errs.append(interior_distance(
                first_order_evolutor_fn(p, SPACE)(t), exact))
        assert fit_slope(lams, errs) > 1.7

    def test_beats_exchange_only_by_one_order(self):
        # the gap to the exchange-only evolutor closes at first order:
        # both err at O(lam) individually but their difference is the
        # counter-rotating first-order term
        t = 1.5
        diffs = []
        lams = (0.02, 0.04, 0.08, 0.16)
        for lam in lams:
            p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
            diffs.append(interior_distance(first_order_evolutor_fn(p, SPACE)(t),
                                           rwa_evolutor_fn(p, SPACE)(t)))
        slope = fit_slope(lams, diffs)
        assert 0.7 <= slope <= 1.3


class TestY1Relation:
    def test_restores_first_order_accuracy(self):
        t = 1.0
        lams = (0.02, 0.04, 0.08, 0.16)
        errs = []
        for lam in lams:
            p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
            exact = exact_evolutor(bh(p, SPACE), t)
            errs.append(interior_distance(y1_relation(t, p, SPACE), exact))
        assert fit_slope(lams, errs) > 1.7

    def test_restores_first_order_below_the_secular_phase(self):
        # criterion 4's grid, where the first-order term would lead: a
        # first-order error left by y1_relation would pull the slope to 1
        t = 1.0
        grid = (0.0005, 0.001, 0.002, 0.004)

        def err(lam):
            p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
            return interior_distance(y1_relation(t, p, SPACE),
                                     exact_propagator_fn(bh(p, SPACE))(t))

        assert fit_order(err, grid).slope >= 1.7

    def test_exchange_only_error_is_first_order(self):
        t = 1.0
        lams = (0.02, 0.04, 0.08, 0.16)
        errs = []
        for lam in lams:
            p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
            exact = exact_evolutor(bh(p, SPACE), t)
            errs.append(interior_distance(rwa_evolutor_fn(p, SPACE)(t), exact))
        slope = fit_slope(lams, errs)
        assert 0.7 <= slope <= 1.3

    def test_reduces_to_exchange_only_at_full_period(self):
        # at t = pi/nu the counter-rotating integral vanishes
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.1)
        t = math.pi
        assert op_norm(y1_relation(t, p, SPACE)
                       - rwa_evolutor_fn(p, SPACE)(t)) < 1e-13


class TestSecondOrderSpectrum:
    def test_formula_equals_second_order_operator(self):
        p = ModelParams.from_balanced(1.0, 1.03, 0.025, 0.05)
        regime = Regime.of("near_resonant", p)
        h0, _ = regime_series(p, regime, SPACE)
        c1, _, c2 = bh_first_second_order(p, regime, SPACE)
        h2 = h0 + c1 + c2
        spec = spectrum_second_order(p, 10)
        for n, e_lo, e_hi in spec.levels:
            va = basis_vector(SPACE, n - 1, EXCITED).reshape(-1, 1)
            vb = basis_vector(SPACE, n, GROUND).reshape(-1, 1)
            blk = np.hstack([va, vb])
            w = np.linalg.eigvalsh(blk.conj().T @ h2.mat @ blk)
            assert abs(w[0] - e_lo) < 1e-13
            assert abs(w[1] - e_hi) < 1e-13
        v0 = basis_vector(SPACE, 0, GROUND)
        assert abs(v0.conj() @ h2.mat @ v0 - spec.E0) < 1e-14

    @pytest.mark.parametrize("db,eb,lam", [
        (1.0, 0.0, 0.05), (1.03, 0.025, 0.05), (1.05, 0.025, 0.1)])
    def test_low_rungs_within_third_order_budget(self, db, eb, lam):
        # the remainder grows ~n^(3/2) lam^3 / 4; the 5 lam^3 budget holds
        # through n = 5 at every near-resonant point measured
        p = ModelParams.from_balanced(1.0, db, eb, lam)
        for n, err in level_errors(p, 5):
            assert err <= 5.0 * lam ** 3 * p.nu, (n, err)

    @pytest.mark.parametrize("db,eb,lam", [
        (1.0, 0.0, 0.05), (1.03, 0.025, 0.05), (1.05, 0.025, 0.1)])
    def test_bottom_level(self, db, eb, lam):
        p = ModelParams.from_balanced(1.0, db, eb, lam)
        w = np.linalg.eigvalsh(bh(p, SPACE).mat)
        assert abs(w[0] - spectrum_second_order(p, 0).E0) <= lam ** 3 * p.nu

    def test_remainder_is_third_order(self):
        lams = (0.02, 0.04, 0.08)
        errs = []
        for lam in lams:
            p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
            errs.append(max(e for _, e in level_errors(p, 10)))
        assert fit_slope(lams, errs) > 2.7

    def test_lam_zero_collapse(self):
        p = ModelParams.from_balanced(1.0, 1.04, 0.0, 0.0)
        spec = spectrum_second_order(p, 6)
        for n, e_lo, e_hi in spec.levels:
            assert e_lo == p.nu * (n - 0.5) - 0.5 * abs(p.delta_breve - p.nu)
            assert e_hi == p.nu * (n - 0.5) + 0.5 * abs(p.delta_breve - p.nu)
        assert spec.E0 == -0.5 * p.delta_breve

    def test_pairs_sorted_and_parameters_aligned(self):
        spec = spectrum_second_order(POINT_NEAR, 8)
        assert len(spec.levels) == len(spec.A_n) == len(spec.B_n) == 8
        for (n, e_lo, e_hi), a_n in zip(spec.levels, spec.A_n):
            assert e_hi >= e_lo
            assert abs(0.5 * (e_lo + e_hi) - a_n) < 1e-14

    def test_window_gate_and_argument_validation(self):
        far = ModelParams.from_balanced(1.0, 1.2, 0.0, 0.05)
        with pytest.raises(ValueError):
            spectrum_second_order(far, 4)
        with pytest.raises(ValueError):
            spectrum_second_order(POINT_NEAR, -1)
        assert spectrum_second_order(POINT_NEAR, 0).levels == ()

    def test_container_validation(self):
        with pytest.raises(ValueError):
            SecondOrderSpectrum(E0=0.0, levels=((1, 0.0, 1.0),),
                                A_n=(), B_n=())
        with pytest.raises(ValueError):
            SecondOrderSpectrum(E0=0.0, levels=((1, 1.0, 0.0),),
                                A_n=(0.5,), B_n=(0.0,))

    def test_first_order_truncation_equals_exchange_eigenvalues(self):
        # two routes with no shared algebra coincide identically
        for p in (POINT_NEAR,
                  ModelParams.from_balanced(1.0, 1.0, 0.0, 0.05),
                  ModelParams.from_balanced(1.0, 0.95, 0.01, 0.1)):
            trunc = levels_first_order(p, 10)
            rwa = levels_rwa(p, 10)
            for (n1, a_lo, a_hi), (n2, b_lo, b_hi) in zip(trunc, rwa):
                assert n1 == n2
                assert abs(a_lo - b_lo) < 1e-12
                assert abs(a_hi - b_hi) < 1e-12


class TestTransitionProbability:
    def test_complete_population_transfer_at_zero_offset(self):
        c = 0.31j
        t_half = math.pi / (2 * abs(c))
        assert abs(transition_probability(t_half, 0.0, c, 4.2) - 1.0) < 1e-12

    def test_bounded_and_reduced_by_offset(self):
        for t in np.linspace(0.0, 20.0, 113):
            val = transition_probability(t, 0.4, 0.2j, 0.0)
            assert 0.0 <= val <= 0.04 / (0.16 + 0.04) + 1e-15

    def test_no_coupling_means_no_transfer(self):
        assert transition_probability(3.0, 0.0, 0.0, 1.0) == 0.0

    def test_common_level_drops_out(self):
        a = transition_probability(2.2, 0.3, 0.1j, 0.0)
        b = transition_probability(2.2, 0.3, 0.1j, 17.0)
        assert a == b

    def test_against_two_level_propagator(self):
        b, c, a_diag = 0.27, 0.33j, 0.8
        m = np.array([[a_diag + b, c], [np.conj(c), a_diag - b]])
        w, v = np.linalg.eigh(m)
        for t in (0.3, 1.7, 4.4):
            u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
            want = abs(u[1, 0]) ** 2
            got = transition_probability(t, b, c, a_diag)
            assert abs(got - want) < 1e-12


class TestAnticrossingShift:
    def test_value(self):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.05)
        assert anticrossing_shift(3, p) == 0.5 * 0.05 ** 2 * 3

    def test_bottom_level_rejected(self):
        with pytest.raises(ValueError):
            anticrossing_shift(0, POINT_NEAR)

    def test_splitting_parameter_vanishes_at_shifted_offset(self):
        # B_n = 0 exactly where the shift formula says the crossing moved
        lam, n = 0.05, 2
        db = 1.0 - lam ** 2 * 1.0 * n
        p = ModelParams.from_balanced(1.0, db, 0.0, lam)
        spec = spectrum_second_order(p, n)
        assert abs(spec.B_n[n - 1]) < 1e-15
        assert abs(0.5 * abs(db - 1.0) - anticrossing_shift(n, p)) < 1e-15
