"""Frame chain: lab -> rotating -> balanced -> spin-decoupled."""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from iontrap import (
    SpaceConfig, Operator, ModelParams, JCParams, GROUND, EXCITED,
    annihilation, number, pauli, identity, basis_vector, op_norm,
    commutator, interior_block, interior_norm, interior_distance, hermitize,
    jc_hamiltonian, jc_constants,
    ith, frame_rotation, rfh, rwa_effective,
    kappa_coefficients, epsilon_coefficients,
    t1, t2, t3, t_delta,
    bh_reference, bh_interaction_term, bh_interaction_series, bh_series_order, bh,
    check_transform, h_check_reference, h_check_interaction_term,
    h_check_interaction_series, h_check,
    REGIME_KINDS, Regime, regime_series,
)
import iontrap.hamiltonians as hamiltonians
from iontrap.closedforms import _exactly_resonant
from iontrap.hamiltonians import _bh_gauge_parts
from iontrap.operators import _into_gauge

SPACE = SpaceConfig()
P_REF = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25, eta=0.1)
P_STRONG = ModelParams(nu=1.0, omega_ge=1.3, omega_L=1.0, Omega_R=5.0, eta=0.1)
P_NEG = ModelParams(nu=1.0, omega_ge=0.4, omega_L=1.0, Omega_R=0.25, eta=0.1)
P_RES = ModelParams(nu=1.0, omega_ge=1.0, omega_L=1.0, Omega_R=0.5, eta=0.2)


class TestModelParams:
    def test_derived_quantities_reference_point(self):
        p = P_REF
        assert p.delta == pytest.approx(0.9)
        assert p.Delta == pytest.approx(3.6)
        assert p.delta_breve == pytest.approx(math.hypot(0.5, 0.9))
        assert p.eta_breve == pytest.approx(0.1 * 0.9 / math.hypot(0.5, 0.9))
        assert p.lam == pytest.approx(0.1 * 0.25 / math.hypot(0.5, 0.9))
        assert p.theta == pytest.approx(math.atan(1.8))

    def test_breve_identities(self):
        # eta_breve = Delta*lam and lam = eta/sqrt(4+Delta^2) at several points
        for p in (P_REF, P_STRONG, P_NEG):
            assert p.eta_breve == pytest.approx(p.Delta * p.lam, rel=1e-14)
            assert p.lam == pytest.approx(p.eta / math.sqrt(4 + p.Delta ** 2), rel=1e-14)

    def test_boundedness_over_rabi_sweep(self):
        for omega_r in np.logspace(-3, 3, 25):
            p = ModelParams(1.0, 1.9, 1.0, omega_r, 0.1)
            assert abs(p.lam) <= abs(p.eta) / 2 + 1e-15
            assert abs(p.eta_breve) <= abs(p.eta) + 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.9, 1.0, 0.25, 0.1)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.9, 1.0, -0.1, 0.1)
        with pytest.raises(ValueError):
            ModelParams(1.0, math.inf, 1.0, 0.25, 0.1)

    def test_delta_ratio_requires_drive(self):
        p = ModelParams(1.0, 1.9, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            p.Delta

    def test_degenerate_corner_rejected(self):
        # Omega_R = 0 and delta = 0 leaves the balanced frame undefined
        p = ModelParams(1.0, 1.0, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            p.eta_breve
        with pytest.raises(ValueError):
            p.lam

    def test_from_balanced_round_trip(self):
        q = ModelParams.from_balanced(1.0, P_REF.delta_breve, P_REF.eta_breve,
                                      P_REF.lam)
        assert q.Omega_R == pytest.approx(P_REF.Omega_R, rel=1e-12)
        assert q.delta == pytest.approx(P_REF.delta, rel=1e-12)
        assert q.eta == pytest.approx(P_REF.eta, rel=1e-12)

    def test_from_balanced_zero_eta_breve(self):
        q = ModelParams.from_balanced(1.0, 1.05, 0.0, 0.05)
        assert q.delta == 0.0
        assert q.Omega_R == pytest.approx(0.525)
        assert q.eta == pytest.approx(0.1)
        assert q.eta_breve == 0.0
        assert q.lam == pytest.approx(0.05)

    @pytest.mark.parametrize("lam", [0.05, -0.05, 0.0, -0.0])
    @pytest.mark.parametrize("eta_breve", [0.0, -0.0])
    def test_from_balanced_at_zero_eta_breve_bit_for_bit(self, eta_breve,
                                                         lam):
        q = ModelParams.from_balanced(1.0, 1.05, eta_breve, lam)
        for got, want in ((q.Omega_R, 1.05 / 2.0), (q.eta, 2.0 * lam),
                          (q.omega_ge, 0.0), (q.omega_L, 0.0)):
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_from_balanced_rejects_inconsistent_input(self):
        with pytest.raises(ValueError):
            ModelParams.from_balanced(1.0, -1.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            ModelParams.from_balanced(1.0, 1.0, 0.1, 0.0)


class TestJaynesCummings:
    def test_constants_sum_and_commute(self):
        p = JCParams(nu=1.0, omega=1.0, lam=0.05)
        h = jc_hamiltonian(p, SPACE)
        n_const, s_const = jc_constants(p, SPACE)
        assert op_norm(n_const + s_const - h) < 1e-13
        # the pair commutes exactly even on the truncated space
        assert op_norm(commutator(n_const, s_const)) < 1e-12

    def test_constants_sum_off_resonance(self):
        # at omega != nu the second constant carries the detuning term
        p = JCParams(nu=0.7, omega=1.3 * 0.7, lam=0.05)
        n_const, s_const = jc_constants(p, SPACE)
        assert op_norm(n_const + s_const - jc_hamiltonian(p, SPACE)) < 1e-12

    def test_pair_degeneracy_of_first_constant(self):
        p = JCParams(nu=1.0, omega=1.3, lam=0.05)
        n_const, _ = jc_constants(p, SPACE)
        for n in (1, 4, 9):
            ve = basis_vector(SPACE, n - 1, 1)
            vg = basis_vector(SPACE, n, 0)
            ee = ve.conj() @ n_const.mat @ ve
            gg = vg.conj() @ n_const.mat @ vg
            assert ee == pytest.approx(p.nu * (n - 0.5), rel=1e-14)
            assert gg == pytest.approx(p.nu * (n - 0.5), rel=1e-14)

    def test_infinite_frequency_is_off_resonance(self):
        # inf <= 1e-12 * inf would call any frequency resonant with inf
        assert not _exactly_resonant(1.0, math.inf)
        assert not _exactly_resonant(math.inf, math.inf)


class TestLabAndRotatingFrames:
    def test_ith_hermitian(self):
        for t in (0.0, 0.37, 2.0):
            h = ith(t, P_REF, SPACE)
            assert op_norm(h - h.dag) < 1e-13

    def test_ith_periodic_in_laser_phase(self):
        t = 0.7
        period = 2 * math.pi / P_REF.omega_L
        assert op_norm(ith(t, P_REF, SPACE) - ith(t + period, P_REF, SPACE)) < 1e-12

    def test_ith_without_drive(self):
        p = ModelParams(1.0, 1.9, 1.0, 0.0, 0.1)
        h = ith(0.5, p, SPACE)
        expected = p.nu * number(SPACE) + 0.5 * p.omega_ge * pauli("z", SPACE)
        assert op_norm(h - expected) == 0.0

    def test_frame_rotation_unitary_diagonal(self):
        r = frame_rotation(1.3, P_REF, SPACE)
        assert op_norm(r @ r.dag - identity(SPACE)) < 1e-13
        assert np.max(np.abs(r.mat - np.diag(np.diag(r.mat)))) == 0.0
        r0 = frame_rotation(0.0, P_REF, SPACE)
        assert op_norm(r0 - identity(SPACE)) == 0.0

    def test_rotating_frame_identity(self):
        # R_t (H(t) - omega_L sigma_z/2) R_t^dag is t-independent and equals rfh,
        # exactly, truncation included
        for t in (0.0, 1.3, 5.7):
            r = frame_rotation(t, P_REF, SPACE)
            moved = r @ (ith(t, P_REF, SPACE)
                         - 0.5 * P_REF.omega_L * pauli("z", SPACE)) @ r.dag
            assert op_norm(moved - rfh(P_REF, SPACE)) < 1e-12

    def test_rwa_effective_commutes_on_resonance(self):
        # each effective interaction commutes with nu*n + delta/2 sigma_z
        # at its own resonance
        cases = [("0", 0.0), ("-", -1.0), ("+", 1.0)]
        for which, delta in cases:
            p = ModelParams(1.0, 1.0 + delta, 1.0, 0.25, 0.1)
            h_eff = rwa_effective(which, p, SPACE)
            h0 = p.nu * number(SPACE) + 0.5 * p.delta * pauli("z", SPACE)
            assert op_norm(h_eff - h_eff.dag) < 1e-13
            assert interior_norm(commutator(h_eff, h0)) < 1e-12

    def test_rwa_sidebands_are_the_eta_linear_drive(self):
        # D(i eta) = 1 + i eta (a + a^dag) + O(eta^2), and the eta^2 terms
        # change the Fock number by 0 or 2, so on the entries that raise
        # or lower it by one, (rfh(eta) - rfh(0)) / eta is the red
        # sideband (|n,g> <-> |n+1,e>) and the blue one (|n,g> <-> |n-1,e>)
        eta = 1e-6
        p = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25,
                        eta=eta)
        linear = (rfh(p, SPACE) - rfh(dataclasses.replace(p, eta=0.0), SPACE)
                  ) / eta
        fock, spin = np.divmod(np.arange(SPACE.dim), 2)
        up = (spin[:, None] == EXCITED) & (spin[None, :] == GROUND)
        for which, step in (("-", 1), ("+", -1)):
            raising = up & (fock[:, None] - fock[None, :] == step)
            mask = raising | raising.T
            side = rwa_effective(which, p, SPACE) / eta
            assert np.all(side.mat[~mask] == 0)
            off = Operator(np.where(mask, (linear - side).mat, 0), SPACE)
            assert interior_norm(off) < 1e-10

    def test_rwa_effective_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            rwa_effective("x", P_REF, SPACE)


class TestBalancedTransform:
    @pytest.mark.parametrize("factor", [t1, t2, t3, t_delta])
    def test_unitarity(self, factor):
        for p in (P_REF, P_STRONG, P_NEG):
            u = factor(p, SPACE)
            assert op_norm(u @ u.dag - identity(SPACE)) < 1e-10

    def test_factorization(self):
        for p in (P_REF, P_STRONG, P_NEG, P_RES):
            prod = t3(p, SPACE) @ t2(p, SPACE) @ t1(p, SPACE)
            assert op_norm(t_delta(p, SPACE) - prod) < 1e-10

    def test_kappa_at_zero_detuning(self):
        kp, km = kappa_coefficients(0.0)
        assert kp == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert km == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_kappa_normalization(self):
        for d in (-7.0, -0.3, 0.0, 0.9, 12.0):
            kp, km = kappa_coefficients(d)
            assert kp ** 2 + km ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_epsilon_identities(self):
        for p in (P_REF, P_STRONG, P_NEG):
            ep, em = epsilon_coefficients(p.Delta)
            assert p.eta * em == pytest.approx((p.eta_breve - p.eta) / 2, abs=1e-14)
            assert p.eta * ep == pytest.approx((p.eta_breve + p.eta) / 2, abs=1e-14)

    def test_weak_field_limits(self):
        # Delta -> +inf: identity; Delta -> -inf: pure spin flip
        p_up = ModelParams(1.0, 1.0 + 1.0, 1.0, 1e-6, 0.1)
        assert op_norm(t_delta(p_up, SPACE) - identity(SPACE)) < 1e-3
        p_dn = ModelParams(1.0, 1.0 - 1.0, 1.0, 1e-6, 0.1)
        nf = np.eye(SPACE.n_max + 1)
        z = np.zeros_like(nf)
        from iontrap import from_fock_blocks
        flip = from_fock_blocks(SPACE, z, nf, -nf, z)
        assert op_norm(t_delta(p_dn, SPACE) - flip) < 1e-3

    def test_strong_field_limit(self):
        p = ModelParams(1.0, 1.0 + 1e-6, 1.0, 1.0, 0.1)
        assert op_norm(t_delta(p, SPACE) - t1(p, SPACE)) < 1e-3

    def test_requires_drive(self):
        p = ModelParams(1.0, 1.9, 1.0, 0.0, 0.1)
        for factor in (t1, t2, t3, t_delta):
            with pytest.raises(ValueError):
                factor(p, SPACE)


class TestBalancedHamiltonian:
    @pytest.mark.parametrize("p", [P_REF, P_STRONG, P_NEG, P_RES])
    def test_routes_agree(self, p):
        conj = bh(p, SPACE, "conjugation")
        closed = bh(p, SPACE, "closed_form")
        assert interior_distance(conj, closed) < 1e-8

    def test_hermitian_both_routes(self):
        for route in ("conjugation", "closed_form"):
            h = bh(P_REF, SPACE, route)
            assert op_norm(h - h.dag) < 1e-12

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            bh(P_REF, SPACE, "magic")

    @pytest.mark.parametrize("eta_breve", [0.0, 0.03])
    def test_scan_parts_rebuild_the_gauge_array(self, eta_breve):
        # at fixed nu, lam and eta_breve only Omega_R moves with
        # delta_breve, so one offset's F and D give every offset's bh,
        # on both sides of the resonance delta_breve = nu = 1
        first = ModelParams.from_balanced(1.0, 0.9, eta_breve, 0.05)
        fixed, drive = _bh_gauge_parts(first, SPACE)
        for delta_breve in (0.9, 0.97, 1.0, 1.03, 1.1):
            p = ModelParams.from_balanced(1.0, delta_breve, eta_breve, 0.05)
            want = _into_gauge(bh(p, SPACE).mat, SPACE)
            got = fixed + p.Omega_R * drive
            assert got.dtype == want.dtype == np.float64
            assert op_norm(got - want) <= 1e-13 * max(1.0, op_norm(want))

    def test_spectrum_preserved_under_conjugation(self):
        # unitary equivalence with the rotating frame, full truncated space
        w_rot = np.linalg.eigvalsh(rfh(P_REF, SPACE).mat)
        w_bal = np.linalg.eigvalsh(bh(P_REF, SPACE, "conjugation").mat)
        assert np.max(np.abs(w_rot - w_bal)) < 1e-10

    def test_scalar_shift_is_displacement_energy(self):
        # trace(reference - nu*n - delta_breve/2 sigma_z)/dim = lam^2 nu
        for p in (P_REF, P_STRONG, P_NEG, P_RES):
            bare = p.nu * number(SPACE) + 0.5 * p.delta_breve * pauli("z", SPACE)
            shift = np.trace(bh_reference(p, SPACE).mat - bare.mat).real / SPACE.dim
            assert shift == pytest.approx(p.lam ** 2 * p.nu, rel=1e-12)

    def test_series_first_order_truncation(self):
        # two-term truncation: i lam nu (a - a^dag)(sigma_+ + sigma_-)
        #                      + lam eta_breve nu (a^dag^2 - a^2)(sigma_+ - sigma_-)
        p = P_REF
        a = annihilation(SPACE)
        sp, sm = pauli("+", SPACE), pauli("-", SPACE)
        printed = hermitize(
            1j * p.lam * p.nu * ((a - a.dag) @ (sp + sm))
            + p.lam * p.eta_breve * p.nu * ((a.dag @ a.dag - a @ a) @ (sp - sm)))
        assert op_norm(bh_interaction_series(p, 1, SPACE) - printed) < 1e-12

    def test_series_collapses_without_eta_breve(self):
        p = ModelParams(1.0, 1.0, 1.0, 0.5, 0.1)  # delta = 0 so eta_breve = 0
        assert p.eta_breve == 0.0
        t0 = bh_interaction_term(0, p, SPACE)
        for M in (0, 2, 5):
            assert op_norm(bh_interaction_series(p, M, SPACE) - t0) == 0.0

    def test_term_hermitian_and_scaled(self):
        for m in range(6):
            term = bh_interaction_term(m, P_REF, SPACE)
            assert op_norm(term - term.dag) < 1e-12
            if m >= 1:
                # interior norm shrinks by roughly eta_breve * ||a+a^dag|| per order
                scale = interior_norm(term) / (abs(P_REF.lam) * P_REF.nu
                                               * abs(P_REF.eta_breve) ** m)
                assert scale < (2.5 * math.sqrt(SPACE.n_interior + 2)) ** (m + 1)

    def test_series_order_bound(self):
        m_top = bh_series_order(P_REF, SPACE)
        assert 8 <= m_top <= 30
        p0 = ModelParams(1.0, 1.0, 1.0, 0.5, 0.1)
        assert bh_series_order(p0, SPACE) == 0

    @pytest.mark.parametrize("eta_breve,M", [(0.01, 7), (0.03, 10),
                                             (0.087, 14)])
    def test_series_order_is_the_first_below_1e_12(self, eta_breve, M):
        # the docstring's tail bound, with ||a + a^dag||_interior below
        # 2 sqrt(n_interior + 1)
        p = ModelParams.from_balanced(1.0, 1.0296, eta_breve, 0.0243)
        space = SpaceConfig(n_max=40)
        b = 2.0 * math.sqrt(space.n_interior + 1.0)

        def tail(m):
            return eta_breve ** (m + 1) * b ** m * math.e / math.factorial(m + 1)

        assert bh_series_order(p, space) == M
        assert tail(M) < 1e-12 <= tail(M - 1)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            bh_interaction_term(-1, P_REF, SPACE)
        with pytest.raises(ValueError):
            bh_interaction_series(P_REF, -1, SPACE)


class TestCheckFrame:
    def test_transform_unitary(self):
        t = check_transform(SPACE)
        assert op_norm(t @ t.dag - identity(SPACE)) < 1e-10

    def test_transform_action_on_ladder(self):
        t = check_transform(SPACE)
        a = annihilation(SPACE)
        sx = pauli("x", SPACE)
        assert op_norm(t @ a @ t.dag - (-1j) * (a @ sx)) < 1e-10

    def test_transform_action_on_spin(self):
        t = check_transform(SPACE)
        par = np.kron(np.diag((-1.0 + 0j) ** np.arange(SPACE.n_max + 1)), np.eye(2))
        parity = Operator(par, SPACE)
        moved_z = t @ pauli("z", SPACE) @ t.dag
        assert op_norm(moved_z - parity @ pauli("z", SPACE)) < 1e-10
        # sigma_+ picks up parity projectors: P_even sigma_+ + P_odd sigma_-
        p_even = Operator((np.eye(SPACE.dim) + par) / 2, SPACE)
        p_odd = Operator((np.eye(SPACE.dim) - par) / 2, SPACE)
        moved_p = t @ pauli("+", SPACE) @ t.dag
        expected = p_even @ pauli("+", SPACE) + p_odd @ pauli("-", SPACE)
        assert op_norm(moved_p - expected) < 1e-10

    def test_reference_diagonal_entries(self):
        h0 = h_check_reference(P_REF, SPACE)
        offdiag = h0.mat - np.diag(np.diag(h0.mat))
        assert np.max(np.abs(offdiag)) == 0.0
        p = P_REF
        for n in (0, 1, 2, 7):
            for spin, sign in ((1, +1.0), (0, -1.0)):
                got = h0.mat[2 * n + spin, 2 * n + spin].real
                want = (p.nu * n + 0.5 * p.delta_breve * sign * (-1.0) ** n
                        + p.lam ** 2 * p.nu)
                assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("p", [P_REF, P_STRONG, P_NEG, P_RES])
    def test_routes_agree(self, p):
        conj = h_check(p, SPACE, "conjugation")
        closed = h_check(p, SPACE, "closed_form")
        assert interior_distance(conj, closed) < 1e-8

    def test_series_first_order_truncation(self):
        # lam nu (a + a^dag) + lam eta_breve nu (a^dag^2 - a^2) parity (s- - s+)
        p = P_REF
        a = annihilation(SPACE)
        par = Operator(
            np.kron(np.diag((-1.0 + 0j) ** np.arange(SPACE.n_max + 1)), np.eye(2)),
            SPACE)
        printed = hermitize(
            p.lam * p.nu * (a + a.dag)
            + p.lam * p.eta_breve * p.nu
            * ((a.dag @ a.dag - a @ a) @ par @ (pauli("-", SPACE) - pauli("+", SPACE))))
        assert op_norm(h_check_interaction_series(p, 1, SPACE) - printed) < 1e-12

    def test_even_terms_leave_spin_sectors_invariant(self):
        # m = 0 and every even m act as the identity on spin
        for m in (0, 2, 4):
            term = h_check_interaction_term(m, P_REF, SPACE)
            eg, ge = term.mat[1::2, 0::2], term.mat[0::2, 1::2]
            assert np.max(np.abs(eg)) == 0.0
            assert np.max(np.abs(ge)) == 0.0

    def test_spectrum_matches_balanced(self):
        w_b = np.linalg.eigvalsh(bh(P_REF, SPACE, "conjugation").mat)
        w_c = np.linalg.eigvalsh(h_check(P_REF, SPACE, "conjugation").mat)
        assert np.max(np.abs(w_b - w_c)) < 1e-10


@pytest.mark.parametrize("term", [bh_interaction_term, h_check_interaction_term])
def test_printed_terms_are_hermitian_before_symmetrization(monkeypatch, term):
    # hermitize hides an anti-hermitian error in a printed product, such as
    # a changed (1 - m) identity term; with it off the interior shows it
    # (<= 8e-16 as printed, >= 1.3e-3 with 1.01 - m, 1 - 1.01 m or 2 - m)
    monkeypatch.setattr(hamiltonians, "hermitize", lambda op: op)
    p = ModelParams.from_balanced(1.0, 1.0, 0.07, 0.05)
    space = SpaceConfig(20, 8)
    for m in range(7):
        block = interior_block(term(m, p, space))
        defect = op_norm(block - block.conj().T)
        assert defect <= 1e-13 * op_norm(block), m


# A fixed seed and no example database keep the suite deterministic.
DETERMINISTIC = settings(database=None, derandomize=True, deadline=None)
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "iontrap-hypothesis")
GAUGE_SPACE = SpaceConfig(16, 4)


def real_in_gauge(op):
    """U^dag O U with U = diag(i^n) (x) 1 has no imaginary part at all."""
    return _into_gauge(op.mat, op.space).dtype == np.float64


class TestFockPhaseGauge:
    @DETERMINISTIC
    @given(omega_ge=st.floats(-3.0, 3.0), omega_r=st.floats(1e-3, 10.0),
           eta=st.floats(-0.5, 0.5))
    def test_frame_chain_is_real(self, omega_ge, omega_r, eta):
        p = ModelParams(nu=1.0, omega_ge=omega_ge, omega_L=1.0,
                        Omega_R=omega_r, eta=eta)
        for make in (rfh, t_delta, t1, t3, bh_reference, bh,
                     lambda p, sp: bh(p, sp, "closed_form")):
            assert real_in_gauge(make(p, GAUGE_SPACE))

    @DETERMINISTIC
    @given(delta_breve=st.floats(0.91, 1.09), eta_breve=st.floats(-0.1, 0.1),
           lam=st.floats(1e-3, 0.2), kind=st.sampled_from(REGIME_KINDS))
    def test_regime_series_terms_are_real(self, delta_breve, eta_breve, lam,
                                          kind):
        p = ModelParams.from_balanced(1.0, delta_breve, eta_breve, lam)
        h0, series = regime_series(p, Regime.of(kind, p), GAUGE_SPACE)
        for op in (h0, *series.terms):
            assert real_in_gauge(op)

    def test_check_frame_is_not_real(self):
        assert not real_in_gauge(h_check(P_REF, GAUGE_SPACE))
