"""Exact-diagonalization, integrator, slope-fit and gap-scan services."""

import math

import numpy as np
import pytest
import scipy.linalg

from iontrap import (
    SpaceConfig, Operator, ModelParams, JCParams,
    number, pauli, identity, basis_vector, op_norm, interior_distance,
    GROUND, EXCITED,
    jc_constants, ith_fn, bh, bh_reference, frame_rotation, t_delta,
    spectrum_second_order, anticrossing_shift,
    OverlapAmbiguityError, ConvergenceFit, GapScan, SpectralDecomposition,
    exact_eigs, exact_propagator, exact_propagator_fn, time_ordered_propagator,
    time_ordered_sweep, frame_chain_propagator, frame_chain_fn, fit_order, scan_gap,
)

SPACE = SpaceConfig()

# the two drive strengths the frame chain is validated at
P_WEAK = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25, eta=0.1)
P_STRONG = ModelParams(nu=1.0, omega_ge=1.3, omega_L=1.0, Omega_R=5.0, eta=0.1)


class TestExactEigs:
    def test_reference_spectrum_is_the_known_multiset(self):
        p = ModelParams.from_balanced(1.0, 1.3, 0.02, 0.05)
        values, _ = exact_eigs(bh_reference(p, SPACE))
        want = sorted(
            p.nu * n + s * 0.5 * p.delta_breve + p.lam ** 2 * p.nu
            for n in range(SPACE.n_max + 1) for s in (-1.0, 1.0))
        assert np.allclose(values, want, atol=1e-12)

    def test_exchange_ladder_reference_is_doubly_degenerate(self):
        n_const, _ = jc_constants(JCParams(nu=1.0, omega=1.0, lam=0.1), SPACE)
        values, _ = exact_eigs(n_const)
        # away from the two unpaired edge states every value appears twice
        inner = values[1:-1]
        assert np.allclose(inner[0::2], inner[1::2], atol=1e-12)

    def test_residual_bound(self):
        small = SpaceConfig(n_max=19, interior_margin=2)
        rng = np.random.default_rng(11)
        m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        h = Operator(m + m.conj().T, small)
        values, vectors = exact_eigs(h)
        res = h.mat @ vectors - vectors * values
        assert np.linalg.norm(res, axis=0).max() <= 1e-10 * op_norm(h)
        assert np.all(np.diff(values) >= 0)

    def test_non_hermitian_rejected(self):
        tiny = SpaceConfig(n_max=4, interior_margin=1)
        bad = np.zeros((tiny.dim, tiny.dim))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            exact_eigs(Operator(bad, tiny))

    def test_small_defect_symmetrized(self):
        tiny = SpaceConfig(n_max=4, interior_margin=1)
        want = np.arange(1.0, tiny.dim + 1.0)
        base = np.diag(want).astype(complex)
        base[0, 1] += 1e-13
        values, _ = exact_eigs(Operator(base, tiny))
        assert np.allclose(values, want, atol=1e-12)

    def test_lowest_level_matches_second_order_formula(self):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.05)
        values, _ = exact_eigs(bh(p, SPACE))
        e0 = spectrum_second_order(p, 0).E0
        assert abs(values[0] - e0) <= 5 * p.lam ** 3 * p.nu


class TestExactPropagator:
    def test_identity_at_zero(self):
        h = bh_reference(P_WEAK, SPACE)
        assert op_norm(exact_propagator(h, 0.0) - identity(SPACE)) < 1e-13

    def test_unitary(self):
        u = exact_propagator(bh(P_WEAK, SPACE), 2.0)
        assert op_norm(u.dag @ u - identity(SPACE)) < 1e-10

    def test_group_law(self):
        h = bh(P_WEAK, SPACE)
        lhs = exact_propagator(h, 1.1) @ exact_propagator(h, 0.6)
        assert op_norm(lhs - exact_propagator(h, 1.7)) < 1e-9

    def test_against_generic_expm(self):
        h = bh(P_WEAK, SPACE)
        u = exact_propagator(h, 1.3)
        ref = scipy.linalg.expm(-1.3j * h.mat)
        assert np.linalg.norm(u.mat - ref, 2) < 1e-10

    def test_eigenvector_picks_up_its_phase(self):
        h = bh(P_WEAK, SPACE)
        values, vectors = exact_eigs(h)
        u = exact_propagator(h, 2.4)
        v = vectors[:, 7]
        assert np.linalg.norm(u.mat @ v - np.exp(-2.4j * values[7]) * v) < 1e-12


class TestFactoredPropagator:
    """SpectralDecomposition called as the propagator its builders factor."""

    TIMES = (0.0, 0.7, 2.0, -1.3)

    @pytest.mark.parametrize("p", [P_WEAK, P_STRONG],
                             ids=["weak-drive", "strong-drive"])
    def test_frame_chain_equals_explicit_product(self, p):
        chain = frame_chain_fn(p, SPACE)
        h, td = bh(p, SPACE), t_delta(p, SPACE)
        for t in self.TIMES:
            want = (frame_rotation(t, p, SPACE).dag @ td.dag
                    @ exact_propagator(h, t) @ td)
            assert op_norm(chain(t) - want) < 1e-12

    def test_apply_equals_matrix_times_state(self):
        chain = frame_chain_fn(P_STRONG, SPACE)
        exact = exact_propagator_fn(bh(P_WEAK, SPACE))
        rng = np.random.default_rng(5)
        psi = rng.normal(size=SPACE.dim) + 1j * rng.normal(size=SPACE.dim)
        psi /= np.linalg.norm(psi)
        for u in (chain, exact):
            for t in self.TIMES:
                assert np.linalg.norm(u.apply(t, psi) - u(t).mat @ psi) < 1e-13

    def test_arrays_are_read_only_copies(self):
        small = SpaceConfig(n_max=4, interior_margin=1)
        basis = np.eye(small.dim, dtype=complex)
        u = SpectralDecomposition(small, np.arange(small.dim), basis)
        basis[0, 0] = 7.0
        assert u.eigenbasis[0, 0] == 1.0 and not u.eigenbasis.flags.writeable
        assert not u.eigenvalues.flags.writeable
        assert np.all(u.rates == 0.0)
        with pytest.raises(ValueError):
            SpectralDecomposition(small, np.zeros(3), basis)


class TestTimeOrderedPropagator:
    def test_static_generator_needs_no_ordering(self):
        h = bh(P_WEAK, SPACE)
        ref = exact_propagator(h, 1.7)
        for order in (2, 4):
            u = time_ordered_propagator(lambda t: h.mat, 1.7, SPACE,
                                        steps_per_unit=10, order=order)
            assert op_norm(u - ref) < 1e-12

    def test_commuting_time_dependence(self):
        # H(t) = cos(t) M integrates to exp(-i sin(t) M)
        small = SpaceConfig(n_max=4, interior_margin=1)
        m = (number(small) + 0.3 * pauli("x", small)).mat
        h_fn = lambda t: math.cos(t) * m
        w, v = np.linalg.eigh(m)
        ref = (v * np.exp(-1j * math.sin(2.0) * w)) @ v.conj().T
        u2 = time_ordered_propagator(h_fn, 2.0, small, 200, order=2)
        u4 = time_ordered_propagator(h_fn, 2.0, small, 200, order=4)
        assert np.linalg.norm(u2.mat - ref, 2) < 1e-4
        assert np.linalg.norm(u4.mat - ref, 2) < 1e-8

    @pytest.mark.parametrize("order,lo,hi", [(2, 3.0, 5.5), (4, 10.0, 24.0)])
    def test_convergence_rate(self, order, lo, hi):
        f = ith_fn(P_WEAK, SPACE)
        ref = frame_chain_propagator(1.0, P_WEAK, SPACE)
        e_coarse = interior_distance(
            time_ordered_propagator(f, 1.0, SPACE, 5, order=order), ref)
        e_fine = interior_distance(
            time_ordered_propagator(f, 1.0, SPACE, 10, order=order), ref)
        assert lo < e_coarse / e_fine < hi

    def test_argument_validation(self):
        f = ith_fn(P_WEAK, SPACE)
        with pytest.raises(ValueError):
            time_ordered_propagator(f, 1.0, SPACE, order=3)
        with pytest.raises(ValueError):
            time_ordered_propagator(f, 1.0, SPACE, steps_per_unit=0)

    def test_unitary(self):
        f = ith_fn(P_WEAK, SPACE)
        u = time_ordered_propagator(f, 0.5, SPACE, 50, order=4)
        assert op_norm(u.dag @ u - identity(SPACE)) < 1e-11


class TestTimeOrderedSweep:
    @pytest.mark.parametrize("order", [2, 4])
    def test_grid_aligned_sweep_equals_separate_calls(self, order):
        # every time is on the step grid, so the sweep takes the same steps
        # as integrating each time from 0; only the node rounding differs
        f = ith_fn(P_STRONG, SPACE)
        times = (0.5, 1.0, 1.5, 2.0)
        swept = time_ordered_sweep(f, times, SPACE, 50, order=order)
        assert len(swept) == len(times)
        for t, u in zip(times, swept):
            ref = time_ordered_propagator(f, t, SPACE, 50, order=order)
            assert np.abs(u.mat - ref.mat).max() <= 1e-12

    @pytest.mark.parametrize("p", [P_WEAK, P_STRONG],
                             ids=["weak-drive", "strong-drive"])
    def test_off_grid_times_match_the_frame_chain(self, p):
        times = (0.3, 0.7, 1.25)
        swept = time_ordered_sweep(ith_fn(p, SPACE), times, SPACE, 200,
                                   order=4)
        chain = frame_chain_fn(p, SPACE)
        for t, u in zip(times, swept):
            assert interior_distance(chain(t), u) <= 1e-6

    def test_negative_times_run_backwards(self):
        f = ith_fn(P_WEAK, SPACE)
        swept = time_ordered_sweep(f, (0.0, -0.5, -1.0), SPACE, 20, order=4)
        assert op_norm(swept[0] - identity(SPACE)) < 1e-12
        ref = time_ordered_propagator(f, -1.0, SPACE, 20, order=4)
        assert np.abs(swept[2].mat - ref.mat).max() <= 1e-12

    @pytest.mark.parametrize("times", [(1.0, 0.5), (-0.5, 0.5), (0.5, -1.0),
                                       (0.5, 0.0), (), (0.5, math.nan)],
                             ids=["decreasing", "mixed-signs", "sign-flip",
                                  "back-to-zero", "empty", "nan"])
    def test_times_must_run_away_from_zero(self, times):
        f = ith_fn(P_WEAK, SPACE)
        with pytest.raises(ValueError):
            time_ordered_sweep(f, times, SPACE, 20, order=4)


class TestFrameChain:
    def test_identity_at_zero(self):
        u = frame_chain_propagator(0.0, P_WEAK, SPACE)
        assert op_norm(u - identity(SPACE)) < 1e-10

    def test_interior_unitary(self):
        u = frame_chain_propagator(2.0, P_WEAK, SPACE)
        prod = u.dag @ u
        assert interior_distance(prod, identity(SPACE)) < 1e-10

    @pytest.mark.parametrize("p", [P_WEAK, P_STRONG],
                             ids=["weak-drive", "strong-drive"])
    def test_chain_matches_time_ordered_integration(self, p):
        # the whole frame chain against a route that never leaves the lab
        # frame; nothing perturbative anywhere
        t = 2.0
        chain = frame_chain_propagator(t, p, SPACE)
        stepped = time_ordered_propagator(ith_fn(p, SPACE), t, SPACE,
                                          steps_per_unit=200, order=4)
        assert interior_distance(chain, stepped) <= 1e-6

    def test_integrator_error_is_integrator_sided(self):
        # halving the step shrinks the disagreement: the chain is exact
        p = P_WEAK
        f = ith_fn(p, SPACE)
        chain = frame_chain_propagator(2.0, p, SPACE)
        d_coarse = interior_distance(
            time_ordered_propagator(f, 2.0, SPACE, 25, order=2), chain)
        d_fine = interior_distance(
            time_ordered_propagator(f, 2.0, SPACE, 50, order=2), chain)
        assert d_fine < 0.3 * d_coarse


class TestFitOrder:
    GRID = (0.02, 0.04, 0.08, 0.16)

    def test_pure_power_law(self):
        fit = fit_order(lambda x: x ** 3, self.GRID)
        assert abs(fit.slope - 3.0) < 1e-6
        assert abs(fit.intercept) < 1e-9
        assert fit.r_squared > 0.999999
        assert fit.conclusive

    def test_mixed_power_reports_leading_order(self):
        fit = fit_order(lambda x: 2 * x ** 2 + x ** 5, self.GRID)
        assert 1.95 <= fit.slope <= 2.05
        assert fit.conclusive

    def test_constant_residual_is_inconclusive(self):
        fit = fit_order(lambda x: 0.37, self.GRID)
        assert abs(fit.slope) < 1e-12
        assert not fit.conclusive

    def test_non_power_behavior_fails_the_quality_gate(self):
        rng = np.random.default_rng(3)
        noise = {x: float(rng.uniform(0.5, 2.0)) for x in self.GRID}
        fit = fit_order(lambda x: noise[x], self.GRID)
        assert not fit.conclusive

    def test_cancellation_rejected(self):
        with pytest.raises(ValueError):
            fit_order(lambda x: 0.0 if x > 0.1 else x, self.GRID)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fit_order(lambda x: x, (0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            fit_order(lambda x: x, (0.0, 0.1, 0.2, 0.3))

    def test_container_validation(self):
        with pytest.raises(ValueError):
            ConvergenceFit(lambdas=(0.1, 0.2), residuals=(1.0,),
                           slope=1.0, intercept=0.0, r_squared=1.0)
        with pytest.raises(ValueError):
            ConvergenceFit(lambdas=(0.1, 0.2), residuals=(1.0, -1.0),
                           slope=1.0, intercept=0.0, r_squared=1.0)


class TestScanGap:
    BASE = ModelParams.from_balanced(1.0, 1.0, 0.02, 0.05)

    def test_free_crossing(self):
        base = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.0)
        offsets = np.linspace(-0.02, 0.02, 9)
        scan = scan_gap(1, base, offsets)
        for off, gap in zip(scan.detuning_offsets, scan.gaps):
            assert abs(gap - 2.0 * abs(off)) < 1e-12
        assert abs(scan.argmin) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_argmin_sits_at_the_second_order_shift(self, n):
        lam = self.BASE.lam
        shift = anticrossing_shift(n, self.BASE)
        offsets = np.linspace(-shift - 6 * lam ** 3, -shift + 6 * lam ** 3, 13)
        scan = scan_gap(n, self.BASE, offsets)
        assert abs(scan.argmin + shift) <= lam ** 3 * self.BASE.nu * n
        assert all(g > 0 for g in scan.gaps)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minimum_gap_is_the_exchange_splitting(self, n):
        lam = self.BASE.lam
        shift = anticrossing_shift(n, self.BASE)
        offsets = np.linspace(-shift - 6 * lam ** 3, -shift + 6 * lam ** 3, 13)
        scan = scan_gap(n, self.BASE, offsets)
        want = 2.0 * lam * self.BASE.nu * math.sqrt(n)
        assert abs(min(scan.gaps) - want) <= lam ** 2 * self.BASE.nu

    def test_bottom_level_rejected(self):
        with pytest.raises(ValueError):
            scan_gap(0, self.BASE, [0.0])

    def test_offset_below_spectrum_rejected(self):
        with pytest.raises(ValueError):
            scan_gap(1, self.BASE, [-0.6])

    def test_strong_hybridization_refused(self):
        strong = ModelParams.from_balanced(1.0, 1.0, 0.12, 0.6)
        with pytest.raises(OverlapAmbiguityError):
            scan_gap(1, strong, [0.0])

    def test_container_validation(self):
        with pytest.raises(ValueError):
            GapScan(detuning_offsets=(0.0, 0.1), gaps=(1.0,), argmin=0.0)
        with pytest.raises(ValueError):
            GapScan(detuning_offsets=(0.0,), gaps=(-1.0,), argmin=0.0)
