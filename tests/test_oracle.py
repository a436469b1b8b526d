"""Exact-diagonalization, integrator, slope-fit and gap-scan services."""

import math
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg

from iontrap import (
    SpaceConfig, Operator, ModelParams, JCParams,
    number, pauli, identity, basis_vector, op_norm, interior_distance,
    GROUND, EXCITED,
    jc_constants, ith, ith_terms, bh, bh_reference, h_check,
    frame_rotation, rfh, t_delta,
    spectrum_second_order, anticrossing_shift,
    OverlapAmbiguityError, ConvergenceFit, GapScan, SpectralDecomposition,
    exact_eigs, exact_propagator_fn, time_ordered_sweep, frame_chain_fn,
    fit_order, scan_gap,
)
from iontrap import oracle
from iontrap.operators import (
    _flat_gauge_phases, _into_gauge, _position_eigen,
)
from iontrap.oracle import _parabolic_argmin, _rung_levels

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

    @staticmethod
    def with_defect(c):
        """diag(-10..10) + i c: ||H - H^dag||_2 = 2c, while its Frobenius
        norm is 2c sqrt(dim) and ||H||_2 = sqrt(100 + c^2) ~ 10."""
        w = np.linspace(-10.0, 10.0, SPACE.dim)
        return Operator(np.diag(w + 1j * c), SPACE)

    @staticmethod
    def count_svds(monkeypatch):
        from iontrap import operators
        calls = []

        def counting(a):
            calls.append(1)
            return op_norm(a)

        monkeypatch.setattr(operators, "op_norm", counting)
        return calls

    def test_hermitian_input_is_decided_without_svds(self, monkeypatch):
        calls = self.count_svds(monkeypatch)
        exact_eigs(bh(ModelParams.from_balanced(1.0, 1.03, 0.02, 0.05), SPACE))
        exact_eigs(self.with_defect(0.0))
        assert calls == []

    def test_defect_past_the_frobenius_bound_only_is_accepted(self,
                                                             monkeypatch):
        # spectral defect 5e-10 <= 1e-10 * 10, Frobenius 4.5e-9 is not
        calls = self.count_svds(monkeypatch)
        h = self.with_defect(2.5e-10)
        values, _ = exact_eigs(h)
        assert calls  # the bound could not decide: the exact norms did
        assert np.allclose(values, np.linspace(-10.0, 10.0, SPACE.dim))

    def test_defect_just_past_the_spectral_bound_is_rejected(self):
        # 2c = 1.01e-9 against 1e-10 * sqrt(100 + c^2)
        with pytest.raises(ValueError,
                           match=r"^operator is not hermitian \(defect 1\.01e-09\)$"):
            exact_eigs(self.with_defect(5.05e-10))

    @staticmethod
    def record_eigh_dtypes(monkeypatch):
        dtypes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        return dtypes

    @pytest.mark.parametrize("route", ["conjugation", "closed_form"])
    def test_balanced_hamiltonian_factors_real(self, monkeypatch, route):
        # real symmetric in the Fock phase gauge: one real eigh, and the
        # eigenvectors, back in the Fock basis, are eigenvectors of bh
        h = bh(ModelParams.from_balanced(1.0, 1.03, 0.02, 0.05), SPACE, route)
        dtypes = self.record_eigh_dtypes(monkeypatch)
        values, vectors = exact_eigs(h)
        assert dtypes == [np.float64]
        res = h.mat @ vectors - vectors * values
        assert np.linalg.norm(res, axis=0).max() <= 1e-12 * op_norm(h)
        assert np.abs(vectors.conj().T @ vectors - np.eye(SPACE.dim)).max() <= 1e-13

    def test_factoring_builds_no_operator(self, operators_made):
        # the checks and the gauge read arrays: no copy into an Operator
        h = bh(ModelParams.from_balanced(1.0, 1.03, 0.02, 0.05), SPACE)
        operators_made.clear()
        exact_eigs(h)
        assert operators_made == []

    def test_check_frame_still_factors_complex(self, monkeypatch):
        p = ModelParams.from_balanced(1.0, 1.03, 0.02, 0.05)
        want, _ = exact_eigs(bh(p, SPACE))
        h = h_check(p, SPACE)
        dtypes = self.record_eigh_dtypes(monkeypatch)
        values, vectors = exact_eigs(h)
        assert dtypes == [np.complex128]
        res = h.mat @ vectors - vectors * values
        assert np.linalg.norm(res, axis=0).max() <= 1e-12 * op_norm(h)
        assert np.abs(values - want).max() <= 1e-10

    @staticmethod
    def symmetrized_in_the_fock_basis(h):
        """The factorization without its checks, in the order first
        written: symmetrize in the Fock basis, then enter the gauge."""
        mat = _into_gauge(0.5 * (h.mat + h.mat.conj().T), h.space)
        values, vectors = np.linalg.eigh(mat)
        return values, _flat_gauge_phases(h.space)[:, None] * vectors

    @pytest.mark.parametrize("build", [
        lambda p: rfh(p, SPACE), lambda p: bh(p, SPACE),
        lambda p: bh(p, SPACE, "closed_form"), lambda p: h_check(p, SPACE)],
        ids=["rfh", "bh", "bh-closed-form", "h_check"])
    def test_symmetrizing_in_the_gauge_changes_no_bit(self, build):
        # the gauge's phases are exact quarter turns, so the symmetrized
        # gauge array, and every eigenpair, is the same bit for bit
        for p in (P_WEAK, P_STRONG,
                  ModelParams.from_balanced(1.0, 1.03, 0.02, 0.05)):
            h = build(p)
            values, vectors = exact_eigs(h)
            want_values, want_vectors = self.symmetrized_in_the_fock_basis(h)
            assert np.array_equal(values, want_values)
            assert np.array_equal(vectors, want_vectors)

    def test_residual_past_the_bound_is_refused(self, monkeypatch):
        eigh = np.linalg.eigh

        def shifted(a):  # every pair's residual is 1e-3 exactly
            values, vectors = eigh(a)
            return values + 1e-3, vectors

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ArithmeticError,
                           match=r"^eigendecomposition residual 1\.000e-03 "
                                 r"exceeds 1e-10 \* scale$"):
            exact_eigs(bh(P_WEAK, SPACE))

    def test_lowest_level_matches_second_order_formula(self):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.05)
        values, _ = exact_eigs(bh(p, SPACE))
        e0 = spectrum_second_order(p, 0).E0
        assert abs(values[0] - e0) <= 5 * p.lam ** 3 * p.nu


class TestExactPropagator:
    def test_identity_at_zero(self):
        h = bh_reference(P_WEAK, SPACE)
        assert op_norm(exact_propagator_fn(h)(0.0) - identity(SPACE)) < 1e-13

    def test_unitary(self):
        u = exact_propagator_fn(bh(P_WEAK, SPACE))(2.0)
        assert op_norm(u.dag @ u - identity(SPACE)) < 1e-10

    def test_group_law(self):
        h = bh(P_WEAK, SPACE)
        u = exact_propagator_fn(h)
        assert op_norm(u(1.1) @ u(0.6) - u(1.7)) < 1e-9

    def test_against_generic_expm(self):
        h = bh(P_WEAK, SPACE)
        u = exact_propagator_fn(h)(1.3)
        ref = scipy.linalg.expm(-1.3j * h.mat)
        assert np.linalg.norm(u.mat - ref, 2) < 1e-10

    def test_eigenvector_picks_up_its_phase(self):
        h = bh(P_WEAK, SPACE)
        values, vectors = exact_eigs(h)
        u = exact_propagator_fn(h)(2.4)
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
                    @ exact_propagator_fn(h)(t) @ td)
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
        ref = exact_propagator_fn(h)(1.7)
        u = time_ordered_sweep([(lambda t: 1.0, h.mat)], [1.7], SPACE,
                               steps_per_unit=10)[0]
        assert op_norm(u - ref) < 1e-12

    def test_commuting_time_dependence(self):
        # H(t) = cos(t) M integrates to exp(-i sin(t) M)
        small = SpaceConfig(n_max=4, interior_margin=1)
        m = (number(small) + 0.3 * pauli("x", small)).mat
        w, v = np.linalg.eigh(m)
        ref = (v * np.exp(-1j * math.sin(2.0) * w)) @ v.conj().T
        u = time_ordered_sweep([(math.cos, m)], [2.0], small, 200)[0]
        assert np.linalg.norm(u.mat - ref, 2) < 1e-8

    def test_convergence_rate(self):
        # halving an order-6 step divides the error by about 2^6 = 64; an
        # order-4 step would divide it by about 16
        f = ith_terms(P_WEAK, SPACE)
        ref = frame_chain_fn(P_WEAK, SPACE)(1.0)
        e_coarse = interior_distance(
            time_ordered_sweep(f, [1.0], SPACE, 5)[0], ref)
        e_fine = interior_distance(
            time_ordered_sweep(f, [1.0], SPACE, 10)[0], ref)
        assert 40.0 < e_coarse / e_fine < 96.0

    def test_argument_validation(self):
        f = ith_terms(P_WEAK, SPACE)
        with pytest.raises(ValueError):
            time_ordered_sweep(f, [1.0], SPACE, steps_per_unit=0)

    @pytest.mark.parametrize("steps_per_unit", [math.inf, math.nan],
                             ids=["inf", "nan"])
    def test_steps_per_unit_must_be_finite(self, steps_per_unit):
        f = ith_terms(P_WEAK, SPACE)
        with pytest.raises(ValueError, match="finite"):
            time_ordered_sweep(f, (0.5, 1.0), SPACE, steps_per_unit)

    def test_unitary(self):
        f = ith_terms(P_WEAK, SPACE)
        u = time_ordered_sweep(f, [0.5], SPACE, 50)[0]
        assert op_norm(u.dag @ u - identity(SPACE)) < 1e-11


class TestTimeOrderedSweep:
    def test_grid_aligned_sweep_equals_separate_calls(self):
        # every time is on the step grid, so the sweep takes the same steps
        # as integrating each time from 0; only the node rounding differs
        f = ith_terms(P_STRONG, SPACE)
        times = (0.5, 1.0, 1.5, 2.0)
        swept = time_ordered_sweep(f, times, SPACE, 50)
        assert len(swept) == len(times)
        for t, u in zip(times, swept):
            ref = time_ordered_sweep(f, [t], SPACE, 50)[0]
            assert np.abs(u.mat - ref.mat).max() <= 1e-12

    @pytest.mark.parametrize("p", [P_WEAK, P_STRONG],
                             ids=["weak-drive", "strong-drive"])
    def test_off_grid_times_match_the_frame_chain(self, p):
        times = (0.3, 0.7, 1.25)
        swept = time_ordered_sweep(ith_terms(p, SPACE), times, SPACE, 200)
        chain = frame_chain_fn(p, SPACE)
        for t, u in zip(times, swept):
            assert interior_distance(chain(t), u) <= 1e-6

    @pytest.mark.parametrize("p", [P_WEAK, P_STRONG],
                             ids=["weak-drive", "strong-drive"])
    @pytest.mark.parametrize("steps_per_unit", [200, 40])
    def test_order_6_sweep_equals_a_reference_loop(self, p, steps_per_unit):
        # the textbook step: scipy's expm of the three-node Magnus exponent,
        # its commutators taken of the whole lab Hamiltonian at the nodes
        swept = time_ordered_sweep(ith_terms(p, SPACE), (0.5, 1.0), SPACE,
                                   steps_per_unit)
        h = 1.0 / steps_per_unit
        nodes = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)

        def comm(x, y):
            return x @ y - y @ x

        u = np.eye(SPACE.dim, dtype=complex)
        for k in range(steps_per_unit):
            a_1, a_2, a_3 = (-1j * ith((k + c) * h, p, SPACE).mat
                             for c in nodes)
            alpha1 = h * a_2
            alpha2 = math.sqrt(15.0) * h / 3.0 * (a_3 - a_1)
            alpha3 = 10.0 * h / 3.0 * (a_3 - 2.0 * a_2 + a_1)
            c_1 = comm(alpha1, alpha2)
            c_2 = -comm(alpha1, 2.0 * alpha3 + c_1) / 60.0
            omega = (alpha1 + alpha3 / 12.0
                     + comm(-20.0 * alpha1 - alpha3 + c_1, alpha2 + c_2) / 240.0)
            u = scipy.linalg.expm(omega) @ u
            if 2 * (k + 1) == steps_per_unit:
                assert np.abs(swept[0].mat - u).max() <= 1e-12
        assert np.abs(swept[1].mat - u).max() <= 1e-12

    @pytest.mark.parametrize("p", [P_WEAK, P_STRONG],
                             ids=["weak-drive", "strong-drive"])
    def test_lab_commutator_is_three_fixed_commutators(self, p):
        # [H(t1), H(t2)] with H = h0 + Omega_R (phi K + conj(phi) K^dag),
        # phi = e^{-i omega_L t}: Omega_R (phi2 - phi1) [h0, K], its
        # conjugate on [h0, K^dag], 2i Omega_R^2 sin(omega_L (t2 - t1))
        # on [K, K^dag]
        (_, h0), (_, k), (_, k_dag) = ith_terms(p, SPACE)
        fixed = [x @ y - y @ x for x, y in ((h0, k), (h0, k_dag), (k, k_dag))]
        # apart, since h1 @ h2 - h2 @ h1 itself cancels as t2 nears t1
        for t1, t2 in ((0.0, 0.5), (0.2, 1.3), (1.7, 0.4), (2.5, -1.2),
                       (0.9, 0.6)):
            phi1 = np.exp(-1j * p.omega_L * t1)
            phi2 = np.exp(-1j * p.omega_L * t2)
            weight = p.Omega_R * (phi2 - phi1)
            combined = (weight * fixed[0] + np.conj(weight) * fixed[1]
                        + 2j * p.Omega_R ** 2
                        * math.sin(p.omega_L * (t2 - t1)) * fixed[2])
            h1, h2 = ith(t1, p, SPACE).mat, ith(t2, p, SPACE).mat
            direct = h1 @ h2 - h2 @ h1
            assert (np.linalg.norm(combined - direct)
                    <= 1e-12 * np.linalg.norm(direct))

    def test_negative_times_run_backwards(self):
        f = ith_terms(P_WEAK, SPACE)
        swept = time_ordered_sweep(f, (0.0, -0.5, -1.0), SPACE, 20)
        assert op_norm(swept[0] - identity(SPACE)) < 1e-12
        ref = time_ordered_sweep(f, [-1.0], SPACE, 20)[0]
        assert np.abs(swept[2].mat - ref.mat).max() <= 1e-12

    @pytest.mark.parametrize("times", [(1.0, 0.5), (-0.5, 0.5), (0.5, -1.0),
                                       (0.5, 0.0), (), (0.5, math.nan)],
                             ids=["decreasing", "mixed-signs", "sign-flip",
                                  "back-to-zero", "empty", "nan"])
    def test_times_must_run_away_from_zero(self, times):
        f = ith_terms(P_WEAK, SPACE)
        with pytest.raises(ValueError):
            time_ordered_sweep(f, times, SPACE, 20)


class TestFrameChain:
    def test_identity_at_zero(self):
        u = frame_chain_fn(P_WEAK, SPACE)(0.0)
        assert op_norm(u - identity(SPACE)) < 1e-10

    def test_interior_unitary(self):
        u = frame_chain_fn(P_WEAK, SPACE)(2.0)
        prod = u.dag @ u
        assert interior_distance(prod, identity(SPACE)) < 1e-10

    @pytest.mark.parametrize("p", [P_WEAK, P_STRONG],
                             ids=["weak-drive", "strong-drive"])
    def test_chain_matches_time_ordered_integration(self, p):
        # the whole frame chain against a route that never leaves the lab
        # frame; nothing perturbative anywhere
        t = 2.0
        chain = frame_chain_fn(p, SPACE)(t)
        stepped = time_ordered_sweep(ith_terms(p, SPACE), [t], SPACE,
                                     steps_per_unit=200)[0]
        assert interior_distance(chain, stepped) <= 1e-6

    @pytest.mark.parametrize("p", [P_WEAK, P_STRONG],
                             ids=["weak-drive", "strong-drive"])
    def test_default_density_keeps_the_order_4_accuracy(self, p):
        # criterion 1's points at the default step density stay within
        # 1.9e-9, the order-4 step's error at 200 steps per unit (strong
        # 1.84e-9, weak 5.6e-12); the order-6 step at 40 reads 9.7e-10 and
        # 4.0e-13.  A coarser default may not buy speed with accuracy
        chain = frame_chain_fn(p, SPACE)(2.0)
        stepped = time_ordered_sweep(ith_terms(p, SPACE), [2.0], SPACE)[0]
        assert interior_distance(chain, stepped) <= 1.9e-9

    def test_integrator_error_is_integrator_sided(self):
        # halving the step shrinks the disagreement: the chain is exact
        p = P_WEAK
        f = ith_terms(p, SPACE)
        chain = frame_chain_fn(p, SPACE)(2.0)
        d_coarse = interior_distance(
            time_ordered_sweep(f, [2.0], SPACE, 5)[0], chain)
        d_fine = interior_distance(
            time_ordered_sweep(f, [2.0], SPACE, 10)[0], chain)
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

    @pytest.mark.parametrize("ratio,conclusive", [(1.3, True), (1.7, False)])
    def test_conclusive_from_r_squared_095(self, ratio, conclusive):
        # alternate points raised by ratio: r^2 0.98 and 0.93
        bump = {x: ratio if k % 2 else 1.0 for k, x in enumerate(self.GRID)}
        fit = fit_order(lambda x: x * bump[x], self.GRID)
        assert 0.9 < fit.r_squared < 0.99
        assert fit.conclusive is conclusive

    def test_cancellation_rejected(self):
        with pytest.raises(ValueError):
            fit_order(lambda x: 0.0 if x > 0.1 else x, self.GRID)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fit_order(lambda x: x, (0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            fit_order(lambda x: x, (0.0, 0.1, 0.2, 0.3))

    def test_repeated_grid_rejected(self):
        # one point four times has no slope: an error, not a RankWarning
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_order(lambda x: x, (0.5, 0.5, 0.5, 0.5))

    def test_numpy_floor_has_the_exceptions_module(self):
        # fit_order takes RankWarning from numpy.exceptions, so the declared
        # numpy floor, here and in the README, must be a release that has it
        root = pathlib.Path(__file__).resolve().parent.parent
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        (floor,) = re.findall(r'"numpy>=([0-9.]+)"', pyproject)
        added = re.search(r"versionadded:: NumPy ([0-9.]+)",
                          np.exceptions.__doc__).group(1)

        def release(v):
            return tuple(int(part) for part in v.split("."))

        assert release(floor) >= release(added)
        readme = (root / "README.md").read_text(encoding="utf-8")
        assert f"numpy ≥ {floor}" in readme

    def test_container_validation(self):
        with pytest.raises(ValueError):
            ConvergenceFit(lambdas=(0.1, 0.2), residuals=(1.0,),
                           slope=1.0, intercept=0.0, r_squared=1.0)
        with pytest.raises(ValueError):
            ConvergenceFit(lambdas=(0.1, 0.2), residuals=(1.0, -1.0),
                           slope=1.0, intercept=0.0, r_squared=1.0)


class TestRungLevels:
    def test_overlaps_read_off_the_rows_bit_for_bit(self):
        # dim 242: the rows 2(n-1)+1 and 2n of the eigenvector matrix give
        # the projections onto |n-1,e> and |n,g> bit for bit as the
        # matrix-vector products do, since a basis vector's 1 and 0
        # multiply exactly; so every rung picks the same pair
        big = SpaceConfig(n_max=120, interior_margin=30)
        p = ModelParams.from_balanced(1.0, 1.05, 0.025, 0.05)
        values, vectors = exact_eigs(bh(p, big))
        for n in range(1, big.n_max + 1):
            va = basis_vector(big, n - 1, EXCITED)
            vb = basis_vector(big, n, GROUND)
            want = (np.abs(vectors.conj().T @ va) ** 2
                    + np.abs(vectors.conj().T @ vb) ** 2)
            got = (np.abs(vectors[2 * (n - 1) + 1]) ** 2
                   + np.abs(vectors[2 * n]) ** 2)
            assert np.array_equal(got, want)
            pick = np.argsort(want)[-2:]
            if want[pick].min() >= 0.8:
                assert _rung_levels(n, values, vectors) == tuple(
                    float(e) for e in sorted(values[pick]))
            else:
                with pytest.raises(OverlapAmbiguityError):
                    _rung_levels(n, values, vectors)

    def test_rung_0_reads_e0(self):
        # |0,g> is the one state of rung 0, and the lowest level lies on it
        values, vectors = exact_eigs(bh(TestScanGap.BASE, SPACE))
        assert _rung_levels(0, values, vectors) == (float(values[0]),)

    def test_e0_refusal_names_the_level(self):
        # every column spread evenly: each projects 1/82 onto |0,g>
        values, _ = exact_eigs(bh(TestScanGap.BASE, SPACE))
        spread = np.full((SPACE.dim, SPACE.dim), 1.0 / math.sqrt(SPACE.dim))
        with pytest.raises(OverlapAmbiguityError,
                           match=r"^level E0: projection 0\.012 < 0\.8 here$"):
            _rung_levels(0, values, spread, " here")


class TestScanGap:
    BASE = ModelParams.from_balanced(1.0, 1.0, 0.02, 0.05)

    def test_free_crossing(self):
        base = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.0)
        offsets = np.linspace(-0.02, 0.02, 9)
        scan = scan_gap(1, base, offsets, SPACE)
        for off, gap in zip(scan.detuning_offsets, scan.gaps):
            assert abs(gap - 2.0 * abs(off)) < 1e-12
        assert abs(scan.argmin) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_argmin_sits_at_the_second_order_shift(self, n):
        lam = self.BASE.lam
        shift = anticrossing_shift(n, self.BASE)
        offsets = np.linspace(-shift - 6 * lam ** 3, -shift + 6 * lam ** 3, 13)
        scan = scan_gap(n, self.BASE, offsets, SPACE)
        assert abs(scan.argmin + shift) <= lam ** 3 * self.BASE.nu * n
        assert all(g > 0 for g in scan.gaps)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minimum_gap_is_the_exchange_splitting(self, n):
        lam = self.BASE.lam
        shift = anticrossing_shift(n, self.BASE)
        offsets = np.linspace(-shift - 6 * lam ** 3, -shift + 6 * lam ** 3, 13)
        scan = scan_gap(n, self.BASE, offsets, SPACE)
        want = 2.0 * lam * self.BASE.nu * math.sqrt(n)
        assert abs(min(scan.gaps) - want) <= lam ** 2 * self.BASE.nu

    @pytest.mark.parametrize("eta_breve", [0.0, 0.02])
    def test_gaps_are_those_of_factoring_bh_at_each_offset(self, eta_breve):
        base = ModelParams.from_balanced(1.0, 1.0, eta_breve, 0.05)
        lam, shift = base.lam, anticrossing_shift(2, base)
        offsets = np.linspace(-shift - 6 * lam ** 3, -shift + 6 * lam ** 3, 13)
        scan = scan_gap(2, base, offsets, SPACE)
        want = []
        for off in offsets:
            p = ModelParams.from_balanced(1.0, 1.0 + 2.0 * off, eta_breve, lam)
            lo, hi = _rung_levels(2, *exact_eigs(bh(p, SPACE)))
            want.append(hi - lo)
        assert np.abs(np.array(scan.gaps) - want).max() <= 1e-12
        assert abs(scan.argmin - _parabolic_argmin(scan.detuning_offsets,
                                                   want)) <= 1e-10

    # dim 82 factors each offset whole; at dim 242 rung 1 takes the
    # window of Fock levels 0..21, and the whole array is still checked
    @pytest.mark.parametrize("space", [SPACE, SpaceConfig(120, 30)],
                             ids=["whole", "window"])
    def test_every_offset_is_checked_and_factored_once(self, monkeypatch,
                                                       space):
        checked, dtypes = [], []
        defect, eigh = oracle._hermiticity_defect, np.linalg.eigh

        def counting_defect(a, rel_tol):
            checked.append(a.shape)
            return defect(a, rel_tol)

        def recording(a, *args, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return eigh(a, *args, **kwargs)

        _position_eigen(space.n_max)  # the displacements' cached eigh
        monkeypatch.setattr(oracle, "_hermiticity_defect", counting_defect)
        monkeypatch.setattr(np.linalg, "eigh", recording)
        scan_gap(1, self.BASE, np.linspace(-0.01, 0.01, 5), space)
        assert checked == [(space.dim, space.dim)] * 5
        assert dtypes == [np.float64] * 5

    def test_empty_offsets_refused(self):
        # a plain ValueError before any work, the rung's check included
        for offsets in ([], np.array([])):
            with pytest.raises(ValueError, match="offsets") as info:
                scan_gap(0, self.BASE, offsets, SPACE)
            assert type(info.value) is ValueError

    def test_bottom_level_rejected(self):
        with pytest.raises(ValueError):
            scan_gap(0, self.BASE, [0.0], SPACE)

    def test_offset_below_spectrum_rejected(self):
        with pytest.raises(ValueError):
            scan_gap(1, self.BASE, [-0.6], SPACE)

    def test_strong_hybridization_refused(self):
        strong = ModelParams.from_balanced(1.0, 1.0, 0.12, 0.6)
        with pytest.raises(OverlapAmbiguityError):
            scan_gap(1, strong, [0.0], SPACE)

    @pytest.mark.parametrize("center,step", [(0.0, 1e-178), (-5e-25, 1e-36),
                                             (0.3, 0.01)],
                             ids=["tiny", "narrow", "unit"])
    def test_vertex_fit_at_any_scale(self, center, step):
        # a parabola sampled at any size or spacing of the offsets gives
        # its vertex; raw powers of the offsets would underflow or be
        # collinear
        xs = [center + k * step for k in range(-3, 4)]
        ys = [2.0 * (k - 0.3) ** 2 for k in range(-3, 4)]
        want = center + 0.3 * step
        assert abs(_parabolic_argmin(xs, ys) - want) <= 1e-12 * step

    def test_flat_or_coincident_points_give_the_best_sample(self):
        assert _parabolic_argmin([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 0.0
        assert _parabolic_argmin([0.0, 0.0, 1.0, 2.0],
                                 [0.5, 0.5, 0.5, 2.0]) == 0.0

    def test_container_validation(self):
        with pytest.raises(ValueError):
            GapScan(detuning_offsets=(0.0, 0.1), gaps=(1.0,), argmin=0.0)
        with pytest.raises(ValueError):
            GapScan(detuning_offsets=(0.0,), gaps=(-1.0,), argmin=0.0)


class TestRungWindow:
    BIG = SpaceConfig(n_max=120, interior_margin=30)

    @staticmethod
    def full_route(g, rungs=()):
        return oracle._factored(oracle._symmetrized(g))

    @pytest.mark.parametrize("eta_breve", [0.0, 0.03])
    @pytest.mark.parametrize("n", [1, 3, 10, 30])
    def test_scans_agree_with_the_full_route(self, monkeypatch, n, eta_breve):
        # the vertex amplifies the ~1e-14 rounding of either route's gaps
        # by about 150 sqrt(n) on this grid, as the parabola flattens
        # like 1/sqrt(n): measured 4.9e-14 in a gap, 1.6e-11 in argmin
        base = ModelParams.from_balanced(1.0, 1.0, eta_breve, 0.05)
        lam, shift = base.lam, anticrossing_shift(n, base)
        offsets = np.linspace(-shift - 6 * lam ** 3, -shift + 6 * lam ** 3, 13)
        sizes = []
        window = oracle._window_pairs

        def recording(mat, k, bases):
            sizes.append(k)
            return window(mat, k, bases)

        monkeypatch.setattr(oracle, "_window_pairs", recording)
        scan = scan_gap(n, base, offsets, self.BIG)
        assert sizes == [2 * (n + 21)] * 13  # every offset's first window
        monkeypatch.setattr(oracle, "_rung_eigs", self.full_route)
        full = scan_gap(n, base, offsets, self.BIG)
        assert np.abs(np.array(scan.gaps) - full.gaps).max() <= 1e-13
        assert abs(scan.argmin - full.argmin) <= 1e-11 * math.sqrt(n)

    def test_spectrum_levels_agree_with_the_full_route(self):
        p = ModelParams.from_balanced(1.0, 1.02, 0.01, 0.05)
        g = _into_gauge(bh(p, self.BIG).mat, self.BIG)
        rungs = range(11)
        window = oracle._rung_eigs(g, rungs)
        full = oracle._rung_eigs(g)
        assert window[0].size < full[0].size  # the window was certified
        for n in rungs:
            got = _rung_levels(n, *window)
            want = _rung_levels(n, *full)
            assert np.abs(np.subtract(got, want)).max() <= 1e-13

    def test_a_level_the_window_misses_takes_the_full_route(self,
                                                             monkeypatch):
        # two trailing states at Fock 100 coupled strongly put a level near
        # -5, below every level of the window; nothing couples it to the
        # window, so every residual stays at rounding
        p = ModelParams.from_balanced(1.0, 1.0, 0.02, 0.05)
        g = _into_gauge(bh(p, self.BIG).mat, self.BIG)
        g[200, 201] = g[201, 200] = 105.0
        calls = []
        window, factored = oracle._window_pairs, oracle._factored

        def recording_window(mat, k, bases):
            calls.append(("window", k))
            return window(mat, k, bases)

        def recording_factored(mat):
            calls.append(("factored", mat.shape[0]))
            return factored(mat)

        monkeypatch.setattr(oracle, "_window_pairs", recording_window)
        monkeypatch.setattr(oracle, "_factored", recording_factored)
        values, vectors = oracle._rung_eigs(g, (1,))
        # the one window, Fock levels 0..21, is refused, then G goes whole
        assert calls == [("window", 44), ("factored", self.BIG.dim)]
        full_values, full_vectors = oracle._rung_eigs(g)
        assert np.array_equal(values, full_values)
        assert np.array_equal(vectors, full_vectors)
        assert values[0] < -4.0

    def test_an_indefinite_schur_complement_is_refused(self):
        # a trailing state set between the kept levels and cut off from
        # the window: residuals, intervals and overlaps all pass, and only
        # the inertia count sees the level the window does not hold
        p = ModelParams.from_balanced(1.0, 1.0, 0.02, 0.05)
        g = _into_gauge(bh(p, self.BIG).mat, self.BIG)
        mat = oracle._symmetrized(g)
        k, bases = 44, [oracle._rung_basis(1)]
        kept, _ = oracle._window_pairs(mat, k, bases)
        mat[150, :] = mat[:, 150] = 0.0
        mat[150, 150] = 0.5 * (kept[0] + kept[1])
        assert oracle._window_pairs(mat, k, bases) is None
        values, _ = np.linalg.eigh(mat)
        assert np.sum(values < kept[-1] + 1e-9) == kept.size + 1

    def test_a_residual_past_the_bound_is_refused(self):
        # |1,g> coupled by 1e-7 to a trailing state: the window's rung-1
        # vectors leave residuals near 1e-7 against the whole array, past
        # the 1e-10 of _RESIDUAL_TOL, while every other part would pass
        p = ModelParams.from_balanced(1.0, 1.0, 0.02, 0.05)
        mat = oracle._symmetrized(_into_gauge(bh(p, self.BIG).mat, self.BIG))
        k, bases = 44, [oracle._rung_basis(1)]
        assert oracle._window_pairs(mat, k, bases) is not None
        mat[2, 200] = mat[200, 2] = 1e-7
        assert oracle._window_pairs(mat, k, bases) is None

    def test_a_projection_within_its_davis_kahan_bound_is_refused(
            self, monkeypatch):
        # a threshold one ulp under the pair's smaller window projection is
        # cleared, but not by the bound on how far the exact eigenvector's
        # projection can lie from it, so the window cannot vouch for it
        p = ModelParams.from_balanced(1.0, 1.0, 0.02, 0.05)
        mat = oracle._symmetrized(_into_gauge(bh(p, self.BIG).mat, self.BIG))
        k, bases = 44, [oracle._rung_basis(1)]
        kept, vectors = oracle._window_pairs(mat, k, bases)
        smaller = np.sort(vectors[1] ** 2 + vectors[2] ** 2)[-2]
        monkeypatch.setattr(oracle, "_OVERLAP_THRESHOLD", smaller - 1e-6)
        assert oracle._window_pairs(mat, k, bases) is not None
        monkeypatch.setattr(oracle, "_OVERLAP_THRESHOLD",
                            float(np.nextafter(smaller, 0.0)))
        assert oracle._window_pairs(mat, k, bases) is None
