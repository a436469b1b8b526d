"""Constants-of-motion recursion: clustering, block splits, order scaling."""

import math

import numpy as np
import pytest

from iontrap import (
    SpaceConfig, Operator, ModelParams,
    annihilation, number, pauli, identity, op_norm, commutator,
    interior_norm, interior_distance, hermitize,
    chi, gamma, ClusterAmbiguityError, decompose, InteractionSeries,
    diagonal_split, build_G, solve, solve_ladder, assemble, residual_norm,
    Regime, regime_series, bh, spectrum_second_order, first_order_evolutor,
    exact_eigs, exact_propagator, exact_propagator_fn, fit_order,
)
from iontrap.engine import expm
from iontrap.oracle import _rung_levels

SPACE = SpaceConfig()
SMALL = SpaceConfig(n_max=4, interior_margin=1)

GOLDEN = (1 + math.sqrt(5)) / 2


def balanced_reference(delta_breve, space=SPACE, const=0.0):
    """nu n + delta_breve/2 sigma_z + const with nu = 1."""
    return (number(space) + 0.5 * delta_breve * pauli("z", space)
            + const * identity(space))


def balanced_leading(space=SPACE):
    """i nu (a - a^dag)(sigma_+ + sigma_-), the lam-coefficient of the interaction."""
    a = annihilation(space)
    return hermitize(1j * ((a - a.dag) @ (pauli("+", space) + pauli("-", space))))


class TestChiGamma:
    def test_values(self):
        assert chi(0.0) == 1.0
        assert chi(0.5) == 0.0
        assert gamma(0.0) == 0.0
        assert gamma(2.0) == 0.5

    def test_threshold_semantics(self):
        assert chi(3e-13, eps=1e-12) == 1.0
        assert gamma(3e-13, eps=1e-12) == 0.0
        assert chi(3e-12, eps=1e-12) == 0.0

    def test_complementarity(self):
        for x in (1e-9, 0.3, -7.0, 256.0):
            assert gamma(x) * x == pytest.approx(1.0 - chi(x), abs=1e-15)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            chi(1.0, eps=0.0)
        with pytest.raises(ValueError):
            gamma(1.0, eps=-1e-9)


class TestDecompose:
    def test_reconstruction(self):
        h0 = balanced_reference(GOLDEN)
        spec = decompose(h0)
        assert op_norm(spec.reconstruct() - h0) < 1e-10

    def test_resonant_clusters_pair_up(self):
        # nu = delta_breve: levels n - 1/2 and n + 1/2 coincide pairwise,
        # leaving singletons only at the spectrum edges
        spec = decompose(balanced_reference(1.0))
        sizes = sorted(len(c) for c in spec.clusters)
        assert sizes[0] == 1 and sizes[1] == 1
        assert all(s == 2 for s in sizes[2:])

    def test_off_resonant_nondegenerate(self):
        spec = decompose(balanced_reference(GOLDEN))
        assert all(len(c) == 1 for c in spec.clusters)

    def test_grey_zone_raises(self):
        mat = np.zeros((SMALL.dim, SMALL.dim))
        np.fill_diagonal(mat, np.arange(SMALL.dim, dtype=float))
        mat[1, 1] = mat[0, 0] + 2e-8
        with pytest.raises(ClusterAmbiguityError):
            decompose(Operator(mat, SMALL), eps_deg=1e-8)

    def test_chained_spread_raises(self):
        mat = np.zeros((SMALL.dim, SMALL.dim))
        np.fill_diagonal(mat, 10.0 * np.arange(SMALL.dim, dtype=float))
        mat[1, 1] = 0.9e-8
        mat[2, 2] = 1.8e-8
        with pytest.raises(ClusterAmbiguityError):
            decompose(Operator(mat, SMALL), eps_deg=1e-8)

    def test_clean_merge_and_split(self):
        mat = np.zeros((SMALL.dim, SMALL.dim))
        np.fill_diagonal(mat, 10.0 * np.arange(SMALL.dim, dtype=float))
        mat[1, 1] = 5e-9
        spec = decompose(Operator(mat, SMALL), eps_deg=1e-8)
        assert len(spec.clusters[0]) == 2

    def test_rejects_non_hermitian(self):
        a = annihilation(SMALL)
        with pytest.raises(ValueError):
            decompose(a)

    def test_projector_rank(self):
        spec = decompose(balanced_reference(1.0))
        for m, cluster in enumerate(spec.clusters):
            p = spec.projector(m)
            assert np.trace(p).real == pytest.approx(len(cluster), abs=1e-10)
            assert np.linalg.norm(p @ p - p, 2) < 1e-12

    def test_arrays_are_read_only(self):
        spec = decompose(balanced_reference(1.0))
        assert not spec.eigenvalues.flags.writeable
        assert not spec.eigenbasis.flags.writeable

    def test_same_eigenpairs_as_the_exact_propagator(self):
        h0 = balanced_reference(1.0)
        spec, prop = decompose(h0), exact_propagator_fn(h0)
        assert np.array_equal(spec.eigenvalues, prop.eigenvalues)
        assert np.array_equal(spec.eigenbasis, prop.eigenbasis)

    def test_unclustered_spectrum_is_refused(self):
        h0 = balanced_reference(1.0)
        prop = exact_propagator_fn(h0)
        series = InteractionSeries(terms=(balanced_leading(),))
        for call in (prop.intra_mask, lambda: prop.projector(0),
                     lambda: solve(prop, series, 1),
                     lambda: solve_ladder(prop, series, 1),
                     lambda: diagonal_split(h0, prop)):
            with pytest.raises(ValueError, match="decompose"):
                call()


class TestInteractionSeries:
    def test_rejects_non_hermitian_term(self):
        with pytest.raises(ValueError):
            InteractionSeries(terms=(annihilation(SPACE),))

    def test_evaluate(self):
        h1 = balanced_leading()
        h2 = hermitize(number(SPACE))
        series = InteractionSeries(terms=(h1, h2))
        lam = 0.1
        direct = lam * h1 + lam ** 2 * h2
        assert op_norm(series.evaluate(lam) - direct) < 1e-14

    def test_term_indexing(self):
        series = InteractionSeries(terms=(balanced_leading(),))
        with pytest.raises(IndexError):
            series.term(2)
        with pytest.raises(IndexError):
            series.term(0)


class TestDiagonalSplit:
    def test_polynomial_in_h0_is_block_diagonal(self):
        h0 = balanced_reference(1.0)
        spec = decompose(h0)
        g = h0 @ h0 + 2.0 * h0
        block, off = diagonal_split(g, spec)
        assert op_norm(off) < 1e-10
        assert op_norm(block - g) < 1e-10

    def test_ladder_on_nondegenerate_spectrum(self):
        # distinct diagonal entries: any pure ladder operator has no block part
        mat = np.diag(np.linspace(0.0, 9.0, SMALL.dim))
        spec = decompose(Operator(mat, SMALL))
        a = annihilation(SMALL)
        block, off = diagonal_split(a, spec)
        assert op_norm(block) < 1e-12
        assert op_norm(off - a) < 1e-12

    def test_resonant_coupling_is_intra_cluster(self):
        # at nu = delta_breve the pair coupling a sigma_+ + a^dag sigma_-
        # connects only degenerate partners, so the split keeps all of it
        spec = decompose(balanced_reference(1.0))
        a = annihilation(SPACE)
        g = a @ pauli("+", SPACE) + a.dag @ pauli("-", SPACE)
        block, off = diagonal_split(g, spec)
        assert op_norm(off) < 1e-10

    def test_reconstruction_exact(self):
        spec = decompose(balanced_reference(GOLDEN))
        g = balanced_leading()
        block, off = diagonal_split(g, spec)
        assert op_norm(block + off - g) < 1e-13

    def test_dimension_mismatch(self):
        spec = decompose(balanced_reference(1.0))
        with pytest.raises(ValueError):
            diagonal_split(annihilation(SMALL), spec)


class TestBuildG:
    def test_first_order_is_the_term(self):
        h0 = balanced_reference(1.0)
        series = InteractionSeries(terms=(balanced_leading(),))
        g1 = build_G(1, h0, series, [])
        assert op_norm(g1 - balanced_leading()) == 0.0

    def test_second_order_vanishes_without_inputs(self):
        h0 = balanced_reference(1.0)
        series = InteractionSeries(terms=(balanced_leading(),))
        z1 = Operator(np.zeros((SPACE.dim, SPACE.dim)), SPACE)
        g2 = build_G(2, h0, series, [z1])
        # F contributions all carry Z_1 or H_2, both zero here
        assert op_norm(g2 - Operator(np.zeros((SPACE.dim, SPACE.dim)), SPACE)) == 0.0

    def test_second_order_formula(self):
        h0 = balanced_reference(1.0)
        h1 = balanced_leading()
        h2 = hermitize(number(SPACE))
        series = InteractionSeries(terms=(h1, h2))
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((SPACE.dim, SPACE.dim)) \
            + 1j * rng.standard_normal((SPACE.dim, SPACE.dim))
        z1 = hermitize(Operator(raw, SPACE))
        g2 = build_G(2, h0, series, [z1])
        expected = (-0.5) * commutator(z1, commutator(z1, h0)) \
            + 1j * commutator(z1, h1) + h2
        assert op_norm(g2 - expected) < 1e-10

    def test_third_order_formula(self):
        # the first order with mixed parts and three-fold nesting
        h0 = balanced_reference(1.0)
        h1 = balanced_leading()
        h2 = hermitize(number(SPACE))
        series = InteractionSeries(terms=(h1, h2))
        rng = np.random.default_rng(11)
        z1, z2 = (hermitize(Operator(
            rng.standard_normal((SPACE.dim, SPACE.dim))
            + 1j * rng.standard_normal((SPACE.dim, SPACE.dim)), SPACE))
            for _ in range(2))
        g3 = build_G(3, h0, series, [z1, z2])

        def ad(*ops):
            # ad(z, ..., x) = [z, [..., x]]
            x = ops[-1]
            for z in reversed(ops[:-1]):
                x = commutator(z, x)
            return x

        expected = (1j * ad(z1, h2) + 1j * ad(z2, h1)
                    - 0.5 * ad(z1, z1, h1) - 0.5 * ad(z1, z2, h0)
                    - 0.5 * ad(z2, z1, h0) - (1j / 6) * ad(z1, z1, z1, h0))
        assert op_norm(g3 - expected) < 1e-10 * op_norm(expected)

    def test_argument_validation(self):
        h0 = balanced_reference(1.0)
        series = InteractionSeries(terms=(balanced_leading(),))
        with pytest.raises(ValueError):
            build_G(0, h0, series, [])
        with pytest.raises(ValueError):
            build_G(2, h0, series, [])


class TestSolve:
    def test_resonant_first_constant(self):
        # nu = delta_breve: the constant of motion is i nu (a sigma_+ - a^dag sigma_-)
        spec = decompose(balanced_reference(1.0))
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 1)
        a = annihilation(SPACE)
        printed = hermitize(1j * (a @ pauli("+", SPACE) - a.dag @ pauli("-", SPACE)))
        assert interior_norm(sol.C[0] - printed) < 1e-8

    def test_off_resonant_first_constant_vanishes(self):
        spec = decompose(balanced_reference(GOLDEN))
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 1)
        assert interior_norm(sol.C[0]) < 1e-10

    def test_invariants_to_second_order(self):
        h0 = balanced_reference(1.0)
        spec = decompose(h0)
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 2)
        mask = spec.intra_mask()
        for n in range(2):
            c, z = sol.C[n], sol.Z[n]
            assert op_norm(c - c.dag) < 1e-10
            assert op_norm(z - z.dag) < 1e-10
            g_scale = op_norm(h0) + op_norm(c)
            assert op_norm(commutator(c, h0)) < 1e-9 * g_scale
            # minimality: Z has no block-diagonal part
            z_eig = spec.eigenbasis.conj().T @ z.mat @ spec.eigenbasis
            assert np.max(np.abs(z_eig[mask])) < 1e-10

    def test_order_consistency_bitwise(self):
        spec = decompose(balanced_reference(1.0))
        series = InteractionSeries(terms=(balanced_leading(),))
        sol1 = solve(spec, series, 1)
        sol2 = solve(spec, series, 2)
        assert np.array_equal(sol1.C[0].mat, sol2.C[0].mat)
        assert np.array_equal(sol1.Z[0].mat, sol2.Z[0].mat)

    def test_basis_independence_within_clusters(self):
        spec = decompose(balanced_reference(1.0))
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 2)
        # swap the two eigenvectors inside every 2-cluster
        v = spec.eigenbasis.copy()
        for cluster in spec.clusters:
            if len(cluster) == 2:
                i, j = cluster
                v[:, [i, j]] = v[:, [j, i]]
        from iontrap import SpectralDecomposition
        spec_perm = SpectralDecomposition(
            eigenvalues=spec.eigenvalues, eigenbasis=v,
            clusters=spec.clusters, eps_deg=spec.eps_deg, space=spec.space)
        sol_perm = solve(spec_perm, series, 2)
        for n in range(2):
            assert op_norm(sol.C[n] - sol_perm.C[n]) < 1e-10
            assert op_norm(sol.Z[n] - sol_perm.Z[n]) < 1e-10

    def test_ladder_route_agrees(self):
        for db in (1.0, GOLDEN):
            spec = decompose(balanced_reference(db))
            series = InteractionSeries(terms=(balanced_leading(),))
            s_proj = solve(spec, series, 2)
            s_lad = solve_ladder(spec, series, 2)
            for n in range(2):
                assert op_norm(s_proj.C[n] - s_lad.C[n]) < 1e-12
                assert op_norm(s_proj.Z[n] - s_lad.Z[n]) < 1e-12

    def test_zero_series(self):
        zero = Operator(np.zeros((SPACE.dim, SPACE.dim)), SPACE)
        spec = decompose(balanced_reference(1.0))
        sol = solve(spec, InteractionSeries(terms=(zero,)), 2)
        for n in range(2):
            assert op_norm(sol.C[n]) == 0.0
            assert op_norm(sol.Z[n]) == 0.0

    def test_residual_order_scaling(self):
        spec = decompose(balanced_reference(1.0))
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 4)
        lams = (0.02, 0.04, 0.08)
        for n in (1, 2, 3, 4):
            r = [residual_norm(spec, series, sol, lam, upto=n) for lam in lams]
            slopes = [math.log(r[i + 1] / r[i]) / math.log(2) for i in range(2)]
            assert min(slopes) > n + 0.7

    def test_residual_vanishes_at_zero_coupling(self):
        spec = decompose(balanced_reference(1.0))
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 1)
        assert residual_norm(spec, series, sol, 0.0) < 1e-14


class TestAssemble:
    def test_zero_generators_leave_h0(self):
        zero = Operator(np.zeros((SPACE.dim, SPACE.dim)), SPACE)
        h0 = balanced_reference(1.0)
        spec = decompose(h0)
        sol = solve(spec, InteractionSeries(terms=(zero,)), 1)
        h0n, cn = assemble(h0, sol, 0.05, 1)
        assert op_norm(h0n - h0) < 1e-13
        assert op_norm(cn) == 0.0

    def test_commutation_preserved(self):
        h0 = balanced_reference(1.0)
        spec = decompose(h0)
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 2)
        h0n, cn = assemble(h0, sol, 0.05, 2)
        assert op_norm(commutator(h0n, cn)) < 1e-10

    def test_sum_approximates_hamiltonian(self):
        h0 = balanced_reference(1.0)
        spec = decompose(h0)
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 2)

        def err(lam, upto):
            h0n, cn = assemble(h0, sol, lam, upto)
            return interior_norm(h0n + cn - (h0 + series.evaluate(lam)))

        # halving lam must shrink the defect by 2^(n+1) per retained order
        assert err(0.025, 1) < 0.30 * err(0.05, 1)
        assert err(0.025, 2) < 0.15 * err(0.05, 2)
        assert err(0.05, 2) < err(0.05, 1)

    def test_order_validation(self):
        h0 = balanced_reference(1.0)
        spec = decompose(h0)
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 1)
        with pytest.raises(ValueError):
            assemble(h0, sol, 0.05, 2)


def _resonant_family(lam):
    return ModelParams.from_balanced(1.0, 1.0, 0.0, lam)


def _near_family(lam):
    # criterion 5's detuned family: delta_breve - nu counts as O(lam)
    return ModelParams.from_balanced(1.0, 1.0 + 0.5 * lam, 0.0, lam)


class TestHigherOrdersBehindTheGates:
    """The engine's constants account for what criteria 4 and 5 leave over."""

    LAMS = (0.005, 0.01, 0.02, 0.04)

    @staticmethod
    def levels(h):
        """E0, then (E_minus, E_plus) of rungs n <= 10 paired by overlap."""
        w, v = exact_eigs(h)
        pairs = [_rung_levels(n, w, v, SPACE) for n in range(1, 11)]
        return np.array([w[0]] + [e for pair in pairs for e in pair])

    def level_errors(self, family, lam):
        """Levels of H0 + C(lam) at orders 2 and 3: their distance to the
        formula at order 2, and the worst error against bh at orders 2, 3."""
        p = family(lam)
        h0, series = regime_series(p, Regime.of("near_resonant", p), SPACE)
        sol = solve(decompose(h0), series, 3)
        exact = self.levels(bh(p, SPACE))
        order2 = self.levels(h0 + sol.constant(lam, 2))
        order3 = self.levels(h0 + sol.constant(lam, 3))
        spec = spectrum_second_order(p, 10)
        formula = np.array([spec.E0] + [e for _, lo, hi in spec.levels
                                        for e in (lo, hi)])
        return (np.max(np.abs(order2 - formula)),
                np.max(np.abs(order2 - exact)), np.max(np.abs(order3 - exact)))

    @pytest.mark.parametrize("family", [_resonant_family, _near_family],
                             ids=["resonant", "near"])
    def test_third_order_constant_accounts_for_level_remainder(self, family):
        errs = {lam: self.level_errors(family, lam) for lam in self.LAMS}
        assert max(e[0] for e in errs.values()) <= 1e-12
        fit = fit_order(lambda lam: errs[lam][2], self.LAMS)
        assert fit.slope >= 3.5 and fit.r_squared >= 0.95
        assert errs[0.02][2] * 20 <= errs[0.02][1]

    def test_second_order_constant_accounts_for_secular_term(self):
        # U_2(t) = e^{-iW} e^{-i(H0 + C(lam))t} e^{iW} at nu t = 3, where the
        # first-order evolutor's error is led by the lam^2 secular phase
        t, grid = 3.0, (0.02, 0.04, 0.08, 0.16)

        def exact(lam):
            return exact_propagator(bh(_resonant_family(lam), SPACE), t)

        def err_second(lam):
            p = _resonant_family(lam)
            h0, series = regime_series(p, Regime.of("eta_much_less", p), SPACE)
            sol = solve(decompose(h0), series, 2)
            w = sol.generator(lam, 2)
            u = (expm(-1j * w) @ exact_propagator(h0 + sol.constant(lam, 2), t)
                 @ expm(1j * w))
            return interior_distance(u, exact(lam), SPACE.n_interior)

        def err_first(lam):
            return interior_distance(
                first_order_evolutor(t, _resonant_family(lam), SPACE),
                exact(lam), SPACE.n_interior)

        fit = fit_order(err_second, grid)
        assert fit.slope >= 2.7 and fit.r_squared >= 0.95
        assert fit.residuals[0] * 10 <= err_first(grid[0])

    @pytest.mark.parametrize("eta_breve", [0.0, 0.025])
    @pytest.mark.parametrize("detuning", [1.0, 1.03, 0.95])
    def test_first_order_closed_form_is_the_recursion(self, detuning,
                                                       eta_breve):
        # U_1(t) = e^{-i lam Z_1} e^{-i(H0 + lam C_1)t} e^{i lam Z_1} from
        # solve equals first_order_evolutor, built from its printed Z1, C1
        lam = 0.05
        p = ModelParams.from_balanced(1.0, detuning, eta_breve, lam)
        h0, series = regime_series(p, Regime.of("near_resonant", p), SPACE)
        sol = solve(decompose(h0), series, 1)
        rot = expm(1j * sol.generator(lam, 1))
        dressed = h0 + sol.constant(lam, 1)
        for t in (0.0, 0.7, 3.0, -1.3):
            u1 = rot.dag @ exact_propagator(dressed, t) @ rot
            assert op_norm(u1 - first_order_evolutor(t, p, SPACE)) < 1e-12
