"""Constants-of-motion recursion: clustering, block splits, order scaling."""

import math

import numpy as np
import pytest

from iontrap import (
    SpaceConfig, Operator, ModelParams,
    annihilation, number, pauli, identity, op_norm, commutator,
    interior_norm, interior_distance, hermitize,
    chi, gamma, ClusterAmbiguityError, decompose, InteractionSeries,
    diagonal_split, build_G, solve, assemble, residual_norm, REGIME_KINDS,
    Regime, regime_series, bh, spectrum_second_order, first_order_evolutor_fn,
    exact_eigs, exact_propagator_fn, frame_chain_fn, fit_order,
)
from iontrap.engine import (
    _Banded, _add_commutator, _degenerate, _eigenframe, _rotations,
)
from iontrap.operators import _flat_gauge_phases, expm
from iontrap.oracle import _rung_levels

SPACE = SpaceConfig()
SMALL = SpaceConfig(n_max=4, interior_margin=1)

GOLDEN = (1 + math.sqrt(5)) / 2


def balanced_reference(delta_breve, space=SPACE, const=0.0):
    """nu n + delta_breve/2 sigma_z + const with nu = 1."""
    return (number(space) + 0.5 * delta_breve * pauli("z", space)
            + const * identity(space))


def clean_merge():
    """Levels 10 k on SMALL with the second moved to 5e-9: one 2-cluster."""
    levels = 10.0 * np.arange(SMALL.dim, dtype=float)
    levels[1] = 5e-9
    return Operator(np.diag(levels), SMALL)


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
        # the engine's one degeneracy tolerance: 1e-8 absolute, with the
        # ambiguous band (1e-8, 3e-8) refused
        assert chi(5e-9) == 1.0 and chi(-5e-9) == 1.0
        assert gamma(5e-9) == 0.0
        assert chi(5e-8) == 0.0
        assert gamma(5e-8) == 1.0 / 5e-8
        for fn in (chi, gamma):
            with pytest.raises(ClusterAmbiguityError):
                fn(2e-8)

    def test_complementarity(self):
        for x in (1e-9, 0.3, -7.0, 256.0):
            assert gamma(x) * x == pytest.approx(1.0 - chi(x), abs=1e-15)


class TestDecompose:
    def test_reconstruction(self):
        h0 = balanced_reference(GOLDEN)
        spec = decompose(h0)
        basis = spec.eigenbasis
        back = (basis * spec.eigenvalues) @ basis.conj().T
        assert op_norm(Operator(back, SPACE) - h0) < 1e-10

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
            decompose(Operator(mat, SMALL))

    def test_chained_spread_raises(self):
        mat = np.zeros((SMALL.dim, SMALL.dim))
        np.fill_diagonal(mat, 10.0 * np.arange(SMALL.dim, dtype=float))
        mat[1, 1] = 0.9e-8
        mat[2, 2] = 1.8e-8
        with pytest.raises(ClusterAmbiguityError):
            decompose(Operator(mat, SMALL))

    def test_clean_merge_and_split(self):
        spec = decompose(clean_merge())
        assert len(spec.clusters[0]) == 2

    def test_cluster_mask_is_the_pairwise_degeneracy_test(self):
        # solve's block mask: the pairs decompose clusters are exactly the
        # pairs whose gap E_k - E_j _degenerate calls a degeneracy, so C_n
        # keeps what chi weights 1 and Z_n is weighted by gamma
        h0s = [balanced_reference(1.0), balanced_reference(GOLDEN),
               clean_merge()]
        for kind in REGIME_KINDS:
            near = kind == "near_resonant"
            for delta_breve in (0.97, 1.0, 1.05) + ((), (1.3, 2.0))[not near]:
                p = ModelParams.from_balanced(1.0, delta_breve, 0.025, 0.05)
                h0s.append(regime_series(p, Regime.of(kind, p), SPACE)[0])
        for h0 in h0s:
            spec = decompose(h0)
            w = spec.eigenvalues
            assert np.array_equal(_eigenframe(spec)[3],
                                  _degenerate(w[None, :] - w[:, None]))

    def test_clusters_match_a_loop_over_adjacent_gaps(self):
        levels = 10.0 * np.arange(SMALL.dim, dtype=float)
        levels[[1, 4, 5, 9]] = [4e-9, 30.0 + 3e-9, 30.0 + 7e-9, 80.0 - 1e-9]
        spec = decompose(Operator(np.diag(levels), SMALL))
        w, want, start = spec.eigenvalues, [], 0
        for i in range(1, w.size + 1):
            if i == w.size or w[i] - w[i - 1] >= 3e-8:
                want.append(tuple(range(start, i)))
                start = i
        assert spec.clusters == tuple(want)
        assert [len(c) for c in want].count(2) == 2 and (3, 4, 5) in want

    def test_rejects_non_hermitian(self):
        a = annihilation(SMALL)
        with pytest.raises(ValueError):
            decompose(a)

    def test_projector_rank(self):
        spec = decompose(balanced_reference(1.0))
        for cluster in spec.clusters:
            cols = spec.eigenbasis[:, list(cluster)]
            p = cols @ cols.conj().T
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
        # every engine entry refuses it with one message, residual_norm
        # included: it would read the eigenbasis as H0's
        h0 = balanced_reference(1.0)
        prop = exact_propagator_fn(h0)
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(decompose(h0), series, 1)
        for call in (lambda: residual_norm(prop, series, sol, 0.05),
                     lambda: solve(prop, series, 1),
                     lambda: diagonal_split(h0, prop)):
            with pytest.raises(ValueError, match="^needs the clusters of "
                               "engine.decompose; this decomposition has none$"):
                call()
        assert "_eigenframe" not in prop.__dict__

    @pytest.mark.parametrize("clusters", [
        lambda c: c[:3], lambda c: c + ((0,),), lambda c: c + ((len(c),),)],
        ids=["first-three", "an-index-twice", "out-of-range"])
    def test_clusters_that_do_not_partition_are_refused(self, clusters):
        # unchecked, the first 3 of 10 clusters at n_max 8 would move C_1
        # by 2.8
        from iontrap import SpectralDecomposition
        space = SpaceConfig(n_max=8, interior_margin=2)
        h0 = balanced_reference(1.0, space)
        spec = decompose(h0)
        assert len(spec.clusters) == 10
        bad = SpectralDecomposition(space, spec.eigenvalues, spec.eigenbasis,
                                    clusters=clusters(spec.clusters))
        series = InteractionSeries(terms=(balanced_leading(space),))
        sol = solve(spec, series, 1)
        for call in (lambda: residual_norm(bad, series, sol, 0.05),
                     lambda: solve(bad, series, 1),
                     lambda: diagonal_split(h0, bad)):
            with pytest.raises(ValueError, match=r"^the clusters do not "
                               r"partition range\(18\)$"):
                call()


class TestInteractionSeries:
    def test_rejects_non_hermitian_term(self):
        with pytest.raises(ValueError):
            InteractionSeries(terms=(annihilation(SPACE),))

    @pytest.mark.parametrize("defect,hermitian", [(1e-11, False),
                                                  (1e-13, True)])
    def test_hermiticity_to_1e_12_relative(self, defect, hermitian):
        h = number(SPACE)
        skew = np.zeros((SPACE.dim, SPACE.dim))
        skew[0, 1] = defect * op_norm(h)  # ||H - H^dag||_2 = defect ||H||_2
        term = Operator(h.mat + skew, SPACE)
        if hermitian:
            InteractionSeries(terms=(term,))
        else:
            with pytest.raises(ValueError, match="not hermitian"):
                InteractionSeries(terms=(term,))

    def test_evaluate(self):
        h1 = balanced_leading()
        h2 = hermitize(number(SPACE))
        series = InteractionSeries(terms=(h1, h2))
        lam = 0.1
        direct = lam * h1 + lam ** 2 * h2
        assert op_norm(series.evaluate(lam) - direct) < 1e-14

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError, match="at least one term"):
            InteractionSeries(terms=())


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
        # one dimension, 18, on two spaces that differ in their interior
        spec = decompose(balanced_reference(1.0, SpaceConfig(8, 2)))
        with pytest.raises(ValueError, match="space"):
            diagonal_split(balanced_leading(SpaceConfig(8, 3)), spec)


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

    def test_operands_on_another_space_are_refused(self):
        # one dimension, 18, on two spaces that differ in their interior:
        # G would take H0's
        near, far = SpaceConfig(8, 2), SpaceConfig(8, 3)
        h0 = balanced_reference(1.0, near)
        with pytest.raises(ValueError, match="space"):
            build_G(1, h0, InteractionSeries(terms=(balanced_leading(far),)),
                    [])
        series = InteractionSeries(terms=(balanced_leading(near),))
        with pytest.raises(ValueError, match="space"):
            build_G(2, h0, series, [balanced_leading(far)])


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
        mask = _eigenframe(spec)[3]
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
            clusters=spec.clusters, space=spec.space)
        sol_perm = solve(spec_perm, series, 2)
        for n in range(2):
            assert op_norm(sol.C[n] - sol_perm.C[n]) < 1e-10
            assert op_norm(sol.Z[n] - sol_perm.Z[n]) < 1e-10

    def test_series_on_another_space_is_refused(self):
        # one dimension, 18, on two spaces that differ in their interior:
        # the solution would take the decomposition's
        spec = decompose(balanced_reference(1.0, SpaceConfig(8, 2)))
        series = InteractionSeries(terms=(balanced_leading(SpaceConfig(8, 3)),))
        with pytest.raises(ValueError, match="space"):
            solve(spec, series, 1)

    def test_residual_on_another_space_is_refused(self):
        # the residual would be measured on the decomposition's interior
        near, far = SpaceConfig(8, 2), SpaceConfig(8, 3)
        spec = decompose(balanced_reference(1.0, near))
        series = InteractionSeries(terms=(balanced_leading(near),))
        sol = solve(spec, series, 2)
        other = InteractionSeries(terms=(balanced_leading(far),))
        with pytest.raises(ValueError, match="space"):
            residual_norm(spec, other, sol, 0.05)
        sol_far = solve(decompose(balanced_reference(1.0, far)), other, 2)
        with pytest.raises(ValueError, match="space"):
            residual_norm(spec, series, sol_far, 0.05)

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

    def test_residual_norm_wraps_no_operators(self, operators_made):
        # the dressing sums the stored gauge arrays: no Operator, whatever
        # the order and the terms
        spec = decompose(balanced_reference(1.0))
        series = InteractionSeries(terms=(balanced_leading(),) * 3)
        sol = solve(spec, series, 6)
        for upto in (1, 6):
            operators_made.clear()
            residual_norm(spec, series, sol, 0.05, upto=upto)
            assert len(operators_made) == 0


    @pytest.mark.parametrize("gauge_dtype", [np.float64, np.complex128],
                             ids=["real", "complex"])
    def test_residual_norm_argument_checks(self, gauge_dtype):
        # balanced_leading is real in the Fock phase gauge, a + a^dag there
        # i (a - a^dag): the checks hold on the one path in both dtypes
        a = annihilation(SPACE)
        term = (balanced_leading() if gauge_dtype is np.float64 else
                hermitize((a + a.dag) @ (pauli("+", SPACE) + pauli("-", SPACE))))
        spec = decompose(balanced_reference(1.0))
        series = InteractionSeries(terms=(term,))
        sol = solve(spec, series, 2)
        assert {y.dtype for y in sol._c + sol._y} == {np.dtype(gauge_dtype)}
        for upto in (0, sol.order + 1):
            with pytest.raises(ValueError, match="upto"):
                residual_norm(spec, series, sol, 0.05, upto=upto)
        for n_keep in (-1, SPACE.n_max + 1):
            with pytest.raises(ValueError, match="n_keep"):
                residual_norm(spec, series, sol, 0.05, n_keep=n_keep)
        assert residual_norm(spec, series, sol, 0.05, upto=2,
                             n_keep=SPACE.n_max) > 0.0


class TestRealPath:
    """regime_series input runs the engine in real arithmetic throughout,
    and residual_norm takes nothing into the gauge."""

    @pytest.mark.parametrize("kind,delta_breve,eta_breve", [
        ("eta_much_less", 1.0, 0.0), ("near_resonant", 1.05, 0.025)])
    def test_solution_and_residuals_stay_real(self, monkeypatch, kind,
                                              delta_breve, eta_breve):
        from iontrap import engine

        p = ModelParams.from_balanced(1.0, delta_breve, eta_breve, 0.05)
        h0, series = regime_series(p, Regime.of(kind, p), SPACE)
        spec = decompose(h0)
        seen = []

        def spy(name, fn):
            # every argument is an array or a banded array
            def wrapped(*args):
                seen.extend((name, getattr(x, "mat", x).dtype) for x in args)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(engine, "_add_commutator",
                            spy("commutator", engine._add_commutator))
        sol = solve(spec, series, 4)
        assert {y.dtype for y in sol._c + sol._y} == {np.dtype(np.float64)}
        monkeypatch.setattr(engine, "_into_gauge",
                            spy("into_gauge", engine._into_gauge))
        monkeypatch.setattr(engine, "_expm_matrix",
                            spy("expm", engine._expm_matrix))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            spy("eigvalsh", np.linalg.eigvalsh))
        for upto in range(1, 5):
            residual_norm(spec, series, sol, 0.05, upto=upto)
        assert {name for name, _ in seen} == {"commutator", "expm",
                                              "eigvalsh"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("kind,delta_breve,eta_breve", [
        ("eta_much_less", 1.0, 0.0), ("near_resonant", 1.05, 0.025)])
    def test_gauge_basis_is_the_factored_eigenvectors(self, monkeypatch, kind,
                                                      delta_breve, eta_breve):
        # the first solve hands _rotations U^dag V: bit for bit the real
        # eigenvectors exact_eigs factored, and nothing in a later solve
        # or residual_norm re-derives it from the Fock basis
        from iontrap import engine

        p = ModelParams.from_balanced(1.0, delta_breve, eta_breve, 0.05)
        h0, series = regime_series(p, Regime.of(kind, p), SPACE)
        factored, rotated = [], []

        def eigh(a):
            out = eigh_orig(a)
            factored.append(out[1])
            return out

        eigh_orig = np.linalg.eigh
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", eigh)
            spec = decompose(h0)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_rotations",
                          lambda v: rotated.append(v) or _rotations(v))
            solve(spec, series, 2)
        (vectors,), (basis,) = factored, rotated
        assert basis.dtype == np.float64
        assert np.array_equal(basis, vectors)

        def fail(*args):
            raise AssertionError("gauge eigenbasis re-derived")

        monkeypatch.setattr(engine, "_flat_gauge_phases", fail)
        monkeypatch.setattr(engine, "_real_if_exact", fail)
        sol = solve(spec, series, 2)
        residual_norm(spec, series, sol, 0.05)

    def test_propagator_builders_form_no_gauge_basis(self):
        # only the engine reads the gauge eigenbasis, so a propagator's
        # decomposition carries its eigenbasis and adjoint and nothing more
        p = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25,
                        eta=0.1)
        for spec in (exact_propagator_fn(bh(p, SPACE)),
                     frame_chain_fn(p, SPACE)):
            assert set(vars(spec)) == {"space", "eigenvalues", "eigenbasis",
                                       "clusters", "rates", "_adjoint"}

    def test_eigenframe_is_formed_once_per_decomposition(self, monkeypatch):
        # H0 in the gauge and the rotations are fixed for a decomposition:
        # the solve and every residual_norm after it share one, with
        # residuals bit for bit those of a fresh decomposition each call
        from iontrap import engine

        p = ModelParams.from_balanced(1.0, 1.05, 0.025, 0.05)
        h0, series = regime_series(p, Regime.of("near_resonant", p), SPACE)
        spec = decompose(h0)
        sol = solve(spec, series, 2)
        fresh = [residual_norm(decompose(h0), series, sol, lam, upto=n)
                 for lam in (0.02, 0.08) for n in (1, 2)]
        made = []
        monkeypatch.setattr(engine, "_rotations",
                            lambda v: made.append(1) or _rotations(v))
        spec = decompose(h0)
        assert not made
        sol = solve(spec, series, 2)
        kept = [residual_norm(spec, series, sol, lam, upto=n)
                for lam in (0.02, 0.08) for n in (1, 2)]
        assert len(made) == 1
        assert kept == fresh
        assert "_eigenframe" not in exact_propagator_fn(h0).__dict__


class TestResidualNormReference:
    # the benchmark's perturbative grid at dim 242, against a dense
    # complex reference: scipy's expm and the SVD of the interior block
    @pytest.mark.parametrize("kind,delta_breve,eta_breve", [
        ("eta_much_less", 1.0, 0.0), ("near_resonant", 1.05, 0.025)])
    def test_matches_expm_and_svd(self, kind, delta_breve, eta_breve):
        import scipy.linalg

        space = SpaceConfig(120, 30)
        p = ModelParams.from_balanced(1.0, delta_breve, eta_breve, 0.05)
        h0, series = regime_series(p, Regime.of(kind, p), space)
        spec = decompose(h0)
        sol = solve(spec, series, 6)
        k = space.interior_dim
        for lam in (0.02, 0.04, 0.08, 0.16):
            h = h0.mat + series.evaluate(lam).mat
            scale = max(1.0, op_norm(h))
            for n in range(1, 7):
                u = scipy.linalg.expm(1j * sol.generator(lam, n).mat)
                moved = u @ h @ u.conj().T - h0.mat - sol.constant(lam, n).mat
                want = np.linalg.norm(moved[:k, :k], 2)
                got = residual_norm(spec, series, sol, lam, upto=n)
                assert abs(got - want) <= 1e-12 * scale, (lam, n, got, want)


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

    def test_h0_on_another_space_is_refused(self):
        # the dressed pair would land on the other H0's space
        near, far = SpaceConfig(8, 2), SpaceConfig(8, 3)
        spec = decompose(balanced_reference(1.0, near))
        series = InteractionSeries(terms=(balanced_leading(near),))
        sol = solve(spec, series, 2)
        with pytest.raises(ValueError, match="space"):
            assemble(balanced_reference(1.0, far), sol, 0.05, 2)


def _banded(rng, n, lower, upper):
    """Random complex n x n matrix with the given lower and upper band."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    offsets = np.arange(n)[None, :] - np.arange(n)[:, None]
    m[(offsets < -lower) | (offsets > upper)] = 0.0
    return m


class TestBandedCommutator:
    """The engine's banded products against dense ones."""

    @pytest.mark.parametrize("n", [82, 242])
    @pytest.mark.parametrize("bands", [
        ((1, 1), (1, 1)), ((0, 5), (3, 0)), ((7, 2), (0, 9)), ((13, 13), (6, 6)),
    ], ids=["tridiagonal", "asymmetric", "skew", "wide"])
    def test_matches_the_dense_commutator(self, n, bands):
        rng = np.random.default_rng(n)
        (zl, zu), (xl, xu) = bands
        z, x = _banded(rng, n, zl, zu), _banded(rng, n, xl, xu)
        start = _banded(rng, n, 2, 2)
        out = _Banded(start.copy())
        zb, xb = _Banded(z), _Banded(x)
        assert (zb.lower, zb.upper, xb.lower, xb.upper) == (zl, zu, xl, xu)
        _add_commutator(out, zb, xb)
        dense = start + (z @ x - x @ z)
        assert np.abs(out.mat - dense).max() <= 1e-14 * np.abs(dense).max()
        assert (out.lower, out.upper) == (max(2, zl + xl), max(2, zu + xu))
        # the carried band covers every nonzero of the result
        assert _Banded(out.mat).lower <= out.lower
        assert _Banded(out.mat).upper <= out.upper

    @pytest.mark.parametrize("n", [82, 242])
    def test_zero_operands(self, n):
        rng = np.random.default_rng(1)
        zero = _Banded(np.zeros((n, n), complex))
        assert (zero.lower, zero.upper) == (0, 0)
        start = _banded(rng, n, 3, 1)
        for z, x in ((zero, _Banded(_banded(rng, n, 4, 4))),
                     (_Banded(_banded(rng, n, 2, 5)), zero), (zero, zero)):
            out = _Banded(start.copy())
            _add_commutator(out, z, x)
            assert np.array_equal(out.mat, start)

    @pytest.mark.parametrize("n", [82, 242])
    def test_full_band_matches_the_dense_commutator(self, n):
        # dense operands, as in the eigenbasis of a generic H0: the clamped
        # blocks cover whole rows and columns
        rng = np.random.default_rng(2)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        zb, xb = _Banded(z), _Banded(x)
        assert (zb.lower, zb.upper, xb.lower, xb.upper) == (n - 1,) * 4
        out = _Banded(np.zeros((n, n), complex), 0, 0)
        _add_commutator(out, zb, xb)
        dense = z @ x - x @ z
        assert np.abs(out.mat - dense).max() <= 1e-14 * np.abs(dense).max()
        assert (out.lower, out.upper) == (n - 1, n - 1)


def _permutation(rng, n):
    """A random 0/1 permutation matrix."""
    return np.eye(n)[:, rng.permutation(n)]


class TestIndexRotation:
    @pytest.mark.parametrize("n", [82, 242])
    def test_equals_the_dense_products(self, n):
        rng = np.random.default_rng(n)
        v = _permutation(rng, n)
        to_eig, from_eig = _rotations(v)
        real = rng.standard_normal((n, n))
        for x in (real, real + 1j * rng.standard_normal((n, n))):
            # without zero entries bit for bit, dtype included, ...
            for got, want in ((to_eig(x), v.T @ x @ v),
                              (from_eig(x), v @ x @ v.T)):
                assert got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
            # ... with exact zeros equal up to the sign of a zero
            x = x.copy()
            x[rng.random((n, n)) < 0.8] = 0.0
            assert np.array_equal(to_eig(x), v.T @ x @ v)
            assert np.array_equal(from_eig(x), v @ x @ v.T)

    def test_other_bases_take_the_dense_products(self):
        rng = np.random.default_rng(5)
        n = 82
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        phased = _permutation(rng, n) * rng.choice(
            np.array([1, -1, 1j, -1j]), n)  # a permutation up to phases
        mixed = _permutation(rng, n)
        c = math.sqrt(0.5)
        mixed[:, :2] = mixed[:, :2] @ np.array([[c, c], [-c, c]])
        repeated = _permutation(rng, n)
        repeated[:, 1] = repeated[:, 0]  # two columns in one row
        merged = _permutation(rng, n)
        merged[:, 0] += merged[:, 1]  # two rows in one column
        merged[:, 1] = 0.0
        for v in (phased, mixed, repeated, merged):
            to_eig, from_eig = _rotations(v)
            vd = v.conj().T
            for y in (x, x.real):
                assert np.array_equal(to_eig(y), vd @ y @ v)
                assert np.array_equal(from_eig(y), v @ y @ vd)

    def test_split_and_solve_form_the_rotations_once(self, monkeypatch):
        # diagonal_split enters the eigenbasis through the decomposition's
        # kept rotations, like solve, so one decomposition forms them once
        from iontrap import engine

        made = []
        monkeypatch.setattr(engine, "_rotations",
                            lambda v: made.append(1) or _rotations(v))
        spec = decompose(balanced_reference(1.0))
        g = balanced_leading()
        split = diagonal_split(g, spec)
        solve(spec, InteractionSeries(terms=(g,)), 2)
        again = diagonal_split(g, spec)
        assert len(made) == 1
        for a, b in zip(split, again):
            assert np.array_equal(a.mat, b.mat)

    @staticmethod
    def mixed_within_clusters(spec):
        """spec with a random unitary inside every cluster: the same H0,
        a dense basis that takes the dense products."""
        rng = np.random.default_rng(9)
        v = spec.eigenbasis
        mixed = v.copy()
        for cluster in spec.clusters:
            k = len(cluster)
            q, _ = np.linalg.qr(rng.standard_normal((k, k))
                                + 1j * rng.standard_normal((k, k)))
            mixed[:, list(cluster)] = v[:, list(cluster)] @ q
        from iontrap import SpectralDecomposition
        return SpectralDecomposition(
            spec.space, spec.eigenvalues, mixed, clusters=spec.clusters)

    def test_rotated_basis_solves_like_the_permutation(self):
        spec = decompose(balanced_reference(1.0))
        # i^n times a 0/1 permutation: in the gauge, the index route
        gauge = _flat_gauge_phases(spec.space).conj()[:, None] * spec.eigenbasis
        assert np.array_equal(gauge, np.eye(spec.dim)[:, gauge.real.argmax(0)])
        series = InteractionSeries(terms=(balanced_leading(),))
        sol = solve(spec, series, 4)
        sol_mixed = solve(self.mixed_within_clusters(spec), series, 4)
        for n in range(4):
            for a, b in ((sol.C[n], sol_mixed.C[n]), (sol.Z[n], sol_mixed.Z[n])):
                assert op_norm(a - b) <= 1e-12 * max(1.0, op_norm(a))

    def test_phased_basis_solves_like_the_permutation(self):
        # eigenvectors times i: still a permutation up to phases, but a
        # complex one in the gauge, which the real terms must enter
        spec = decompose(balanced_reference(1.0))
        from iontrap import SpectralDecomposition
        phased = SpectralDecomposition(spec.space, spec.eigenvalues,
                                       1j * spec.eigenbasis,
                                       clusters=spec.clusters)
        series = InteractionSeries(terms=(balanced_leading(),))
        sol, sol_phased = solve(spec, series, 3), solve(phased, series, 3)
        for n in range(3):
            for a, b in ((sol.C[n], sol_phased.C[n]),
                         (sol.Z[n], sol_phased.Z[n])):
                assert op_norm(a - b) <= 1e-12 * max(1.0, op_norm(a))
        assert residual_norm(phased, series, sol_phased, 0.05) == (
            pytest.approx(residual_norm(spec, series, sol, 0.05), rel=1e-12))

    def test_rotated_basis_splits_like_the_permutation(self):
        spec = decompose(balanced_reference(1.0))
        spec_mixed = self.mixed_within_clusters(spec)
        assert np.count_nonzero(spec_mixed.eigenbasis) > spec.dim
        # the resonant pair coupling lies inside the clusters, the leading
        # interaction across them: both parts of the split are nonzero
        a = annihilation(SPACE)
        g = (a @ pauli("+", SPACE) + a.dag @ pauli("-", SPACE)
             + balanced_leading())
        block, off = diagonal_split(g, spec)
        block_mixed, off_mixed = diagonal_split(g, spec_mixed)
        assert op_norm(block) > 1.0 and op_norm(off) > 1.0
        for x, y in ((block, block_mixed), (off, off_mixed)):
            assert op_norm(x - y) <= 1e-12 * max(1.0, op_norm(x))


def _resonant_family(lam):
    return ModelParams.from_balanced(1.0, 1.0, 0.0, lam)


def _near_family(lam):
    # criterion 5's detuned family: delta_breve - nu counts as O(lam)
    return ModelParams.from_balanced(1.0, 1.0 + 0.5 * lam, 0.0, lam)


class TestHigherOrdersBehindTheGates:
    """The engine's constants account for what criteria 4 and 5 leave over."""

    LAMS = (0.005, 0.01, 0.02, 0.04)
    # dim 242: rungs up to its interior edge, n_max - interior_margin = 90
    HIGH = SpaceConfig(n_max=120, interior_margin=30)

    @staticmethod
    def levels(h, top=10):
        """E0, then (E_minus, E_plus) of rungs n <= top paired by overlap."""
        w, v = exact_eigs(h)
        pairs = [_rung_levels(n, w, v) for n in range(1, top + 1)]
        return np.array([w[0]] + [e for pair in pairs for e in pair])

    def level_errors(self, family, lam, space=SPACE, top=10):
        """Levels of H0 + C(lam) at orders 2 and 3: their distance to the
        formula at order 2, and the worst error against bh at orders 2, 3."""
        p = family(lam)
        h0, series = regime_series(p, Regime.of("near_resonant", p), space)
        sol = solve(decompose(h0), series, 3)
        exact = self.levels(bh(p, space), top)
        order2 = self.levels(h0 + sol.constant(lam, 2), top)
        order3 = self.levels(h0 + sol.constant(lam, 3), top)
        spec = spectrum_second_order(p, top)
        formula = np.array([spec.E0] + [e for _, lo, hi in spec.levels
                                        for e in (lo, hi)])
        return (np.max(np.abs(order2 - formula)),
                np.max(np.abs(order2 - exact)), np.max(np.abs(order3 - exact)))

    def check_level_remainder(self, family, space, top):
        errs = {lam: self.level_errors(family, lam, space, top)
                for lam in self.LAMS}
        assert max(e[0] for e in errs.values()) <= 1e-12
        fit = fit_order(lambda lam: errs[lam][2], self.LAMS)
        assert fit.slope >= 3.5 and fit.r_squared >= 0.95
        assert errs[0.02][2] * 20 <= errs[0.02][1]

    @pytest.mark.parametrize("family", [_resonant_family, _near_family],
                             ids=["resonant", "near"])
    def test_third_order_constant_accounts_for_level_remainder(self, family):
        self.check_level_remainder(family, SPACE, 10)

    @pytest.mark.parametrize("top", [30, 90])
    @pytest.mark.parametrize("family", [_resonant_family, _near_family],
                             ids=["resonant", "near"])
    def test_third_order_constant_at_the_high_rungs(self, family, top):
        # the formula's remainder grows like n^(3/2) lam^3 nu / 4; the
        # third-order constant still removes it, at the same order rules
        self.check_level_remainder(family, self.HIGH, top)

    def test_second_order_constant_accounts_for_secular_term(self):
        # U_2(t) = e^{-iW} e^{-i(H0 + C(lam))t} e^{iW} at nu t = 3, where the
        # first-order evolutor's error is led by the lam^2 secular phase
        t, grid = 3.0, (0.02, 0.04, 0.08, 0.16)

        def exact(lam):
            return exact_propagator_fn(bh(_resonant_family(lam), SPACE))(t)

        def err_second(lam):
            p = _resonant_family(lam)
            h0, series = regime_series(p, Regime.of("eta_much_less", p), SPACE)
            sol = solve(decompose(h0), series, 2)
            w = sol.generator(lam, 2)
            u = (expm(-1j * w) @ exact_propagator_fn(h0 + sol.constant(lam, 2))(t)
                 @ expm(1j * w))
            return interior_distance(u, exact(lam), SPACE.n_interior)

        def err_first(lam):
            return interior_distance(
                first_order_evolutor_fn(_resonant_family(lam), SPACE)(t),
                exact(lam), SPACE.n_interior)

        fit = fit_order(err_second, grid)
        assert fit.slope >= 2.7 and fit.r_squared >= 0.95
        assert fit.residuals[0] * 10 <= err_first(grid[0])

    @pytest.mark.parametrize("eta_breve", [0.0, 0.025])
    @pytest.mark.parametrize("detuning", [1.0, 1.03, 0.95])
    def test_first_order_closed_form_equals_solve(self, detuning,
                                                    eta_breve):
        # U_1(t) = e^{-i lam Z_1} e^{-i(H0 + lam C_1)t} e^{i lam Z_1} from
        # solve equals first_order_evolutor_fn, built from its printed Z1, C1
        lam = 0.05
        p = ModelParams.from_balanced(1.0, detuning, eta_breve, lam)
        h0, series = regime_series(p, Regime.of("near_resonant", p), SPACE)
        sol = solve(decompose(h0), series, 1)
        rot = expm(1j * sol.generator(lam, 1))
        dressed = exact_propagator_fn(h0 + sol.constant(lam, 1))
        printed = first_order_evolutor_fn(p, SPACE)
        for t in (0.0, 0.7, 3.0, -1.3):
            u1 = rot.dag @ dressed(t) @ rot
            assert op_norm(u1 - printed(t)) < 1e-12
