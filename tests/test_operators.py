"""Operator algebra: frozen matrix elements, truncation and unitarity contracts."""

import math

import numpy as np
import pytest
import scipy.linalg

from iontrap.operators import (
    ConfigError, SpaceConfig, BasisIndex, Operator, GROUND, EXCITED,
    annihilation, number, pauli, identity, displacement,
    expm, op_norm, commutator, hermitize,
    interior_block, interior_norm, interior_distance,
    from_fock_blocks, fock_lowering, fock_number,
    fock_displacement, basis_vector, _expm_matrix,
    _TAYLOR_THETA, _into_gauge, _out_of_gauge,
)

SPACE = SpaceConfig()          # n_max=40, margin=10
SMALL = SpaceConfig(4, 1)


def test_space_config_defaults():
    assert SPACE.n_max == 40
    assert SPACE.interior_margin == 10
    assert SPACE.dim == 82
    assert SPACE.n_interior == 30
    assert SPACE.interior_dim == 62


def test_space_config_rejects_bad_sizes():
    with pytest.raises(ValueError):
        SpaceConfig(3, 1)
    with pytest.raises(ValueError):
        SpaceConfig(40, 0)
    with pytest.raises(ValueError):
        SpaceConfig(5, 4)      # n_max - margin < 2


@pytest.mark.parametrize("n_max,margin,field", [
    (20.9, 5, "n_max"), (20, 5.7, "interior_margin"), (20.0, 5, "n_max"),
    (math.nan, 2, "n_max"), (math.inf, 2, "n_max"),
    (20, -math.inf, "interior_margin"),
    ("20", 5, "n_max"), (True, 1, "n_max"), (np.float64(20.0), 5, "n_max"),
], ids=["fraction", "fractional-margin", "integral-float", "nan", "inf",
        "minus-inf-margin", "string", "bool", "numpy-float"])
def test_space_config_takes_integers_only(n_max, margin, field):
    # never truncated to an integer, and never a bare ValueError or
    # OverflowError: the config error names the field and the value
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
        SpaceConfig(n_max, margin)


def test_space_config_takes_numpy_integers():
    space = SpaceConfig(np.int64(20), np.int32(5))
    assert space == SpaceConfig(20, 5)
    assert type(space.n_max) is int and type(space.interior_margin) is int


def test_basis_index_flattening():
    assert BasisIndex(0, GROUND).flat == 0
    assert BasisIndex(0, EXCITED).flat == 1
    assert BasisIndex(3, GROUND).flat == 6
    flats = [BasisIndex(fock, spin).flat
             for fock in range(SMALL.n_max + 1) for spin in (GROUND, EXCITED)]
    assert flats == list(range(SMALL.dim))
    with pytest.raises(ValueError):
        BasisIndex(1, 2)


def test_annihilation_matrix_elements():
    a = annihilation(SMALL).mat
    ket = lambda n, s: BasisIndex(n, s).flat
    assert a[ket(0, GROUND), ket(1, GROUND)] == pytest.approx(1.0)
    assert a[ket(1, GROUND), ket(2, GROUND)] == pytest.approx(np.sqrt(2))
    assert a[ket(1, EXCITED), ket(2, EXCITED)] == pytest.approx(np.sqrt(2))
    # spin factor untouched
    assert a[ket(0, GROUND), ket(1, EXCITED)] == 0.0


def test_annihilation_kills_vacuum():
    a = annihilation(SMALL)
    v = basis_vector(SMALL, 0, GROUND)
    assert np.all(a.mat @ v == 0.0)


def test_basis_vector_names_the_fock_range():
    for fock in (-1, SMALL.n_max + 1):
        with pytest.raises(ValueError, match=r"fock must be in 0\.\.4"):
            basis_vector(SMALL, fock, GROUND)


def test_ladder_commutator_is_identity_inside():
    a = annihilation(SPACE)
    c = commutator(a, a.dag)
    assert interior_distance(c, identity(SPACE)) <= 1e-12
    # the defect sits at the truncation edge only: a^dag out of level n_max
    # is cut, so [a, a^dag] there is -n_max instead of 1
    assert abs(c.mat[-1, -1] - (-SPACE.n_max)) <= 1e-12


def test_number_commutator_with_ladder():
    a = annihilation(SPACE)
    assert interior_distance(commutator(number(SPACE), a), -1.0 * a) <= 1e-12


def test_number_spectrum_doubled():
    vals = np.sort(np.real(np.diag(number(SMALL).mat)))
    assert np.allclose(vals, np.repeat(np.arange(5), 2))


def test_pauli_actions():
    sz = pauli("z", SMALL)
    g0 = basis_vector(SMALL, 0, GROUND)
    e0 = basis_vector(SMALL, 0, EXCITED)
    assert np.allclose(sz.mat @ g0, -g0)
    assert np.allclose(sz.mat @ e0, e0)
    sp, sm = pauli("+", SMALL), pauli("-", SMALL)
    assert np.allclose(sp.mat @ g0, e0)
    assert np.allclose(sm.mat @ e0, g0)
    assert op_norm(sp @ sm + sm @ sp - identity(SMALL)) <= 1e-15
    assert op_norm(pauli("x", SMALL) - (sp + sm)) == 0.0
    with pytest.raises(ValueError):
        pauli("w", SMALL)


def test_displacement_zero_is_identity():
    assert op_norm(displacement(0.0, SMALL) - identity(SMALL)) <= 1e-14


@pytest.mark.parametrize("alpha", [0.3, 0.2j, -0.1 + 0.25j])
def test_displacement_unitary(alpha):
    d = displacement(alpha, SPACE)
    assert op_norm(d @ d.dag - identity(SPACE)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.2j, -0.1 + 0.25j])
def test_displacement_shifts_ladder_inside(alpha):
    # D(alpha) a D(alpha)^dag = a - alpha, trusted only on the interior
    d = displacement(alpha, SPACE)
    a = annihilation(SPACE)
    lhs = d @ a @ d.dag
    rhs = a - alpha * identity(SPACE)
    assert interior_distance(lhs, rhs) <= 1e-8


def test_expm_zero():
    assert op_norm(expm(0 * identity(SMALL)) - identity(SMALL)) == 0.0


def test_expm_quarter_turn_block():
    # exp(i pi/2 n sigma_x) restricted to the n=1 pair is exactly i sigma_x
    gen = 1j * (np.pi / 2) * (number(SMALL) @ pauli("x", SMALL))
    u = expm(gen).mat
    blk = u[2:4, 2:4]
    assert np.allclose(blk, 1j * np.array([[0, 1], [1, 0]]), atol=1e-13)


def test_expm_group_inverse():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(SMALL.dim, SMALL.dim)) + 1j * rng.normal(size=(SMALL.dim, SMALL.dim))
    h = Operator(m + m.conj().T, SMALL)
    u = expm(-1j * h)
    assert op_norm(u @ expm(1j * h) - identity(SMALL)) <= 1e-10
    assert op_norm(u @ u.dag - identity(SMALL)) <= 1e-10


def test_expm_matches_scipy_on_generic_input():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(SMALL.dim, SMALL.dim)) + 1j * rng.normal(size=(SMALL.dim, SMALL.dim))
    anti = m - m.conj().T        # scaled and squared
    got = expm(Operator(anti, SMALL)).mat
    ref = scipy.linalg.expm(anti)
    assert op_norm(got - ref) <= 1e-12 * max(1.0, op_norm(ref))


def test_expm_rejects_hermitian_generator():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(SMALL.dim, SMALL.dim)) + 1j * rng.normal(size=(SMALL.dim, SMALL.dim))
    with pytest.raises(ValueError, match="anti-hermitian"):
        expm(Operator(m + m.conj().T, SMALL))
    with pytest.raises(ValueError, match="anti-hermitian"):
        expm(Operator(m, SMALL))


def test_expm_rejects_nonfinite():
    m = np.zeros((SMALL.dim, SMALL.dim))
    m[0, 0] = np.inf
    with pytest.raises(ValueError):
        Operator(m, SMALL)


def _anti_hermitian(dim, norm_1, seed):
    """Random anti-hermitian matrix scaled to the given 1-norm."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    anti = m - m.conj().T
    return anti * (norm_1 / np.abs(anti).sum(axis=0).max())


class TestExpmRoutes:
    # below theta the Taylor polynomial, above it that polynomial of
    # A/2^s squared s times; no size calls an eigensolver, "eigh" (past
    # 2 theta) included
    @pytest.mark.parametrize("dim", [82, 242])
    @pytest.mark.parametrize("norm_1", [
        0.9 * _TAYLOR_THETA, 0.5, 0.65, 2.1 * _TAYLOR_THETA],
        ids=["taylor", "squared-0.5", "squared-0.65", "eigh"])
    def test_matches_scipy_and_is_unitary(self, monkeypatch, dim, norm_1):
        anti = _anti_hermitian(dim, norm_1, seed=dim)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", None)  # any call would fail
            u = _expm_matrix(anti)
        assert np.abs(u - scipy.linalg.expm(anti)).max() <= 1e-13
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-14

    # expm's accuracy contract: every generator, real or complex, takes
    # Taylor and squarings, and keeps its dtype
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("norm_1,distance,defect", [
        (0.5, 1e-14, 1e-14), (20.0, 2e-13, 5e-13), (500.0, 2e-13, 1e-12),
        (5000.0, 5e-13, 2e-12)])
    def test_real_route_matches_scipy_and_is_orthogonal(
            self, monkeypatch, dtype, norm_1, distance, defect):
        rng = np.random.default_rng(242)
        m = rng.normal(size=(242, 242)).astype(dtype)
        if dtype is np.complex128:
            m += 1j * rng.normal(size=(242, 242))
        anti = m - m.conj().T
        anti *= norm_1 / np.abs(anti).sum(axis=0).max()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", None)  # any call would fail
            u = _expm_matrix(anti)
        assert u.dtype == dtype
        assert np.abs(u - scipy.linalg.expm(anti)).max() <= distance
        assert np.abs(u.conj().T @ u - np.eye(242)).max() <= defect

    def test_checks_run_before_the_route_is_chosen(self):
        small = 0.5 * _TAYLOR_THETA
        herm = 1j * _anti_hermitian(82, small, seed=3)
        with pytest.raises(ValueError, match="anti-hermitian"):
            _expm_matrix(herm)
        with pytest.raises(ValueError, match="anti-hermitian"):
            expm(Operator(herm, SpaceConfig(40, 10)))
        nonfinite = _anti_hermitian(82, small, seed=4)
        nonfinite[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _expm_matrix(nonfinite)


def test_op_norm_identity():
    assert op_norm(identity(SPACE)) == pytest.approx(1.0)


def _op_norm_case(kind, dtype):
    """A random matrix of the given kind, real or complex."""
    rng = np.random.default_rng(17)
    shape = {"square": (242, 242), "tall": (242, 60),
             "wide": (60, 242)}.get(kind, (82, 82))
    m = rng.normal(size=shape).astype(dtype)
    if dtype is np.complex128:
        m += 1j * rng.normal(size=shape)
    if kind == "hermitian":
        return m + m.conj().T
    if kind == "anti-hermitian":
        return m - m.conj().T
    return m * {"tiny": 1e-200, "huge": 1e200}.get(kind, 1.0)


class TestOpNormContract:
    # within 1e-14 relative of the SVD's spectral norm for every dtype,
    # shape and scale, in the error state the CLI runs in
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("kind", [
        "square", "tall", "wide", "hermitian", "anti-hermitian", "tiny",
        "huge"])
    def test_matches_the_svd(self, monkeypatch, kind, dtype):
        m = _op_norm_case(kind, dtype)
        want = np.linalg.norm(m, 2)
        grams = []

        def eigvalsh(a):
            grams.append(a)
            return eigvalsh_orig(a)

        eigvalsh_orig = np.linalg.eigvalsh
        with monkeypatch.context() as patch, \
                np.errstate(over="raise", invalid="raise"):
            patch.setattr(np.linalg, "eigvalsh", eigvalsh)
            got = op_norm(m)
        assert abs(got - want) <= 1e-14 * want
        # one eigenvalue solve on the smaller side; real input stays real
        (gram,) = grams
        assert gram.shape == (min(m.shape),) * 2
        assert gram.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_matrix(self, dtype):
        assert op_norm(np.zeros((6, 4), dtype=dtype)) == 0.0
        assert op_norm(0 * identity(SMALL)) == 0.0

    def test_norm_beyond_the_float_range_reads_inf(self):
        m = np.full((2, 2), 1e308)
        assert op_norm(m) == math.inf == np.linalg.norm(m, 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_rejects_nonfinite(self, bad, dtype):
        m = np.eye(6, dtype=dtype)
        m[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            op_norm(m)


def test_adjoint_involution_exact():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(SMALL.dim, SMALL.dim)) + 1j * rng.normal(size=(SMALL.dim, SMALL.dim))
    a = Operator(m, SMALL)
    assert np.array_equal(a.dag.dag.mat, a.mat)


def test_commutator_hermiticity():
    rng = np.random.default_rng(5)
    def rand_herm():
        m = rng.normal(size=(SPACE.dim, SPACE.dim)) + 1j * rng.normal(size=(SPACE.dim, SPACE.dim))
        return Operator(m + m.conj().T, SPACE)
    x, y = rand_herm(), rand_herm()
    c = 1j * commutator(x, y)
    assert op_norm(c - c.dag) <= 1e-12 * max(1.0, op_norm(c))


def test_space_mismatch_rejected():
    with pytest.raises(ValueError):
        annihilation(SMALL) + annihilation(SpaceConfig(5, 1))
    with pytest.raises(ValueError):
        annihilation(SMALL) @ identity(SpaceConfig(5, 1))


def test_operator_matrix_read_only():
    a = annihilation(SMALL)
    with pytest.raises(ValueError):
        a.mat[0, 0] = 1.0


def test_operator_shape_checked():
    with pytest.raises(ValueError):
        Operator(np.eye(3), SMALL)


def test_hermitize():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(SMALL.dim, SMALL.dim)) + 1j * rng.normal(size=(SMALL.dim, SMALL.dim))
    h = hermitize(Operator(m, SMALL))
    assert op_norm(h - h.dag) == 0.0


def test_fock_block_round_trip():
    rng = np.random.default_rng(17)
    nf = SMALL.n_max + 1
    blocks = [rng.normal(size=(nf, nf)) + 1j * rng.normal(size=(nf, nf)) for _ in range(4)]
    op = from_fock_blocks(SMALL, *blocks)
    m = op.mat
    slices = (m[1::2, 1::2], m[1::2, 0::2], m[0::2, 1::2], m[0::2, 0::2])
    for got, want in zip(slices, blocks):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        from_fock_blocks(SMALL, *([np.eye(2)] * 4))


def test_fock_block_placement():
    # eg block lands at <r,e| O |c,g>
    nf = SMALL.n_max + 1
    eg = np.zeros((nf, nf)); eg[1, 2] = 3.0
    op = from_fock_blocks(SMALL, np.zeros((nf, nf)), eg, np.zeros((nf, nf)), np.zeros((nf, nf)))
    r = BasisIndex(1, EXCITED).flat
    c = BasisIndex(2, GROUND).flat
    assert op.mat[r, c] == 3.0
    assert np.count_nonzero(op.mat) == 1


def test_fock_lowering_matches_full_space():
    full = annihilation(SMALL).mat
    assert np.array_equal(full[0::2, 0::2], fock_lowering(SMALL))
    assert np.array_equal(np.diag(fock_number(SMALL)), np.arange(5))


@pytest.mark.parametrize("make", [
    lambda sp: annihilation(sp),
    lambda sp: number(sp),
    lambda sp: displacement(0.3, sp),
    lambda sp: displacement(0.2j, sp),
    lambda sp: expm(-1j * (number(sp) + 0.5 * pauli("z", sp) +
                           0.1 * (annihilation(sp) @ pauli("+", sp) +
                                  annihilation(sp).dag @ pauli("-", sp)))),
])
def test_truncation_consistency(make):
    # doubling n_max moves the original interior block by <= 1e-8
    small = make(SpaceConfig(40, 10))
    big = make(SpaceConfig(80, 50))
    delta = interior_block(small, 30) - interior_block(big, 30)
    assert op_norm(delta) <= 1e-8


class TestFockPhaseGauge:
    def test_round_trip_is_exact_and_real(self):
        rng = np.random.default_rng(61)
        m = rng.normal(size=(242, 242))
        real = m + m.T
        space = SpaceConfig(120, 30)
        fock = _out_of_gauge(real, space).mat
        back = _into_gauge(fock, space)
        assert back.dtype == np.float64
        assert np.array_equal(back, real)

    @pytest.mark.parametrize("n_max", [40, 120])
    @pytest.mark.parametrize("alpha", [0.3, -0.1 + 0.25j, 0.05j, -0.07j, 0.5j])
    def test_displacement_matches_scipy(self, n_max, alpha):
        space = SpaceConfig(n_max, 10)
        a = fock_lowering(space)
        want = scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)
        assert np.abs(fock_displacement(alpha, space) - want).max() <= 1e-13

    def test_zero_displacement_is_the_identity(self):
        assert np.array_equal(fock_displacement(0j, SPACE),
                              np.eye(SPACE.n_max + 1))

    def test_displacement_factors_nothing_complex(self, monkeypatch):
        dtypes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return eigh(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", recording)
            for alpha in (0.3, -0.1 + 0.25j, 0.2j):
                fock_displacement(alpha, SpaceConfig(57, 10))
        assert all(dtype == np.float64 for dtype in dtypes)
