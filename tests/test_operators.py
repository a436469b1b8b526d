"""Operator algebra: frozen matrix elements, truncation and unitarity contracts."""

import numpy as np
import pytest
import scipy.linalg

from iontrap.operators import (
    SpaceConfig, BasisIndex, Operator, GROUND, EXCITED,
    annihilation, creation, number, pauli, identity, zero, displacement,
    expm, op_norm, commutator, adjoint, hermitize,
    interior_block, interior_project, interior_norm, interior_distance,
    from_fock_blocks, to_fock_blocks, fock_lowering, fock_number,
    fock_function, basis_vector,
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


def test_basis_index_flattening():
    assert BasisIndex(0, GROUND).flat == 0
    assert BasisIndex(0, EXCITED).flat == 1
    assert BasisIndex(3, GROUND).flat == 6
    for flat in range(SMALL.dim):
        assert BasisIndex.from_flat(flat).flat == flat
    assert BasisIndex(2, EXCITED).label() == "|2,e>"
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
    assert op_norm(expm(zero(SMALL)) - identity(SMALL)) == 0.0


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
    anti = m - m.conj().T        # eigh route
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


def test_op_norm_identity():
    assert op_norm(identity(SPACE)) == pytest.approx(1.0)


def test_adjoint_involution_exact():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(SMALL.dim, SMALL.dim)) + 1j * rng.normal(size=(SMALL.dim, SMALL.dim))
    a = Operator(m, SMALL)
    assert np.array_equal(adjoint(adjoint(a)).mat, a.mat)


def test_commutator_hermiticity():
    rng = np.random.default_rng(5)
    def rand_herm():
        m = rng.normal(size=(SPACE.dim, SPACE.dim)) + 1j * rng.normal(size=(SPACE.dim, SPACE.dim))
        return Operator(m + m.conj().T, SPACE)
    x, y = rand_herm(), rand_herm()
    c = 1j * commutator(x, y)
    assert op_norm(c - c.dag) <= 1e-12 * max(1.0, op_norm(c))


def test_interior_projector_rank():
    p = interior_project(identity(SPACE))
    assert np.linalg.matrix_rank(p.mat) == 2 * (SPACE.n_interior + 1)


def test_interior_project_space_mismatch():
    with pytest.raises(ValueError):
        interior_project(identity(SMALL), SPACE)


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
    for got, want in zip(to_fock_blocks(op), blocks):
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


def test_fock_function_diagonal():
    f = fock_function(SMALL, lambda n: np.cos(0.3 * np.sqrt(n + 1)))
    assert f[2, 2] == pytest.approx(np.cos(0.3 * np.sqrt(3)))
    assert np.count_nonzero(f - np.diag(np.diag(f))) == 0


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
                                  creation(sp) @ pauli("-", sp)))),
])
def test_truncation_consistency(make):
    # doubling n_max moves the original interior block by <= 1e-8
    small = make(SpaceConfig(40, 10))
    big = make(SpaceConfig(80, 50))
    delta = interior_block(small, 30) - interior_block(big, 30)
    assert op_norm(delta) <= 1e-8
