"""Truncated Fock (x) spin operator algebra.

Every object in the package lives on C^(n_max+1) (x) C^2, the Fock ladder of a
single trap mode tensored with a two-level internal state.  The basis is
flattened as

    flat = 2*fock + spin,      spin 0 = |g>, spin 1 = |e>,

so matrices are reproducible byte-for-byte across runs given the same n_max.
Operators are dense complex matrices wrapped together with their SpaceConfig;
mixing spaces fails loudly instead of broadcasting.

Truncation policy: identities of the infinite-dimensional algebra (ladder
commutators, displacement covariance, frame conjugations) hold only on the
"interior" Fock levels, safely below the truncation edge.  All quantitative
comparisons elsewhere in the package go through interior_* helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpaceConfig:
    """Size of the truncated space and of the trusted interior block.

    n_max is the highest retained Fock level (Hilbert dimension 2*(n_max+1));
    Fock levels above n_max - interior_margin are excluded from comparisons.
    """

    n_max: int = 40
    interior_margin: int = 10

    def __post_init__(self):
        object.__setattr__(self, "n_max", int(self.n_max))
        object.__setattr__(self, "interior_margin", int(self.interior_margin))
        if self.n_max < 4:
            raise ValueError(f"n_max must be >= 4, got {self.n_max}")
        if self.interior_margin < 1:
            raise ValueError(
                f"interior_margin must be >= 1, got {self.interior_margin}")
        if self.n_max - self.interior_margin < 2:
            raise ValueError(
                "need n_max - interior_margin >= 2, got "
                f"{self.n_max} - {self.interior_margin}")

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)

    @property
    def n_interior(self) -> int:
        """Highest Fock level inside the trusted interior block."""
        return self.n_max - self.interior_margin

    @property
    def interior_dim(self) -> int:
        return 2 * (self.n_interior + 1)


GROUND = 0
EXCITED = 1


@dataclass(frozen=True)
class BasisIndex:
    """Position of |fock, spin> in the flattened basis."""

    fock: int
    spin: int

    def __post_init__(self):
        if self.fock < 0:
            raise ValueError(f"fock must be >= 0, got {self.fock}")
        if self.spin not in (GROUND, EXCITED):
            raise ValueError(f"spin must be 0 (g) or 1 (e), got {self.spin}")

    @property
    def flat(self) -> int:
        return 2 * self.fock + self.spin

    @classmethod
    def from_flat(cls, flat: int) -> "BasisIndex":
        return cls(flat // 2, flat % 2)

    def label(self) -> str:
        return f"|{self.fock},{'ge'[self.spin]}>"


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix tied to its SpaceConfig.

    The wrapped array is a private read-only copy.  Supports +, -, scalar *,
    /, @ between same-space operators, and .dag for the adjoint.
    """

    mat: np.ndarray
    space: SpaceConfig

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128, copy=True)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match space dim {self.space.dim}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T, self.space)

    def _same_space(self, other: "Operator") -> None:
        if self.space != other.space:
            raise ValueError("operators live on different spaces")

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._same_space(other)
        return Operator(self.mat + other.mat, self.space)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._same_space(other)
        return Operator(self.mat - other.mat, self.space)

    def __neg__(self):
        return Operator(-self.mat, self.space)

    def __mul__(self, scalar):
        if isinstance(scalar, Operator):
            raise TypeError("use @ for operator products, * is scalar only")
        return Operator(self.mat * complex(scalar), self.space)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Operator(self.mat / complex(scalar), self.space)

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._same_space(other)
        return Operator(self.mat @ other.mat, self.space)

    def __repr__(self):
        return f"Operator(dim={self.dim}, n_max={self.space.n_max})"


# -- single-factor building blocks -------------------------------------------

_SPIN = {
    "z": np.diag([-1.0 + 0j, 1.0 + 0j]),
    "+": np.array([[0, 0], [1, 0]], dtype=np.complex128),
    "-": np.array([[0, 1], [0, 0]], dtype=np.complex128),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),
}


def fock_lowering(space: SpaceConfig) -> np.ndarray:
    """Fock-factor matrix of a: <n-1|a|n> = sqrt(n), top row truncated."""
    nf = space.n_max + 1
    m = np.zeros((nf, nf), dtype=np.complex128)
    ns = np.arange(1, nf)
    m[ns - 1, ns] = np.sqrt(ns)
    return m


def fock_number(space: SpaceConfig) -> np.ndarray:
    return np.diag(np.arange(space.n_max + 1, dtype=np.complex128))


def fock_function(space: SpaceConfig, f) -> np.ndarray:
    """diag(f(0), f(1), ..., f(n_max)): a function of the number operator.

    f is applied to the integer Fock levels as a numpy vectorized call.
    """
    vals = np.asarray(f(np.arange(space.n_max + 1)), dtype=np.complex128)
    return np.diag(vals)


def fock_displacement(alpha: complex, space: SpaceConfig) -> np.ndarray:
    """Fock-factor matrix of D(alpha), exponentiated after truncation."""
    a = fock_lowering(space)
    return _expm_matrix(complex(alpha) * a.conj().T - np.conj(complex(alpha)) * a)


def fock_parity(space: SpaceConfig) -> np.ndarray:
    """diag((-1)^n): the exponential of (i pi n) on the Fock factor."""
    return np.diag((-1.0 + 0j) ** np.arange(space.n_max + 1))


def basis_vector(space: SpaceConfig, fock: int, spin: int) -> np.ndarray:
    v = np.zeros(space.dim, dtype=np.complex128)
    v[BasisIndex(fock, spin).flat] = 1.0
    return v


# -- full-space operator constructors ----------------------------------------

def annihilation(space: SpaceConfig) -> Operator:
    """a on the Fock factor, identity on spin."""
    return Operator(np.kron(fock_lowering(space), np.eye(2)), space)


def creation(space: SpaceConfig) -> Operator:
    return annihilation(space).dag


def number(space: SpaceConfig) -> Operator:
    return Operator(np.kron(fock_number(space), np.eye(2)), space)


def pauli(which: str, space: SpaceConfig) -> Operator:
    """Spin operator (identity on Fock): which in {"z", "+", "-", "x", "y"}.

    sigma_z|g> = -|g>, sigma_z|e> = +|e>; sigma_+ = |e><g|.
    """
    try:
        s = _SPIN[which]
    except KeyError:
        raise ValueError(
            f"unknown Pauli label {which!r}; valid: z, +, -, x, y") from None
    return Operator(np.kron(np.eye(space.n_max + 1), s), space)


def identity(space: SpaceConfig) -> Operator:
    return Operator(np.eye(space.dim), space)


def zero(space: SpaceConfig) -> Operator:
    return Operator(np.zeros((space.dim, space.dim)), space)


def displacement(alpha: complex, space: SpaceConfig) -> Operator:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated space.

    The truncated generator is exponentiated directly, so the result is
    exactly unitary; the price is edge distortion, which is why displacement
    identities are only claimed on the interior block.
    """
    return Operator(np.kron(fock_displacement(alpha, space), np.eye(2)), space)


# -- numerical primitives -----------------------------------------------------

def _expm_matrix(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("expm input must be finite")
    scale = max(1.0, np.linalg.norm(m, "fro"))
    if np.linalg.norm(m + m.conj().T, "fro") > 1e-13 * scale:
        raise ValueError("expm takes anti-hermitian generators only")
    w, v = np.linalg.eigh(1j * m)
    return (v * np.exp(-1j * w)) @ v.conj().T


def expm(a: Operator) -> Operator:
    """Unitary exp(A) of an anti-hermitian generator A.

    A^dag = -A must hold to 1e-13 relative (Frobenius norm); any other
    input raises ValueError.  The exponential goes through the
    eigendecomposition of the hermitian iA, so the result is unitary up to
    rounding and accurate to 1e-12 relative for ||A|| <= 1e3.
    """
    return Operator(_expm_matrix(a.mat), a.space)


def op_norm(a) -> float:
    """Spectral norm (largest singular value)."""
    m = a.mat if isinstance(a, Operator) else np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def commutator(a: Operator, b: Operator) -> Operator:
    a._same_space(b)
    return Operator(a.mat @ b.mat - b.mat @ a.mat, a.space)


def adjoint(a: Operator) -> Operator:
    return a.dag


def hermitize(a: Operator) -> Operator:
    return Operator(0.5 * (a.mat + a.mat.conj().T), a.space)


# -- interior-block helpers ---------------------------------------------------
# The flattened ordering makes the interior a contiguous leading block.

def interior_block(a: Operator, n_keep: int | None = None) -> np.ndarray:
    """Copy of the block with both Fock indices <= n_keep (default interior)."""
    n = a.space.n_interior if n_keep is None else int(n_keep)
    if not 0 <= n <= a.space.n_max:
        raise ValueError(f"n_keep must be in [0, {a.space.n_max}], got {n}")
    k = 2 * (n + 1)
    return a.mat[:k, :k].copy()


def interior_project(a: Operator, space: SpaceConfig | None = None) -> Operator:
    """P A P with P the projector onto Fock levels <= n_max - interior_margin."""
    if space is not None and space != a.space:
        raise ValueError("operator does not live on the given space")
    k = a.space.interior_dim
    m = np.zeros_like(a.mat)
    m[:k, :k] = a.mat[:k, :k]
    return Operator(m, a.space)


def interior_norm(a: Operator, n_keep: int | None = None) -> float:
    return op_norm(interior_block(a, n_keep))


def interior_distance(a: Operator, b: Operator, n_keep: int | None = None) -> float:
    a._same_space(b)
    return op_norm(interior_block(a, n_keep) - interior_block(b, n_keep))


# -- 2x2 block assembly --------------------------------------------------------

def from_fock_blocks(space: SpaceConfig, ee, eg, ge, gg) -> Operator:
    """Assemble [[ee, eg], [ge, gg]] acting as (excited, ground) 2-blocks.

    Each argument is an (n_max+1) x (n_max+1) Fock-factor matrix; entry
    eg[r, c] becomes <r, e| O |c, g>.  This is the layout in which all the
    closed-form evolutors are stated.
    """
    nf = space.n_max + 1
    full = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for rows, cols, blk in ((1, 1, ee), (1, 0, eg), (0, 1, ge), (0, 0, gg)):
        b = np.asarray(blk, dtype=np.complex128)
        if b.shape != (nf, nf):
            raise ValueError(
                f"fock block must have shape {(nf, nf)}, got {b.shape}")
        full[rows::2, cols::2] = b
    return Operator(full, space)


def to_fock_blocks(a: Operator) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of from_fock_blocks: returns (ee, eg, ge, gg) copies."""
    m = a.mat
    return (m[1::2, 1::2].copy(), m[1::2, 0::2].copy(),
            m[0::2, 1::2].copy(), m[0::2, 0::2].copy())
