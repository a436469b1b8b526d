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

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """An input outside the contracts: a space, parameter set or option
    the model does not define.  The batch runner reports it as exit 2."""


@dataclass(frozen=True)
class SpaceConfig:
    """Size of the truncated space and of the trusted interior block.

    n_max is the highest retained Fock level (Hilbert dimension 2*(n_max+1));
    Fock levels above n_max - interior_margin are excluded from comparisons
    and, by ``_require_interior_level``, from what a caller may request.
    Both are integers, numpy integers included; anything else, a float or
    a bool among them, is a ConfigError naming the field and the value.
    """

    n_max: int = 40
    interior_margin: int = 10

    def __post_init__(self):
        for name in ("n_max", "interior_margin"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_max < 4:
            raise ConfigError(f"n_max must be >= 4, got {self.n_max}")
        if self.interior_margin < 1:
            raise ConfigError(
                f"interior_margin must be >= 1, got {self.interior_margin}")
        if self.n_max - self.interior_margin < 2:
            raise ConfigError(
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


def _require_interior_level(level: int, lowest: int, space: SpaceConfig,
                            what: str) -> None:
    """ConfigError naming what unless lowest <= level <= space.n_interior:
    above the interior the truncation edge moves a requested level."""
    if not lowest <= level <= space.n_interior:
        raise ConfigError(
            f"{what} must be in {lowest}..{space.n_interior} (n_max - "
            f"interior_margin), got {level}")


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


def fock_displacement(alpha: complex, space: SpaceConfig) -> np.ndarray:
    """Fock-factor matrix of D(alpha) = exp(alpha a^dag - conj(alpha) a).

    The truncated generator is exponentiated through the one real
    decomposition a + a^dag = V diag(x) V^T (``_gauge_displacement``).
    With phi = arg(alpha), D(alpha) = P G(|alpha|) P^dag, where
    P = diag(e^{i phi n}) and G(y) = exp(-y (a - a^dag)) is real
    orthogonal.  For alpha = iy, the only displacements the package
    builds, P is the Fock phase gauge diag(i^n), applied exactly, and y
    keeps its sign.  Against scipy's expm of the truncated generator the
    result agrees to 1e-13 at n_max 40 and 120.
    """
    alpha = complex(alpha)
    if alpha.real == 0.0:
        y, phases = alpha.imag, _gauge_phases(space.n_max + 1)
    else:
        y = abs(alpha)
        phases = np.exp(1j * cmath.phase(alpha) * np.arange(space.n_max + 1))
    return phases[:, None] * _gauge_displacement(y, space.n_max) * phases.conj()


def fock_parity(space: SpaceConfig) -> np.ndarray:
    """diag((-1)^n): the exponential of (i pi n) on the Fock factor."""
    return np.diag((-1.0 + 0j) ** np.arange(space.n_max + 1))


# -- the Fock phase gauge ------------------------------------------------------
# U = diag(i^n) (x) 1 maps a + a^dag to U^dag (a + a^dag) U = i (a - a^dag),
# so every displacement D(iy) = exp(iy (a + a^dag)) becomes the real
# orthogonal exp(-y (a - a^dag)).  The time-independent Hamiltonians of the
# frame chain are real symmetric in this gauge.  Its phases are 1, i, -1, -i,
# so going into it and out of it is an exact elementwise scaling.

_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])
# sign of G(y) = U^dag D(iy) U per (column - row) mod 4 of the Fock indices:
# the even offsets take cos(y x), the odd ones sin(y x)
_OFFSET_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _gauge_phases(n_fock: int) -> np.ndarray:
    """i^n for n = 0..n_fock-1, read off exactly from (1, i, -1, -i)."""
    return _QUARTER_TURNS[np.arange(n_fock) % 4]


def _flat_gauge_phases(space: SpaceConfig) -> np.ndarray:
    """The diagonal of U on the flattened basis: i^fock, repeated over spin."""
    return np.repeat(_gauge_phases(space.n_max + 1), 2)


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """A copy of a as float64 exactly when its imaginary part is all zero,
    a itself otherwise.  The package's one realness test, exact, with no
    tolerance."""
    return a if a.imag.any() else a.real.copy()


def _into_gauge(m: np.ndarray, space: SpaceConfig) -> np.ndarray:
    """U^dag M U, in the dtype ``_real_if_exact`` gives it: float64 when
    its imaginary part is all zero, complex128 otherwise."""
    u = _flat_gauge_phases(space)
    out = u.conj()[:, None] * m
    out *= u
    return _real_if_exact(out)


def _out_of_gauge(g: np.ndarray, space: SpaceConfig) -> Operator:
    """The Operator U G U^dag: a gauge array back in the Fock x spin basis."""
    u = _flat_gauge_phases(space)
    out = u[:, None] * g
    out *= u.conj()
    return Operator(out, space)


@functools.lru_cache(maxsize=8)
def _position_eigen(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, V) with a + a^dag = V diag(x) V^T on Fock levels 0..n_max.

    The truncated a + a^dag is real tridiagonal; its eigenvalues x are the
    Gauss-Hermite nodes times sqrt(2) (Golub & Welsch, Math. Comp. 23, 221
    (1969)).  Kept per n_max, read-only: the decomposition is most of the
    cost of a displacement, and a balanced Hamiltonian needs three.
    """
    nf = n_max + 1
    off = np.sqrt(np.arange(1.0, nf))
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    x.flags.writeable = False
    v.flags.writeable = False
    return x, v


def _gauge_displacement(y: float, n_max: int) -> np.ndarray:
    """G(y) = U^dag D(iy) U = exp(-y (a - a^dag)) on the Fock factor, real.

    D(iy) = V diag(e^{iyx}) V^T = C + iS with C = V cos(yx) V^T and
    S = V sin(yx) V^T.  C moves the Fock number by even steps and S by
    odd ones, so G takes C on the even offsets m - n and S on the odd
    ones, signed by the phase pattern i^(n-m); rounding-level entries of
    C and S on the other offsets are never read.  C is formed as
    1 - 2 V sin^2(yx/2) V^T, so y = 0 gives the identity exactly.
    """
    x, v = _position_eigen(n_max)
    nf = n_max + 1
    even = (v * (-2.0 * np.sin(0.5 * y * x) ** 2)) @ v.T
    even.flat[::nf + 1] += 1.0
    odd = (v * np.sin(y * x)) @ v.T
    offset = (np.arange(nf)[None, :] - np.arange(nf)[:, None]) % 4
    return np.where(offset % 2 == 0, even, odd) * _OFFSET_SIGNS[offset]


def basis_vector(space: SpaceConfig, fock: int, spin: int) -> np.ndarray:
    if not 0 <= fock <= space.n_max:
        raise ValueError(f"fock must be in 0..{space.n_max}, got {fock}")
    v = np.zeros(space.dim, dtype=np.complex128)
    v[BasisIndex(fock, spin).flat] = 1.0
    return v


# -- full-space operator constructors ----------------------------------------

def annihilation(space: SpaceConfig) -> Operator:
    """a on the Fock factor, identity on spin."""
    return Operator(np.kron(fock_lowering(space), np.eye(2)), space)


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


def displacement(alpha: complex, space: SpaceConfig) -> Operator:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated space.

    The truncated generator is exponentiated as it stands
    (``fock_displacement``, no ``expm``), so the result is unitary to
    rounding; the price is edge distortion, which is why displacement
    identities are only claimed on the interior block.
    """
    return Operator(np.kron(fock_displacement(alpha, space), np.eye(2)), space)


# -- numerical primitives -----------------------------------------------------

# Generators with ||A||_1 <= _TAYLOR_THETA take the degree-12 Taylor
# polynomial, larger ones that of A/2^s squared s times (see ``expm``).
# A is anti-hermitian, so ||A||_inf = ||A||_1 and
# ||A||_2 <= sqrt(||A||_1 ||A||_inf) = ||A||_1; the dropped tail
# sum_{k>=13} A^k/k! is then at most theta^13/13! / (1 - theta/14)
# ~ 9e-17 < 2^-53, so the polynomial is exact to rounding.
_TAYLOR_THETA = 0.33
_TAYLOR_COEF = [1.0 / math.factorial(k) for k in range(13)]
# rows: the A, A^2, A^3, A^4 coefficients of the Paterson-Stockmeyer
# blocks B0, B1, B2; their identity terms go on the diagonal separately
_TAYLOR_BLOCKS = np.array([_TAYLOR_COEF[1:4] + [0.0],
                           _TAYLOR_COEF[5:8] + [0.0],
                           _TAYLOR_COEF[9:13]])


def _taylor12(a: np.ndarray) -> np.ndarray:
    """sum_{k<=12} A^k/k! in five products (Paterson-Stockmeyer).

    With B_j = sum_{i<4} A^i/(4j+i)! (and A^4/12! added to B2) the
    polynomial is B0 + A^4 (B1 + A^4 B2): A^2, A^3, A^4 and two Horner
    steps.  The blocks come from one real linear combination of the
    stored powers, with the identity terms added on their diagonals; the
    first Horner step writes into the buffer A no longer needs.  A may be
    real or complex; the result has its dtype.
    """
    n = a.shape[0]
    # powers and blocks in one allocation: as two, a Magnus sweep at dim 82
    # had glibc return and re-fault their pages at every step (145 minor
    # page faults per step against 1)
    work = np.empty((7, n, n), dtype=a.dtype)
    powers, blocks = work[:4], work[4:]
    powers[0] = a
    a1, a2, a3, a4 = powers
    np.matmul(a1, a1, out=a2)
    np.matmul(a1, a2, out=a3)
    np.matmul(a2, a2, out=a4)
    np.matmul(_TAYLOR_BLOCKS, powers.view(np.float64).reshape(4, -1),
              out=blocks.view(np.float64).reshape(3, -1))
    for j in range(3):
        blocks[j].flat[::n + 1] += _TAYLOR_COEF[4 * j]
    horner = np.matmul(a4, blocks[2], out=a1)
    horner += blocks[1]
    out = a4 @ horner
    out += blocks[0]
    return out


def _expm_matrix(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("expm input must be finite")
    # an overflowing norm raises FloatingPointError, an ArithmeticError
    with np.errstate(over="raise"):
        scale = max(1.0, np.linalg.norm(m, "fro"))
        defect = np.linalg.norm(m + m.conj().T, "fro")
    if defect > 1e-13 * scale:
        raise ValueError("expm takes anti-hermitian generators only")
    # the smallest s >= 0 with ||A/2^s||_1 <= theta; scaling by 2^-s is
    # exact, and each squaring is one product
    norm_1, squarings = np.abs(m).sum(axis=0).max(), 0
    while norm_1 > _TAYLOR_THETA * 2.0 ** squarings:
        squarings += 1
    out = _taylor12(m / 2.0 ** squarings if squarings else m)
    for _ in range(squarings):
        out = out @ out
    return out


def expm(a: Operator) -> Operator:
    """Unitary exp(A) of an anti-hermitian generator A.

    A^dag = -A must hold to 1e-13 relative (Frobenius norm), and A must be
    finite; any other input raises ValueError.  Every generator, real or
    complex, takes one algorithm: the degree-12 Taylor polynomial of
    A/2^s in five products, squared s times (Higham, SIAM J. Matrix Anal.
    Appl. 26, 1179 (2005)), with the smallest s >= 0 that brings
    ||A/2^s||_1 to 0.33 or below, where the polynomial's dropped tail is
    under 2^-53.  So ||A||_1 <= 0.33 costs five products, and each
    doubling past it one more.  No eigensolver runs, and the result keeps
    A's dtype; it is unitary to rounding, not by construction.

    Measured on random generators at dims 82 and 242, three seeds each,
    as the largest entry of |U - scipy's expm| / of |U^dag U - 1|:

        ||A||_1   real                 complex
        0.5       1.3e-15 / 2.9e-15    1.1e-15 / 2.2e-15
        20        2.5e-14 / 5.8e-14    2.0e-14 / 4.2e-14
        500       3.2e-14 / 1.6e-13    1.9e-14 / 8.2e-14
        5000      1.4e-13 / 6.9e-13    1.1e-13 / 8.1e-13

    The contract, held by ``tests/test_operators.py`` for both dtypes:
    through ||A||_1 = 5000, U is within 5e-13 of exp(A) and U^dag U
    within 2e-12 of 1, entrywise.  Larger generators are outside it.
    """
    return Operator(_expm_matrix(a.mat), a.space)


def op_norm(a) -> float:
    """Spectral norm ||M||_2 (largest singular value) of an Operator or a
    2-D array.

    M must be finite; a nan or inf entry raises ValueError.  One
    algorithm, no SVD: M is first scaled by the power of two 2^-e that
    brings its largest real or imaginary part into [0.5, 1), exactly but
    for entries so far below that part that they underflow, so no square
    can overflow and none that counts underflows.  Then ||M||_2 is 2^e
    times the square root of the top ``np.linalg.eigvalsh`` eigenvalue
    of the Gram matrix of its smaller side, M^dag M or M M^dag.  That
    eigenvalue is relatively well conditioned, and real input stays
    real.  An empty or zero matrix has norm 0, and a norm beyond the
    float range reads inf.

    Measured against the largest singular value of an SVD on normal
    random matrices, three seeds each, as the largest relative
    difference:

        M                               real       complex
        242 x 242                       1.9e-15    1.3e-15
        hermitian, 242                  1.5e-15    1.2e-15
        anti-hermitian, 242             6.7e-16    1.4e-15
        242 x 60 and 182 x 242          1.9e-15    1.6e-15
        242 x 242 times 1e-200, 1e200   2.0e-15    6.2e-16

    The contract, held by ``tests/test_operators.py`` for both dtypes:
    within 1e-14 relative of the SVD's norm, also inside
    np.errstate(over="raise", invalid="raise").
    """
    m = a.mat if isinstance(a, Operator) else np.asarray(a)
    if m.size == 0:
        return 0.0
    if not np.all(np.isfinite(m)):
        raise ValueError("op_norm input must be finite")
    x = np.array(m, dtype=np.result_type(m, np.float64), order="C")
    parts = x.view(np.float64)
    peak = float(np.abs(parts).max())
    if peak == 0.0:
        return 0.0
    shift = math.frexp(peak)[1]
    np.ldexp(parts, -shift, out=parts)
    xh = x.conj().T
    gram = xh @ x if x.shape[0] >= x.shape[1] else x @ xh
    top = float(np.linalg.eigvalsh(gram)[-1])
    try:
        return math.ldexp(math.sqrt(max(top, 0.0)), shift)
    except OverflowError:
        return math.inf


# A bound decides a norm test only when it clears the limit by this
# relative margin, far above the rounding of either norm; a closer case
# takes the exact spectral norms, so every decision is theirs.
_BOUND_MARGIN = 1e-9


def _below_limit(value: float, limit: float) -> bool:
    """value <= limit with the margin; an infinite limit decides nothing."""
    return math.isfinite(limit) and value <= limit * (1.0 - _BOUND_MARGIN)


def _hermiticity_defect(a: np.ndarray, rel_tol: float) -> float | None:
    """||A - A^dag||_2 if it exceeds rel_tol * max(1, ||A||_2), else None.

    Certified bounds decide first: the Frobenius norm of A - A^dag is at
    least its spectral norm, and the largest column norm of A at most
    ||A||_2.  Only when they cannot decide are the spectral norms taken,
    by two ``op_norm`` calls, so the outcome is always that of the exact
    test.  A bound that overflows decides nothing.
    """
    diff = a - a.conj().T
    try:
        with np.errstate(over="raise"):
            defect_hi = float(np.linalg.norm(diff))
            scale_lo = max(1.0, float(np.linalg.norm(a, axis=0).max()))
    except FloatingPointError:
        defect_hi, scale_lo = math.inf, math.inf
    if _below_limit(defect_hi, rel_tol * scale_lo):
        return None
    defect = op_norm(diff)
    return defect if defect > rel_tol * max(1.0, op_norm(a)) else None


def commutator(a: Operator, b: Operator) -> Operator:
    a._same_space(b)
    return Operator(a.mat @ b.mat - b.mat @ a.mat, a.space)


def hermitize(a: Operator) -> Operator:
    return Operator(0.5 * (a.mat + a.mat.conj().T), a.space)


# -- interior-block helpers ---------------------------------------------------
# The flattened ordering makes the interior a contiguous leading block.

def _interior_size(space: SpaceConfig, n_keep: int | None = None) -> int:
    """Side of the leading block with both Fock indices <= n_keep
    (default: the interior)."""
    n = space.n_interior if n_keep is None else int(n_keep)
    if not 0 <= n <= space.n_max:
        raise ValueError(f"n_keep must be in [0, {space.n_max}], got {n}")
    return 2 * (n + 1)


def interior_block(a: Operator, n_keep: int | None = None) -> np.ndarray:
    """Copy of the block with both Fock indices <= n_keep (default interior)."""
    k = _interior_size(a.space, n_keep)
    return a.mat[:k, :k].copy()


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
    return Operator(_block_matrix(space, ee, eg, ge, gg), space)


def _block_matrix(space: SpaceConfig, ee, eg, ge, gg) -> np.ndarray:
    """The array of ``from_fock_blocks``, in the blocks' common dtype."""
    nf = space.n_max + 1
    blocks = [np.asarray(b) for b in (ee, eg, ge, gg)]
    full = np.zeros((space.dim, space.dim), dtype=np.result_type(*blocks))
    for (rows, cols), b in zip(((1, 1), (1, 0), (0, 1), (0, 0)), blocks):
        if b.shape != (nf, nf):
            raise ValueError(
                f"fock block must have shape {(nf, nf)}, got {b.shape}")
        full[rows::2, cols::2] = b
    return full
