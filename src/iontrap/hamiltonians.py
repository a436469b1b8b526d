"""Hamiltonians and unitary frames of a laser-driven trapped ion.

Four pictures of the same physics, connected by exact unitaries:

* ``ith``      -- lab frame, time dependent: trap + internal splitting +
  traveling-wave laser coupling through a displacement operator.
* ``rfh``      -- rotating frame at the laser frequency: time independent.
* ``bh``       -- balanced frame: conjugating by ``t_delta`` trades the Rabi
  frequency for the coupling lam = eta*Omega_R/delta_breve, which stays
  bounded however intense the laser, so perturbation theory in lam survives
  the strong-field regime.
* ``h_check``  -- spin-decoupled frame: a further conjugation by
  ``check_transform`` turns the leading interaction into a pure displacement
  force, making the ground/excited sectors invariant at leading order.

The balanced-frame interaction is an operator series in powers of eta_breve;
``bh_series_order`` picks the truncation from its factorial tail bound.
Everything here is a pure function of (params, space).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    SpaceConfig, Operator,
    annihilation, number, pauli, identity, displacement,
    expm, hermitize, from_fock_blocks,
    fock_displacement, fock_parity,
)


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs: trap frequency, internal transition, laser drive.

    All derived quantities of the balanced frame hang off this as properties:

    * delta       = omega_ge - omega_L        (ion-laser detuning)
    * Delta       = delta / Omega_R           (dimensionless detuning)
    * delta_breve = sqrt(4 Omega_R^2 + delta^2)   (balanced detuning, > 0)
    * eta_breve   = eta * delta / delta_breve     (balanced Lamb-Dicke factor)
    * lam         = eta * Omega_R / delta_breve   (balanced coupling)
    * theta       = arctan(Delta / 2)             (spin rotation angle)

    lam and eta_breve are written in their Rabi-frequency-safe form, eta
    times a ratio to delta_breve that rounds to at most 1/2 or 1, so the
    bounds |lam| <= |eta|/2 and |eta_breve| <= |eta| hold exactly in
    floating point for every Omega_R.
    """

    nu: float
    omega_ge: float
    omega_L: float
    Omega_R: float
    eta: float

    def __post_init__(self):
        for name in ("nu", "omega_ge", "omega_L", "Omega_R", "eta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(math.isfinite(getattr(self, n))
                   for n in ("nu", "omega_ge", "omega_L", "Omega_R", "eta")):
            raise ValueError("parameters must be finite")
        if self.nu <= 0:
            raise ValueError(f"trap frequency nu must be > 0, got {self.nu}")
        if self.Omega_R < 0:
            raise ValueError(f"Omega_R must be >= 0, got {self.Omega_R}")

    @property
    def delta(self) -> float:
        return self.omega_ge - self.omega_L

    @property
    def Delta(self) -> float:
        if self.Omega_R == 0:
            raise ValueError("Delta = delta/Omega_R undefined at Omega_R = 0")
        return self.delta / self.Omega_R

    @property
    def delta_breve(self) -> float:
        return math.hypot(2.0 * self.Omega_R, self.delta)

    @property
    def eta_breve(self) -> float:
        db = self.delta_breve
        if db == 0:
            raise ValueError("eta_breve undefined at Omega_R = delta = 0")
        return self.eta * (self.delta / db)

    @property
    def lam(self) -> float:
        db = self.delta_breve
        if db == 0:
            raise ValueError("lam undefined at Omega_R = delta = 0")
        return self.eta * (self.Omega_R / db)

    @property
    def theta(self) -> float:
        return math.atan(self.Delta / 2.0)

    @classmethod
    def from_balanced(cls, nu: float, delta_breve: float, eta_breve: float,
                      lam: float, omega_L: float = 0.0) -> "ModelParams":
        """Invert the balanced-frame parametrization.

        Given (nu, delta_breve, eta_breve, lam) with delta_breve > 0, recover
        the physical inputs.  eta_breve = 0 forces zero detuning; otherwise
        lam must be nonzero so the ratio Delta = eta_breve/lam is defined.
        """
        delta_breve = float(delta_breve)
        eta_breve = float(eta_breve)
        lam = float(lam)
        if delta_breve <= 0:
            raise ValueError("delta_breve must be > 0")
        if eta_breve == 0.0:
            p = cls(nu=nu, omega_ge=omega_L, omega_L=omega_L,
                    Omega_R=delta_breve / 2.0, eta=2.0 * lam)
        else:
            if lam == 0.0:
                raise ValueError(
                    "eta_breve != 0 with lam = 0 is outside the balanced "
                    "parametrization (it needs Omega_R = 0)")
            big_delta = eta_breve / lam
            root = math.sqrt(4.0 + big_delta ** 2)
            omega_r = delta_breve / root
            delta = big_delta * omega_r
            p = cls(nu=nu, omega_ge=omega_L + delta, omega_L=omega_L,
                    Omega_R=omega_r, eta=lam * root)
        return p


@dataclass(frozen=True)
class JCParams:
    """Jaynes-Cummings inputs: trap and spin frequencies plus coupling lam."""

    nu: float
    omega: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "lam", float(self.lam))
        if self.nu <= 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")

    @property
    def resonant(self) -> bool:
        return abs(self.nu - self.omega) <= 1e-12 * max(self.nu, abs(self.omega))


# -- Jaynes-Cummings model -----------------------------------------------------

def jc_hamiltonian(p: JCParams, space: SpaceConfig) -> Operator:
    """nu n + omega/2 sigma_z + lam nu (a sigma_+ + a^dag sigma_-)."""
    a = annihilation(space)
    return (p.nu * number(space) + 0.5 * p.omega * pauli("z", space)
            + p.lam * p.nu * (a @ pauli("+", space) + a.dag @ pauli("-", space)))


def jc_constants(p: JCParams, space: SpaceConfig) -> tuple[Operator, Operator]:
    """The two commuting constants of motion whose sum is jc_hamiltonian.

    The first is nu*(n + sigma_z/2), whose eigenspaces pair |n-1,e> with
    |n,g>; the second carries the detuning and the coupling and is block
    diagonal on those pairs.  They commute exactly, truncation included.
    """
    a = annihilation(space)
    n_const = p.nu * (number(space) + 0.5 * pauli("z", space))
    s_const = (0.5 * (p.omega - p.nu) * pauli("z", space)
               + p.lam * p.nu * (a @ pauli("+", space) + a.dag @ pauli("-", space)))
    return n_const, s_const


# -- lab frame and rotating frame ----------------------------------------------

def ith(t: float, p: ModelParams, space: SpaceConfig) -> Operator:
    """Lab-frame Hamiltonian at time t (trap + splitting + laser drive)."""
    return Operator(ith_fn(p, space)(t), space)


def ith_fn(p: ModelParams, space: SpaceConfig):
    """Closure t -> ith(t).mat with the constant pieces prebuilt.

    The time dependence is only the laser phase, so the integrator gets a
    cheap callable instead of rebuilding displacement operators every step.
    """
    h0 = (p.nu * number(space) + 0.5 * p.omega_ge * pauli("z", space)).mat
    drive = (pauli("+", space) @ displacement(1j * p.eta, space)).mat
    drive_dag = drive.conj().T

    def h_of_t(t: float) -> np.ndarray:
        phase = np.exp(-1j * p.omega_L * t)
        return h0 + p.Omega_R * (phase * drive + np.conj(phase) * drive_dag)

    return h_of_t


def frame_rotation(t: float, p: ModelParams, space: SpaceConfig) -> Operator:
    """R_t = exp(i omega_L t sigma_z / 2), the laser-frame rotation."""
    half = 0.5 * p.omega_L * t
    spin = np.diag([np.exp(-1j * half), np.exp(1j * half)])
    return Operator(np.kron(np.eye(space.n_max + 1), spin), space)


def rfh(p: ModelParams, space: SpaceConfig) -> Operator:
    """Rotating-frame Hamiltonian: time independent, detuning delta on spin."""
    drive = pauli("+", space) @ displacement(1j * p.eta, space)
    return (p.nu * number(space) + 0.5 * p.delta * pauli("z", space)
            + p.Omega_R * (drive + drive.dag))


def rwa_effective(which: str, p: ModelParams, space: SpaceConfig) -> Operator:
    """Rotating-wave effective interactions: carrier and the two sidebands.

    which = "0" keeps the carrier Omega_R(sigma_- + sigma_+); "-" the red
    sideband i eta Omega_R (a^dag sigma_+ - a sigma_-); "+" the blue sideband
    i eta Omega_R (a sigma_+ - a^dag sigma_-).  Each commutes with
    nu n + delta/2 sigma_z exactly on its own resonance (delta = 0, -nu, +nu).
    """
    a = annihilation(space)
    sp, sm = pauli("+", space), pauli("-", space)
    key = str(which)
    if key == "0":
        return p.Omega_R * (sm + sp)
    if key == "-":
        return 1j * p.eta * p.Omega_R * (a.dag @ sp - a @ sm)
    if key == "+":
        return 1j * p.eta * p.Omega_R * (a @ sp - a.dag @ sm)
    raise ValueError(f"unknown effective-interaction label {which!r}; valid: 0, -, +")


# -- balanced frame ------------------------------------------------------------

def kappa_coefficients(big_delta: float) -> tuple[float, float]:
    """Spin-mixing weights (kappa_plus, kappa_minus) of the balanced transform.

    sign(0) is taken as +1; at big_delta = 0 the signed radical vanishes, so
    the choice is inert and both weights equal 1/sqrt(2).
    """
    root = math.sqrt(4.0 + big_delta ** 2)
    first = math.sqrt(0.25 + 0.5 / root)
    # guard: 0.25 - 0.5/root is an exact 0 at big_delta = 0 up to rounding
    second = math.sqrt(max(0.25 - 0.5 / root, 0.0))
    sgn = 1.0 if big_delta >= 0 else -1.0
    return first + sgn * second, first - sgn * second


def epsilon_coefficients(big_delta: float) -> tuple[float, float]:
    """Displacement weights (epsilon_plus, epsilon_minus): eta*eps = (eta_breve +- eta)/2."""
    half = big_delta / (2.0 * math.sqrt(4.0 + big_delta ** 2))
    return half + 0.5, half - 0.5


def _require_rabi(p: ModelParams) -> None:
    if p.Omega_R == 0:
        raise ValueError("Omega_R = 0: Delta undefined, balanced frame unavailable")


def t1(p: ModelParams, space: SpaceConfig) -> Operator:
    """Strong-field limit of the balanced transform (spin flip + half displacement)."""
    _require_rabi(p)
    d = fock_displacement(0.5j * p.eta, space)
    dd = d.conj().T
    s = 1.0 / math.sqrt(2.0)
    return from_fock_blocks(space, s * dd, s * d, -s * dd, s * d)


def t2(p: ModelParams, space: SpaceConfig) -> Operator:
    """Spin rotation by theta about the y axis."""
    _require_rabi(p)
    nf = np.eye(space.n_max + 1)
    c, s = math.cos(p.theta / 2.0), math.sin(p.theta / 2.0)
    return from_fock_blocks(space, c * nf, -s * nf, s * nf, c * nf)


def t3(p: ModelParams, space: SpaceConfig) -> Operator:
    """Spin-conditioned half displacement by the balanced Lamb-Dicke factor."""
    _require_rabi(p)
    d = fock_displacement(0.5j * p.eta_breve, space)
    z = np.zeros_like(d)
    return from_fock_blocks(space, d, z, z, d.conj().T)


def t_delta(p: ModelParams, space: SpaceConfig) -> Operator:
    """The balanced transform in closed form; equals t3 @ t2 @ t1."""
    _require_rabi(p)
    kp, km = kappa_coefficients(p.Delta)
    d_minus = fock_displacement(0.5j * (p.eta_breve - p.eta), space)
    d_plus = fock_displacement(0.5j * (p.eta_breve + p.eta), space)
    return from_fock_blocks(space,
                            kp * d_minus, km * d_plus,
                            -km * d_plus.conj().T, kp * d_minus.conj().T)


def bh_reference(p: ModelParams, space: SpaceConfig) -> Operator:
    """Diagonal part of the balanced Hamiltonian: nu n + delta_breve/2 sigma_z + lam^2 nu.

    The scalar is the displacement energy picked up by the two half
    displacements of the balanced transform, nu(eta^2 - eta_breve^2)/4,
    which equals lam^2 nu.  Writing it as lam*eta_breve*nu (a slip that
    appears in print) breaks the identity bh == t_delta @ rfh @ t_delta^dag
    by the scalar (lam*eta_breve - lam^2)*nu.
    """
    _require_rabi(p)
    return (p.nu * number(space) + 0.5 * p.delta_breve * pauli("z", space)
            + p.lam ** 2 * p.nu * identity(space))


def bh_interaction_term(m: int, p: ModelParams, space: SpaceConfig) -> Operator:
    """Order-m term of the balanced interaction series (carries eta_breve^m).

    m = 0 is i lam nu (a - a^dag)(sigma_+ + sigma_-); higher terms come from
    expanding the displacement in the interaction.  On the truncated space
    the printed products are hermitian only up to edge defects, so each term
    is symmetrized; interior entries are untouched.
    """
    _require_rabi(p)
    if m < 0:
        raise ValueError(f"series index must be >= 0, got {m}")
    a = annihilation(space)
    sp, sm = pauli("+", space), pauli("-", space)
    if m == 0:
        return hermitize(1j * p.lam * p.nu * ((a - a.dag) @ (sp + sm)))
    coeff = 1j * p.lam * p.nu * (1j * p.eta_breve) ** m / math.factorial(m)
    poly = (a @ a - a.dag @ a.dag + (1.0 - m) * identity(space))
    ladder = Operator(np.linalg.matrix_power((a + a.dag).mat, m - 1), space)
    spin = sp + ((-1.0) ** m) * sm
    return hermitize(coeff * (poly @ ladder @ spin))


def bh_interaction_series(p: ModelParams, M: int, space: SpaceConfig) -> Operator:
    """Sum of the interaction terms with 0 <= m <= M."""
    return _series_sum(bh_interaction_term, p, M, space)


def _series_sum(term, p: ModelParams, M: int, space: SpaceConfig) -> Operator:
    """term(0) + term(1) + ... + term(M), summed in that order."""
    if M < 0:
        raise ValueError(f"series order must be >= 0, got {M}")
    total = term(0, p, space)
    for m in range(1, M + 1):
        total = total + term(m, p, space)
    return total


def bh_series_order(p: ModelParams, space: SpaceConfig, tol: float = 1e-12) -> int:
    """Smallest M whose dropped tail is below tol by the factorial bound.

    Bound used: |eta_breve|^(M+1) * ||a + a^dag||_interior^M * e / (M+1)!.
    """
    eb = abs(p.eta_breve)
    if eb == 0.0:
        return 0
    # top interior singular value of a + a^dag is below 2 sqrt(n_int + 1)
    b = 2.0 * math.sqrt(space.n_interior + 1.0)
    m = 0
    bound = eb * math.e
    while bound >= tol:
        m += 1
        bound = bound * eb * b / (m + 1.0)
        if m > 200:
            raise ValueError("interaction series does not meet the tail bound")
    return m


def bh(p: ModelParams, space: SpaceConfig, route: str = "conjugation") -> Operator:
    """Balanced Hamiltonian, by conjugation or by its closed-form series.

    route="conjugation" computes t_delta @ rfh @ t_delta^dag (hermitian by
    construction); route="closed_form" sums bh_reference and the interaction
    series truncated by bh_series_order.  The two agree on the interior block
    to 1e-8 over the supported parameter ranges.
    """
    _require_rabi(p)
    if route == "conjugation":
        td = t_delta(p, space)
        return td @ rfh(p, space) @ td.dag
    if route == "closed_form":
        return _closed_form(p, space, bh_reference, bh_interaction_series)
    raise ValueError(f"unknown route {route!r}; valid: conjugation, closed_form")


def _closed_form(p: ModelParams, space: SpaceConfig, reference, series) -> Operator:
    """reference + series truncated at bh_series_order, in either frame."""
    return reference(p, space) + series(p, bh_series_order(p, space), space)


# -- spin-decoupled frame ------------------------------------------------------

def _parity(space: SpaceConfig) -> Operator:
    """(-1)^n on the Fock factor, identity on spin."""
    return Operator(np.kron(fock_parity(space), np.eye(2)), space)


def check_transform(space: SpaceConfig) -> Operator:
    """T = exp(i pi/2 n sigma_x): maps a to -i a sigma_x and sorts spins by parity."""
    return expm(0.5j * np.pi * (number(space) @ pauli("x", space)))


def h_check_reference(p: ModelParams, space: SpaceConfig) -> Operator:
    """Diagonal part in the decoupled frame: nu n + delta_breve/2 parity sigma_z + lam^2 nu.

    Same displacement-energy scalar as bh_reference; the conjugation by
    check_transform leaves scalars alone.
    """
    _require_rabi(p)
    return (p.nu * number(space)
            + 0.5 * p.delta_breve * (_parity(space) @ pauli("z", space))
            + p.lam ** 2 * p.nu * identity(space))


def h_check_interaction_term(m: int, p: ModelParams, space: SpaceConfig) -> Operator:
    """Order-m interaction term in the decoupled frame (symmetrized like bh's).

    Conjugating the balanced m-term by check_transform turns its spin factor
    sigma_+ + (-1)^m sigma_- into parity (sigma_- - sigma_+) for odd m and
    into the identity for even m: each ladder factor contributes one sigma_x,
    and an even term collects an even number of them.  (Printed versions that
    keep a sigma_x on the even terms do not reproduce T bh T^dag.)
    """
    _require_rabi(p)
    if m < 0:
        raise ValueError(f"series index must be >= 0, got {m}")
    a = annihilation(space)
    if m == 0:
        return hermitize(p.lam * p.nu * (a + a.dag))
    coeff = p.lam * p.nu * p.eta_breve ** m / math.factorial(m)
    poly = (a.dag @ a.dag - a @ a + (1.0 - m) * identity(space))
    ladder = Operator(np.linalg.matrix_power((a.dag - a).mat, m - 1), space)
    if m % 2 == 0:
        return hermitize(coeff * (poly @ ladder))
    spin = pauli("-", space) - pauli("+", space)
    return hermitize(coeff * (poly @ ladder @ _parity(space) @ spin))


def h_check_interaction_series(p: ModelParams, M: int, space: SpaceConfig) -> Operator:
    """Sum of the decoupled-frame interaction terms with 0 <= m <= M."""
    return _series_sum(h_check_interaction_term, p, M, space)


def h_check(p: ModelParams, space: SpaceConfig, route: str = "conjugation") -> Operator:
    """Balanced Hamiltonian conjugated into the spin-decoupled frame."""
    _require_rabi(p)
    if route == "conjugation":
        t = check_transform(space)
        return t @ bh(p, space, "conjugation") @ t.dag
    if route == "closed_form":
        return _closed_form(p, space, h_check_reference, h_check_interaction_series)
    raise ValueError(f"unknown route {route!r}; valid: conjugation, closed_form")
