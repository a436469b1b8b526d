"""Closed-form perturbative objects of the balanced dynamics.

Hand-derived counterparts of what the recursion engine computes: the
first- and second-order constants of motion and generators per coupling
regime, the closed-form evolutors built from them, and the second-order
spectrum of the nearly resonant ladder.  Everything is written in the
(excited, ground) block layout of ``from_fock_blocks``; functions of the
number operator are exact diagonal matrices.

The engine and these formulas are derived independently, so their
agreement (interior norm, per regime) is a meaningful cross-check rather
than a tautology; the tests enforce it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    SpaceConfig, Operator,
    annihilation, number, pauli, identity,
    fock_lowering, from_fock_blocks, expm, hermitize,
)
from .hamiltonians import ModelParams, JCParams, bh_reference
from .engine import InteractionSeries, chi, gamma
from .oracle import SpectralDecomposition, exact_eigs

REGIME_KINDS = (
    "eta_much_less",     # quadratic drive coupling beyond second order
    "eta_comparable",    # quadratic drive coupling enters at second order
    "eta_much_greater",  # quadratic drive coupling dominates second order
    "near_resonant",     # detuning mismatch moved into the perturbation
)

# resonance nu = delta_breve demanded by the closed-form evolutors
_RES_RTOL = 1e-12
# admission window of the nearly resonant treatment, |nu - delta_breve| <= rho nu
_NEAR_RHO = 0.1


def _require_resonance(p: ModelParams, what: str) -> None:
    if abs(p.nu - p.delta_breve) > _RES_RTOL * p.nu:
        raise ValueError(
            f"{what} is a closed form at resonance nu = delta_breve; "
            f"got nu={p.nu!r}, delta_breve={p.delta_breve!r} "
            "(build the operator with expm instead)")


def _require_near_resonance(p: ModelParams, what: str, rho: float = _NEAR_RHO) -> None:
    if abs(p.nu - p.delta_breve) > rho * p.nu:
        raise ValueError(
            f"{what} assumes the nearly resonant window "
            f"|nu - delta_breve| <= {rho} nu; got offset "
            f"{p.delta_breve - p.nu!r}")


def _sin_over_sqrt(x: float, n) -> np.ndarray:
    """sin(x sqrt(n))/sqrt(n) on integer levels, with the n=0 limit x."""
    n = np.asarray(n, dtype=float)
    root = np.sqrt(n)
    out = np.full(n.shape, complex(x), dtype=np.complex128)
    nz = n > 0
    out[nz] = np.sin(x * root[nz]) / root[nz]
    return out


# -- regimes ------------------------------------------------------------------

@dataclass(frozen=True)
class Regime:
    """Caller-declared coupling regime.

    kind names the bookkeeping intent (what formal order in lam the
    eta_breve-quadratic coupling is assigned, or that the detuning
    mismatch joins the perturbation); it is never inferred from
    magnitudes.  resonant_flag states whether nu = delta_breve within
    the degeneracy tolerance, and must agree with the parameters it is
    used with.  rho bounds the admissible detuning mismatch of the
    near_resonant kind, in units of nu.
    """

    kind: str
    resonant_flag: bool = False
    rho: float = _NEAR_RHO

    def __post_init__(self):
        if self.kind not in REGIME_KINDS:
            raise ValueError(
                f"unknown regime kind {self.kind!r}; valid: {REGIME_KINDS}")
        if not self.rho > 0:
            raise ValueError("rho must be positive")

    @classmethod
    def of(cls, kind: str, p: ModelParams, rho: float = _NEAR_RHO,
           eps_deg: float = 1e-8) -> "Regime":
        """Regime with resonant_flag read off the parameters."""
        flag = abs(p.nu - p.delta_breve) <= eps_deg * p.nu
        r = cls(kind=kind, resonant_flag=flag, rho=rho)
        r.validate(p, eps_deg)
        return r

    def validate(self, p: ModelParams, eps_deg: float = 1e-8) -> None:
        """Reject a regime/parameter mismatch."""
        flag = abs(p.nu - p.delta_breve) <= eps_deg * p.nu
        if flag != self.resonant_flag:
            raise ValueError(
                f"resonant_flag={self.resonant_flag} contradicts the "
                f"parameters (|nu - delta_breve| = {abs(p.nu - p.delta_breve)!r}, "
                f"tolerance {eps_deg * p.nu!r})")
        if self.kind == "near_resonant":
            if abs(p.nu - p.delta_breve) > self.rho * p.nu:
                raise ValueError(
                    "near_resonant regime requires |nu - delta_breve| <= "
                    f"rho nu = {self.rho * p.nu!r}; got "
                    f"{abs(p.nu - p.delta_breve)!r}")


def regime_series(p: ModelParams, regime: Regime,
                  space: SpaceConfig) -> tuple[Operator, InteractionSeries]:
    """Reference operator and interaction series the regime prescribes.

    Splitting H = H0 + lam H1 + lam^2 H2 + ... is a modeling choice, not
    arithmetic.  The three eta regimes share the reference ``bh_reference``
    and differ in whether the eta_breve-quadratic coupling is kept (weight
    eta_breve/lam at formal order lam^2; dropped entirely when declared
    much less).  The near_resonant regime moves the detuning mismatch out
    of the reference into the first-order term, which keeps the degenerate
    ladder of the resonant case and so enlarges the validity window.

    Returns (h0, series) ready for decompose/solve.
    """
    regime.validate(p)
    if p.lam == 0:
        raise ValueError("lam = 0 leaves no perturbative direction")
    a = annihilation(space)
    sp, sm, sz = pauli("+", space), pauli("-", space), pauli("z", space)

    linear = hermitize(1j * p.nu * ((a - a.dag) @ (sp + sm)))
    quad_weight = p.eta_breve / p.lam
    quadratic = quad_weight * p.nu * hermitize(
        (a.dag @ a.dag - a @ a) @ (sp - sm))

    if regime.kind == "near_resonant":
        h0 = (p.nu * number(space) + 0.5 * p.nu * sz
              + p.lam ** 2 * p.nu * identity(space))
        h1 = ((p.delta_breve - p.nu) / (2.0 * p.lam)) * sz + linear
        return h0, InteractionSeries(terms=(h1, quadratic))
    h0 = bh_reference(p, space)
    if regime.kind == "eta_much_less":
        return h0, InteractionSeries(terms=(linear,))
    return h0, InteractionSeries(terms=(linear, quadratic))


def bh_first_second_order(p: ModelParams, regime: Regime, space: SpaceConfig,
                          eps_deg: float = 1e-8
                          ) -> tuple[Operator, Operator, Operator]:
    """The constants of motion C1, C2 and generator Z1, in closed form.

    Powers of lam are included in the returned operators, so they are the
    literal first- and second-order pieces of C(lam) and W(lam).  In the
    three eta regimes C1 vanishes off resonance and the second-order
    constant acquires the two-quantum exchange term exactly on the
    two-photon resonance 2 nu = delta_breve (kept only when the regime
    declares eta_breve of order lam or larger).  eps_deg is the degeneracy
    tolerance behind the chi/gamma selectors and the resonant_flag check.
    """
    regime.validate(p, eps_deg)
    nu, db, lam, eb = p.nu, p.delta_breve, p.lam, p.eta_breve
    a = annihilation(space)
    sp, sm, sz = pauli("+", space), pauli("-", space), pauli("z", space)
    one = identity(space)
    jc_like = 1j * lam * nu * (a @ sp - a.dag @ sm)
    diag_minus = (number(space) + 0.5 * one) @ sz - 0.5 * one
    diag_plus = (number(space) + 0.5 * one) @ sz + 0.5 * one

    if regime.kind == "near_resonant":
        c1 = 0.5 * (db - nu) * sz + jc_like
        z1 = -0.5 * lam * (a @ sm + a.dag @ sp)
        c2 = 0.5 * lam ** 2 * nu * diag_minus
        return c1, z1, c2

    c1 = jc_like if regime.resonant_flag else 0.0 * one
    z1 = (-lam * nu * gamma(nu - db, eps_deg) * (a @ sp + a.dag @ sm)
          - (lam * nu / (nu + db)) * (a @ sm + a.dag @ sp))
    c2 = (lam ** 2 * nu ** 2 / (nu + db)) * diag_minus \
        - lam ** 2 * nu ** 2 * gamma(nu - db, eps_deg) * diag_plus
    if regime.kind in ("eta_comparable", "eta_much_greater"):
        c2 = c2 - lam * eb * nu * chi(2.0 * nu - db, eps_deg) * hermitize(
            a @ a @ sp + a.dag @ a.dag @ sm)
    return c1, z1, c2


# -- closed-form evolutors ----------------------------------------------------

def jc_evolutor(t: float, p: JCParams, space: SpaceConfig) -> Operator:
    """Resonant evolutor exp(-i S t) of the exchange constant of motion.

    S = lam nu (a sigma_+ + a^dag sigma_-) couples |n, g> to |n-1, e>, so
    the exponential closes over cos/sin of lam nu sqrt(n) t per pair.
    """
    if not p.resonant:
        raise ValueError(
            "closed-form evolutor needs nu = omega; use expm off resonance")
    phi = p.lam * p.nu * t
    ns = np.arange(space.n_max + 1)
    root_up = np.sqrt(ns + 1.0)
    low = fock_lowering(space)
    ee = np.diag(np.cos(phi * root_up))
    gg = np.diag(np.cos(phi * np.sqrt(ns)))
    eg = -1j * np.diag(np.sin(phi * root_up) / root_up) @ low
    ge = -1j * np.diag(_sin_over_sqrt(phi, ns)) @ low.conj().T
    return from_fock_blocks(space, ee, eg, ge, gg)


def jc_evolutor_breve(t: float, p: ModelParams, space: SpaceConfig) -> Operator:
    """exp(-i C1 t) at resonance: the exchange evolutor of the balanced frame.

    Same pair structure as ``jc_evolutor`` but generated by
    i lam nu (a sigma_+ - a^dag sigma_-), so the off-diagonal entries are
    real sines instead of -i sines.
    """
    _require_resonance(p, "jc_evolutor_breve")
    phi = p.lam * p.nu * t
    ns = np.arange(space.n_max + 1)
    root_up = np.sqrt(ns + 1.0)
    low = fock_lowering(space)
    ee = np.diag(np.cos(phi * root_up))
    gg = np.diag(np.cos(phi * np.sqrt(ns)))
    eg = np.diag(np.sin(phi * root_up) / root_up) @ low
    ge = -np.diag(_sin_over_sqrt(phi, ns)) @ low.conj().T
    return from_fock_blocks(space, ee, eg, ge, gg)


def rwa_evolutor_fn(p: ModelParams, space: SpaceConfig):
    """Closure t -> rwa_evolutor(t) with the resonance checked once.

    The reference H0 is diagonal, so exp(-i H0 t) is the phase of its
    diagonal; no eigendecomposition is involved.
    """
    _require_resonance(p, "rwa_evolutor")
    h0 = bh_reference(p, space).mat.diagonal()

    def evolutor(t: float) -> Operator:
        jc = jc_evolutor_breve(t, p, space).mat
        return Operator(np.exp(-1j * t * h0)[:, None] * jc, space)

    return evolutor


def rwa_evolutor(t: float, p: ModelParams, space: SpaceConfig) -> Operator:
    """exp(-i H0 t) JC_breve(t): what keeping only the exchange term yields."""
    return rwa_evolutor_fn(p, space)(t)


def first_order_evolutor_fn(p: ModelParams,
                            space: SpaceConfig) -> SpectralDecomposition:
    """t -> exp(-i Z1) exp(-i (H0 + C1) t) exp(i Z1): correct through first order.

    Valid in the resonant and nearly resonant windows, where Z1 =
    -(lam/2)(a sigma_- + a^dag sigma_+) and H0 + C1 is the reference plus
    the exchange coupling regardless of which side of resonance the
    detuning sits (the sigma_z mismatch recombines into the reference).
    exp(i Z1) is built once and H0 + C1 = V E V^dag diagonalized once, so
    the result is the decomposition with eigenbasis exp(-i Z1) V.
    """
    _require_near_resonance(p, "first_order_evolutor")
    a = annihilation(space)
    sp, sm = pauli("+", space), pauli("-", space)
    z1 = -0.5 * p.lam * (a @ sm + a.dag @ sp)
    gen = bh_reference(p, space) + 1j * p.lam * p.nu * (a @ sp - a.dag @ sm)
    rot = expm(1j * z1).mat
    values, vectors = exact_eigs(gen)
    return SpectralDecomposition(space, values, rot.conj().T @ vectors)


def first_order_evolutor(t: float, p: ModelParams, space: SpaceConfig) -> Operator:
    """exp(-i Z1) exp(-i (H0 + C1) t) exp(i Z1) at one time; see
    ``first_order_evolutor_fn``."""
    return first_order_evolutor_fn(p, space)(t)


def exp_z1(p: ModelParams, space: SpaceConfig) -> Operator:
    """Closed form of exp(i Z1) at resonance.

    Z1 = -(lam/2)(a sigma_- + a^dag sigma_+) exchanges |n, e> with
    |n+1, g>, so the exponential closes over half-angle cos/sin of
    (lam/2) sqrt(n).
    """
    _require_resonance(p, "exp_z1")
    theta = 0.5 * p.lam
    ns = np.arange(space.n_max + 1)
    root_up = np.sqrt(ns + 1.0)
    low = fock_lowering(space)
    ee = np.diag(np.cos(theta * np.sqrt(ns)))
    gg = np.diag(np.cos(theta * root_up))
    eg = -1j * np.diag(_sin_over_sqrt(theta, ns)) @ low.conj().T
    ge = -1j * np.diag(np.sin(theta * root_up) / root_up) @ low
    return from_fock_blocks(space, ee, eg, ge, gg)


def sandwich(t: float, p: ModelParams, space: SpaceConfig) -> Operator:
    """exp(-i Z1) exp(-i H0 t) exp(i Z1) at resonance, in closed form.

    The free rotation dressed by the first-order change of eigenbasis.
    Writing alpha = cos^2((lam/2) sqrt(n)), beta = sin^2 of the same and
    kappa = -i cos sin / sqrt(n), each entry mixes the e/g rotation phases
    through factors (1 - e^{+-2 i nu t}): the signature the exchange-only
    treatment lacks, since it sets kappa = 0.  The overall scalar phase
    carries the displacement-energy constant of the reference.
    """
    _require_resonance(p, "sandwich")
    nu, lam = p.nu, p.lam
    ns = np.arange(space.n_max + 1)
    root = np.sqrt(ns)
    root_up = np.sqrt(ns + 1.0)
    c, s = np.cos(0.5 * lam * root), np.sin(0.5 * lam * root)
    c_up, s_up = np.cos(0.5 * lam * root_up), np.sin(0.5 * lam * root_up)
    kappa = -1j * c * _sin_over_sqrt(0.5 * lam, ns)
    kappa_up = -1j * c_up * s_up / root_up
    osc = cmath.exp(2j * nu * t)
    ph_e = np.exp(-1j * nu * (ns + 0.5) * t)
    ph_g = np.exp(-1j * nu * (ns - 0.5) * t)
    low = fock_lowering(space)
    ee = np.diag((c ** 2 + s ** 2 * osc) * ph_e)
    eg = np.diag(kappa * (1.0 - osc) * ph_e) @ low.conj().T
    ge = np.diag(kappa_up * (1.0 - osc.conjugate()) * ph_g) @ low
    gg = np.diag((c_up ** 2 + s_up ** 2 * osc.conjugate()) * ph_g)
    phase = cmath.exp(-1j * lam * lam * nu * t)
    return phase * from_fock_blocks(space, ee, eg, ge, gg)


def y1_relation(t: float, p: ModelParams, space: SpaceConfig) -> Operator:
    """exp(-i integral of Y1) times the exchange-only evolutor.

    Y1(tau) = i lam nu (a sigma_- e^{2 i nu tau} - a^dag sigma_+
    e^{-2 i nu tau}) is the counter-rotating coupling seen from the frame
    co-rotating with the reference; its time integral is analytic, and
    left-multiplying the exchange-only evolutor by its exponential
    restores the first-order dynamics.
    """
    _require_resonance(p, "y1_relation")
    a = annihilation(space)
    sp, sm = pauli("+", space), pauli("-", space)
    osc = cmath.exp(2j * p.nu * t)
    integral = 0.5 * p.lam * ((osc - 1.0) * (a @ sm)
                              + (osc.conjugate() - 1.0) * (a.dag @ sp))
    return expm(-1j * integral) @ rwa_evolutor(t, p, space)


# -- second-order spectrum ----------------------------------------------------

@dataclass(frozen=True)
class SecondOrderSpectrum:
    """Energy levels of the nearly resonant ladder through second order.

    levels holds (n, E_minus, E_plus) for the hybridized pairs built on
    {|n-1, e>, |n, g>}; A_n and B_n are the pair mean and half-splitting
    parameters, aligned with levels.  E0 is the unpaired bottom level.
    """

    E0: float
    levels: tuple
    A_n: tuple
    B_n: tuple

    def __post_init__(self):
        if len(self.levels) != len(self.A_n) or len(self.levels) != len(self.B_n):
            raise ValueError("levels, A_n, B_n must align")
        for n, e_minus, e_plus in self.levels:
            if e_plus < e_minus:
                raise ValueError(f"pair n={n} not sorted")


def spectrum_second_order(p: ModelParams, n_levels: int) -> SecondOrderSpectrum:
    """Second-order energies E0 and E_{n,+-}, n = 1..n_levels.

    Diagonalizes the 2x2 pair blocks of the second-order constant of
    motion: E_{n,+-} = A_n +- sqrt(B_n^2 + lam^2 nu^2 n) with
    A_n = nu(n - 1/2) + lam^2 nu / 2 and
    B_n = ((delta_breve - nu) + lam^2 nu n) / 2.
    The lone bottom level is E0 = -delta_breve/2 + lam^2 nu / 2.
    """
    if n_levels < 0:
        raise ValueError("n_levels must be nonnegative")
    _require_near_resonance(p, "spectrum_second_order")
    nu, db, lam = p.nu, p.delta_breve, p.lam
    e0 = -0.5 * db + 0.5 * lam ** 2 * nu
    levels, a_list, b_list = [], [], []
    for n in range(1, n_levels + 1):
        a_n = nu * (n - 0.5) + 0.5 * lam ** 2 * nu
        b_n = 0.5 * ((db - nu) + lam ** 2 * nu * n)
        rad = math.sqrt(b_n ** 2 + lam ** 2 * nu ** 2 * n)
        levels.append((n, a_n - rad, a_n + rad))
        a_list.append(a_n)
        b_list.append(b_n)
    return SecondOrderSpectrum(E0=e0, levels=tuple(levels),
                               A_n=tuple(a_list), B_n=tuple(b_list))


def levels_first_order(p: ModelParams, n_levels: int) -> tuple:
    """E_{n,+-} with the second-order corrections dropped.

    Only the terms the second-order constant of motion generates are
    removed (the mean shift and the splitting displacement); the additive
    constant of the reference operator stays, as it does in the exchange
    Hamiltonian this truncation must reproduce.
    """
    nu, db, lam = p.nu, p.delta_breve, p.lam
    out = []
    for n in range(1, n_levels + 1):
        mid = nu * (n - 0.5) + lam ** 2 * nu
        rad = math.sqrt(0.25 * (db - nu) ** 2 + lam ** 2 * nu ** 2 * n)
        out.append((n, mid - rad, mid + rad))
    return tuple(out)


def levels_rwa(p: ModelParams, n_levels: int) -> tuple:
    """Pair eigenvalues of the exchange Hamiltonian H0 + C1, numerically.

    Built by diagonalizing the literal 2x2 blocks on {|n-1, e>, |n, g>},
    so the route shares no algebra with ``levels_first_order``.
    """
    nu, db, lam = p.nu, p.delta_breve, p.lam
    out = []
    for n in range(1, n_levels + 1):
        mid = nu * (n - 0.5) + lam ** 2 * nu
        b0 = 0.5 * (db - nu)
        block = np.array([[mid + b0, 1j * lam * nu * math.sqrt(n)],
                          [-1j * lam * nu * math.sqrt(n), mid - b0]])
        lo, hi = np.linalg.eigvalsh(block)
        out.append((n, float(lo), float(hi)))
    return tuple(out)


def transition_probability(t: float, b: float, c: complex, A: float) -> float:
    """Two-level oscillation probability of the block [[A+b, c], [c*, A-b]].

    |c|^2/(b^2+|c|^2) sin^2(sqrt(b^2+|c|^2) t); the common level A drops
    out as a global phase and is accepted only to mirror the block
    parametrization.  Reaches 1 periodically exactly when b = 0.
    """
    w2 = b * b + abs(c) ** 2
    if w2 == 0.0:
        return 0.0
    return (abs(c) ** 2 / w2) * math.sin(math.sqrt(w2) * t) ** 2


def anticrossing_shift(n: int, p: ModelParams) -> float:
    """Second-order displacement of the n-th avoided crossing: lam^2 nu n / 2.

    The pair splitting parameter B_n = ((delta_breve - nu) + lam^2 nu n)/2
    vanishes at delta_breve - nu = -lam^2 nu n, so the gap minimum sits
    shifted by half that in B-units.  n = 0 has no partner level and is
    rejected.
    """
    if n < 1:
        raise ValueError("the bottom level is unpaired; need n >= 1")
    return 0.5 * p.lam ** 2 * p.nu * n
