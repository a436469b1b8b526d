"""Recursive constants-of-motion solver for perturbed Hamiltonians.

Given an exactly solvable H0 and an interaction series H(lam) = H0 + sum_m
lam^m H_m, find order by order hermitian C_n (commuting with H0) and
generators Z_n such that

    e^{i Z(lam)} H(lam) e^{-i Z(lam)} = H0 + C(lam) + O(lam^{N+1}),
    Z(lam) = sum lam^n Z_n,   C(lam) = sum lam^n C_n.

At each order the data is a single operator G_n built from nested commutators
of the previous generators with the series terms; C_n is its block-diagonal
part over the degenerate eigenspaces of H0 and Z_n solves
i[Z_n, H0] = -(off-diagonal part of G_n).  Z_n is fixed uniquely by zeroing
its block-diagonal part (the minimal solution); any other gauge works but
changes the higher orders.

Everything here is basis-honest: the solver diagonalizes H0 once and works
in that eigenbasis, where the block split is a mask and the Z equation is
division by eigenvalue differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import Operator, expm, op_norm, interior_norm
from .oracle import SpectralDecomposition, exact_eigs


def chi(x: float, eps: float = 1e-12) -> float:
    """Indicator of numerical zero: 1 if |x| <= eps else 0."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return 1.0 if abs(x) <= eps else 0.0


def gamma(x: float, eps: float = 1e-12) -> float:
    """Regularized reciprocal: 0 if |x| <= eps else 1/x.

    Satisfies gamma(x)*x = 1 - chi(x) for every x.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return 0.0 if abs(x) <= eps else 1.0 / x


class ClusterAmbiguityError(RuntimeError):
    """Eigenvalue spacing falls in the grey zone of the clustering tolerance."""


def decompose(h0: Operator, eps_deg: float = 1e-8) -> SpectralDecomposition:
    """Diagonalize a hermitian operator and cluster degenerate eigenvalues.

    The eigenpairs come from ``exact_eigs``, with its hermiticity and
    residual checks; this is the one builder of a SpectralDecomposition
    that fills its clusters.  Adjacent eigenvalues closer than eps_deg
    share a cluster.  A spacing in the grey zone (eps_deg, 3 eps_deg)
    means the tolerance cannot cleanly separate the spectrum; that raises
    ClusterAmbiguityError rather than silently committing either way.  The
    same happens if chained merging produces a cluster wider than eps_deg.
    """
    if eps_deg <= 0:
        raise ValueError(f"eps_deg must be > 0, got {eps_deg}")
    w, v = exact_eigs(h0)
    clusters = []
    start = 0
    for i in range(1, w.size + 1):
        if i == w.size:
            clusters.append(tuple(range(start, i)))
            break
        gap = w[i] - w[i - 1]
        if gap <= eps_deg:
            continue
        if gap < 3.0 * eps_deg:
            raise ClusterAmbiguityError(
                f"eigenvalue gap {gap:.3e} between indices {i-1},{i} is inside "
                f"the ambiguous band ({eps_deg:.1e}, {3*eps_deg:.1e})")
        clusters.append(tuple(range(start, i)))
        start = i
    for cluster in clusters:
        spread = w[cluster[-1]] - w[cluster[0]]
        if spread > eps_deg:
            raise ClusterAmbiguityError(
                f"chained near-degeneracies span {spread:.3e} > eps_deg; "
                "no consistent clustering at this tolerance")
    return SpectralDecomposition(h0.space, w, v, clusters=tuple(clusters),
                                 eps_deg=float(eps_deg))


@dataclass(frozen=True)
class InteractionSeries:
    """Ordered interaction terms H_1, H_2, ...; term m multiplies lam^m."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for m, term in enumerate(self.terms, start=1):
            if not isinstance(term, Operator):
                raise TypeError(f"series term {m} is not an Operator")
            if op_norm(term - term.dag) > 1e-12 * max(1.0, op_norm(term)):
                raise ValueError(f"series term {m} is not hermitian")
        spaces = {term.space for term in self.terms}
        if len(spaces) > 1:
            raise ValueError("series terms live on different spaces")

    @property
    def order(self) -> int:
        return len(self.terms)

    def term(self, m: int) -> Operator:
        """H_m for m >= 1; zero beyond the stored terms is the caller's business."""
        if not 1 <= m <= len(self.terms):
            raise IndexError(f"series has terms 1..{len(self.terms)}, asked for {m}")
        return self.terms[m - 1]

    def evaluate(self, lam: float) -> Operator:
        return _lam_polynomial(lam, self.terms)


@dataclass(frozen=True)
class PerturbativeSolution:
    """Constants of motion C_1..C_N and minimal generators Z_1..Z_N."""

    order: int
    C: tuple
    Z: tuple

    def generator(self, lam: float, upto: int | None = None) -> Operator:
        """W = sum_{k<=upto} lam^k Z_k."""
        return _lam_polynomial(lam, self.Z, upto)

    def constant(self, lam: float, upto: int | None = None) -> Operator:
        """C(lam) truncated at order upto."""
        return _lam_polynomial(lam, self.C, upto)


def _lam_polynomial(lam: float, coeffs, upto: int | None = None) -> Operator:
    """sum_{k<=upto} lam^k coeffs[k-1] (all terms by default), from k = 1 up."""
    n = len(coeffs) if upto is None else upto
    if not 1 <= n <= len(coeffs):
        raise ValueError(f"upto must be in 1..{len(coeffs)}, got {n}")
    total = float(lam) * coeffs[0]
    for k in range(2, n + 1):
        total = total + float(lam) ** k * coeffs[k - 1]
    return total


def diagonal_split(G: Operator, spec: SpectralDecomposition):
    """Split G into Sum_m P_m G P_m and the rest.

    Returns (block_diag, off_diag); the two add back to G exactly since the
    off part is defined as the difference.
    """
    if G.dim != spec.dim:
        raise ValueError(f"operator dim {G.dim} != decomposition dim {spec.dim}")
    v = spec.eigenbasis
    g_eig = v.conj().T @ G.mat @ v
    block = v @ (g_eig * spec.intra_mask()) @ v.conj().T
    block_op = Operator(block, G.space)
    return block_op, G - block_op


def _add(a, b):
    """a + b, where None stands for zero."""
    return b if a is None else a if b is None else a + b


def _assemble_G(n: int, h0: np.ndarray, terms: list, z_mats: list) -> np.ndarray:
    """G_n: the lam^n coefficient of e^{iZ} H e^{-iZ} without i[Z_n, H0].

    Lie-transform recurrence (Deprit): with row_0[k] = H_k (H_0 = h0,
    H_m = terms[m-1], zero beyond the stored terms),
    row_j[k] = (i/j) sum_{p=1}^{min(k, len(z_mats))} [Z_p, row_{j-1}[k-p]]
    is the lam^k coefficient of (i ad_Z)^j H / j!, and G_n = sum_j row_j[n].
    Each nested commutator is computed once, so order n costs O(n^3)
    commutators.  Bounding p by the number of known generators leaves out
    the unknown i[Z_n, H0] term.  The row is updated in place from the top,
    since row_j[k] reads only lower entries of row_{j-1}, so it never holds
    more than n + 1 matrices; None marks a zero entry.
    """
    row = [h0] + [terms[m - 1] if m <= len(terms) else None
                  for m in range(1, n + 1)]
    h_n, total = row[n], None
    for j in range(1, n + 1):
        for k in range(n, j - 1, -1):
            acc = None
            for p in range(1, min(k, len(z_mats)) + 1):
                x, z = row[k - p], z_mats[p - 1]
                if x is not None:
                    acc = _add(acc, z @ x - x @ z)
            row[k] = None if acc is None else (1j / j) * acc
        row[j - 1] = None
        total = _add(total, row[n])
    # H_n last: G_1 and G_2 then equal their explicit sums to the bit
    total = _add(total, h_n)
    return np.zeros_like(h0) if total is None else total


def build_G(n: int, h0: Operator, series: InteractionSeries, z_prev: list) -> Operator:
    """The order-n data operator G_n, with the i[Z_n, H0] term left out.

    G_n is the lam^n coefficient of e^{iZ} H(lam) e^{-iZ} with
    Z = sum_{k<n} lam^k Z_k, H_0 = h0 and H_m = 0 beyond the stored series
    terms.  z_prev must hold Z_1..Z_{n-1}.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if len(z_prev) != n - 1:
        raise ValueError(f"expected {n-1} previous generators, got {len(z_prev)}")
    total = _assemble_G(n, h0.mat, [t.mat for t in series.terms],
                        [z.mat for z in z_prev])
    return Operator(total, h0.space)


def _recursion(spec: SpectralDecomposition, series: InteractionSeries, N: int,
               mask: np.ndarray) -> PerturbativeSolution:
    """The recursion in the eigenbasis of H0 with a given block mask.

    mask[j, k] marks the entries of G_n that commute with H0: they form
    C_n, and the rest is solved away by
    (Z_n)_{jk} = i (G_n)_{jk} / (E_k - E_j).
    """
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    if series.terms and series.terms[0].dim != spec.dim:
        raise ValueError("series and decomposition dimensions differ")
    w = spec.eigenvalues
    v = spec.eigenbasis
    # eigenvalue-difference matrix E(k) - E(j) at entry (j, k)
    diff = w[None, :] - w[:, None]
    inv_diff = np.divide(1.0, diff, out=np.zeros_like(diff), where=~mask)
    h0_eig = np.diag(w.astype(complex))
    terms_eig = [v.conj().T @ term.mat @ v for term in series.terms[:N]]

    c_ops, z_ops, z_mats = [], [], []
    for n in range(1, N + 1):
        g = _assemble_G(n, h0_eig, terms_eig, z_mats)
        g = (g + g.conj().T) / 2
        c_eig = np.where(mask, g, 0.0)
        z_eig = 1j * inv_diff * np.where(mask, 0.0, g)
        z_mats.append(z_eig)
        c_ops.append(Operator(v @ c_eig @ v.conj().T, spec.space))
        z_ops.append(Operator(v @ z_eig @ v.conj().T, spec.space))
    return PerturbativeSolution(order=N, C=tuple(c_ops), Z=tuple(z_ops))


def solve(spec: SpectralDecomposition, series: InteractionSeries,
          N: int) -> PerturbativeSolution:
    """Run the recursion to order N (projector route, minimal gauge).

    Works in the eigenbasis of H0, where the block split is the cluster
    mask of the decomposition and the generator equation divides by
    eigenvalue differences:
    (Z_n)_{jk} = i (G_n)_{jk} / (E_k - E_j) across clusters, 0 within.
    """
    return _recursion(spec, series, N, spec.intra_mask())


def solve_ladder(spec: SpectralDecomposition, series: InteractionSeries,
                 N: int) -> PerturbativeSolution:
    """The recursion with the chi/gamma weighting as its block mask.

    C_n keeps the entries where chi(E(k) - E(j)) = 1 and Z_n weights the
    rest by gamma(E(k) - E(j)), both at the tolerance eps_deg: the shared
    recursion core with the mask |E(k) - E(j)| <= eps_deg in place of the
    cluster mask.  A clean clustering makes the two masks agree, so this
    must reproduce solve, which is what the consistency tests check.
    """
    spec._require_clusters()
    w = spec.eigenvalues
    return _recursion(spec, series, N,
                      np.abs(w[None, :] - w[:, None]) <= spec.eps_deg)


def assemble(h0: Operator, sol: PerturbativeSolution, lam: float, n: int):
    """Dress H0 and the constant back toward the interacting frame.

    Returns (H0n, Cn_op) = (e^{-iW} H0 e^{iW}, e^{-iW} C(lam) e^{iW}) with
    W = sum_{k<=n} lam^k Z_k.  The pair commutes like (H0, C) does and their
    sum approximates H(lam) to O(lam^{n+1}).
    """
    if not 1 <= n <= sol.order:
        raise ValueError(f"n must be in 1..{sol.order}, got {n}")
    w_op = sol.generator(lam, n)
    u = expm(-1j * w_op)
    h0n = u @ h0 @ u.dag
    cn = u @ sol.constant(lam, n) @ u.dag
    return h0n, cn


def residual_norm(spec: SpectralDecomposition, series: InteractionSeries,
                  sol: PerturbativeSolution, lam: float,
                  upto: int | None = None,
                  n_keep: int | None = None) -> float:
    """Interior norm of e^{iW} H(lam) e^{-iW} - H0 - C(lam) at order upto.

    This is the quantity whose lam-scaling certifies the order of the
    solution: O(lam^{n+1}) for a correct order-n run.  n_keep pins the
    measurement window to a fixed Fock cutoff so residuals computed on
    different truncations stay comparable.
    """
    n = sol.order if upto is None else upto
    h0 = spec.reconstruct()
    h_full = h0 + series.evaluate(lam)
    w_op = sol.generator(lam, n)
    u = expm(1j * w_op)
    moved = u @ h_full @ u.dag
    return interior_norm(moved - h0 - sol.constant(lam, n), n_keep)
