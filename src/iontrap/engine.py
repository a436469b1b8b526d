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

from .operators import (
    Operator, expm, _expm_matrix, _hermiticity_defect, _interior_size,
    _into_gauge,
)
from .oracle import SpectralDecomposition, exact_eigs


class ClusterAmbiguityError(RuntimeError):
    """An energy gap falls in the ambiguous band of the degeneracy test."""


# the one degeneracy tolerance, absolute
_EPS_DEG = 1e-8


def _degenerate(gap, what: str = "energy gap"):
    """Elementwise: True where |gap| <= _EPS_DEG, False where |gap| >=
    3 _EPS_DEG; a gap in the ambiguous band between raises
    ClusterAmbiguityError, naming the first one as ``what``."""
    size = np.abs(gap)
    grey = (size > _EPS_DEG) & (size < 3.0 * _EPS_DEG)
    if np.any(grey):
        raise ClusterAmbiguityError(
            f"{what} {float(size[grey].flat[0]):.3e} is inside the "
            f"ambiguous band ({_EPS_DEG:.1e}, {3 * _EPS_DEG:.1e})")
    return size <= _EPS_DEG


def chi(x: float) -> float:
    """Indicator of a degenerate gap: 1 if ``_degenerate(x)`` else 0.

    |x| <= 1e-8 reads 1 and |x| >= 3e-8 reads 0; between them the gap is
    ambiguous and ClusterAmbiguityError is raised.
    """
    return 1.0 if _degenerate(x) else 0.0


def gamma(x: float) -> float:
    """Regularized reciprocal: 0 if ``_degenerate(x)`` else 1/x.

    Satisfies gamma(x)*x = 1 - chi(x) for every x outside the ambiguous
    band of ``chi``, which raises here too.
    """
    return 0.0 if _degenerate(x) else 1.0 / x


def decompose(h0: Operator) -> SpectralDecomposition:
    """Diagonalize a hermitian operator and cluster degenerate eigenvalues.

    The eigenpairs come from ``exact_eigs``, with its hermiticity and
    residual checks; this is the one builder of a SpectralDecomposition
    that fills its clusters.  Adjacent eigenvalues share a cluster when
    ``_degenerate`` (absolute tolerance _EPS_DEG) calls their gap a
    degeneracy; a gap in its ambiguous band, or chained merging into a
    cluster wider than _EPS_DEG, raises ClusterAmbiguityError rather
    than silently committing either way.
    """
    w, v = exact_eigs(h0)
    # a cluster starts at 0 and after every gap that is no degeneracy
    cuts = np.flatnonzero(~_degenerate(np.diff(w), "eigenvalue gap")) + 1
    bounds = [0, *cuts.tolist(), w.size]
    clusters = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    spread = max(w[c[-1]] - w[c[0]] for c in clusters)
    if spread > _EPS_DEG:
        raise ClusterAmbiguityError(
            f"chained near-degeneracies span {spread:.3e} > {_EPS_DEG:.1e}; "
            "no consistent clustering at this tolerance")
    return SpectralDecomposition(h0.space, w, v, clusters=clusters)


@dataclass(frozen=True)
class InteractionSeries:
    """Ordered interaction terms H_1, H_2, ...; term m multiplies lam^m."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for m, term in enumerate(self.terms, start=1):
            if not isinstance(term, Operator):
                raise TypeError(f"series term {m} is not an Operator")
            if _hermiticity_defect(term.mat, 1e-12) is not None:
                raise ValueError(f"series term {m} is not hermitian")
        spaces = {term.space for term in self.terms}
        if len(spaces) > 1:
            raise ValueError("series terms live on different spaces")

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
    """sum_{k<=upto} lam^k coeffs[k-1] (all terms by default), from k = 1 up.

    The coefficient arrays are scaled and summed in that order, each
    lam^k as a complex scalar, and the sum is wrapped in one Operator.
    """
    n = len(coeffs) if upto is None else upto
    if not 1 <= n <= len(coeffs):
        raise ValueError(f"upto must be in 1..{len(coeffs)}, got {n}")
    total = coeffs[0].mat * complex(float(lam))
    for k in range(2, n + 1):
        total += coeffs[k - 1].mat * complex(float(lam) ** k)
    return Operator(total, coeffs[0].space)


def diagonal_split(G: Operator, spec: SpectralDecomposition):
    """Split G into Sum_m P_m G P_m and the rest.

    G enters the eigenbasis of H0, keeps its intra-cluster entries and
    leaves it again, both through ``_rotations``, as in the recursion.
    Returns (block_diag, off_diag); the two add back to G exactly since the
    off part is defined as the difference.
    """
    if G.dim != spec.dim:
        raise ValueError(f"operator dim {G.dim} != decomposition dim {spec.dim}")
    mask = spec.intra_mask()
    to_eig, from_eig = _rotations(spec.eigenbasis)
    block_op = Operator(from_eig(to_eig(G.mat) * mask), G.space)
    return block_op, G - block_op


# rows per block of the banded product
_BAND_BLOCK = 32


class _Banded:
    """A dense matrix with bounds on its lower and upper bandwidth.

    Entries (j, k) with k - j < -lower or k - j > upper are exact zeros.
    The bounds are read from the exact zeros once, when the matrix is
    made, and are then carried through products, so no product rescans
    its operands.  Storage stays dense: only the arithmetic follows the
    band.
    """

    __slots__ = ("mat", "lower", "upper")

    def __init__(self, mat: np.ndarray, lower: int | None = None,
                 upper: int | None = None):
        if lower is None or upper is None:
            rows, cols = np.nonzero(mat)
            offsets = cols - rows
            lower = max(0, -int(offsets.min())) if offsets.size else 0
            upper = max(0, int(offsets.max())) if offsets.size else 0
        self.mat, self.lower, self.upper = mat, lower, upper


def _add_commutator(out: _Banded, z: _Banded, x: _Banded) -> None:
    """out += [z, x] = z x - x z, multiplying only where the bands reach.

    Both products have the band of the sums of the operands' bands, and
    out's band grows to cover it.  Rows r0..r1 of Z reach the rows
    r0 - lower_Z .. r1 + upper_Z of X (and the other way round), and
    those reach the columns of the commutator's band, so each block of
    _BAND_BLOCK rows is two small dense products, subtracted before they
    are added in place, as in the dense z @ x - x @ z.  A band as wide as
    the matrix (a generic H0, whose eigenbasis mixes every state) clamps
    the slices to whole rows and columns, at the flops of the dense
    products.
    """
    n = out.mat.shape[0]
    lower = min(z.lower + x.lower, n - 1)
    upper = min(z.upper + x.upper, n - 1)
    out.lower, out.upper = max(out.lower, lower), max(out.upper, upper)
    for r0 in range(0, n, _BAND_BLOCK):
        rows = slice(r0, min(r0 + _BAND_BLOCK, n))
        cols = slice(max(0, r0 - lower), min(n, rows.stop + upper))
        kz = slice(max(0, r0 - z.lower), min(n, rows.stop + z.upper))
        kx = slice(max(0, r0 - x.lower), min(n, rows.stop + x.upper))
        out.mat[rows, cols] += (z.mat[rows, kz] @ x.mat[kz, cols]
                                - x.mat[rows, kx] @ z.mat[kx, cols])


def _assemble_G(n: int, h0: _Banded, terms: list, z_mats: list) -> np.ndarray:
    """G_n: the lam^n coefficient of e^{iZ} H e^{-iZ} without i[Z_n, H0].

    Lie-transform recurrence (Deprit): with row_0[k] = H_k (H_0 = h0,
    H_m = terms[m-1], zero beyond the stored terms),
    row_j[k] = (i/j) sum_{p=1}^{min(k, len(z_mats))} [Z_p, row_{j-1}[k-p]]
    is the lam^k coefficient of (i ad_Z)^j H / j!, and G_n = sum_j row_j[n].
    Each nested commutator is computed once, so order n costs O(n^3)
    commutators.  Bounding p by the number of known generators leaves out
    the unknown i[Z_n, H0] term.  The row is updated in place from the top,
    since row_j[k] reads only lower entries of row_{j-1}, so it never holds
    more than n + 1 matrices; None marks a zero entry.  Each row_j[n] is
    added into one array as it is made, and H_n last; the sum carries no
    band, since nothing multiplies G_n.

    Every operand is a ``_Banded`` and each commutator is added into its
    row entry by ``_add_commutator``, which multiplies only the row
    blocks the bands reach.  In the eigenbasis of an H0 that is diagonal
    in the Fock x spin basis the generators are banded (Z_n moves the
    Fock number by at most n), so the products cost a fraction of dense
    ones; the results differ from dense products only by summation
    order.
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
                    if acc is None:
                        acc = _Banded(np.zeros_like(h0.mat), 0, 0)
                    _add_commutator(acc, z, x)
            if acc is not None:
                acc.mat *= 1j / j
            row[k] = acc
        row[j - 1] = None
        # row_j[n] is a fresh array that nothing reads again
        if row[n] is not None:
            total = (row[n].mat if total is None
                     else np.add(total, row[n].mat, out=total))
    # H_n last, the order of the explicit sums for G_1 and G_2
    if h_n is not None:
        total = (h_n.mat.copy() if total is None
                 else np.add(total, h_n.mat, out=total))
    return np.zeros_like(h0.mat) if total is None else total


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
    total = _assemble_G(n, _Banded(h0.mat),
                        [_Banded(t.mat) for t in series.terms],
                        [_Banded(z.mat) for z in z_prev])
    return Operator(total, h0.space)


def _rotations(v: np.ndarray):
    """The basis changes X -> v^dag X v and Y -> v Y v^dag.

    When v is a permutation up to phases (every column has one nonzero
    entry, of modulus exactly 1, in distinct rows), as the eigenbasis of
    an H0 that is diagonal in the Fock x spin basis is, each change is an
    indexing with the phases applied in the order of the dense products,
    so the result is the same; any other v takes the two dense products.
    """
    nonzero = v != 0
    rows = nonzero.argmax(axis=0)
    phases = v[rows, np.arange(v.shape[1])]
    # one nonzero in each row, n in all, and one of modulus 1 in each
    # column: so exactly one in each column, in distinct rows
    if not (np.all(nonzero.sum(axis=1) == 1)
            and np.all(np.abs(phases) == 1.0)):
        vd = v.conj().T
        return (lambda x: vd @ x @ v), (lambda y: v @ y @ vd)
    # v[rows[a], a] = phases[a]: (v^dag X v)[a, b] is
    # conj(phases[a]) X[rows[a], rows[b]] phases[b], and v Y v^dag puts
    # phases[a] Y[a, b] conj(phases[b]) at (rows[a], rows[b]); each is
    # scaled in place in the indexed copy
    back = np.argsort(rows)
    left, right = phases.conj()[:, None], phases
    left_back, right_back = phases[back][:, None], phases.conj()[back]

    def to_eig(x):
        out = x[np.ix_(rows, rows)]
        out *= left
        out *= right
        return out

    def from_eig(y):
        out = y[np.ix_(back, back)]
        out *= left_back
        out *= right_back
        return out

    return to_eig, from_eig


def _recursion(spec: SpectralDecomposition, series: InteractionSeries, N: int,
               mask: np.ndarray) -> PerturbativeSolution:
    """The recursion in the eigenbasis of H0 with a given block mask.

    mask[j, k] marks the entries of G_n that commute with H0: they form
    C_n, and the rest is solved away by
    (Z_n)_{jk} = i (G_n)_{jk} / (E_k - E_j).  The series terms enter the
    eigenbasis and C_n, Z_n leave it through ``_rotations``: by indexing
    when the eigenbasis is a permutation up to phases, by dense products
    otherwise.  Each generator's band is read once, when it is made, for
    the banded products of ``_assemble_G``.
    """
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    if series.terms and series.terms[0].dim != spec.dim:
        raise ValueError("series and decomposition dimensions differ")
    w = spec.eigenvalues
    to_eig, from_eig = _rotations(spec.eigenbasis)
    # eigenvalue-difference matrix E(k) - E(j) at entry (j, k)
    diff = w[None, :] - w[:, None]
    inv_diff = np.divide(1.0, diff, out=np.zeros_like(diff), where=~mask)
    h0_eig = _Banded(np.diag(w.astype(complex)), 0, 0)
    terms_eig = [_Banded(to_eig(term.mat)) for term in series.terms[:N]]

    c_ops, z_ops, z_mats = [], [], []
    for n in range(1, N + 1):
        g = _assemble_G(n, h0_eig, terms_eig, z_mats)
        g = (g + g.conj().T) / 2
        c_eig = np.where(mask, g, 0.0)
        z_eig = 1j * inv_diff * np.where(mask, 0.0, g)
        z_mats.append(_Banded(z_eig))
        c_ops.append(Operator(from_eig(c_eig), spec.space))
        z_ops.append(Operator(from_eig(z_eig), spec.space))
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
    rest by gamma(E(k) - E(j)), both decided by ``_degenerate`` (absolute
    tolerance, ambiguous band): the shared recursion core with that mask
    in place of the cluster mask.  A clean clustering makes the two masks
    agree, so this must reproduce solve, as the consistency tests check.
    """
    spec._require_clusters()
    w = spec.eigenvalues
    return _recursion(spec, series, N,
                      _degenerate(w[None, :] - w[:, None], "energy difference"))


def assemble(h0: Operator, sol: PerturbativeSolution, lam: float, n: int):
    """Dress H0 and the constant back toward the interacting frame.

    Returns (H0n, Cn_op) = (e^{-iW} H0 e^{iW}, e^{-iW} C(lam) e^{iW}) with
    W = sum_{k<=n} lam^k Z_k.  The pair commutes like (H0, C) does and their
    sum approximates H(lam) to O(lam^{n+1}).  An n outside 1..sol.order is
    a ValueError, raised by ``PerturbativeSolution.generator``.
    """
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

    H0 comes from the eigenpairs by ``_rotations``, an indexing for a
    permutation eigenbasis (bit-identical to ``spec.reconstruct()``).
    H0, H, iW and C are taken into the Fock phase gauge, each in the
    dtype ``_into_gauge`` gives it.  The engine's solutions of
    ``regime_series`` are real there: e^{iW} = e^{-A} is then real
    orthogonal (``expm``, within its accuracy contract) and the dressing
    is two real products.  The residual is hermitian, so its interior
    norm is the largest |eigenvalue| of the symmetrized interior block,
    not an SVD.  On the lam grid 0.02-0.16 at dim 242, orders 1-6, the
    result is within 1.1e-13 ||H||_2 of a complex reference (scipy's expm
    and an SVD).
    """
    n = sol.order if upto is None else upto
    k = _interior_size(spec.space, n_keep)
    _, from_eig = _rotations(spec.eigenbasis)
    h0 = _into_gauge(from_eig(np.diag(spec.eigenvalues.astype(complex))),
                     spec.space)
    h = h0 + _into_gauge(series.evaluate(lam).mat, spec.space)
    gen = _into_gauge(1j * sol.generator(lam, n).mat, spec.space)
    c = _into_gauge(sol.constant(lam, n).mat, spec.space)
    u = _expm_matrix(gen)
    resid = (u @ h @ u.conj().T - h0 - c)[:k, :k]
    values = np.linalg.eigvalsh(0.5 * (resid + resid.conj().T))
    return float(max(-values[0], values[-1]))
