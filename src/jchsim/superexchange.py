"""Effective spin models from second-order superexchange perturbation theory.

The generic numeric engine builds, for each site pair (j, k), the matrix

    (H_eff)_{rr',dd'} = delta_{rr',dd'} (E_r + E_r')
        + sum_chi <rr'|H_b|chi><chi|H_b|dd'>
          * 1/2 [1/(E_rr' - E_chi) + 1/(E_dd' - E_chi)]

over product states of the site-local dressed manifold (n excitations per
site), where the intermediates chi run over exact product eigenstates with
(n+1, n-1) and (n-1, n+1) excitation splits. The dressed site data of a
whole stack of sites is built at once, with one eigh per sector and per
manifold label block however many sites the stack holds. The engine works
on a stack of pairs: a model build runs it once per site j, on all
partners k > j together; a couplings sweep runs it once, on one pair per
sweep point; a single pair is a stack of one. Spin-1/2 (n=1) and spin-1
(n=2) coupling tables are then extracted by matching the matrix against
the XXZ and Heisenberg-like operator patterns, alongside the closed-form
coupling formulas valid at delta = 0, which serve as mutual oracles.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, fields

import numpy as np

from .crystal import CrystalGeometry, local_detunings
from .fock import assemble, product_basis
from .jchv import (
    LABEL_X,
    MANIFOLD_LABELS,
    MANIFOLD_N,
    site_ladder_stack,
)
from .params import DriveParams

DEGENERACY_TOL_FACTOR = 1e-9  # times max(g) -> "vanishing denominator"


class DegenerateIntermediateError(RuntimeError):
    """An intermediate state is resonant with the manifold while coupled to it.

    Signals breakdown of the second-order treatment for these parameters.
    Intermediates that cross the manifold energy with identically zero
    coupling (symmetry-protected crossings) do not trigger this.
    """

    def __init__(self, where, pair, gap, e_manifold, e_chi):
        super().__init__(
            f"{where}: intermediate at E={e_chi:.6g} within {gap:.3e} of "
            f"manifold energy {e_manifold:.6g} with nonzero coupling"
        )
        self.pair = pair
        self.gap = gap


@dataclass(frozen=True)
class _SiteData:
    """Dressed manifolds of stacked sites plus eigenpairs of their adjacent sectors.

    Every array has a leading site axis; indexing the record indexes that
    axis of each array. The ladder matrix elements are stored spread over
    a pair's intermediates (A, B) and product labels (r_j, r_k), as they
    enter the numerators of a partner k, so that a row's numerators are
    products of contiguous blocks.
    """

    manifold_e: np.ndarray  # (S, d) zeroth-order manifold energies
    upper_e: np.ndarray  # (S, u) sector n+1 eigenvalues
    lower_e: np.ndarray  # (S, l) sector n-1 eigenvalues
    # [A, B, r_j, r_k] = <r_k| a_beta |A>: (S, u, l, d, d), k the upper site
    drop_x: np.ndarray
    drop_y: np.ndarray
    # [B, r_j, r_k] = <B| a_beta |r_k>: (S, l, d, d), k the lower site
    lift_x: np.ndarray
    lift_y: np.ndarray

    def __getitem__(self, idx):
        return _SiteData(*(getattr(self, f.name)[idx] for f in fields(self)))


def _site_table(n, det_x, det_y, omega0, g_x, g_y):
    """_SiteData of a stack of sites: jchv.site_ladder_stack, spread."""
    manifold_e, upper_e, lower_e, *ladders = site_ladder_stack(
        n, det_x, det_y, omega0, g_x, g_y)
    (n_sites, d), u, n_lower = manifold_e.shape, upper_e.shape[1], lower_e.shape[1]

    def spread(a, shape):
        return np.ascontiguousarray(np.broadcast_to(a, shape))

    return _SiteData(
        manifold_e, upper_e, lower_e,
        *(spread(np.swapaxes(v, 1, 2)[:, :, None, None, :], (n_sites, u, n_lower, d, d))
          for v in ladders[:2]),
        *(spread(v[:, :, None, :], (n_sites, n_lower, d, d)) for v in ladders[2:]),
    )


def _hops(factors_x, factors_y, t_x, t_y, out):
    """Numerators t_x a_x b_x + t_y a_y b_y of P pairs, written into out.

    factors_beta = (a, b) are the ladder factors of the two sites, laid out
    like out, (P, u, l, d, d), or broadcast to it; t_x and t_y are the P
    pair hoppings.
    """
    per_pair = (slice(None),) + (None,) * 4
    np.multiply(*factors_x, out=out)
    out *= t_x[per_pair]
    y_part = np.multiply(*factors_y)
    y_part *= t_y[per_pair]
    out += y_part


def _degeneracy_tol(drive):
    return DEGENERACY_TOL_FACTOR * max(drive.g_x, drive.g_y, 1e-30)


def _second_order(site_j: _SiteData, partners: _SiteData, t_x, t_y, tol_deg, pairs,
                  points=None):
    """Zeroth-order energies and symmetrized second-order matrices of P pairs (j, k).

    site_j is a stack of one site shared by the P pairs (a row of a model
    build) or of P sites, partners the stack of the P partners k, t_x, t_y
    and tol_deg the P hoppings and degeneracy tolerances, and pairs the P
    labels (j, k) that errors name, after the P names in points if given.
    Rows run over product labels (r_j, r'_k), j-major. Both intermediate
    splits, (n+1 at j, n-1 at k) then the reverse, are stacked and summed
    in one weighted contraction per pair, batched over the stack. Errors
    name the stack's first failing pair; a pair with a coupled resonant
    intermediate fails as degenerate before it is checked for finiteness.
    """
    def name(i):
        pair = f"pair {pairs[i]}"
        return pair if points is None else f"{points[i]}: {pair}"

    n_pairs, d = partners.manifold_e.shape
    e_pair = (site_j.manifold_e[:, :, None]
              + partners.manifold_e[:, None, :]).reshape(n_pairs, d * d)

    def as_row(factor):  # site j's factor, its label moved to the r_j slot
        return np.ascontiguousarray(np.swapaxes(factor, -1, -2))

    # intermediates chi = |A_up, B_down>, reached by a_up^dag a_down, in
    # row-major (A, B) order: first an excitation moved from k to j, then
    # from j to k
    num = np.empty((n_pairs, 2, site_j.upper_e.shape[1], site_j.lower_e.shape[1], d, d))
    _hops((as_row(site_j.drop_x), partners.lift_x[:, None]),
          (as_row(site_j.drop_y), partners.lift_y[:, None]), t_x, t_y, num[:, 0])
    _hops((partners.drop_x, as_row(site_j.lift_x)[:, None]),
          (partners.drop_y, as_row(site_j.lift_y)[:, None]), t_x, t_y, num[:, 1])
    e_chi = np.concatenate(
        [site_j.upper_e[:, :, None] + partners.lower_e[:, None, :],
         partners.upper_e[:, :, None] + site_j.lower_e[:, None, :]],
        axis=1).reshape(n_pairs, -1)
    num = num.reshape(n_pairs, -1, d * d)
    # the denominators, inverted in place below; with num the only
    # stack-sized arrays alive from here on
    inv = np.empty_like(num)
    np.copyto(inv, e_pair[:, None, :])
    inv -= e_chi[:, :, None]
    tol = tol_deg[:, None, None]
    close = (inv < tol) & (inv > -tol)  # |inv| < tol_deg, no float temporary
    any_close = close.any()
    degenerate = n_pairs
    if any_close:
        tol_num = 1e-10 * (np.abs(t_x) + np.abs(t_y)) * math.sqrt(d)  # sqrt(n + 1)
        coupled = close & (np.abs(num) > tol_num[:, None, None])
        hit = coupled.any(axis=(1, 2))
        if hit.any():
            degenerate = int(np.argmax(hit))
            chi, where = divmod(int(np.argmax(coupled[degenerate])), d * d)
            error = DegenerateIntermediateError(
                name(degenerate), pairs[degenerate],
                float(np.abs(inv[degenerate, chi, where])),
                float(e_pair[degenerate, where]), float(e_chi[degenerate, chi]),
            )
        inv[close] = 1.0
    np.divide(1.0, inv, out=inv)
    if any_close:  # resonant but decoupled: zero numerator kills these rows anyway
        inv[close] = 0.0
    inv *= num
    a = np.matmul(inv.swapaxes(1, 2), num)
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(e_pair).all(axis=1)
    non_finite = int(np.argmin(finite)) if not finite.all() else n_pairs
    if non_finite < degenerate:
        raise FloatingPointError(
            f"{name(non_finite)}: non-finite second-order matrix")
    if degenerate < n_pairs:
        raise error
    return e_pair, 0.5 * (a + a.swapaxes(1, 2))


@dataclass(frozen=True)
class PairEffectiveMatrix:
    """Effective Hamiltonian of one site pair over manifold product states."""

    j: int
    k: int
    manifold: str  # 'half' or 'one'
    labels: tuple  # product labels (r_j, r'_k), row-major in site j
    matrix: np.ndarray  # d^2 x d^2, zeroth + second order, Hermitian
    second_order: np.ndarray  # the superexchange part alone
    couplings: dict  # {name: (for_j, for_k)}, as the model tables hold them


def pair_effective_matrix(j, k, geometry: CrystalGeometry, drive: DriveParams,
                          manifold="half"):
    """Second-order effective pair Hamiltonian, Eq.-style symmetrized denominators.

    manifold 'half' uses the one-excitation dressed doublet per site,
    'one' the two-excitation triplet. Raises DegenerateIntermediateError
    when a coupled intermediate is resonant with the manifold. It is
    pair_stack on one point, so its couplings equal the model tables'
    [j, k] and [k, j] entries, and a sweep point's, bit for bit.
    """
    e_pair, m2, couplings = pair_stack(j, k, [geometry], [drive], manifold)
    labels = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
    return PairEffectiveMatrix(
        j=j,
        k=k,
        manifold=manifold,
        labels=tuple((r, rp) for r in labels for rp in labels),
        matrix=np.diag(e_pair[0]) + m2[0],
        second_order=m2[0],
        couplings={name: (for_j[0], for_k[0])
                   for name, (for_j, for_k) in couplings.items()},
    )


def pair_stack(j, k, geometries, drives, manifold="half", points=None):
    """Pair (j, k) at each of P points (geometry, drive), as one stack.

    One site table holds site j of every point, then site k, and one
    engine call serves the P pairs; errors name the first failing point,
    by its entry in points if given. Returns the (P, d*d) zeroth-order
    energies, the (P, d*d, d*d) second-order matrices and the {name:
    (for_j, for_k)} per-point coupling arrays.
    """
    if j == k:
        raise ValueError("pair requires distinct sites")
    detunings = [local_detunings(geo, drive) for geo, drive in zip(geometries, drives)]
    entries = np.array([(det_x[s], det_y[s], drive.omega0, drive.g_x, drive.g_y)
                        for s in (j, k)
                        for (det_x, det_y), drive in zip(detunings, drives)])
    sites = _site_table(MANIFOLD_N[manifold], *entries.T)
    n_points = len(drives)
    e_pair, m2 = _second_order(
        sites[:n_points], sites[n_points:],
        np.array([geo.t_x[j, k] for geo in geometries]),
        np.array([geo.t_y[j, k] for geo in geometries]),
        np.array([_degeneracy_tol(drive) for drive in drives]),
        [(j, k)] * n_points, points,
    )
    return e_pair, m2, _EXTRACT[manifold](m2)[0]


def _all_pairs(n, geometry, drive, extract):
    """Second-order coefficients of every pair j < k from one site table.

    Each row j runs the engine once, on the stack of its partners k > j.
    extract maps a stack of second-order matrices to ({name: (for_j,
    for_k)} of per-pair arrays, largest residual). Table name holds for_j
    at [j, k] and for_k at [k, j], so a pair coupling is a symmetric
    table, a site term sums along rows and a pair constant (given as
    (const, 0)) sums over the whole table. Returns the (N, d) zeroth-order
    manifold energies, the tables and the residuals dict of the models.
    """
    n_ions = geometry.n_ions
    det_x, det_y = local_detunings(geometry, drive)
    sites = _site_table(n, det_x, det_y, drive.omega0, drive.g_x, drive.g_y)
    tables = defaultdict(lambda: np.zeros((n_ions, n_ions)))
    tol_deg = np.full(n_ions, _degeneracy_tol(drive))
    max_residual = max_asym = 0.0
    for j in range(n_ions - 1):
        ks = slice(j + 1, None)
        _, m2 = _second_order(sites[j:j + 1], sites[ks], geometry.t_x[j, ks],
                              geometry.t_y[j, ks], tol_deg[ks],
                              [(j, k) for k in range(j + 1, n_ions)])
        coeffs, residual = extract(m2)
        for name, (for_j, for_k) in coeffs.items():
            tables[name][j, ks] = for_j
            tables[name][ks, j] = for_k
        max_residual = max(max_residual, residual)
        max_asym = max(max_asym, float(np.max(np.abs(m2 - m2.swapaxes(1, 2)))))
    return sites.manifold_e, tables, {"extraction": max_residual,
                                      "hermiticity": max_asym}


# ---------------------------------------------------------------------------
# coupling-table models


@dataclass(frozen=True)
class SpinModel:
    """Coupling tables of the spin-1/2 ('half') or spin-1 ('one') model.

    tables maps each coupling name of MODEL_TERMS[manifold] to an N x N
    pair table (symmetric, zero diagonal) or a length-N site field.
    """

    manifold: str
    tables: dict
    energy_offset: float  # spin-independent constant, kept for spectrum fidelity
    residuals: dict = field(default_factory=dict)

    @property
    def n_sites(self):
        return len(next(iter(self.tables.values())))


def _extract_half(m2):
    """XXZ coefficients from a stack of 4x4 second-order pair matrices.

    The ansatz is exact here. Returns per-pair coefficient arrays and the
    stack's largest residual.
    """
    diag = np.diagonal(m2, axis1=-2, axis2=-1)
    k_xy = 0.5 * m2[..., 1, 2]  # <up,down|H|down,up> = 2 K_xy
    const = 0.25 * diag.sum(axis=-1)
    k_z = 0.25 * (diag[..., 0] - diag[..., 1] - diag[..., 2] + diag[..., 3])
    h_j = 0.25 * (diag[..., 0] + diag[..., 1] - diag[..., 2] - diag[..., 3])
    h_k = 0.25 * (diag[..., 0] - diag[..., 1] + diag[..., 2] - diag[..., 3])
    recon = diag[..., None] * np.eye(4)
    recon[..., 1, 2] = recon[..., 2, 1] = 2.0 * k_xy
    residual = float(np.max(np.abs(m2 - recon)))
    return {
        "K_xy": (k_xy, k_xy),
        "K_z": (k_z, k_z),
        "H_field": (h_j, h_k),
        "const": (const, np.zeros_like(const)),
    }, residual


def spin_half_general(geometry: CrystalGeometry, drive: DriveParams):
    """Numeric spin-1/2 model from the pair engine, all pairs."""
    energies, pairs, residuals = _all_pairs(1, geometry, drive, _extract_half)
    e_up, e_down = energies.T
    tables = {name: pairs[name] for name, _ in MODEL_TERMS["half"][1]}
    tables["H_field"] = pairs["H_field"].sum(axis=1)  # second-order part only
    tables["E0_split"] = 0.5 * (e_up - e_down)  # zeroth-order (E_up - E_down)/2
    offset = np.sum(0.5 * (e_up + e_down)) + pairs["const"].sum()
    return SpinModel("half", tables, offset, residuals)


# spin-1 product order (m_j, m_k), j-major: (1,1),(1,0),(1,-1),(0,1),...
_M_VALUES = (1.0, 0.0, -1.0)
_MONOMIALS = np.array(
    [
        [mj**p * mk**q for p in range(3) for q in range(3)]
        for mj in _M_VALUES
        for mk in _M_VALUES
    ]
)  # rows: product states; cols: coefficients of m_j^p m_k^q
_MONOMIALS_INV = np.linalg.inv(_MONOMIALS)


def _extract_one(m2):
    """Spin-1 coefficients from stacked 9x9 second-order pair matrices by pattern matching.

    The diagonal is solved exactly in the monomial basis m_j^p m_k^q; the
    j<->k antisymmetric part of the mixed cubic term falls outside the
    site-symmetric ansatz and is reported as a residual, as is any
    difference between the two transition elements feeding T^(0).
    Returns per-pair coefficient arrays and the stack's largest residual.
    """
    coeff = np.matmul(_MONOMIALS_INV, np.diagonal(m2, axis1=-2, axis2=-1)[..., None])
    c = {(p, q): coeff[..., 3 * p + q, 0] for p in range(3) for q in range(3)}
    t_1 = m2[..., 1, 3]  # (1,0) <-> (0,1)
    t_m1 = m2[..., 7, 5]  # (-1,0) <-> (0,-1)
    t_0a = m2[..., 2, 4]  # (1,-1) <-> (0,0)
    t_0b = m2[..., 6, 4]  # (-1,1) <-> (0,0)
    t_0 = 0.5 * (t_0a + t_0b)
    v_p1 = 0.5 * (t_1 - t_0)
    v_m1 = 0.5 * (t_m1 - t_0)
    w_sym = 0.5 * (c[1, 2] + c[2, 1])
    w_asym = 0.5 * (c[1, 2] - c[2, 1])

    # reconstruct the ansatz matrix to expose anything outside the pattern
    recon = np.matmul(_MONOMIALS, coeff) * np.eye(9)
    for a, b, v in ((1, 3, t_1), (7, 5, t_m1), (2, 4, t_0), (6, 4, t_0)):
        recon[..., a, b] = recon[..., b, a] = v
    residual = float(max(np.max(np.abs(m2 - recon)), np.max(np.abs(w_asym)),
                         np.max(0.5 * np.abs(t_0a - t_0b))))
    return {
        "J_xy": (t_0, t_0),
        "v_p1": (v_p1, v_p1),
        "v_m1": (v_m1, v_m1),
        "J_z": (c[1, 1], c[1, 1]),
        "W": (w_sym, w_sym),
        "V": (c[2, 2], c[2, 2]),
        "B_field": (c[1, 0], c[0, 1]),
        "D_field": (c[2, 0], c[0, 2]),
        "const": (c[0, 0], np.zeros_like(c[0, 0])),
    }, residual


def spin_one_general(geometry: CrystalGeometry, drive: DriveParams):
    """Numeric spin-1 model from the pair engine, all pairs."""
    energies, pairs, residuals = _all_pairs(2, geometry, drive, _extract_one)
    e1, e0, em1 = energies.T
    tables = {name: pairs[name] for name, _ in MODEL_TERMS["one"][1]}
    tables["D_field"] = 0.5 * (e1 + em1 - 2.0 * e0) + pairs["D_field"].sum(axis=1)
    tables["B_field"] = 0.5 * (e1 - em1) + pairs["B_field"].sum(axis=1)
    offset = np.sum(e0) + pairs["const"].sum()
    return SpinModel("one", tables, offset, residuals)


_EXTRACT = {"half": _extract_half, "one": _extract_one}


# ---------------------------------------------------------------------------
# closed-form coupling formulas (valid at delta = 0)


def spin_half_analytic(g_x, g_y, t_x, t_y):
    """XXZ couplings at delta = 0 with zeta = arctan(g_x/g_y).

    t_x/t_y may be scalars or matrices; H accumulates over partners when
    matrices are given, matching the pair engine's conventions.
    """
    t_x = np.asarray(t_x, dtype=float)
    t_y = np.asarray(t_y, dtype=float)
    tz = g_x / g_y
    ctz = g_y / g_x
    k_xy = -t_x * t_y * (2.0 * (tz + ctz) + 5.0) / (8.0 * g_y * (1.0 + tz))
    k_z = (
        t_x**2 * (tz - 6.0 * ctz - 4.0) + t_y**2 * (ctz - 6.0 * tz - 4.0)
    ) / (16.0 * g_y * (1.0 + tz))
    h_terms = -(5.0 / 8.0) * (t_x**2 / g_x - t_y**2 / g_y)
    h = h_terms.sum(axis=1) if h_terms.ndim == 2 else h_terms
    return k_xy, k_z, h


def spin_one_isotropic_analytic(g, t_x, t_y):
    """Spin-1 couplings at g_x = g_y = g, delta = 0."""
    t_x = np.asarray(t_x, dtype=float)
    t_y = np.asarray(t_y, dtype=float)
    j_xy = -(123.0 * math.sqrt(2.0) / (7.0 * g)) * t_x * t_y
    j_z = -(123.0 / (7.0 * math.sqrt(2.0) * g)) * (t_x**2 + t_y**2)
    b = -(53.0 / (2.0 * math.sqrt(2.0) * g)) * (t_x**2 - t_y**2)
    return j_xy, j_z, b


# ---------------------------------------------------------------------------
# spin Hamiltonians on a conserved S_z block of the 2^N / 3^N product space


SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# spin-1 in the (|1>, |0>, |-1>) basis; S_- is S_PLUS.T
S_PLUS = math.sqrt(2.0) * np.array(
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
)
S_Z1 = np.diag([1.0, 0.0, -1.0])
_SZ2 = S_Z1 @ S_Z1
_A_P = np.kron(S_Z1 @ S_PLUS, S_PLUS.T @ S_Z1)
_A_M = np.kron(S_Z1 @ S_PLUS.T, S_PLUS @ S_Z1)

# MODEL_TERMS[manifold] = (site terms, pair terms): (table name, operator)
# in summation order; XX + YY is written with the real ladder operators
MODEL_TERMS = {
    "half": (
        (("H_field", SIGMA_Z), ("E0_split", SIGMA_Z)),
        (("K_xy", 2.0 * (np.kron(SIGMA_PLUS, SIGMA_PLUS.T)
                         + np.kron(SIGMA_PLUS.T, SIGMA_PLUS))),
         ("K_z", np.kron(SIGMA_Z, SIGMA_Z))),
    ),
    "one": (
        (("D_field", _SZ2), ("B_field", S_Z1)),
        (("J_xy", 0.5 * (np.kron(S_PLUS, S_PLUS.T) + np.kron(S_PLUS.T, S_PLUS))),
         ("J_z", np.kron(S_Z1, S_Z1)),
         ("W", np.kron(S_Z1, _SZ2) + np.kron(_SZ2, S_Z1)),
         ("V", np.kron(_SZ2, _SZ2)),
         ("v_p1", _A_P + _A_P.T),
         ("v_m1", _A_M + _A_M.T)),
    ),
}


def spin_block(manifold, labels):
    """Product basis of the manifold's spin labels in the total-S_z block of
    labels: each label counts its LABEL_X (S_z shifted to 0, 1, ...)."""
    letters = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
    return product_basis({lab: LABEL_X[lab] for lab in letters}, len(labels),
                         sum(LABEL_X[lab] for lab in labels))


def build_spin_hamiltonian(model, basis):
    """Sparse effective spin Hamiltonian from a coupling-table model.

    Includes the zeroth-order single-site terms and the spin-independent
    constant, so its spectrum matches the pair effective matrices, not
    just its dynamics. basis is a product basis of the model's labels:
    a spin_block, or the whole product space (all x counts 0).
    """
    site, pair = MODEL_TERMS[model.manifold]
    tables, n = model.tables, model.n_sites
    terms = [(sum(tables[name][j] * op for name, op in site), (j,))
             for j in range(n)]
    terms += [(sum(tables[name][j, k] * op for name, op in pair), (j, k))
              for j in range(n) for k in range(j + 1, n)]
    terms.append((model.energy_offset * np.eye(len(basis.alphabet)), (0,)))
    return assemble(basis, terms)
