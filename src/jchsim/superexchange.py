"""Effective spin models from second-order superexchange perturbation theory.

The generic numeric engine builds, for each site pair (j, k), the matrix

    (H_eff)_{rr',dd'} = delta_{rr',dd'} (E_r + E_r')
        + sum_chi <rr'|H_b|chi><chi|H_b|dd'>
          * 1/2 [1/(E_rr' - E_chi) + 1/(E_dd' - E_chi)]

over product states of the site-local dressed manifold (n excitations per
site), where the intermediates chi run over exact product eigenstates with
(n+1, n-1) and (n-1, n+1) excitation splits. Spin-1/2 (n=1) and spin-1
(n=2) coupling tables are then extracted by matching the matrix against
the XXZ and Heisenberg-like operator patterns, alongside the closed-form
coupling formulas valid at delta = 0, which serve as mutual oracles.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .crystal import CrystalGeometry, local_detunings
from .fock import assemble, product_basis, site_sector_operators
from .jchv import (
    LABEL_X,
    MANIFOLD_LABELS,
    MANIFOLD_N,
    site_manifold_states,
    site_sector_eigh,
)
from .params import DriveParams

DEGENERACY_TOL_FACTOR = 1e-9  # times max(g) -> "vanishing denominator"


class DegenerateIntermediateError(RuntimeError):
    """An intermediate state is resonant with the manifold while coupled to it.

    Signals breakdown of the second-order treatment for these parameters.
    Intermediates that cross the manifold energy with identically zero
    coupling (symmetry-protected crossings) do not trigger this.
    """

    def __init__(self, pair, gap, e_manifold, e_chi):
        super().__init__(
            f"pair {pair}: intermediate at E={e_chi:.6g} within {gap:.3e} of "
            f"manifold energy {e_manifold:.6g} with nonzero coupling"
        )
        self.pair = pair
        self.gap = gap


@dataclass(frozen=True)
class _SiteData:
    """Dressed manifold of one site plus full eigenpairs of its adjacent sectors."""

    manifold_e: np.ndarray  # (d,) zeroth-order manifold energies
    upper_e: np.ndarray  # sector n+1 eigenvalues
    lower_e: np.ndarray  # sector n-1 eigenvalues
    # <r| a_beta |A>: manifold row, upper-eigenstate column
    drop_x: np.ndarray
    drop_y: np.ndarray
    # <B| a_beta |r>: lower-eigenstate row, manifold column
    lift_x: np.ndarray
    lift_y: np.ndarray


def _site_data(n, det_x, det_y, drive):
    manifold_e, man_v = site_manifold_states(n, det_x, det_y, drive)
    upper_e, upper_v = site_sector_eigh(n + 1, det_x, det_y, drive)
    lower_e, lower_v = site_sector_eigh(n - 1, det_x, det_y, drive)
    up = site_sector_operators(n + 1)  # a_x/a_y: sector n+1 -> n
    dn = site_sector_operators(n)  # a_x/a_y: sector n -> n-1
    return _SiteData(
        manifold_e=manifold_e,
        upper_e=upper_e,
        lower_e=lower_e,
        drop_x=man_v @ up["a_x"] @ upper_v,
        drop_y=man_v @ up["a_y"] @ upper_v,
        lift_x=lower_v.T @ dn["a_x"] @ man_v.T,
        lift_y=lower_v.T @ dn["a_y"] @ man_v.T,
    )


def _site_table(n, geometry, drive):
    """_SiteData of every site, computed once per model build."""
    det_x, det_y = local_detunings(geometry, drive)
    return [_site_data(n, det_x[j], det_y[j], drive)
            for j in range(geometry.n_ions)]


def _hops(up: _SiteData, down: _SiteData, t_x, t_y):
    """Intermediates with one excitation moved from site `down` to site `up`.

    chi = |A_up, B_down>, reached by a_up^dag a_down, in row-major (A, B)
    order. Returns the numerators <r_up r_down|H_b|chi> as an array
    [chi, r_up, r_down] and the intermediate energies E_A + E_B.
    """
    num = (t_x * np.einsum("ra,bs->abrs", up.drop_x, down.lift_x)
           + t_y * np.einsum("ra,bs->abrs", up.drop_y, down.lift_y))
    d = len(up.manifold_e)
    energies = (up.upper_e[:, None] + down.lower_e[None, :]).ravel()
    return num.reshape(-1, d, d), energies


def _degeneracy_tol(drive):
    return DEGENERACY_TOL_FACTOR * max(drive.g_x, drive.g_y, 1e-30)


def _second_order(pair, site_j: _SiteData, site_k: _SiteData, t_x, t_y, tol_deg):
    """Zeroth-order pair energies and the symmetrized second-order matrix.

    Rows run over product labels (r_j, r'_k), j-major. Both intermediate
    splits, (n+1 at j, n-1 at k) then the reverse, are stacked and summed
    in one weighted contraction.
    """
    d = len(site_j.manifold_e)
    e_pair = (site_j.manifold_e[:, None] + site_k.manifold_e[None, :]).ravel()
    num_jk, e_jk = _hops(site_j, site_k, t_x, t_y)
    num_kj, e_kj = _hops(site_k, site_j, t_x, t_y)
    num = np.concatenate([num_jk, num_kj.transpose(0, 2, 1)]).reshape(-1, d * d)
    e_chi = np.concatenate([e_jk, e_kj])
    dvec = e_pair[None, :] - e_chi[:, None]
    close = np.abs(dvec) < tol_deg
    tol_num = 1e-10 * (abs(t_x) + abs(t_y)) * math.sqrt(d)  # sqrt(n + 1)
    coupled = close & (np.abs(num) > tol_num)
    if np.any(coupled):
        chi, where = divmod(int(np.argmax(coupled)), d * d)
        raise DegenerateIntermediateError(
            pair, float(np.abs(dvec[chi, where])),
            float(e_pair[where]), float(e_chi[chi]),
        )
    # resonant but decoupled: zero numerator kills these rows anyway
    inv = np.where(close, 0.0, 1.0 / np.where(close, 1.0, dvec))
    a = (num * inv).T @ num
    if not (np.isfinite(a).all() and np.isfinite(e_pair).all()):
        raise FloatingPointError(f"pair {pair}: non-finite second-order matrix")
    return e_pair, 0.5 * (a + a.T)


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
    when a coupled intermediate is resonant with the manifold. Its
    couplings are bit-identical to the model tables' [j, k] entries.
    """
    if j == k:
        raise ValueError("pair requires distinct sites")
    n = MANIFOLD_N[manifold]
    det_x, det_y = local_detunings(geometry, drive)
    e_pair, m2 = _second_order(
        (j, k),
        _site_data(n, det_x[j], det_y[j], drive),
        _site_data(n, det_x[k], det_y[k], drive),
        geometry.t_x[j, k], geometry.t_y[j, k], _degeneracy_tol(drive),
    )
    labels = MANIFOLD_LABELS[n]
    return PairEffectiveMatrix(
        j=j,
        k=k,
        manifold=manifold,
        labels=tuple((r, rp) for r in labels for rp in labels),
        matrix=np.diag(e_pair) + m2,
        second_order=m2,
        couplings=_EXTRACT[manifold](m2)[0],
    )


def _all_pairs(n, geometry, drive, extract):
    """Second-order coefficients of every pair j < k from one site table.

    extract maps a pair's second-order matrix to ({name: (for_j, for_k)},
    residual). Table name holds for_j at [j, k] and for_k at [k, j], so a
    pair coupling is a symmetric table, a site term sums along rows and a
    pair constant (given as (const, 0)) sums over the whole table.
    Returns the (N, d) zeroth-order manifold energies, the tables and
    the residuals dict of the models.
    """
    sites = _site_table(n, geometry, drive)
    n_ions = len(sites)
    tables = defaultdict(lambda: np.zeros((n_ions, n_ions)))
    tol_deg = _degeneracy_tol(drive)
    max_residual = max_asym = 0.0
    for j in range(n_ions):
        for k in range(j + 1, n_ions):
            _, m2 = _second_order((j, k), sites[j], sites[k], geometry.t_x[j, k],
                                  geometry.t_y[j, k], tol_deg)
            coeffs, residual = extract(m2)
            for name, (for_j, for_k) in coeffs.items():
                tables[name][j, k] = for_j
                tables[name][k, j] = for_k
            max_residual = max(max_residual, residual)
            max_asym = max(max_asym, float(np.max(np.abs(m2 - m2.T))))
    energies = np.array([s.manifold_e for s in sites])
    return energies, tables, {"extraction": max_residual, "hermiticity": max_asym}


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
    """XXZ coefficients from a 4x4 second-order pair matrix; the ansatz is exact here."""
    diag = np.diag(m2)
    k_xy = 0.5 * m2[1, 2]  # <up,down|H|down,up> = 2 K_xy
    const = 0.25 * diag.sum()
    k_z = 0.25 * (diag[0] - diag[1] - diag[2] + diag[3])
    h_j = 0.25 * (diag[0] + diag[1] - diag[2] - diag[3])
    h_k = 0.25 * (diag[0] - diag[1] + diag[2] - diag[3])
    recon = np.diag(diag).astype(float)
    recon[1, 2] = recon[2, 1] = 2.0 * k_xy
    residual = float(np.max(np.abs(m2 - recon)))
    return {
        "K_xy": (k_xy, k_xy),
        "K_z": (k_z, k_z),
        "H_field": (h_j, h_k),
        "const": (const, 0.0),
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
    """Spin-1 coefficients from a 9x9 second-order pair matrix by pattern matching.

    The diagonal is solved exactly in the monomial basis m_j^p m_k^q; the
    j<->k antisymmetric part of the mixed cubic term falls outside the
    site-symmetric ansatz and is reported as a residual, as is any
    difference between the two transition elements feeding T^(0).
    """
    coeff = _MONOMIALS_INV @ np.diag(m2)
    c = {(p, q): coeff[3 * p + q] for p in range(3) for q in range(3)}
    t_1 = m2[1, 3]  # (1,0) <-> (0,1)
    t_m1 = m2[7, 5]  # (-1,0) <-> (0,-1)
    t_0a = m2[2, 4]  # (1,-1) <-> (0,0)
    t_0b = m2[6, 4]  # (-1,1) <-> (0,0)
    t_0 = 0.5 * (t_0a + t_0b)
    v_p1 = 0.5 * (t_1 - t_0)
    v_m1 = 0.5 * (t_m1 - t_0)
    w_sym = 0.5 * (c[1, 2] + c[2, 1])
    w_asym = 0.5 * (c[1, 2] - c[2, 1])

    # reconstruct the ansatz matrix to expose anything outside the pattern
    recon = np.diag(_MONOMIALS @ coeff)
    for a, b, v in ((1, 3, t_1), (7, 5, t_m1), (2, 4, t_0), (6, 4, t_0)):
        recon[a, b] = recon[b, a] = v
    residual = float(
        max(np.max(np.abs(m2 - recon)), abs(w_asym), 0.5 * abs(t_0a - t_0b))
    )
    return {
        "J_xy": (t_0, t_0),
        "v_p1": (v_p1, v_p1),
        "v_m1": (v_m1, v_m1),
        "J_z": (c[1, 1], c[1, 1]),
        "W": (w_sym, w_sym),
        "V": (c[2, 2], c[2, 2]),
        "B_field": (c[1, 0], c[0, 1]),
        "D_field": (c[2, 0], c[0, 2]),
        "const": (c[0, 0], 0.0),
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
