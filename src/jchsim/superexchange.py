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
from dataclasses import dataclass, field

import numpy as np

from .crystal import CrystalGeometry, local_detunings
from .fock import assemble, product_basis, site_sector_operators, site_states
from .jchv import (
    MANIFOLD_LABELS,
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
    """Per-site dressed manifold plus full eigenpairs of the adjacent sectors."""

    manifold_e: np.ndarray  # (d,)
    manifold_v: np.ndarray  # (d, dim_n) dense manifold vectors
    upper_e: np.ndarray  # sector n+1 eigenvalues
    lower_e: np.ndarray  # sector n-1 eigenvalues
    # <r| a_beta |A>: manifold row, upper-eigenstate column
    drop_x: np.ndarray
    drop_y: np.ndarray
    # <B| a_beta |r>: lower-eigenstate row, manifold column
    lift_x: np.ndarray
    lift_y: np.ndarray


def _site_data(n, det_x, det_y, drive):
    labels = MANIFOLD_LABELS[n]
    energies, vectors = site_manifold_states(n, det_x, det_y, drive)
    states_n = site_states(n)
    index_n = {s: i for i, s in enumerate(states_n)}
    man_v = np.zeros((len(labels), len(states_n)))
    for r, label in enumerate(labels):
        for s, coeff in vectors[label].items():
            man_v[r, index_n[s]] = coeff
    upper_e, upper_v, _ = site_sector_eigh(n + 1, det_x, det_y, drive)
    lower_e, lower_v, _ = site_sector_eigh(n - 1, det_x, det_y, drive)
    up = site_sector_operators(n + 1)  # a_x/a_y: sector n+1 -> n
    dn = site_sector_operators(n)  # a_x/a_y: sector n -> n-1
    return _SiteData(
        manifold_e=np.array([energies[l] for l in labels]),
        manifold_v=man_v,
        upper_e=upper_e,
        lower_e=lower_e,
        drop_x=man_v @ up["a_x"] @ upper_v,
        drop_y=man_v @ up["a_y"] @ upper_v,
        lift_x=lower_v.T @ dn["a_x"] @ man_v.T,
        lift_y=lower_v.T @ dn["a_y"] @ man_v.T,
    )


@dataclass(frozen=True)
class PairEffectiveMatrix:
    """Effective Hamiltonian of one site pair over manifold product states."""

    j: int
    k: int
    manifold: str  # 'half' or 'one'
    labels: tuple  # product labels (r_j, r'_k), row-major in site j
    matrix: np.ndarray  # d^2 x d^2, zeroth + second order, Hermitian
    second_order: np.ndarray  # the superexchange part alone
    pair_energies: np.ndarray  # zeroth-order diagonal E_r + E_r'
    site_energies_j: np.ndarray
    site_energies_k: np.ndarray
    asymmetry: float  # Hermiticity defect before symmetrization


def pair_effective_matrix(j, k, geometry: CrystalGeometry, drive: DriveParams,
                          manifold="half", homogeneous=False):
    """Second-order effective pair Hamiltonian, Eq.-style symmetrized denominators.

    manifold 'half' uses the one-excitation dressed doublet per site,
    'one' the two-excitation triplet. Raises DegenerateIntermediateError
    when a coupled intermediate is resonant with the manifold.
    """
    if j == k:
        raise ValueError("pair requires distinct sites")
    n = {"half": 1, "one": 2}[manifold]
    labels = MANIFOLD_LABELS[n]
    d = len(labels)
    det_x, det_y = local_detunings(geometry, drive, homogeneous=homogeneous)
    data_j = _site_data(n, det_x[j], det_y[j], drive)
    data_k = _site_data(n, det_x[k], det_y[k], drive)
    t_x = geometry.t_x[j, k]
    t_y = geometry.t_y[j, k]

    e_pair = (data_j.manifold_e[:, None] + data_k.manifold_e[None, :]).ravel()
    m2 = np.zeros((d * d, d * d))
    tol_deg = DEGENERACY_TOL_FACTOR * max(drive.g_x, drive.g_y, 1e-30)
    tol_num = 1e-10 * (abs(t_x) + abs(t_y)) * math.sqrt(n + 1.0)

    def accumulate(num, e_chi):
        # one intermediate chi: numerator vector over product labels (j-major)
        if not np.any(num):
            return
        dvec = e_pair - e_chi
        close = np.abs(dvec) < tol_deg
        if np.any(close):
            coupled = close & (np.abs(num) > tol_num)
            if np.any(coupled):
                where = int(np.argmax(coupled))
                raise DegenerateIntermediateError(
                    (j, k), float(np.abs(dvec[where])),
                    float(e_pair[where]), float(e_chi),
                )
            # resonant but decoupled: zero numerator kills these rows anyway
            inv = np.where(close, 0.0, 1.0 / np.where(close, 1.0, dvec))
        else:
            inv = 1.0 / dvec
        m2[:, :] += np.outer(num, num) * 0.5 * (inv[:, None] + inv[None, :])

    # split (n+1 at j, n-1 at k): chi = |A_j, B_k>, reached by a_j^dag a_k
    for a_idx, e_a in enumerate(data_j.upper_e):
        for b_idx, e_b in enumerate(data_k.lower_e):
            num = (
                t_x * np.outer(data_j.drop_x[:, a_idx], data_k.lift_x[b_idx, :])
                + t_y * np.outer(data_j.drop_y[:, a_idx], data_k.lift_y[b_idx, :])
            ).ravel()
            accumulate(num, e_a + e_b)

    # split (n-1 at j, n+1 at k): roles swapped, site j still indexes rows
    for a_idx, e_a in enumerate(data_k.upper_e):
        for b_idx, e_b in enumerate(data_j.lower_e):
            num = (
                t_x * np.outer(data_j.lift_x[b_idx, :], data_k.drop_x[:, a_idx])
                + t_y * np.outer(data_j.lift_y[b_idx, :], data_k.drop_y[:, a_idx])
            ).ravel()
            accumulate(num, e_a + e_b)

    asym = float(np.max(np.abs(m2 - m2.T))) if m2.size else 0.0
    m2 = 0.5 * (m2 + m2.T)
    product_labels = tuple((r, rp) for r in labels for rp in labels)
    return PairEffectiveMatrix(
        j=j,
        k=k,
        manifold=manifold,
        labels=product_labels,
        matrix=np.diag(e_pair) + m2,
        second_order=m2,
        pair_energies=e_pair,
        site_energies_j=data_j.manifold_e,
        site_energies_k=data_k.manifold_e,
        asymmetry=asym,
    )


# ---------------------------------------------------------------------------
# coupling-table models


@dataclass(frozen=True)
class SpinHalfModel:
    """XXZ coupling tables: K matrices, second-order fields, zeroth-order split."""

    K_xy: np.ndarray  # N x N symmetric, zero diagonal
    K_z: np.ndarray
    H_field: np.ndarray  # length N, second-order part only
    E0_split: np.ndarray  # per-site (E_up - E_down)/2 zeroth-order splitting
    energy_offset: float  # spin-independent constant, kept for spectrum fidelity
    residuals: dict = field(default_factory=dict)

    @property
    def n_sites(self):
        return len(self.H_field)


@dataclass(frozen=True)
class SpinOneModel:
    """Heisenberg-like spin-1 coupling tables including cubic/quartic terms."""

    J_xy: np.ndarray
    J_z: np.ndarray
    W: np.ndarray
    V: np.ndarray
    v_p1: np.ndarray
    v_m1: np.ndarray
    D_field: np.ndarray  # includes zeroth-order (E_1 + E_-1 - 2 E_0)/2
    B_field: np.ndarray  # includes zeroth-order (E_1 - E_-1)/2
    energy_offset: float
    residuals: dict = field(default_factory=dict)

    @property
    def n_sites(self):
        return len(self.D_field)


def _extract_half(pair: PairEffectiveMatrix):
    """XXZ coefficients from a 4x4 pair matrix; the ansatz is exact here."""
    m2 = pair.second_order
    diag = np.diag(m2)
    k_xy = 0.5 * m2[1, 2]  # <up,down|H|down,up> = 2 K_xy
    const = 0.25 * diag.sum()
    k_z = 0.25 * (diag[0] - diag[1] - diag[2] + diag[3])
    h_j = 0.25 * (diag[0] + diag[1] - diag[2] - diag[3])
    h_k = 0.25 * (diag[0] - diag[1] + diag[2] - diag[3])
    recon = np.diag(diag).astype(float)
    recon[1, 2] = recon[2, 1] = 2.0 * k_xy
    residual = float(np.max(np.abs(m2 - recon)))
    return k_xy, k_z, h_j, h_k, const, residual


def spin_half_general(geometry: CrystalGeometry, drive: DriveParams,
                      homogeneous=False):
    """Numeric spin-1/2 model from the pair engine, all pairs."""
    n = geometry.n_ions
    det_x, det_y = local_detunings(geometry, drive, homogeneous=homogeneous)
    k_xy = np.zeros((n, n))
    k_z = np.zeros((n, n))
    h_field = np.zeros(n)
    e0_split = np.zeros(n)
    offset = 0.0
    max_residual = 0.0
    max_asym = 0.0
    for j in range(n):
        energies, _ = site_manifold_states(1, det_x[j], det_y[j], drive)
        e0_split[j] = 0.5 * (energies["up"] - energies["down"])
        offset += 0.5 * (energies["up"] + energies["down"])
    for j in range(n):
        for k in range(j + 1, n):
            pair = pair_effective_matrix(
                j, k, geometry, drive, manifold="half", homogeneous=homogeneous
            )
            kxy, kz, h_j, h_k, const, residual = _extract_half(pair)
            k_xy[j, k] = k_xy[k, j] = kxy
            k_z[j, k] = k_z[k, j] = kz
            h_field[j] += h_j
            h_field[k] += h_k
            offset += const
            max_residual = max(max_residual, residual)
            max_asym = max(max_asym, pair.asymmetry)
    return SpinHalfModel(
        K_xy=k_xy,
        K_z=k_z,
        H_field=h_field,
        E0_split=e0_split,
        energy_offset=offset,
        residuals={"extraction": max_residual, "hermiticity": max_asym},
    )


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


def _extract_one(pair: PairEffectiveMatrix):
    """Spin-1 coefficients from a 9x9 pair matrix by pattern matching.

    The diagonal is solved exactly in the monomial basis m_j^p m_k^q; the
    j<->k antisymmetric part of the mixed cubic term falls outside the
    site-symmetric ansatz and is reported as a residual, as is any
    difference between the two transition elements feeding T^(0).
    """
    m2 = pair.second_order
    coeff = _MONOMIALS_INV @ np.diag(m2)
    c = {(p, q): coeff[3 * p + q] for p in range(3) for q in range(3)}
    t_1 = m2[1, 3]  # (1,0) <-> (0,1)
    t_m1 = m2[7, 5]  # (-1,0) <-> (0,-1)
    t_0a = m2[2, 4]  # (1,-1) <-> (0,0)
    t_0b = m2[6, 4]  # (-1,1) <-> (0,0)
    t_0 = 0.5 * (t_0a + t_0b)
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
        "J_xy": t_0,
        "v_p1": 0.5 * (t_1 - t_0),
        "v_m1": 0.5 * (t_m1 - t_0),
        "J_z": c[1, 1],
        "W": w_sym,
        "V": c[2, 2],
        "b_j": c[1, 0],
        "b_k": c[0, 1],
        "d_j": c[2, 0],
        "d_k": c[0, 2],
        "const": c[0, 0],
        "residual": residual,
    }


def spin_one_general(geometry: CrystalGeometry, drive: DriveParams,
                     homogeneous=False):
    """Numeric spin-1 model from the pair engine, all pairs."""
    n = geometry.n_ions
    det_x, det_y = local_detunings(geometry, drive, homogeneous=homogeneous)
    mats = {name: np.zeros((n, n)) for name in ("J_xy", "J_z", "W", "V", "v_p1", "v_m1")}
    d_field = np.zeros(n)
    b_field = np.zeros(n)
    offset = 0.0
    max_residual = 0.0
    max_asym = 0.0
    for j in range(n):
        energies, _ = site_manifold_states(2, det_x[j], det_y[j], drive)
        e1, e0, em1 = energies["1"], energies["0"], energies["-1"]
        d_field[j] = 0.5 * (e1 + em1 - 2.0 * e0)
        b_field[j] = 0.5 * (e1 - em1)
        offset += e0
    for j in range(n):
        for k in range(j + 1, n):
            pair = pair_effective_matrix(
                j, k, geometry, drive, manifold="one", homogeneous=homogeneous
            )
            co = _extract_one(pair)
            for name in mats:
                mats[name][j, k] = mats[name][k, j] = co[name]
            b_field[j] += co["b_j"]
            b_field[k] += co["b_k"]
            d_field[j] += co["d_j"]
            d_field[k] += co["d_k"]
            offset += co["const"]
            max_residual = max(max_residual, co["residual"])
            max_asym = max(max_asym, pair.asymmetry)
    return SpinOneModel(
        J_xy=mats["J_xy"],
        J_z=mats["J_z"],
        W=mats["W"],
        V=mats["V"],
        v_p1=mats["v_p1"],
        v_m1=mats["v_m1"],
        D_field=d_field,
        B_field=b_field,
        energy_offset=offset,
        residuals={"extraction": max_residual, "hermiticity": max_asym},
    )


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
# spin Hamiltonians on the 2^N / 3^N product space


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# spin-1 in the (|1>, |0>, |-1>) basis
S_PLUS = math.sqrt(2.0) * np.array(
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
)
S_MINUS = S_PLUS.T
S_Z1 = np.diag([1.0, 0.0, -1.0])
S_X1 = 0.5 * (S_PLUS + S_MINUS)
S_Y1 = 0.5j * (S_MINUS - S_PLUS)


def spin_product_index(labels, manifold):
    """Ordinal of a spin product state in the kron basis used here."""
    order = MANIFOLD_LABELS[1 if manifold == "half" else 2]
    dim = len(order)
    idx = 0
    for lab in labels:
        idx = idx * dim + order.index(lab)
    return idx


def build_spin_hamiltonian(model):
    """Sparse effective spin Hamiltonian from a coupling-table model.

    Includes the zeroth-order single-site terms and the spin-independent
    constant, so its spectrum matches the pair effective matrices, not
    just its dynamics. Basis order is that of spin_product_index.
    """
    if isinstance(model, SpinHalfModel):
        labels = MANIFOLD_LABELS[1]
        site = [(model.H_field + model.E0_split, SIGMA_Z)]
        pair = [(model.K_xy, np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)),
                (model.K_z, np.kron(SIGMA_Z, SIGMA_Z))]
    elif isinstance(model, SpinOneModel):
        labels = MANIFOLD_LABELS[2]
        sz2 = S_Z1 @ S_Z1
        a_p = np.kron(S_Z1 @ S_PLUS, S_MINUS @ S_Z1)
        a_m = np.kron(S_Z1 @ S_MINUS, S_PLUS @ S_Z1)
        site = [(model.D_field, sz2), (model.B_field, S_Z1)]
        pair = [(model.J_xy, np.kron(S_X1, S_X1) + np.kron(S_Y1, S_Y1)),
                (model.J_z, np.kron(S_Z1, S_Z1)),
                (model.W, np.kron(S_Z1, sz2) + np.kron(sz2, S_Z1)),
                (model.V, np.kron(sz2, sz2)),
                (model.v_p1, a_p + a_p.conj().T),
                (model.v_m1, a_m + a_m.conj().T)]
    else:
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    n = model.n_sites
    terms = [(sum(c[j] * op for c, op in site), (j,)) for j in range(n)]
    terms += [(sum(c[j, k] * op for c, op in pair), (j, k))
              for j in range(n) for k in range(j + 1, n)]
    terms.append((model.energy_offset * np.eye(len(labels)), (0,)))
    return assemble(product_basis(labels, n), terms)
