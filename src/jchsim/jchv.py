"""JCHv Hamiltonian assembly and single-site polariton spectra.

The on-site part is

    H_JC = sum_j [ sum_b Delta_{b,j} n_{b,j} + omega0 (P_e1 + P_e2)
                   + g_x (a_x |e1><g| + h.c.) + g_y (a_y |e2><g| + h.c.) ],

and the hopping part H_b couples pairs with the crystal's t_{j,k}^beta.
Closed-form energies of the one- and two-excitation site manifolds are
provided alongside the numeric dressed states so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .crystal import CrystalGeometry, local_detunings
from .fock import (
    DEFAULT_DIM_CAP,
    SectorBasis,
    SparseOperator,
    _read_only,
    assemble,
    enumerate_sector,
    hop_operator,
    site_operators,
    site_sector_operators,
    site_states,
    site_x_count,
)
from .params import DriveParams


def site_hamiltonian(ops, det_x, det_y, omega0, g_x, g_y):
    """Dense one-site H_JC over fock site operators, for a stack of sites.

    Each parameter is a scalar or an array of per-entry values (local
    detunings, omega0, couplings); they broadcast to the stack shape S and
    the result is (*S, m, m). Terms are summed in place, in this order.
    """
    (value, op), *terms = ((det_x, ops["num_x"]), (det_y, ops["num_y"]),
                           (omega0, ops["proj_e1"] + ops["proj_e2"]),
                           (g_x, ops["jc_x"]), (g_y, ops["jc_y"]))
    h = np.asarray(value, dtype=float)[..., None, None] * op
    for value, op in terms:
        h += np.asarray(value, dtype=float)[..., None, None] * op
    return h


def build_hjc(basis: SectorBasis, geometry: CrystalGeometry, drive: DriveParams):
    """On-site JC Hamiltonian on the sector, with per-site detunings."""
    if basis.n_sites != geometry.n_ions:
        raise ValueError("basis and geometry disagree on the number of sites")
    det_x, det_y = local_detunings(geometry, drive)
    h = site_hamiltonian(site_operators(basis.n_total), det_x, det_y,
                         drive.omega0, drive.g_x, drive.g_y)
    return assemble(basis, [(h[j], (j,)) for j in range(basis.n_sites)])


def build_hb(basis: SectorBasis, geometry: CrystalGeometry):
    """Phonon hopping H_b = sum_{j>k, beta} t_{j,k}^beta (a^dag a + a a^dag)."""
    if basis.n_sites != geometry.n_ions:
        raise ValueError("basis and geometry disagree on the number of sites")
    hop_x = hop_operator(basis.n_total, "x")
    hop_y = hop_operator(basis.n_total, "y")
    t_x, t_y = geometry.t_x, geometry.t_y
    return assemble(basis, [
        (t_x[j, k] * hop_x + t_y[j, k] * hop_y, (j, k))
        for j in range(basis.n_sites)
        for k in range(j)
        if t_x[j, k] or t_y[j, k]
    ])


def build_full(basis, geometry, drive):
    hjc, hb = build_hjc(basis, geometry, drive), build_hb(basis, geometry)
    return SparseOperator(basis.dim, hjc.mat + hb.mat)


# ---------------------------------------------------------------------------
# closed-form single-site spectra


@dataclass(frozen=True)
class PolaritonSpectrum1:
    """One excitation per site: the two JC doublets."""

    E_minus_x: float
    E_plus_x: float
    E_minus_y: float
    E_plus_y: float


@dataclass(frozen=True)
class PolaritonSpectrum2:
    """Two excitations per site: the three lowest dressed energies."""

    E_1: float
    E_0: float
    E_m1: float


def single_site_spectra(drive: DriveParams):
    """Closed-form polariton energies for n = 1 and n = 2."""
    d, delta = drive.Delta, drive.delta
    g_x, g_y = drive.g_x, drive.g_y

    def e_pm(g):
        root = math.sqrt(delta**2 / 4.0 + g**2)
        return d + delta / 2.0 - root, d + delta / 2.0 + root

    e_mx, e_px = e_pm(g_x)
    e_my, e_py = e_pm(g_y)
    s1 = PolaritonSpectrum1(E_minus_x=e_mx, E_plus_x=e_px,
                            E_minus_y=e_my, E_plus_y=e_py)
    gxy = math.sqrt(g_x**2 + g_y**2)
    s2 = PolaritonSpectrum2(
        E_1=2.0 * d + delta / 2.0 - math.sqrt(2.0 * g_x**2 + delta**2 / 4.0),
        E_0=2.0 * d + delta / 2.0 - math.sqrt(gxy**2 + delta**2 / 4.0),
        E_m1=2.0 * d + delta / 2.0 - math.sqrt(2.0 * g_y**2 + delta**2 / 4.0),
    )
    return s1, s2


def particle_hole_gaps(drive: DriveParams):
    """Gaps U_s = E_s - 2 E_{-,y} for the three two-excitation states s = 1, 0, -1."""
    s1, s2 = single_site_spectra(drive)
    ref = 2.0 * s1.E_minus_y
    return s2.E_1 - ref, s2.E_0 - ref, s2.E_m1 - ref


# ---------------------------------------------------------------------------
# single-site sector machinery (shared by superexchange and dynamics)


def sector_eigh_stack(n, det_x, det_y, omega0, g_x, g_y):
    """All eigenpairs of the n-excitation sector Hamiltonians (dim 3n+1,
    basis order of site_states(n)) of a stack of sites, in one eigh.

    Parameters broadcast as in site_hamiltonian; returns (*S, m) energies
    and (*S, m, m) eigenvector columns.
    """
    return np.linalg.eigh(site_hamiltonian(site_sector_operators(n), det_x, det_y,
                                           omega0, g_x, g_y))


def site_sector_eigh(n, det_x, det_y, drive):
    """All eigenpairs of one site's sector Hamiltonian (a stack of one)."""
    return sector_eigh_stack(n, det_x, det_y, drive.omega0, drive.g_x, drive.g_y)


MANIFOLD_LABELS = {1: ("up", "down"), 2: ("1", "0", "-1")}
MANIFOLD_N = {"half": 1, "one": 2}  # spin-1/2 and spin-1 manifold names
# x-excitation number X of each label: n - r for the r-th label of manifold
# n, so up = 1, down = 0 and spin-1 m has X = m + 1
LABEL_X = {lab: n - r for n, labs in MANIFOLD_LABELS.items()
           for r, lab in enumerate(labs)}


def manifold_states_stack(n, det_x, det_y, omega0, g_x, g_y):
    """Lowest dressed states per conserved (X, Y) block of the n-excitation
    sectors of a stack of sites: the one definition of a dressed site.

    Labels: n=1 -> up/down, n=2 -> 1/0/-1. Each block ground state is
    nondegenerate for g > 0, so this stays well-defined where the full
    sector spectrum is degenerate (g_x = g_y). Phases follow the
    convention of a positive coefficient on the purely phononic component.
    Parameters broadcast as in site_hamiltonian; one eigh per label block
    serves the whole stack. Returns (*S, d) energies and (*S, d, m)
    vectors in MANIFOLD_LABELS[n] order, vectors[..., r, :] over
    site_states(n).
    """
    if n not in MANIFOLD_LABELS:
        raise ValueError("manifold closed only for n = 1 or 2 excitations per site")
    h = site_hamiltonian(site_sector_operators(n), det_x, det_y, omega0, g_x, g_y)
    x_count = np.array([site_x_count(s) for s in site_states(n)])
    labels = MANIFOLD_LABELS[n]
    energies = np.empty(h.shape[:-2] + (len(labels),))
    vectors = np.zeros(h.shape[:-2] + (len(labels), len(x_count)))
    for r, label in enumerate(labels):
        idx = np.flatnonzero(x_count == LABEL_X[label])
        vals, vecs = np.linalg.eigh(h[..., idx[:, None], idx])
        vec = vecs[..., 0]
        # the phononic component sorts first
        vectors[..., r, idx] = np.where(vec[..., :1] < 0, -vec, vec)
        energies[..., r] = vals[..., 0]
    return energies, vectors


@lru_cache(maxsize=4096)
def site_manifold_states(n, det_x, det_y, drive):
    """manifold_states_stack of one site, as read-only (energies, vectors).

    Cached, and bounded as the key is continuous: every tracked label of
    a full-model product state reads its site here.
    """
    energies, vectors = manifold_states_stack(n, det_x, det_y, drive.omega0,
                                              drive.g_x, drive.g_y)
    return _read_only(energies), _read_only(vectors)


def site_ladder_stack(n, det_x, det_y, omega0, g_x, g_y):
    """A stack of sites' dressed n-excitation manifolds and the sectors one
    hop reaches from them, as the superexchange pair engine reads them.

    Parameters broadcast as in site_hamiltonian to a stack of S sites.
    Returns the (S, d) manifold, (S, u) sector n+1 and (S, l) sector n-1
    energies, then <r| a_beta |A> as (S, d, u) and <B| a_beta |r> as
    (S, l, d), each for beta = x and y.
    """
    params = (det_x, det_y, omega0, g_x, g_y)
    manifold_e, man_v = manifold_states_stack(n, *params)
    upper_e, upper_v = sector_eigh_stack(n + 1, *params)
    lower_e, lower_v = sector_eigh_stack(n - 1, *params)
    up = site_sector_operators(n + 1)  # a_x/a_y: sector n+1 -> n
    dn = site_sector_operators(n)  # a_x/a_y: sector n -> n-1
    return (manifold_e, upper_e, lower_e,
            *(man_v @ up[a] @ upper_v for a in ("a_x", "a_y")),
            *(lower_v.swapaxes(-1, -2) @ dn[a] @ man_v.swapaxes(-1, -2)
              for a in ("a_x", "a_y")))


def sector_basis_for(n_sites, n_per_site, dim_cap=DEFAULT_DIM_CAP, n_x_total=None):
    """Sector with n_per_site excitations on every site (total = product),
    or its N_X block with n_x_total x excitations."""
    return enumerate_sector(n_sites, n_sites * n_per_site, dim_cap=dim_cap,
                            n_x_total=n_x_total)
