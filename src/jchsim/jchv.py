"""JCHv Hamiltonian assembly and single-site polariton spectra.

The on-site part is

    H_JC = sum_j [ sum_b Delta_{b,j} n_{b,j} + omega0 (P_e1 + P_e2)
                   + g_x (a_x |e1><g| + h.c.) + g_y (a_y |e2><g| + h.c.) ],

and the hopping part H_b couples pairs with the crystal's t_{j,k}^beta.
Closed forms for the one- and two-excitation site manifolds are provided
alongside the numeric construction so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crystal import CrystalGeometry, local_detunings
from .fock import (
    DEFAULT_DIM_CAP,
    SectorBasis,
    SparseOperator,
    assemble,
    enumerate_sector,
    hop_operator,
    site_operators,
    site_sector_operators,
    site_states,
    site_x_count,
)
from .params import DriveParams


def site_hamiltonian(ops, det_x, det_y, drive: DriveParams):
    """Dense one-site H_JC over fock site operators, with local detunings."""
    return (det_x * ops["num_x"] + det_y * ops["num_y"]
            + drive.omega0 * (ops["proj_e1"] + ops["proj_e2"])
            + drive.g_x * ops["jc_x"] + drive.g_y * ops["jc_y"])


def build_hjc(basis: SectorBasis, geometry: CrystalGeometry, drive: DriveParams):
    """On-site JC Hamiltonian on the sector, with per-site detunings."""
    if basis.n_sites != geometry.n_ions:
        raise ValueError("basis and geometry disagree on the number of sites")
    det_x, det_y = local_detunings(geometry, drive)
    ops = site_operators(basis.n_total)
    return assemble(basis, [
        (site_hamiltonian(ops, det_x[j], det_y[j], drive), (j,))
        for j in range(basis.n_sites)
    ])


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
    """One excitation per site: two JC doublets and their mixing angles."""

    E_minus_x: float
    E_plus_x: float
    E_minus_y: float
    E_plus_y: float
    theta_x: float
    theta_y: float

    def up_state(self):
        """|up> = cos(theta_x)|g,1,0> - sin(theta_x)|e1,0,0>."""
        return {
            (0, 1, 0): math.cos(self.theta_x),
            (1, 0, 0): -math.sin(self.theta_x),
        }

    def down_state(self):
        """|down> = cos(theta_y)|g,0,1> - sin(theta_y)|e2,0,0>."""
        return {
            (0, 0, 1): math.cos(self.theta_y),
            (2, 0, 0): -math.sin(self.theta_y),
        }


@dataclass(frozen=True)
class PolaritonSpectrum2:
    """Two excitations per site: the three lowest dressed states."""

    E_1: float
    E_0: float
    E_m1: float
    theta2_x: float
    theta2_y: float
    phi: float
    zeta: float

    def state(self, m):
        """Coefficient dict of |1>, |0> or |-1> over bare site states."""
        if m == 1:
            return {
                (0, 2, 0): math.cos(self.theta2_x),
                (1, 1, 0): -math.sin(self.theta2_x),
            }
        if m == 0:
            return {
                (0, 1, 1): math.cos(self.phi),
                (1, 0, 1): -math.sin(self.phi) * math.sin(self.zeta),
                (2, 1, 0): -math.sin(self.phi) * math.cos(self.zeta),
            }
        if m == -1:
            return {
                (0, 0, 2): math.cos(self.theta2_y),
                (2, 0, 1): -math.sin(self.theta2_y),
            }
        raise ValueError(f"spin-1 label must be 1, 0 or -1, got {m}")


def single_site_spectra(drive: DriveParams):
    """Closed-form polariton energies and mixing angles for n = 1 and n = 2."""
    d, delta = drive.Delta, drive.delta
    g_x, g_y = drive.g_x, drive.g_y

    def e_pm(g):
        root = math.sqrt(delta**2 / 4.0 + g**2)
        return d + delta / 2.0 - root, d + delta / 2.0 + root

    e_mx, e_px = e_pm(g_x)
    e_my, e_py = e_pm(g_y)
    s1 = PolaritonSpectrum1(
        E_minus_x=e_mx,
        E_plus_x=e_px,
        E_minus_y=e_my,
        E_plus_y=e_py,
        theta_x=math.atan2(2.0 * g_x, delta + math.sqrt(delta**2 + 4.0 * g_x**2)),
        theta_y=math.atan2(2.0 * g_y, delta + math.sqrt(delta**2 + 4.0 * g_y**2)),
    )

    gxy = math.sqrt(g_x**2 + g_y**2)
    s2 = PolaritonSpectrum2(
        E_1=2.0 * d + delta / 2.0 - math.sqrt(2.0 * g_x**2 + delta**2 / 4.0),
        E_0=2.0 * d + delta / 2.0 - math.sqrt(gxy**2 + delta**2 / 4.0),
        E_m1=2.0 * d + delta / 2.0 - math.sqrt(2.0 * g_y**2 + delta**2 / 4.0),
        theta2_x=math.atan2(
            math.sqrt(2.0) * g_x,
            delta / 2.0 + math.sqrt(2.0 * g_x**2 + delta**2 / 4.0),
        ),
        theta2_y=math.atan2(
            math.sqrt(2.0) * g_y,
            delta / 2.0 + math.sqrt(2.0 * g_y**2 + delta**2 / 4.0),
        ),
        phi=math.atan2(gxy, delta / 2.0 + math.sqrt(gxy**2 + delta**2 / 4.0)),
        zeta=math.atan2(g_x, g_y),
    )
    return s1, s2


def particle_hole_gaps(drive: DriveParams):
    """Gaps U_s = E_s - 2 E_{-,y} for the three two-excitation states s = 1, 0, -1."""
    s1, s2 = single_site_spectra(drive)
    ref = 2.0 * s1.E_minus_y
    return s2.E_1 - ref, s2.E_0 - ref, s2.E_m1 - ref


# ---------------------------------------------------------------------------
# single-site sector machinery (shared by superexchange and dynamics)


def site_sector_hamiltonian(n, det_x, det_y, drive: DriveParams):
    """Dense one-site H_JC on the n-excitation site sector (dim 3n+1).

    det_x/det_y are this site's local detunings; basis order matches
    site_states(n).
    """
    h = site_hamiltonian(site_sector_operators(n), det_x, det_y, drive)
    return h, site_states(n)


def site_sector_eigh(n, det_x, det_y, drive):
    """All eigenpairs of the one-site sector Hamiltonian."""
    h, states = site_sector_hamiltonian(n, det_x, det_y, drive)
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs, states


MANIFOLD_LABELS = {1: ("up", "down"), 2: ("1", "0", "-1")}
MANIFOLD_N = {"half": 1, "one": 2}  # spin-1/2 and spin-1 manifold names
# x-excitation number X of each label: n - r for the r-th label of manifold
# n, so up = 1, down = 0 and spin-1 m has X = m + 1
LABEL_X = {lab: n - r for n, labs in MANIFOLD_LABELS.items()
           for r, lab in enumerate(labs)}


def site_manifold_states(n, det_x, det_y, drive):
    """Lowest dressed states per conserved (X, Y) block of a site sector.

    Labels: n=1 -> up/down, n=2 -> 1/0/-1. Each block ground state is
    nondegenerate for g > 0, so this stays well-defined where the full
    sector spectrum is degenerate (g_x = g_y). Phases follow the
    convention of a positive coefficient on the purely phononic component.

    Returns (energies, vectors) as dicts over labels; vectors are
    coefficient dicts over bare site states.
    """
    if n not in MANIFOLD_LABELS:
        raise ValueError("manifold closed only for n = 1 or 2 excitations per site")
    h, states = site_sector_hamiltonian(n, det_x, det_y, drive)
    x_count = [site_x_count(s) for s in states]
    energies, vectors = {}, {}
    for label in MANIFOLD_LABELS[n]:
        idx = [i for i, x in enumerate(x_count) if x == LABEL_X[label]]
        vals, vecs = np.linalg.eigh(h[np.ix_(idx, idx)])
        vec = vecs[:, 0]
        if vec[0] < 0:  # the phononic component sorts first
            vec = -vec
        energies[label] = vals[0]
        vectors[label] = {states[i]: vec[m] for m, i in enumerate(idx)}
    return energies, vectors


def sector_basis_for(n_sites, n_per_site, dim_cap=DEFAULT_DIM_CAP, n_x_total=None):
    """Sector with n_per_site excitations on every site (total = product),
    or its N_X block with n_x_total x excitations."""
    return enumerate_sector(n_sites, n_sites * n_per_site, dim_cap=dim_cap,
                            n_x_total=n_x_total)
