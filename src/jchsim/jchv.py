"""JCHv Hamiltonian assembly and single-site polariton spectra.

The on-site part is

    H_JC = sum_j [ sum_b Delta_{b,j} n_{b,j} + omega0 (P_e1 + P_e2)
                   + g_x (a_x |e1><g| + h.c.) + g_y (a_y |e2><g| + h.c.) ],

with local detunings Delta_{b,j} and omega0 = delta in the drive's frame
Delta = 0, and the hopping part H_b couples pairs with t_{j,k}^beta.
The numeric dressed-site functions each take a stack of sites (scalar
parameters give one site), with one eigh per conserved X block of a
sector for the whole stack. Closed-form energies of the one- and
two-excitation site manifolds are provided alongside them so each can
check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crystal import CrystalGeometry, local_detunings
from .fock import (
    SectorBasis,
    SparseOperator,
    assemble,
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
                         drive.delta, drive.g_x, drive.g_y)
    return assemble(basis, [((j,), h[j]) for j in range(basis.n_sites)])


def build_hb(basis: SectorBasis, geometry: CrystalGeometry):
    """Phonon hopping H_b = sum_{j>k, beta} t_{j,k}^beta (a^dag a + a a^dag)."""
    if basis.n_sites != geometry.n_ions:
        raise ValueError("basis and geometry disagree on the number of sites")
    hop_x = hop_operator(basis.n_total, "x")
    hop_y = hop_operator(basis.n_total, "y")
    t_x, t_y = geometry.t_x, geometry.t_y
    return assemble(basis, [
        ((j, k), t_x[j, k] * hop_x + t_y[j, k] * hop_y)
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
    delta, g_x, g_y = drive.delta, drive.g_x, drive.g_y

    def e_pm(g):
        root = math.sqrt(delta**2 / 4.0 + g**2)
        return delta / 2.0 - root, delta / 2.0 + root

    e_mx, e_px = e_pm(g_x)
    e_my, e_py = e_pm(g_y)
    s1 = PolaritonSpectrum1(E_minus_x=e_mx, E_plus_x=e_px,
                            E_minus_y=e_my, E_plus_y=e_py)
    gxy = math.sqrt(g_x**2 + g_y**2)
    s2 = PolaritonSpectrum2(
        E_1=delta / 2.0 - math.sqrt(2.0 * g_x**2 + delta**2 / 4.0),
        E_0=delta / 2.0 - math.sqrt(gxy**2 + delta**2 / 4.0),
        E_m1=delta / 2.0 - math.sqrt(2.0 * g_y**2 + delta**2 / 4.0),
    )
    return s1, s2


def particle_hole_gaps(drive: DriveParams):
    """Gaps U_s = E_s - 2 E_{-,y} for the three two-excitation states s = 1, 0, -1."""
    s1, s2 = single_site_spectra(drive)
    ref = 2.0 * s1.E_minus_y
    return s2.E_1 - ref, s2.E_0 - ref, s2.E_m1 - ref


# ---------------------------------------------------------------------------
# single-site sector machinery (shared by superexchange and dynamics)


def x_blocks(n):
    """Positions of each X block (fock.site_x_count) in site_states(n), X = 0..n."""
    x_count = [site_x_count(s) for s in site_states(n)]
    return [np.flatnonzero(np.equal(x_count, x)) for x in range(n + 1)]


def site_sector_eigh(n, det_x, det_y, omega0, g_x, g_y):
    """All eigenpairs of the n-excitation sector Hamiltonians (dim 3n+1,
    basis order of site_states(n)) of a stack of sites, one eigh per X block.

    Parameters broadcast as in site_hamiltonian (scalars give one site);
    returns (*S, m) energies and (*S, m, m) eigenvector columns, each
    block's at its positions, ascending in it and exactly 0 off it: every
    eigenvector has one X.
    """
    h = site_hamiltonian(site_sector_operators(n), det_x, det_y, omega0, g_x, g_y)
    energies, vectors = np.empty(h.shape[:-1]), np.zeros(h.shape)
    for idx in x_blocks(n):
        energies[..., idx], vectors[..., idx[:, None], idx] = np.linalg.eigh(
            h[..., idx[:, None], idx])
    return energies, vectors


MANIFOLD_LABELS = {1: ("up", "down"), 2: ("1", "0", "-1")}
MANIFOLD_N = {"half": 1, "one": 2}  # spin-1/2 and spin-1 manifold names
# x-excitation number X of each label: n - r for the r-th label of manifold
# n, so up = 1, down = 0 and spin-1 m has X = m + 1
LABEL_X = {lab: n - r for n, labs in MANIFOLD_LABELS.items()
           for r, lab in enumerate(labs)}


def site_manifold_states(n, det_x, det_y, omega0, g_x, g_y):
    """Lowest dressed states per conserved (X, Y) block of the n-excitation
    sectors of a stack of sites: the one definition of a dressed site.

    Labels: n=1 -> up/down, n=2 -> 1/0/-1, each its X block's lowest
    eigenpair in site_sector_eigh(n), nondegenerate for g > 0, so this
    stays well-defined where the full sector spectrum is degenerate
    (g_x = g_y). Phases follow the convention of a positive coefficient
    on the purely phononic component. Parameters broadcast as in
    site_hamiltonian (scalars give one site). Returns (*S, d) energies
    and (*S, d, m) vectors in MANIFOLD_LABELS[n] order, vectors[..., r, :]
    over site_states(n).
    """
    if n not in MANIFOLD_LABELS:
        raise ValueError("manifold closed only for n = 1 or 2 excitations per site")
    sector_e, sector_v = site_sector_eigh(n, det_x, det_y, omega0, g_x, g_y)
    labels, by_x = MANIFOLD_LABELS[n], x_blocks(n)
    shape = sector_e.shape[:-1] + (len(labels),)
    energies, vectors = np.empty(shape), np.zeros(shape + (3 * n + 1,))
    for r, label in enumerate(labels):
        idx = by_x[LABEL_X[label]]
        vec = sector_v[..., idx, idx[0]]  # the block's lowest eigenvector
        # the phononic component sorts first
        vectors[..., r, idx] = np.where(vec[..., :1] < 0, -vec, vec)
        energies[..., r] = sector_e[..., idx[0]]
    return energies, vectors


def site_ladder_stack(n, det_x, det_y, omega0, g_x, g_y):
    """A stack of sites' dressed n-excitation manifolds and the sectors one
    hop reaches from them, as the superexchange pair engine reads them.

    Parameters broadcast as in site_hamiltonian to a stack of S sites.
    Returns the (S, d) manifold, (S, u) sector n+1 and (S, l) sector n-1
    energies, then <r| a_beta |A> as (S, d, u) and <B| a_beta |r> as
    (S, l, d), each for beta = x and y; every state has one X, so an
    element that a_beta's change of X does not join is exactly 0.0.
    """
    params = (det_x, det_y, omega0, g_x, g_y)
    manifold_e, man_v = site_manifold_states(n, *params)
    upper_e, upper_v = site_sector_eigh(n + 1, *params)
    lower_e, lower_v = site_sector_eigh(n - 1, *params)
    up = site_sector_operators(n + 1)  # a_x/a_y: sector n+1 -> n
    dn = site_sector_operators(n)  # a_x/a_y: sector n -> n-1
    return (manifold_e, upper_e, lower_e,
            *(man_v @ up[a] @ upper_v for a in ("a_x", "a_y")),
            *(lower_v.swapaxes(-1, -2) @ dn[a] @ man_v.swapaxes(-1, -2)
              for a in ("a_x", "a_y")))

