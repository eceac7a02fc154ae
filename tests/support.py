"""Oracles and views that the tests share.

The spin operators here are the textbook form of each coupling table:
the oracle Hamiltonian sums them, weighted by a model's tables, plus the
spin-independent constant of the table form. The views read a basis's
states in the shapes the tests compare; forced_method picks evolve's
method.
"""

import math
from unittest import mock

import numpy as np

import jchsim.dynamics as dynamics
from jchsim.crystal import local_detunings
from jchsim.fock import site_sector_operators
from jchsim.jchv import (
    MANIFOLD_LABELS,
    MANIFOLD_N,
    site_hamiltonian,
    site_manifold_states,
)
from jchsim.superexchange import SpinModel, pair_effective_matrix

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


def oracle_terms(manifold, tables, offset):
    """(sites, matrix) terms of the table form: per site and per pair j < k,
    the operators weighted by their tables, then offset times the identity
    on site 0."""
    site, pair = MODEL_TERMS[manifold]
    n = len(next(iter(tables.values())))
    terms = [((j,), sum(tables[name][j] * op for name, op in site))
             for j in range(n)]
    terms += [((j, k), sum(tables[name][j, k] * op for name, op in pair))
              for j in range(n) for k in range(j + 1, n)]
    terms.append(((0,), offset * np.eye(len(site[0][1]))))
    return tuple(terms)


def oracle_model(manifold, tables, offset):
    """A SpinModel whose terms are the table form of tables and offset."""
    return SpinModel(manifold, oracle_terms(manifold, tables, offset), tables)


def table_offset(manifold, geometry, drive):
    """The spin-independent constant that the table form adds: the sites'
    zeroth-order share (the mean of up and down, or the m = 0 energy)
    and each pair's second-order share (a quarter of the trace, or the
    (0, 0) diagonal entry), taken from the pair engine one pair at a time."""
    det_x, det_y = local_detunings(geometry, drive)
    energies, _ = site_manifold_states(MANIFOLD_N[manifold], det_x, det_y,
                                       drive.delta, drive.g_x, drive.g_y)
    n_ions = geometry.n_ions
    if manifold == "half":
        offset = np.sum(0.5 * (energies[:, 0] + energies[:, 1]))
    else:
        offset = np.sum(energies[:, 1])
    for j in range(n_ions):
        for k in range(j + 1, n_ions):
            _, m2, _ = one_pair(j, k, geometry, drive, manifold)
            offset += 0.25 * np.trace(m2) if manifold == "half" else m2[4, 4]
    return offset


def pair_labels(manifold):
    """Product labels (r_j, r'_k) of a pair matrix's rows, j-major."""
    labels = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
    return tuple((r, rp) for r in labels for rp in labels)


def one_pair(j, k, geometry, drive, manifold="half"):
    """pair_effective_matrix on one point: the pair's whole matrix
    diag(e_pair) + m2, its second-order matrix m2, and its couplings as
    {name: (for_j, for_k)} scalars."""
    e_pair, m2, couplings = pair_effective_matrix(j, k, [geometry], [drive],
                                                  manifold)
    return (np.diag(e_pair[0]) + m2[0], m2[0],
            {name: (for_j[0], for_k[0])
             for name, (for_j, for_k) in couplings.items()})


def whole_sector_ladder_stack(n, det_x, det_y, omega0, g_x, g_y):
    """jchv.site_ladder_stack with sectors n + 1 and n - 1 each diagonalised
    whole, in one eigh, not per X block: its eigenvectors hold one X only
    where no levels of different X are degenerate. The manifold is the
    library's. Substituted into superexchange, it gives the pair engine's
    matrices from whole-sector intermediates."""
    params = (det_x, det_y, omega0, g_x, g_y)
    manifold_e, man_v = site_manifold_states(n, *params)
    (upper_e, upper_v), (lower_e, lower_v) = (
        np.linalg.eigh(site_hamiltonian(site_sector_operators(m), *params))
        for m in (n + 1, n - 1))
    up, dn = site_sector_operators(n + 1), site_sector_operators(n)
    return (manifold_e, upper_e, lower_e,
            *(man_v @ up[a] @ upper_v for a in ("a_x", "a_y")),
            *(lower_v.swapaxes(-1, -2) @ dn[a] @ man_v.swapaxes(-1, -2)
              for a in ("a_x", "a_y")))


def forced_method(method):
    """A context in which evolve takes method, "dense" or "chebyshev",
    whatever the dimension of H: dynamics.DENSE_THRESHOLD patched."""
    threshold = {"dense": math.inf, "chebyshev": 0}[method]
    return mock.patch.object(dynamics, "DENSE_THRESHOLD", threshold)


def basis_states(basis):
    """A basis's rows as tuples of alphabet entries."""
    return tuple(tuple(basis.alphabet[c] for c in row)
                 for row in basis.codes.tolist())


def basis_index(basis):
    """Map from a basis_states entry back to its ordinal."""
    return {s: i for i, s in enumerate(basis_states(basis))}
