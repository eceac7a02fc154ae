import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jchsim.fock import (
    E1,
    E2,
    G,
    SectorError,
    SparseOperator,
    assemble,
    embed,
    enumerate_sector,
    hop_operator,
    sector_dim,
    site_excitation,
    site_operators,
    site_states,
    site_x_count,
)
from jchsim.superexchange import spin_block


def site_operator(basis, site, kind):
    """One site_operators entry embedded at site."""
    return assemble(basis, [(site_operators(basis.n_total)[kind], (site,))])


def total_excitation(basis):
    """N = sum_j (n_x + n_y + P_e1 + P_e2), a sum of one-site embeddings."""
    ops = site_operators(basis.n_total)
    n_j = ops["num_x"] + ops["num_y"] + ops["proj_e1"] + ops["proj_e2"]
    return assemble(basis, [(n_j, (j,)) for j in range(basis.n_sites)])


def brute_force_sector(n_sites, n_total):
    per_site = [s for n in range(n_total + 1) for s in site_states(n)]
    states = [
        combo
        for combo in itertools.product(per_site, repeat=n_sites)
        if sum(site_excitation(s) for s in combo) == n_total
    ]
    return states


def test_site_states_count_and_order():
    assert len(site_states(1)) == 4
    assert len(site_states(2)) == 7
    # each carries exactly n excitations; deterministic sorted order
    assert site_states(1) == [(G, 0, 1), (G, 1, 0), (E1, 0, 0), (E2, 0, 0)]
    assert all(site_excitation(s) == 2 for s in site_states(2))


def test_site_excitation_counts_levels_and_phonons():
    assert site_excitation((G, 2, 1)) == 3
    assert site_excitation((E1, 0, 0)) == 1
    assert site_excitation((E2, 1, 1)) == 3


@pytest.mark.parametrize("n_sites,n_total,dim", [
    (1, 1, 4),
    (1, 2, 7),
    (2, 4, 155),
    (3, 3, 262),
    # alphabet size ** n_sites exceeds int64 for both
    (30, 1, 120),
    (20, 2, 3180),
])
def test_sector_dimensions_frozen(n_sites, n_total, dim):
    basis = enumerate_sector(n_sites, n_total)
    assert basis.dim == dim
    assert len(set(basis.states)) == dim


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
def test_sector_matches_brute_force(n_sites, n_total):
    basis = enumerate_sector(n_sites, n_total)
    assert sorted(basis.states) == sorted(brute_force_sector(n_sites, n_total))
    for i, state in enumerate(basis.states):
        assert basis.index[state] == i


@pytest.mark.parametrize("n_sites,n_total", [(1, 2), (2, 2), (3, 3), (4, 4),
                                              (3, 6), (20, 2)])
def test_block_is_sector_filtered_by_x(n_sites, n_total):
    sector = enumerate_sector(n_sites, n_total)
    x = np.array([site_x_count(s) for s in sector.alphabet])[sector.codes].sum(axis=1)
    for n_x in range(n_total + 1):
        block = enumerate_sector(n_sites, n_total, n_x_total=n_x)
        assert block.n_x_total == n_x
        np.testing.assert_array_equal(block.codes, sector.codes[x == n_x])
        np.testing.assert_array_equal(block.rank(block.codes),
                                      np.arange(block.dim))
        assert block.dim == sector_dim(n_sites, n_total, n_x)
        if n_x < n_total:
            with pytest.raises(SectorError):
                block.rank(sector.codes[x == n_x + 1][:1])
    assert sector.dim == sector_dim(n_sites, n_total)
    with pytest.raises(SectorError):
        enumerate_sector(n_sites, n_total, n_x_total=n_total + 1)


@pytest.mark.parametrize("n_sites,n_per_site,dim", [
    (3, 1, 93),
    (4, 1, 834),
    (5, 1, 6735),
    (3, 2, 984),
    (4, 2, 23055),
])
def test_block_dimensions_frozen(n_sites, n_per_site, dim):
    # the largest block: half of the sector's excitations are x
    n_total = n_sites * n_per_site
    block = enumerate_sector(n_sites, n_total, n_x_total=n_total // 2)
    assert block.dim == dim


def mirror_blocks(n_sites):
    """Every N_X block of the one-per-site sector (and of the two-per-site
    sector up to three sites), and every S_z block of both spin manifolds."""
    blocks = [enumerate_sector(n_sites, n_sites, n_x_total=x)
              for x in range(n_sites + 1)]
    if n_sites <= 3:
        blocks += [enumerate_sector(n_sites, 2 * n_sites, n_x_total=x)
                   for x in range(2 * n_sites + 1)]
    for letters in (("up", "down"), ("1", "0", "-1")):
        manifold = "half" if len(letters) == 2 else "one"
        blocks += [spin_block(manifold, labels) for labels in
                   itertools.combinations_with_replacement(letters, n_sites)]
    return blocks


@pytest.mark.parametrize("n_sites", range(1, 7))
def test_mirror_is_a_count_keeping_involution(n_sites):
    for basis in mirror_blocks(n_sites):
        m = basis.mirror()
        assert np.array_equal(m[m], np.arange(basis.dim))
        assert np.array_equal(basis.codes[m], basis.codes[:, ::-1])
        counts = basis.counts[basis.codes]
        assert np.array_equal(counts[m], counts[:, ::-1])
        if n_sites == 1:  # one site: every row is its own reflection
            assert np.array_equal(m, np.arange(basis.dim))


def test_block_dimension_counted_without_enumeration():
    assert sector_dim(6, 6, 3) == 64418
    assert sector_dim(6, 6) == 226020
    with pytest.raises(SectorError, match="64418"):
        enumerate_sector(6, 6, dim_cap=64417, n_x_total=3)


def test_sector_dim_cap():
    with pytest.raises(SectorError):
        enumerate_sector(3, 3, dim_cap=100)
    # checked against the exact count before anything is allocated
    with pytest.raises(SectorError, match="2234040"):
        enumerate_sector(7, 7)


def test_sparse_operator_duplicate_entries_sum():
    op = SparseOperator.from_coo(2, [0, 0], [1, 1], [1.0, 2.0])
    assert op.dense()[0, 1] == pytest.approx(3.0)


def test_jc_x_matrix_elements():
    basis = enumerate_sector(1, 2)
    op = site_operator(basis, 0, "jc_x")
    dense = op.dense()
    i_g20 = basis.index[((G, 2, 0),)]
    i_e10 = basis.index[((E1, 1, 0),)]
    # annihilating one x phonon into e1 carries sqrt(2)
    assert dense[i_e10, i_g20] == pytest.approx(math.sqrt(2.0))
    assert dense[i_g20, i_e10] == pytest.approx(math.sqrt(2.0))
    assert op.hermiticity_defect() == 0.0


def test_jc_y_swaps_species():
    basis = enumerate_sector(1, 1)
    op = site_operator(basis, 0, "jc_y").dense()
    i_g01 = basis.index[((G, 0, 1),)]
    i_e2 = basis.index[((E2, 0, 0),)]
    assert op[i_e2, i_g01] == pytest.approx(1.0)
    i_g10 = basis.index[((G, 1, 0),)]
    assert np.all(op[:, i_g10] == 0.0)


def test_number_operators_are_diagonal_counts():
    basis = enumerate_sector(2, 2)
    n_x = site_operator(basis, 0, "num_x").dense()
    assert np.allclose(n_x, np.diag(np.diag(n_x)))
    for state, idx in basis.index.items():
        assert n_x[idx, idx] == state[0][1]


def test_hop_operator_hermitian_and_conserving():
    basis = enumerate_sector(3, 3)
    hop = assemble(basis, [(hop_operator(basis.n_total, "x"), (0, 2))])
    n_tot = total_excitation(basis)
    assert hop.hermiticity_defect() < 1e-14
    assert hop.commutator_norm(n_tot) < 1e-13


def test_total_excitation_is_sector_constant():
    basis = enumerate_sector(2, 3)
    n_tot = total_excitation(basis).dense()
    assert np.allclose(n_tot, 3.0 * np.eye(basis.dim))


def test_matvec_matches_dense():
    basis = enumerate_sector(2, 2)
    op = assemble(basis, [(hop_operator(basis.n_total, "y"), (0, 1))])
    rng = np.random.default_rng(7)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    assert op.matvec(v) == pytest.approx(op.dense() @ v)


def random_conserving_local(alphabet, n_local, rng):
    """Random local operator {letters: {letters': amp}} on n_local sites.

    Only entries between letter tuples of equal total excitation, so the
    operator conserves the sector.
    """
    by_exc = {}
    for letters in itertools.product(alphabet, repeat=n_local):
        by_exc.setdefault(sum(map(site_excitation, letters)), []).append(letters)
    op = {}
    for group in by_exc.values():
        for src in group:
            for dst in group:
                if rng.random() < 0.3:
                    op.setdefault(src, {})[dst] = complex(*rng.normal(size=2))
    return op


def local_matrix(alphabet, op, n_local):
    """The dict operator as embed's matrix, site-major letter index."""
    index = {s: i for i, s in enumerate(alphabet)}
    d = len(alphabet)

    def code(letters):
        return sum(index[s] * d ** (n_local - 1 - p) for p, s in enumerate(letters))

    mat = np.zeros((d**n_local, d**n_local), dtype=complex)
    for src, row in op.items():
        for dst, amp in row.items():
            mat[code(dst), code(src)] = amp
    return mat


def brute_force_embed(basis, op, sites):
    """Per-state reference for embed: apply the dict operator state by state."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, state in enumerate(basis.states):
        for dst, amp in op.get(tuple(state[s] for s in sites), {}).items():
            target = list(state)
            for s, letter in zip(sites, dst):
                target[s] = letter
            out[basis.index[tuple(target)], col] += amp
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 2), (2, 2), (3, 1), (3, 3), (4, 2), (5, 1),
                        (30, 1)]),
       st.integers(min_value=1, max_value=3),
       st.integers(0, 2**32 - 1))
@example((3, 1), 3, 0)
@example((5, 1), 3, 1)
def test_embed_matches_brute_force(sector, n_local, seed):
    n_sites, n_total = sector
    # three-site operators where the alphabet is small: 5 letters, a
    # 125 x 125 local matrix (22 letters at n_total = 3 would need 10^4)
    n_local = min(n_local, n_sites, 3 if n_total == 1 else 2)
    # any distinct sites in any order, adjacent or not
    rng = np.random.default_rng(seed)
    sites = tuple(int(s) for s in rng.permutation(n_sites)[:n_local])
    basis = enumerate_sector(n_sites, n_total)
    op = random_conserving_local(basis.alphabet, n_local, rng)
    got = SparseOperator.from_coo(
        basis.dim, *embed(basis, local_matrix(basis.alphabet, op, n_local), sites)
    ).dense()
    np.testing.assert_array_equal(got, brute_force_embed(basis, op, sites))


def test_embed_rejects_operator_leaving_sector():
    basis = enumerate_sector(2, 2)
    with pytest.raises(SectorError):
        embed(basis, site_operators(2)["a_x"], (1,))
