import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from jchsim import fock
from jchsim.crystal import CrystalGeometry
from jchsim.fock import (
    E1,
    E2,
    G,
    SectorError,
    assemble,
    embed,
    enumerate_sector,
    hop_operator,
    product_basis,
    sector_dim,
    site_excitation,
    site_operators,
    site_states,
    site_x_count,
)
from jchsim.jchv import LABEL_X, build_full, build_hb, build_hjc, sector_basis_for
from jchsim.params import KHZ, TrapConfig, make_drive
from jchsim.superexchange import (
    build_spin_hamiltonian,
    spin_block,
    spin_half_general,
    spin_one_general,
)


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
    # two terms on the same entries sum into one; a sum of 0 is dropped
    basis = enumerate_sector(1, 2)
    jc_x = site_operators(2)["jc_x"]
    op = assemble(basis, [(jc_x, (0,)), (2.0 * jc_x, (0,))])
    i_g20 = basis.index[((G, 2, 0),)]
    i_e10 = basis.index[((E1, 1, 0),)]
    assert op.mat[i_e10, i_g20] == pytest.approx(3.0 * math.sqrt(2.0))
    assert op.mat.nnz == site_operator(basis, 0, "jc_x").mat.nnz
    assert assemble(basis, [(jc_x, (0,)), (-jc_x, (0,))]).mat.nnz == 0


def test_assemble_without_terms_is_zero():
    basis = enumerate_sector(2, 1)
    op = assemble(basis, [])
    assert op.dim == op.mat.shape[0] == op.mat.shape[1] == basis.dim
    assert op.mat.dtype == np.float64 and op.mat.nnz == 0


def test_assemble_refuses_imaginary_term():
    basis = enumerate_sector(2, 1)
    jc_x = site_operators(1)["jc_x"]
    assert assemble(basis, [(jc_x, (0,))]).mat.dtype == np.float64
    # complex is refused even with an imaginary part of exactly 0, and so
    # is any other dtype, dense or sparse, wherever it stands in the list
    for bad in (jc_x.astype(complex), 1e-300j * jc_x, jc_x.astype(np.float32),
                sp.csr_array(jc_x.astype(complex))):
        with pytest.raises(ValueError, match=rf"sites \(1,\) has dtype {bad.dtype}"):
            assemble(basis, [(jc_x, (0,)), (bad, (1,))])


@pytest.mark.parametrize("n_sites,n", [(2, 1), (3, 1), (2, 2)])
def test_every_builder_stores_real_float64(n_sites, n):
    geo = CrystalGeometry.from_uniform_hoppings(n_sites, 0.1 * KHZ, 0.17 * KHZ)
    drive = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ)
    basis = sector_basis_for(n_sites, n, n_x_total=n_sites * n // 2)
    ops = [build_hjc(basis, geo, drive), build_hb(basis, geo),
           build_full(basis, geo, drive)]
    model = (spin_half_general if n == 1 else spin_one_general)(geo, drive)
    letters = SPIN_LETTERS[n]
    labels = tuple(letters[j % 2] for j in range(n_sites))
    # the spin models, on an S_z block and on the whole product space
    for spins in (spin_block(model.manifold, labels),
                  product_basis(dict.fromkeys(letters, 0), n_sites, 0)):
        ops.append(build_spin_hamiltonian(model, spins))
    for op in ops:
        assert op.mat.dtype == np.float64 and op.mat.nnz > 0


def test_jc_x_matrix_elements():
    basis = enumerate_sector(1, 2)
    op = site_operator(basis, 0, "jc_x")
    dense = op.mat.toarray()
    i_g20 = basis.index[((G, 2, 0),)]
    i_e10 = basis.index[((E1, 1, 0),)]
    # annihilating one x phonon into e1 carries sqrt(2)
    assert dense[i_e10, i_g20] == pytest.approx(math.sqrt(2.0))
    assert dense[i_g20, i_e10] == pytest.approx(math.sqrt(2.0))
    assert abs(op.mat - op.mat.T).max() == 0.0


def test_jc_y_swaps_species():
    basis = enumerate_sector(1, 1)
    op = site_operator(basis, 0, "jc_y").mat.toarray()
    i_g01 = basis.index[((G, 0, 1),)]
    i_e2 = basis.index[((E2, 0, 0),)]
    assert op[i_e2, i_g01] == pytest.approx(1.0)
    i_g10 = basis.index[((G, 1, 0),)]
    assert np.all(op[:, i_g10] == 0.0)


def test_number_operators_are_diagonal_counts():
    basis = enumerate_sector(2, 2)
    n_x = site_operator(basis, 0, "num_x").mat.toarray()
    assert np.allclose(n_x, np.diag(np.diag(n_x)))
    for state, idx in basis.index.items():
        assert n_x[idx, idx] == state[0][1]


def test_hop_operator_hermitian_and_conserving():
    basis = enumerate_sector(3, 3)
    hop = assemble(basis, [(hop_operator(basis.n_total, "x"), (0, 2))])
    n_tot = total_excitation(basis)
    assert abs(hop.mat - hop.mat.T).max() < 1e-14
    assert abs(hop.mat @ n_tot.mat - n_tot.mat @ hop.mat).max() < 1e-13


def test_hop_operator_is_cached_read_only():
    hop = hop_operator(2, "x")
    assert hop_operator(2, "x") is hop
    assert not any(part.flags.writeable
                   for part in (hop.data, hop.indices, hop.indptr))


def test_total_excitation_is_sector_constant():
    basis = enumerate_sector(2, 3)
    n_tot = total_excitation(basis).mat.toarray()
    assert np.allclose(n_tot, 3.0 * np.eye(basis.dim))


def test_matvec_matches_dense():
    basis = enumerate_sector(2, 2)
    op = assemble(basis, [(hop_operator(basis.n_total, "y"), (0, 1))])
    rng = np.random.default_rng(7)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    assert op.matvec(v) == pytest.approx(op.mat.toarray() @ v)


def random_conserving_local(basis, n_local, rng):
    """Random local operator {letters: {letters': amp}} on n_local sites.

    Only entries between letter tuples of equal summed basis counts (N,
    and X in an N_X block or spin S_z block), so the operator keeps the
    basis.
    """
    by_counts = {}
    for codes in itertools.product(range(len(basis.alphabet)), repeat=n_local):
        key = tuple(basis.counts[list(codes)].sum(axis=0))
        letters = tuple(basis.alphabet[c] for c in codes)
        by_counts.setdefault(key, []).append(letters)
    op = {}
    for group in by_counts.values():
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


SPIN_LETTERS = {1: ("up", "down"), 2: ("1", "0", "-1")}


def sample_basis(kind, n_sites, n, rng):
    """A whole sector of n excitations, one of its N_X blocks, or an S_z
    block of the spin-1/2 (n = 1) or spin-1 (n = 2) product space."""
    if kind == "sector":
        return enumerate_sector(n_sites, n)
    if kind == "block":
        return enumerate_sector(n_sites, n, n_x_total=int(rng.integers(n + 1)))
    labels = rng.choice(SPIN_LETTERS[n], n_sites)
    return spin_block("half" if n == 1 else "one", labels)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("sector", 1, 2), ("sector", 2, 2), ("sector", 3, 1),
                        ("sector", 3, 3), ("sector", 4, 2), ("sector", 5, 1),
                        ("sector", 30, 1), ("block", 2, 3), ("block", 3, 3),
                        ("block", 4, 2), ("block", 5, 1), ("block", 20, 1),
                        ("spin", 5, 1), ("spin", 4, 2), ("spin", 12, 1)]),
       st.integers(min_value=1, max_value=3),
       st.integers(0, 2**32 - 1))
@example(("sector", 3, 1), 3, 0)
@example(("sector", 5, 1), 3, 1)
@example(("block", 5, 1), 2, 0)
@example(("block", 3, 3), 2, 2)
@example(("spin", 5, 1), 3, 3)
@example(("spin", 4, 2), 3, 0)
def test_embed_matches_brute_force(case, n_local, seed):
    kind, n_sites, n = case
    rng = np.random.default_rng(seed)
    basis = sample_basis(kind, n_sites, n, rng)
    # three-site operators where the alphabet is small: 5 letters, a
    # 125 x 125 local matrix (22 letters at n_total = 3 would need 10^4)
    n_local = min(n_local, n_sites, 3 if len(basis.alphabet) <= 5 else 2)
    # any distinct sites in any order, adjacent or not
    sites = tuple(int(s) for s in rng.permutation(n_sites)[:n_local])
    op = random_conserving_local(basis, n_local, rng)
    rows, cols, vals = embed(basis, local_matrix(basis.alphabet, op, n_local),
                             sites)
    got = sp.coo_array((vals, (rows, cols)), shape=(basis.dim,) * 2).toarray()
    np.testing.assert_array_equal(got, brute_force_embed(basis, op, sites))


def embed_by_rank(basis, local, sites):
    """embed's entries with each moved row ranked by SectorBasis.rank,
    sorted by (cols, rows)."""
    local = sp.csc_array(local)
    shape = (len(basis.alphabet),) * len(sites)
    source = np.ravel_multi_index(tuple(basis.codes[:, s] for s in sites), shape)
    cols, ptr = [], []
    for c in np.unique(source):
        here = np.flatnonzero(source == c)
        entries = np.arange(local.indptr[c], local.indptr[c + 1])
        cols.append(np.repeat(here, len(entries)))
        ptr.append(np.tile(entries, len(here)))
    cols, ptr = np.concatenate(cols), np.concatenate(ptr)
    moved = basis.codes[cols]
    moved[:, list(sites)] = np.column_stack(
        np.unravel_index(local.indices[ptr], shape))
    rows = basis.rank(moved)
    order = np.lexsort((rows, cols))
    return rows[order], cols[order], local.data[ptr][order]


@pytest.mark.parametrize("n_sites,n", [(2, 1), (3, 1), (4, 1), (5, 1),
                                       (2, 2), (3, 2)])
@pytest.mark.parametrize("trap", [False, True])
def test_hamiltonian_terms_match_rank(monkeypatch, n_sites, n, trap):
    """Every term build_hjc, build_hb and build_spin_hamiltonian embed
    lands on the rows SectorBasis.rank gives its moved code rows."""
    if trap:
        geo = CrystalGeometry.from_trap(TrapConfig(
            n_ions=n_sites, omega_z=120.0 * KHZ, aspect_x=100.0 / 1.8,
            aspect_y=100.0))
    else:
        geo = CrystalGeometry.from_uniform_hoppings(n_sites, 0.1 * KHZ,
                                                    0.17 * KHZ)
    if n == 1:
        drive = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ,
                           Delta=0.0)
        model = spin_half_general(geo, drive)
    else:
        drive = make_drive(g_x=32.0 * KHZ, g_y=34.0 * KHZ, delta=0.0, Delta=0.0)
        model = spin_one_general(geo, drive)
    calls = []

    def recorded(basis, local, sites):
        calls.append((basis, local, sites, embed(basis, local, sites)))
        return calls[-1][-1]

    monkeypatch.setattr(fock, "embed", recorded)
    build_full(sector_basis_for(n_sites, n, n_x_total=n_sites * n // 2),
               geo, drive)
    for x in range(n_sites * n + 1):
        build_spin_hamiltonian(model, product_basis(
            {lab: LABEL_X[lab] for lab in SPIN_LETTERS[n]}, n_sites, x))
    # H_JC per site and H_b per pair; per S_z block, the spin terms per
    # site and pair and the constant
    pairs = n_sites * (n_sites - 1) // 2
    assert len(calls) == n_sites + pairs + (n_sites * n + 1) * (n_sites + pairs + 1)
    for basis, local, sites, (rows, cols, vals) in calls:
        order = np.lexsort((rows, cols))
        want = embed_by_rank(basis, local, sites)
        for got, expected in zip((rows[order], cols[order], vals[order]), want):
            np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("n_x,sites", [(3, (3, 4)), (3, (0, 4)), (2, (4, 1))])
def test_embed_indices_beyond_uint8(n_x, sites):
    """On the N = 5 blocks (N_X = 3 is the one the bench evolves), a
    count's stride times the counts left to a site exceeds 255 while both
    codes and counts are uint8: hops must still land where
    SectorBasis.rank puts the moved rows."""
    basis = enumerate_sector(5, 5, n_x_total=n_x)
    assert basis.codes.dtype == basis._left.dtype == np.uint8
    assert basis._rank_table.size > 256
    ops = site_operators(5)
    local = sum(np.kron(ops[f"a_{p}"].T, ops[f"a_{p}"]) for p in "xy")
    local = local + local.T
    rows, cols, vals = embed(basis, local, sites)
    order = np.lexsort((rows, cols))
    for got, want in zip((rows[order], cols[order], vals[order]),
                         embed_by_rank(basis, local, sites)):
        np.testing.assert_array_equal(got, want)


def test_embed_rejects_operator_leaving_sector():
    basis = enumerate_sector(2, 2)
    with pytest.raises(SectorError):
        embed(basis, site_operators(2)["a_x"], (1,))


@pytest.mark.parametrize("sites", [(0, 1), (1, 0), (0, 3), (3, 1), (2, 0)])
def test_embed_rejects_hop_between_species(sites):
    # a_x^dag on one site, a_y on another: N is kept, X is not (in the
    # all-x block it finds no y phonon, so it maps the block to zero)
    ops = site_operators(4)
    local = np.kron(ops["a_x"].T, ops["a_y"])
    for x in range(4):
        basis = enumerate_sector(4, 4, n_x_total=x)
        with pytest.raises(SectorError):
            embed(basis, local, sites)
