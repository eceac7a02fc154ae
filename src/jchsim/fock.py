"""Integer-coded bases and the local-operator embedding for the V-type lattice.

A site state is (level, n_x, n_y) with level in {G, E1, E2}; its
excitation number is n_x + n_y + (level != G). The total excitation
operator N = sum_j N_j is exactly conserved, so the many-body basis is
enumerated sector by sector: restriction to fixed total N is exact, not
a truncation. So is the x-excitation number N_X = sum_j (n_x + P_e1)_j,
and a sector can be enumerated one N_X block at a time.

A basis stores each many-body state as a row of small-int codes into an
alphabet of site states (or spin labels, for the S_z blocks of the
effective models). Its rows are in lexicographic order, and a row's
ordinal is a sum of one exact-count table term per site (`rank`).
`embed` maps an operator on any number of sites into a basis for all
states at once; every Hamiltonian is a sum of embeddings of the
single-site operators defined once in `site_operators`. It ranks a
moved row by updating its source row's ordinal: only the terms of the
sites from the operator's first to its last site change (the per-site
tables of exact-diagonalisation codes; H. Q. Lin, Phys. Rev. B 42,
6561 (1990)).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

G, E1, E2 = 0, 1, 2

DROP_TOL = 1e-15
DEFAULT_DIM_CAP = 2_000_000


def site_excitation(state):
    """Excitation number of one site state (level, n_x, n_y)."""
    level, n_x, n_y = state
    return n_x + n_y + (1 if level != G else 0)


@lru_cache(maxsize=None)
def site_alphabet(n_max):
    """Site states with at most n_max excitations, sorted: a sector's alphabet."""
    return tuple(s for s in itertools.product((G, E1, E2), range(n_max + 1),
                                              range(n_max + 1))
                 if site_excitation(s) <= n_max)


def site_x_count(state):
    """x-excitation number of one site state: n_x, plus one on level e1.

    Each JC term trades an x phonon for e1 and each hop moves one species,
    so sum_j X_j (N_X) is conserved alongside N.
    """
    level, n_x, _ = state
    return n_x + (1 if level == E1 else 0)


def site_states(n):
    """All site states with exactly n excitations, sorted by (level, n_x, n_y).

    There are 3n+1 of them: n+1 ground-level splits of n phonons plus n
    splits each for e1 and e2 (one quantum stored in the atom).
    """
    return [s for s in site_alphabet(n) if site_excitation(s) == n]


def _read_only(mat):
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def site_operators(n_max):
    """Dense single-site operators on site_alphabet(n_max); cached, read-only.

    num_x/num_y, proj_e1/proj_e2, the phonon lowering a_x/a_y, and
    jc_x = a_x |e1><g| + h.c. with its e2/y counterpart jc_y.
    """
    alphabet = site_alphabet(n_max)
    index = {s: i for i, s in enumerate(alphabet)}
    level, n_x, n_y = np.array(alphabet, dtype=float).T
    ops = {
        "num_x": np.diag(n_x),
        "num_y": np.diag(n_y),
        "proj_e1": np.diag((level == E1).astype(float)),
        "proj_e2": np.diag((level == E2).astype(float)),
    }
    for species, pos, excited in (("x", 1, E1), ("y", 2, E2)):
        lower = np.zeros((len(alphabet), len(alphabet)))
        sigma = np.zeros_like(lower)  # |e><g|, where the raised state fits
        for i, s in enumerate(alphabet):
            if s[pos]:
                t = list(s)
                t[pos] -= 1
                lower[index[tuple(t)], i] = math.sqrt(s[pos])
            if s[0] == G and (excited, s[1], s[2]) in index:
                sigma[index[(excited, s[1], s[2])], i] = 1.0
        jc = sigma @ lower
        ops["a_" + species] = lower
        ops["jc_" + species] = jc + jc.T
    return MappingProxyType({k: _read_only(v) for k, v in ops.items()})


@lru_cache(maxsize=None)
def site_sector_operators(n):
    """site_operators between the exact-n site states, in site_states order.

    a_x/a_y map them into the n - 1 site states. Cached and read-only.
    """
    exc = np.array([site_excitation(s) for s in site_alphabet(n)])
    here, below = np.flatnonzero(exc == n), np.flatnonzero(exc == n - 1)
    return MappingProxyType({
        name: _read_only(op[np.ix_(below if name.startswith("a_") else here, here)])
        for name, op in site_operators(n).items()
    })


@lru_cache(maxsize=None)
def hop_operator(n_max, species):
    """Sparse a_j^dag a_k + a_j a_k^dag of species 'x'/'y' for embed on (j, k);
    cached, read-only."""
    a = sp.csr_array(site_operators(n_max)["a_" + species])
    hop = sp.kron(a.T, a, format="csr")
    hop = hop + hop.T
    for part in (hop.data, hop.indices, hop.indptr):
        _read_only(part)
    return hop


class SectorError(ValueError):
    """Basis request outside the supported sector constraints."""


def _count_fillings(counts, totals, n_sites):
    """ways[m][t]: rows of m <= n_sites letters whose counts sum to t (exact ints).

    counts is (letters, k); t runs over the k-dimensional grid 0..totals.
    Letters with equal counts add the same shifted table: it is added
    once per distinct count vector, times the number of its letters.
    """
    grid = tuple(t + 1 for t in totals)
    ways = np.zeros((n_sites + 1,) + grid, dtype=object)
    ways[(0,) * (len(grid) + 1)] = 1
    # an x count above a block's n_x_total fits nowhere
    letters = [(c, n) for c, n in Counter(map(tuple, counts.tolist())).items()
               if all(ci < g for ci, g in zip(c, grid))]
    for m in range(n_sites):
        for c, n in letters:
            ways[m + 1][tuple(slice(ci, g) for ci, g in zip(c, grid))] += \
                n * ways[m][tuple(slice(0, g - ci) for ci, g in zip(c, grid))]
    return ways


def _by_letter(ways, counts):
    """[m, *t, c] = ways[m][t - counts[c]], or 0 where that leaves the grid."""
    k = counts.shape[1]
    left = (np.indices(ways.shape[1:])[..., None]
            - counts.T.reshape((k,) + (1,) * k + (-1,)))
    return np.where(np.all(left >= 0, axis=0),
                    ways[(slice(None),) + tuple(np.maximum(left, 0))], 0)


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ordered many-body basis: codes[i, j] indexes alphabet at site j of state i.

    Each letter carries k conserved counts, counts[letter]: the excitation
    number, and for an N_X block also the x-excitation number (a spin
    product basis counts x alone). The rows are all those whose counts sum
    to totals, in lexicographic order (site 0 most significant).
    """

    n_sites: int
    totals: tuple
    alphabet: tuple
    counts: np.ndarray = field(repr=False)
    codes: np.ndarray = field(repr=False)
    ways: np.ndarray = field(repr=False)  # _count_fillings up to n_sites

    @property
    def n_total(self):
        return self.totals[0]

    @property
    def n_x_total(self):
        """Total x-excitation number of an N_X block; None for a full sector."""
        return self.totals[1] if len(self.totals) > 1 else None

    @property
    def dim(self):
        return len(self.codes)

    @cached_property
    def _rank_table(self):
        # [m, *t, c]: the fillings of a site followed by m sites, holding
        # counts t between them, whose first letter is below c. A row's
        # rank sums this over its sites, with its own prefix fixed.
        terms = _by_letter(self.ways[:self.n_sites].astype(np.int64), self.counts)
        return np.ascontiguousarray(np.cumsum(terms, axis=-1) - terms)

    @cached_property
    def _left(self):
        # [s, t, i]: count t that row i leaves to sites s.. (totals less the
        # counts of the sites before s); site-major, smallest unsigned dtype
        dtype = np.min_scalar_type(max(self.totals))
        counts = self.counts.astype(dtype)[self.codes.T]
        left = (np.asarray(self.totals, dtype=dtype)
                - (np.cumsum(counts, axis=0, dtype=dtype) - counts))
        return np.ascontiguousarray(left.transpose(0, 2, 1))

    def rank(self, codes):
        """Ordinals of code rows; SectorError if a row is not in the basis."""
        counts = self.counts[codes]
        spent = np.cumsum(counts, axis=1)
        if np.any(spent[:, -1] != self.totals):
            raise SectorError("a state leaves the sector (or its N_X block)")
        left = np.moveaxis(np.asarray(self.totals) - spent + counts, -1, 0)
        sites_after = np.arange(self.n_sites - 1, -1, -1)
        return self._rank_table[(sites_after,) + tuple(left) + (codes,)].sum(axis=1)

    def mirror(self):
        """Ordinal of each row's chain reflection (sites reversed): an
        involution, since every count a basis holds is a sum over sites."""
        return self.rank(self.codes[:, ::-1])

    def product_vector(self, site_amplitudes):
        """Dense prod_j (sum_s amp_j(s) |s>_j) from one iterable of (letter,
        amp) pairs per site; a letter with amp 0 may lie outside the basis."""
        letter = {s: i for i, s in enumerate(self.alphabet)}
        sites = [[(letter[s], a) for s, a in pairs if a] for pairs in site_amplitudes]
        codes = itertools.product(*([c for c, _ in site] for site in sites))
        amps = itertools.product(*([a for _, a in site] for site in sites))
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.rank(np.array(list(codes)))] = np.array(list(amps)).prod(axis=1)
        return psi


def _enumerate(alphabet, counts, totals, n_sites, dim_cap=DEFAULT_DIM_CAP):
    ways = _count_fillings(counts, totals, n_sites)
    dim = ways[(-1,) + totals]
    if dim > dim_cap:
        raise SectorError(f"sector dimension {dim} exceeds cap {dim_cap}")
    # [m, *t, c]: letter c can start m + 1 sites that hold exactly t
    fits_table = _by_letter(ways, counts) > 0
    codes = np.zeros((1, 0), dtype=np.min_scalar_type(len(alphabet) - 1))
    left = np.array([totals])
    for site in range(n_sites):
        # extend each row by every letter that leaves a fillable rest
        fits = fits_table[(n_sites - 1 - site,) + tuple(left.T)]
        row, letter = np.nonzero(fits)
        codes = np.column_stack([codes[row], letter.astype(codes.dtype)])
        left = left[row] - counts[letter]
    return SectorBasis(n_sites, totals, alphabet, counts, codes, ways)


def _sector_counts(n_sites, n_total, n_x_total):
    """(alphabet, counts, totals) of a sector, or of its N_X block."""
    if n_sites < 1:
        raise SectorError("n_sites must be >= 1")
    if n_total < 0:
        raise SectorError("n_total must be >= 0")
    alphabet = site_alphabet(n_total)
    if n_x_total is None:
        return (alphabet, np.array([[site_excitation(s)] for s in alphabet]),
                (n_total,))
    if not 0 <= n_x_total <= n_total:
        raise SectorError(f"n_x_total must lie in 0..{n_total}")
    counts = np.array([[site_excitation(s), site_x_count(s)] for s in alphabet])
    return alphabet, counts, (n_total, n_x_total)


def sector_dim(n_sites, n_total, n_x_total=None):
    """Exact dimension of enumerate_sector's basis, without enumerating it."""
    _, counts, totals = _sector_counts(n_sites, n_total, n_x_total)
    return int(_count_fillings(counts, totals, n_sites)[(-1,) + totals])


def enumerate_sector(n_sites, n_total, dim_cap=DEFAULT_DIM_CAP, n_x_total=None):
    """Every configuration with sum_j n_j = n_total, lexicographically.

    With n_x_total, only the N_X block: the configurations that also hold
    sum_j X_j = n_x_total (site_x_count), in the same relative order.
    dim_cap bounds the dimension of the basis returned, checked against
    the exact count before anything is allocated.
    """
    return _enumerate(*_sector_counts(n_sites, n_total, n_x_total), n_sites,
                      dim_cap)


def product_basis(x_counts, n_sites, n_x_total):
    """Rows of n_sites letters (x_counts: letter -> x count) whose x counts
    sum to n_x_total, in kron order; all counts 0, total 0: the whole space."""
    counts = np.array([[x] for x in x_counts.values()], dtype=np.int64)
    return _enumerate(tuple(x_counts), counts, (n_x_total,), n_sites)


def embed(basis: SectorBasis, local, sites):
    """Map an operator on any number of sites into the basis: (rows, cols, vals).

    local is a square dense or sparse matrix over the letters of `sites`,
    site-major in the order given: for sites (j, k, l) its index is
    (c_j * len(alphabet) + c_k) * len(alphabet) + c_l. All basis states
    are mapped at once; the result lists <rows|local|cols> for every
    nonzero entry, with duplicates not summed. Raises SectorError if
    local leaves the basis.

    Rows are ranked by update, not by SectorBasis.rank: a row's rank sums
    one _rank_table term per site, and a move that keeps the summed counts
    of `sites` changes only the terms of sites lo..hi, the span of
    `sites`. Each of those is looked up again with the letters after the
    move and the counts left after the changes at the sites before it.
    """
    n_letters = len(basis.alphabet)
    local = sp.csc_array(local)
    if (len(set(sites)) != len(sites)
            or local.shape != (n_letters ** len(sites),) * 2):
        raise ValueError(f"local operator {local.shape} does not fit sites {sites}")
    codes = basis.codes
    col_letter = np.zeros(basis.dim, dtype=np.intp)
    for s in sites:
        col_letter = col_letter * n_letters + codes[:, s]
    start = local.indptr[col_letter]
    count = local.indptr[col_letter + 1] - start
    cols = np.repeat(np.arange(basis.dim), count)
    ptr = np.arange(len(cols)) + np.repeat(start - (np.cumsum(count) - count), count)
    vals = local.data[ptr]

    # per nonzero of local: does it keep the summed counts of `sites`?
    source = np.repeat(np.arange(local.shape[1]), np.diff(local.indptr))
    target = local.indices
    summed = np.zeros((1, basis.counts.shape[1]), dtype=basis.counts.dtype)
    for _ in sites:
        summed = (summed[:, None] + basis.counts).reshape(-1, summed.shape[1])
    leaves = np.any(summed[target] != summed[source], axis=1)
    if leaves.any() and leaves[ptr].any():
        raise SectorError("a state leaves the sector (or its N_X block)")
    # and the letter it reads and writes at each site
    before, after = {}, {}
    for s in reversed(sites):
        source, before[s] = np.divmod(source, n_letters)
        target, after[s] = np.divmod(target, n_letters)

    # A term's flat index in _rank_table: its site, the counts left to
    # it, its letter. Counts changed before site s shift its index down by
    # their offset, a change of letter at s moves it by new - old.
    table = basis._rank_table
    site_stride, *count_stride, _ = np.array(table.strides) // table.itemsize
    table = table.reshape(-1)
    letter_offset = basis.counts @ count_stride
    shift = 0
    old_terms = new_terms = 0
    for s in range(min(sites), max(sites) + 1):
        step = -shift
        if s in after:
            step = step + after[s] - before[s]
            shift = shift + letter_offset[after[s]] - letter_offset[before[s]]
        # widen the uint8 codes and counts before any arithmetic: numpy 1.x
        # would keep uint8 + scalar in uint8 and wrap past 255
        here = (basis.n_sites - 1 - s) * site_stride + codes[:, s].astype(np.intp)
        for left, stride in zip(basis._left[s], count_stride):
            here = here + stride * left.astype(np.intp)
        old_terms = old_terms + table[here]
        new_terms = new_terms + table[here[cols] + step[ptr]]
    return cols - old_terms[cols] + new_terms, cols, vals


class SparseOperator:
    """A Hamiltonian on a SectorBasis: its dim and CSR matrix, mat.

    evolve's Chebyshev products all go through matvec, which
    bench/tracer.py counts.
    """

    def __init__(self, dim, mat):
        self.dim = dim
        self.mat = mat

    def matvec(self, v):
        return self.mat @ v


def assemble(basis: SectorBasis, terms):
    """SparseOperator summing embed(basis, local, sites) over the terms
    (sites, local).

    Its matrix is a real float64 CSR, with duplicate entries summed and
    those of magnitude at most DROP_TOL dropped. Raises ValueError if a
    term is not float64 (complex included): Hamiltonians are real.
    """
    parts = []
    for sites, local in terms:
        if local.dtype != np.float64:
            raise ValueError(f"term on sites {tuple(sites)} has dtype "
                             f"{local.dtype}, not float64; Hamiltonians are real")
        parts.append(embed(basis, local, sites))
    rows, cols, vals = ([np.concatenate(p) for p in zip(*parts)] if parts
                        else ([], [], np.zeros(0)))
    mat = sp.coo_matrix((vals, (rows, cols)),
                        shape=(basis.dim, basis.dim)).tocsr()  # sums duplicates
    mat.data[np.abs(mat.data) <= DROP_TOL] = 0.0
    mat.eliminate_zeros()
    return SparseOperator(basis.dim, mat)
