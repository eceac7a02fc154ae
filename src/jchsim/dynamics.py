"""Exact time evolution and full-vs-effective comparison.

Evolution is unitary: dense eigendecomposition below a dimension
threshold, one real divide-and-conquer eigh (LAPACK syevd, through
numpy.linalg; the program loads no SciPy linear algebra module) per
chain-reflection parity block, one block's eigenvectors in memory at a
time, every grid time read from the eigencoefficients of the initial
and tracked states; above it, Chebyshev series of exp(-i H t)
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)) on the Gershgorin
interval of H, mapped onto [-1, 1] once, each term one product of the
mapped H with the complex state. One series serves a span of grid
times: started from the state at the span's start, it builds every
time's state from the same terms, and is cut where the tail at the
span's last time, a certified bound on the error of every state in the
span, falls below CHEBYSHEV_TOL. Neither method holds an array of states
over the grid: the dense one forms only the final state, the Chebyshev
one the states of one span, no more entries than the mapped H's data.
States are tracked through squared overlaps with dressed product labels
(full model) or spin product labels (effective model), one (times x
labels) array per side, so the two sides of a run compare column by
column. Both run in the block of the initial labels' X: N_X for the
full model, total S_z for the effective one. Tracked labels outside it
have population exactly 0. A Run holds a config's tracked labels and
one EvolutionResult per side.
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .crystal import geometry_from_config, local_detunings
from .fock import (SectorBasis, SectorError, SparseOperator, enumerate_sector,
                   sector_dim, site_states)
from .jchv import (
    LABEL_X,
    MANIFOLD_LABELS,
    MANIFOLD_N,
    build_full,
    site_manifold_states,
)
from .params import SimConfig
from .superexchange import (
    SpinModel,
    build_spin_hamiltonian,
    spin_block,
    spin_half_general,
    spin_one_general,
)

DENSE_THRESHOLD = 2000
DENSE_CHUNK = 2**20  # most phase entries e^{-iwt} the dense method forms at once
CHEBYSHEV_TOL = 1e-12  # truncation bound per series
# largest half-width x time of one series: a span of grid times ends
# before it, and a longer grid interval is split into equal series, so
# the series' order, and its coefficient arrays, stay small
CHEBYSHEV_MAX_X = 1000.0
# an expansion of argument x takes at least x products, so a run needs at
# least half-width x horizon of them; more than this is refused up front
CHEBYSHEV_MAX_PRODUCTS = 1e9
HERMITICITY_TOL = 1e-10
# largest rounding error of the phases, eps |E| t_final, in rad
PHASE_TOL = 1e-6
N_PERIODS = 2.0  # default horizon, in transfer periods
TRACK_CAP = 512  # track every product label while there are at most this many


@dataclass(frozen=True)
class EvolutionResult:
    """Population traces of one trajectory plus conservation diagnostics.

    The Chebyshev method measures the drifts on its state at every grid
    time. The dense method's are one-time checks, constant in exact
    arithmetic, of the initial state's eigencoefficients c0 summed over
    the parity blocks: norm_drift = |sum |c0|^2 - 1| and energy_drift =
    |sum w |c0|^2 - <psi0|H|psi0>| / max(|E0|, max |H_ij|, 1e-30); a
    missed block or a wrong eigenpair shows in them.
    """

    times: np.ndarray  # ms
    populations: np.ndarray  # (times, tracked states) squared overlaps
    norm_drift: float  # |<psi|psi> - 1|, per method as above
    energy_drift: float  # relative drift of <psi|H|psi>, per method as above
    final_state: np.ndarray
    method: str  # "dense" or "chebyshev"
    # products with H, 0 for dense: one series per span of grid times,
    # its order the cut of the span's last time
    products: int
    # the series tails, one per span at its last time, summed: each bounds
    # the error of every state of its span, so the sum up to a grid time
    # bounds that time's state error
    truncation_bound: float
    blocks: tuple  # dims of the parity blocks diagonalised, () for chebyshev


def _n_x(labels):
    """Total x-excitation number X of a dressed or spin product label."""
    return sum(LABEL_X[lab] for lab in labels)


def dressed_product_state(labels, vectors, basis: SectorBasis):
    """Tensor product of single-site dressed states in the sector basis.

    vectors are the sites' dressed states of the basis's manifold, as
    jchv.site_manifold_states returns them for the stack of the basis's
    sites. Raises SectorError on a wrong label count, a label of another
    manifold, or a summed X that is not the basis's N_X block's.
    """
    n_sites = basis.n_sites
    if len(labels) != n_sites:
        raise SectorError(f"{len(labels)} labels for {n_sites} sites")
    n = basis.n_total // n_sites
    rank = {lab: r for r, lab in enumerate(MANIFOLD_LABELS[n])}
    for lab in labels:
        if lab not in rank:
            raise SectorError(f"label {lab!r} does not live in the "
                              f"{n}-excitation manifold")
    n_x = _n_x(labels)
    if basis.n_x_total is not None and n_x != basis.n_x_total:
        raise SectorError(f"labels carry X = {n_x}, block holds X = "
                          f"{basis.n_x_total}")
    states = site_states(n)
    return basis.product_vector(zip(states, vectors[j, rank[lab]])
                                for j, lab in enumerate(labels))


def bessel_j(x):
    """J_0(x), J_1(x), ... for x >= 0 by Miller's backward recurrence,
    normalised by J_0 + 2 sum_k J_2k = 1. The recurrence starts far
    enough past x that the orders it returns cover every J_k above 1e-30."""
    if x < 1e-30:  # J_0 = 1 to double precision, J_1 = x/2 and on below 1e-30
        return np.ones(1)
    start = int(x + 20.0 * x ** (1.0 / 3.0)) + 50
    j = np.zeros(start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = (2.0 * k / x) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # orders above k - 1 underflow, harmlessly
            j[k - 1:] *= 1e-250
    j = j[:start + 1]
    return j / (j[0] + 2.0 * np.sum(j[2::2]))


def _chebyshev_terms(x):
    """J_0(x)..J_K(x) with K the first order whose tail 2 sum_{k>K} |J_k(x)|
    is at most CHEBYSHEV_TOL, and that tail."""
    j = bessel_j(x)
    # tails[k] = 2 sum_{i>k} |J_i|
    tails = 2.0 * np.append(np.cumsum(np.abs(j[:0:-1]))[::-1], 0.0)
    k_cut = int(np.argmax(tails <= CHEBYSHEV_TOL))
    return j[:k_cut + 1], float(tails[k_cut])


def gershgorin_interval(h: SparseOperator):
    """(lo, hi) holding every eigenvalue of the real symmetric h."""
    diag = h.mat.diagonal()
    radius = np.asarray(abs(h.mat).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def _chebyshev_span(h: SparseOperator, psi, xs):
    """exp(-i x h) psi for every x of the ascending xs, for an h whose
    spectrum lies in [-1, 1], from one series: sum_k c_k(x) T_k(h) psi
    with c_0 = J_0(x), c_k = 2 (-i)^k J_k(x).

    T_1 = h psi and T_k+1 = 2 h T_k - T_k-1, so every term costs one
    product of h with the complex state, and is added to each state whose
    coefficient is not 0. The series stops at K, the cut of the last x
    (_chebyshev_terms). For k > K > x, J_k(x) grows with x (its first
    maximum lies beyond k), so an earlier x's tail beyond K is at most
    the last one's. Returns the (len(xs), dim) states, the product count
    K and that tail, a bound on the error of every state.
    """
    j, tail = _chebyshev_terms(xs[-1])
    n_terms = len(j)
    # (terms, xs); bessel_j stops below 1e-30, the orders past it are 0
    c = np.zeros((n_terms, len(xs)), dtype=complex)
    for r, x in enumerate(xs[:-1]):
        j_r = bessel_j(x)[:n_terms]
        c[:len(j_r), r] = j_r
    c[:, -1] = j
    c *= (2.0 * np.array([1.0, -1j, -1.0, 1j])[np.arange(n_terms) % 4])[:, None]
    c[0] /= 2.0
    states = c[0][:, None] * psi
    t_prev, t_k = None, psi
    for k in range(1, n_terms):
        t_next = h.matvec(t_k)
        if k > 1:
            t_next *= 2.0
            t_next -= t_prev
        for r in np.flatnonzero(c[k]):
            states[r] += c[k, r] * t_next
        t_prev, t_k = t_k, t_next
    return states, n_terms - 1, tail


def block_eigh(h: SparseOperator, mirror=None):
    """Yield (basis, w, v) of the real symmetric h per non-empty even and
    odd block of a basis involution m, mirror (SectorBasis.mirror's
    array); None is the identity, with one even block.

    The bases are real, orthonormal and sparse (dim, k): e_i for each row
    with m(i) = i, and (e_i + e_m(i)) / sqrt(2), (e_i - e_m(i)) / sqrt(2)
    for each pair i < m(i). The pre-check's odd^T h even is dropped before
    the first eigh. Each block's basis^T h basis is formed, and its real
    divide-and-conquer eigh (numpy.linalg.eigh, LAPACK syevd) run, only
    when the block is asked for, so a caller that drops a block's v before
    the next holds one block at a time; under the identity its array is
    h's own, so every bit is np.linalg.eigh(h.mat.toarray())'s. Raises,
    at the first block, ValueError if mirror is no involution of the
    basis or h mixes the blocks; numpy.linalg.LinAlgError on a LAPACK
    failure.
    """
    dim = h.dim
    rows = np.arange(dim)
    m = rows if mirror is None else np.asarray(mirror)
    if (m.shape != (dim,) or np.any((m < 0) | (m >= dim))
            or np.any(m[m] != rows)):
        raise ValueError("mirror is not an involution of the basis")
    fixed, lead = rows[m == rows], rows[m > rows]
    n_fixed, n_pairs = len(fixed), len(lead)
    pair_cols = np.arange(n_pairs)
    even_cols = n_fixed + pair_cols
    s = np.sqrt(0.5)
    even = sp.csr_matrix(
        (np.r_[np.ones(n_fixed), np.full(2 * n_pairs, s)],
         (np.r_[fixed, lead, m[lead]],
          np.r_[np.arange(n_fixed), even_cols, even_cols])),
        shape=(dim, n_fixed + n_pairs))
    odd = sp.csr_matrix(
        (np.r_[np.full(n_pairs, s), np.full(n_pairs, -s)],
         (np.r_[lead, m[lead]], np.r_[pair_cols, pair_cols])),
        shape=(dim, n_pairs))
    cross = odd.T @ (h.mat @ even)
    scale = np.max(np.abs(h.mat.data)) if h.mat.nnz else 0.0
    if cross.nnz and (np.max(np.abs(cross.data))
                      > HERMITICITY_TOL * max(1.0, scale)):
        raise ValueError("Hamiltonian fails the reflection-symmetry "
                         "pre-check")
    del cross
    for basis in (even, odd):
        if basis.shape[1]:
            yield basis, *np.linalg.eigh((basis.T @ (h.mat @ basis)).toarray())


def evolve(h: SparseOperator, psi0, times, tracked=(), mirror=None):
    """Propagate psi0 over the time grid and record the populations of
    the tracked states, one dense state per row: their squared overlaps,
    one column per row.

    H must be real symmetric, as every Hamiltonian the program builds
    is. Below dimension DENSE_THRESHOLD the dense method diagonalises H
    by block_eigh in the even and odd blocks of mirror, a zero-argument
    callable returning the chain reflection of h's basis
    (SectorBasis.mirror), None for the identity; it is called only by
    the dense method. Per block it projects psi0 and the tracked rows
    onto the eigenvectors once, adds the block's part of the final
    state, and drops the eigenvectors before the next block's eigh; the
    tracked amplitudes at every grid time are then sums over the blocks
    of (e^{-iwt} c0) @ R^T, at most DENSE_CHUNK phase entries at once,
    and no other state is formed. Its drifts are one-time checks of the
    eigencoefficients (EvolutionResult). From DENSE_THRESHOLD on, the
    Chebyshev method runs one series per span of grid times
    (_chebyshev_span) from the state at the span's start, and records
    the observables of every state of the span. A span ends before half
    x its length would pass CHEBYSHEV_MAX_X, or its states would hold
    more than min(DENSE_CHUNK, nnz) complex entries, so updating them
    costs no more per product than the product; a single longer grid
    interval is split into equal series before its span. Raises
    ValueError on an H not stored float64, or non-finite or
    non-Hermitian, on one that mixes the parity blocks, or on a bad or
    non-finite grid; FloatingPointError if eps times the last time times
    the Gershgorin bound on |H|, the phases' rounding error, exceeds
    PHASE_TOL (or overflows), or if the Chebyshev method would need more
    than CHEBYSHEV_MAX_PRODUCTS products.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1d grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0.0 or np.any(np.diff(times) < 0.0):
        raise ValueError("times must ascend from 0")
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("psi0 is not normalized")
    if h.mat.dtype != np.float64:
        raise ValueError(f"Hamiltonian is stored {h.mat.dtype}; evolve takes "
                         "real symmetric float64 H only, with no imaginary part")
    # np.linalg.eigh turns an infinite entry into NaN eigenvalues silently
    if not np.all(np.isfinite(h.mat.data)):
        raise ValueError("Hamiltonian has a non-finite entry")
    scale = np.max(np.abs(h.mat.data)) if h.mat.nnz else 0.0
    if abs(h.mat - h.mat.T).max() > HERMITICITY_TOL * max(1.0, scale):
        raise ValueError("Hamiltonian fails the Hermiticity pre-check")
    lo, hi = gershgorin_interval(h)
    # the phases E t are rounded to eps |E| t, past PHASE_TOL a noise in
    # the populations; a product of Python floats overflows to inf silently
    rounding = np.finfo(float).eps * (float(times[-1]) * max(abs(lo), abs(hi)))
    if not rounding <= PHASE_TOL:
        raise FloatingPointError(f"the phases of H at t = {times[-1]:g} ms " + (
            "overflow" if np.isinf(rounding) else
            f"are rounded to {rounding:.3g} rad, above the limit of {PHASE_TOL:g} rad"))

    overlap_rows = np.array(tracked, dtype=complex).reshape(len(tracked), h.dim)
    np.conj(overlap_rows, out=overlap_rows)

    products, truncation_bound, blocks = 0, 0.0, ()
    if h.dim < DENSE_THRESHOLD:
        method = "dense"
        # real H on the real and imaginary parts: <psi0|H|psi0> has no
        # cross term
        e0 = float(psi0.real @ (h.mat @ psi0.real)
                   + psi0.imag @ (h.mat @ psi0.imag))
        norm = energy = 0.0  # sum |c0|^2 and sum w |c0|^2 over the blocks
        final_state = np.zeros(h.dim, dtype=complex)
        spectra = []  # (w, c0, R) per block: v is dropped before the next eigh
        for basis, w, v in block_eigh(h, None if mirror is None else mirror()):
            # v stays real, and is applied to the real and imaginary parts
            # apart so that it is never upcast
            projected = basis.T @ np.column_stack([psi0, overlap_rows.T])
            coeffs = v.T @ projected.real + 1j * (v.T @ projected.imag)
            c0, r = coeffs[:, 0], coeffs[:, 1:].T
            weights = np.abs(c0) ** 2
            norm += float(np.sum(weights))
            energy += float(w @ weights)
            c_final = np.exp(-1j * times[-1] * w) * c0
            final_state += basis @ (v @ c_final.real + 1j * (v @ c_final.imag))
            spectra.append((w, c0, r))
            blocks += (len(w),)
            del v
        norm_drift = abs(norm - 1.0)
        energy_drift = abs(energy - e0) / max(abs(e0), scale, 1e-30)
        # one block's phases at rows time points: at most rows x dim entries
        rows = max(1, DENSE_CHUNK // h.dim)
        pops = np.empty((len(times), len(overlap_rows)))
        for start in range(0, len(times), rows):
            amplitudes = 0.0
            for w, c0, r in spectra:
                phased = np.outer(times[start:start + rows], -1j * w)
                np.exp(phased, out=phased)
                phased *= c0
                amplitudes = amplitudes + phased @ r.T
            pops[start:start + rows] = np.abs(amplitudes) ** 2
    else:
        method = "chebyshev"
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        if half * times[-1] > CHEBYSHEV_MAX_PRODUCTS:
            raise FloatingPointError(
                f"propagating to t = {times[-1]:g} ms takes at least "
                f"{half * times[-1]:.3g} products of H, above the limit of "
                f"{CHEBYSHEV_MAX_PRODUCTS:.0e}")
        # (H - mid) / half, spectrum in [-1, 1], rounded once (a Hermitian
        # error) and not per product; complex, the fastest product with the
        # state, sharing the indices of a real temporary
        h_unit = h.mat - mid * sp.identity(h.dim, format="csr")
        if half > 0.0:
            h_unit.data /= half
        h_unit = SparseOperator(h.dim, sp.csr_matrix(
            (h_unit.data.astype(complex), h_unit.indices, h_unit.indptr),
            shape=h_unit.shape))
        psi, h_psi = psi0.copy(), np.empty((1, h.dim), dtype=complex)
        norms, energies = np.empty((2, len(times)))
        pops = np.empty((len(times), len(overlap_rows)))
        # a span's states hold no more entries than h_unit's data
        rows = max(1, min(DENSE_CHUNK, h_unit.mat.nnz) // h.dim)
        t_psi, start = 0.0, 0  # psi is the state at t_psi
        while start < len(times):
            # an interval above CHEBYSHEV_MAX_X is split into n_split
            # equal series; the span's own series is the last of them
            dt = times[start] - t_psi
            n_split = max(1, int(np.ceil(half * dt / CHEBYSHEV_MAX_X)))
            for _ in range(n_split - 1):
                (psi,), n_products, tail = _chebyshev_span(
                    h_unit, psi, [half * dt / n_split])
                products += n_products
                truncation_bound += tail
            t_start = t_psi + dt * (n_split - 1) / n_split
            # half = 0 gives x = 0: the series is J_0 = 1, no product
            xs = half * (times[start:start + rows] - t_start)
            stop = start + max(1, int(np.searchsorted(xs, CHEBYSHEV_MAX_X,
                                                      side="right")))
            states, n_products, tail = _chebyshev_span(h_unit, psi,
                                                       xs[:stop - start])
            products += n_products
            truncation_bound += tail
            states *= np.exp(-1j * mid * (times[start:stop] - t_psi))[:, None]
            for i in range(start, stop):
                # one-row state; H psi is the real h.mat on its real and
                # imaginary parts
                row = states[i - start][None]
                norms[i] = np.einsum("ij,ij->i", row.conj(), row).real[0]
                pops[i] = np.abs(row @ overlap_rows.T)[0] ** 2
                h_psi.real = (h.mat @ row.real.T).T
                h_psi.imag = (h.mat @ row.imag.T).T
                energies[i] = np.einsum("ij,ij->i", row.conj(), h_psi).real[0]
            # psi a copy, and no view left: the span's states go before the
            # next span's come
            psi, t_psi, start = states[-1].copy(), times[stop - 1], stop
            del states, row
        final_state = psi
        norm_drift = float(np.max(np.abs(norms - 1.0)))
        e0 = energies[0]
        energy_drift = float(
            np.max(np.abs(energies - e0)) / max(abs(e0), scale, 1e-30))

    return EvolutionResult(
        times=times,
        populations=pops,
        norm_drift=norm_drift,
        energy_drift=energy_drift,
        final_state=final_state,
        method=method,
        products=products,
        truncation_bound=truncation_bound,
        blocks=blocks,
    )


def estimate_period(model, initial_labels):
    """Superexchange transfer period of the effective model.

    Taken as pi over the dominant eigen-gap, the gap weighted by the
    initial state's overlaps; this is the pi/(4 K_xy) transfer time in
    the two-site flip-flop case, half a full population cycle. None if
    the initial state is stationary. Only its S_z block is diagonalised,
    unsplit: _dominant_gap breaks ties in eigenpair order."""
    basis = spin_block(model.manifold, initial_labels)
    (_, w, v), = block_eigh(build_spin_hamiltonian(model, basis))
    letter = {s: i for i, s in enumerate(basis.alphabet)}
    idx = basis.rank(np.array([[letter[s] for s in initial_labels]]))[0]
    gap = _dominant_gap(w, np.abs(v[idx]) ** 2)
    return None if gap is None else np.pi / gap


def _dominant_gap(w, weights):
    """|w[b] - w[a]| of the pair a < b with the largest weights[a] * weights[b],
    the first in row-major order on ties, over eigenpairs of weight >= 1e-12
    and gaps above a relative 1e-12; None if no pair qualifies."""
    gap_tol = max(1e-12 * np.max(np.abs(w)), 1e-30)
    keep = np.flatnonzero(weights >= 1e-12)
    w, weights = w[keep], weights[keep]
    gap = np.abs(w[None, :] - w[:, None])  # [a, b] = |w[b] - w[a]|
    valid = np.triu(gap > gap_tol, k=1)
    if not valid.any():
        return None
    # products of kept weights are positive, so -1 never wins
    best = np.argmax(np.where(valid, weights[:, None] * weights[None, :], -1.0))
    return gap.flat[best]


def default_times(model, initial_labels, n_steps, t_final):
    """n_steps points up to t_final, or if that is None, over N_PERIODS of
    the model's dominant oscillation."""
    if t_final is None:
        period = estimate_period(model, initial_labels)
        t_final = N_PERIODS * period if period is not None else 1.0
    return np.linspace(0.0, t_final, n_steps)


def _tracked_labels(manifold, n_sites, initial_labels):
    single = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
    if len(single) ** n_sites <= TRACK_CAP:
        return tuple(itertools.product(single, repeat=n_sites))
    return (tuple(initial_labels),)


def _evolve_labels(h, basis, state_of, initial, tracked, times):
    """evolve state_of(initial) in h's block, that of the initial X, with
    the block's chain reflection, its state one of the tracked ones; a
    tracked label with another X never gains population: its column is
    exact zeros."""
    n_x = _n_x(initial)
    inside = [i for i, lab in enumerate(tracked) if _n_x(lab) == n_x]
    states = [state_of(tracked[i]) for i in inside]
    result = evolve(h, states[inside.index(tracked.index(initial))], times,
                    states, mirror=basis.mirror)
    populations = np.zeros((len(result.times), len(tracked)))
    populations[:, inside] = result.populations
    return replace(result, populations=populations)


@dataclass(frozen=True)
class Run:
    """A config's run: its tracked product labels, the columns of every
    side's populations, and one EvolutionResult per side, "full" and, in
    a comparison, "effective", on one time grid."""

    model: SpinModel | None  # the effective model, if it was built
    initial_labels: tuple
    labels: tuple
    sector_dim: int  # the total-excitation sector, counted, not allocated
    sides: dict

    def deviations(self):
        """Per-label max |full - effective| and root-mean-square deviation
        of the populations, each reduced over one contiguous row per label,
        so every bit is that of the label's 1-D np.max and np.mean."""
        diff = np.ascontiguousarray((self.sides["full"].populations
                                     - self.sides["effective"].populations).T)
        return (np.max(np.abs(diff), axis=1),
                np.sqrt(np.mean(diff**2, axis=1)))


def evolve_full_model(cfg: SimConfig, with_model=False):
    """The Run of the dressed initial product state in its conserved N_X
    block, its one side "full".

    Checks that every initial label lives in the n_excitations manifold,
    builds that manifold's effective model if the default horizon needs
    it (no t_final_ms) or with_model asks for it, takes the time grid from
    default_times, and tracks dressed product labels (their site states
    computed once, stacked) as observables.
    The total-excitation sector is narrowed to the block with the initial
    labels' X (cfg.dim_cap bounds that block); a tracked label with
    another X never gains population, so its trace is exactly 0.
    """
    n_per_site = cfg.run.n_excitations
    if cfg.run.initial_state is None:
        raise SectorError("no initial state given (config key initial_state)")
    labels0 = tuple(cfg.run.initial_state)
    for lab in labels0:
        if lab not in MANIFOLD_LABELS[n_per_site]:
            raise SectorError(f"label {lab!r} does not live in the "
                              f"{n_per_site}-excitation manifold")
    geometry = geometry_from_config(cfg)
    drive = cfg.drive

    manifold, build_model = (("half", spin_half_general) if n_per_site == 1
                             else ("one", spin_one_general))
    model = (build_model(geometry, drive)
             if with_model or cfg.run.t_final_ms is None else None)
    times = default_times(model, labels0, n_steps=cfg.run.n_steps,
                          t_final=cfg.run.t_final_ms)
    tracked = _tracked_labels(manifold, geometry.n_ions, labels0)

    basis = enumerate_sector(geometry.n_ions, geometry.n_ions * n_per_site,
                             dim_cap=cfg.dim_cap, n_x_total=_n_x(labels0))
    h_full = build_full(basis, geometry, drive)
    det_x, det_y = local_detunings(geometry, drive)
    _, vectors = site_manifold_states(n_per_site, det_x, det_y, drive.delta,
                                      drive.g_x, drive.g_y)
    full = _evolve_labels(
        h_full, basis, lambda lab: dressed_product_state(lab, vectors, basis),
        labels0, tracked, times)
    return Run(model=model, initial_labels=labels0, labels=tracked,
               sector_dim=sector_dim(geometry.n_ions,
                                     geometry.n_ions * n_per_site),
               sides={"full": full})


def compare_full_vs_effective(cfg: SimConfig):
    """The Run of evolve_full_model with the effective side added.

    The effective model evolves the coupling-table Hamiltonian in the
    initial labels' S_z block (spin_block), on the full side's time grid
    and tracked labels.
    """
    run = evolve_full_model(cfg, with_model=True)
    basis = spin_block(run.model.manifold, run.initial_labels)
    effective = _evolve_labels(
        build_spin_hamiltonian(run.model, basis), basis,
        lambda lab: basis.product_vector([[(s, 1.0)] for s in lab]),
        run.initial_labels, run.labels, run.sides["full"].times)
    return replace(run, sides={**run.sides, "effective": effective})
