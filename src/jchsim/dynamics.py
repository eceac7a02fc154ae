"""Exact time evolution and full-vs-effective comparison.

Evolution is unitary: dense eigendecomposition below a dimension
threshold, one real divide-and-conquer eigh (LAPACK syevd, through
numpy.linalg; the program loads no SciPy linear algebra module) per
chain-reflection parity block; above it, a Chebyshev expansion of
exp(-i H dt) per grid interval (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)) on the Gershgorin interval of H, each term one product of H with
the complex state, cut where the series tail, a certified bound on the
state error, falls below CHEBYSHEV_TOL. States are tracked through
squared overlaps with dressed product labels (full model) or spin
product labels (effective model), which makes the two sides directly
comparable trace by trace. Both run in the block of the initial labels'
X: N_X for the full model, total S_z for the effective one. Tracked
labels outside it have population exactly 0.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .crystal import geometry_from_config, local_detunings
from .fock import SectorBasis, SectorError, SparseOperator, sector_dim, site_states
from .jchv import (
    LABEL_X,
    MANIFOLD_LABELS,
    MANIFOLD_N,
    build_full,
    sector_basis_for,
    site_manifold_states,
)
from .params import DriveParams, SimConfig
from .superexchange import (
    SpinModel,
    build_spin_hamiltonian,
    spin_block,
    spin_half_general,
    spin_one_general,
)

DENSE_THRESHOLD = 2000
CHEBYSHEV_TOL = 1e-12  # truncation bound per expansion
# largest half-width x time of one expansion: a longer grid interval is
# split, so the series' order, and its coefficient arrays, stay small
CHEBYSHEV_MAX_X = 1000.0
# an expansion of argument x takes at least x products, so a run needs at
# least half-width x horizon of them; more than this is refused up front
CHEBYSHEV_MAX_PRODUCTS = 1e9
HERMITICITY_TOL = 1e-10
N_PERIODS = 2.0  # default horizon, in transfer periods
TRACK_CAP = 512  # track every product label while there are at most this many


@dataclass(frozen=True)
class EvolutionResult:
    """Population traces of one trajectory plus conservation diagnostics."""

    times: np.ndarray  # ms
    labels: tuple
    populations: dict  # label tuple -> array over times
    norm_drift: float  # max |<psi|psi> - 1|
    energy_drift: float  # max relative drift of <psi|H|psi>
    final_state: np.ndarray
    method: str  # "dense" or "chebyshev"
    products: int  # products with H, 0 for dense
    truncation_bound: float  # summed series tails bounding the state error
    blocks: tuple  # dims of the parity blocks diagonalised, () for chebyshev

    def population_matrix(self):
        return np.array([self.populations[lab] for lab in self.labels])


@dataclass(frozen=True)
class ComparisonReport:
    """Per-label deviation between full-model and effective-model traces."""

    times: np.ndarray
    labels: tuple
    full: EvolutionResult
    effective: EvolutionResult
    max_abs_deviation: dict
    l2_deviation: dict
    parameters: dict = field(default_factory=dict)

    @property
    def overall_max_deviation(self):
        # np.max, unlike max, propagates a NaN wherever it sits
        return (float(np.max(list(self.max_abs_deviation.values())))
                if self.max_abs_deviation else 0.0)


def _n_x(labels):
    """Total x-excitation number X of a dressed or spin product label."""
    return sum(LABEL_X[lab] for lab in labels)


def dressed_product_state(labels, drive: DriveParams, basis: SectorBasis,
                          det_x, det_y):
    """Tensor product of single-site dressed states in the sector basis.

    det_x/det_y give per-site phonon detunings (crystal.local_detunings).
    Labels may mix manifolds as long as the summed excitation matches the
    sector, and their summed X the basis's N_X block if it is one.
    """
    n_sites = basis.n_sites
    if len(labels) != n_sites:
        raise SectorError(
            f"{len(labels)} labels for {n_sites} sites"
        )
    place = {lab: (n, r) for n, labs in MANIFOLD_LABELS.items()
             for r, lab in enumerate(labs)}
    total = sum(place[lab][0] for lab in labels)
    if total != basis.n_total:
        raise SectorError(
            f"labels carry {total} excitations, sector holds {basis.n_total}"
        )
    n_x = _n_x(labels)
    if basis.n_x_total is not None and n_x != basis.n_x_total:
        raise SectorError(
            f"labels carry X = {n_x}, block holds X = {basis.n_x_total}"
        )
    sites = []
    for j, lab in enumerate(labels):
        n, r = place[lab]
        _, vectors = site_manifold_states(n, det_x[j], det_y[j], drive)
        sites.append(zip(site_states(n), vectors[r]))
    return basis.product_vector(sites)


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


def _chebyshev_propagate(h: SparseOperator, psi, mid, half, x):
    """exp(-i x H~) psi for H~ = (H - mid) / half, whose spectrum lies in
    [-1, 1], as sum_k c_k T_k(H~) psi with c_0 = J_0(x), c_k = 2 (-i)^k J_k(x).

    The shift and scale act on the vectors, T_1 = (H - mid) psi / half and
    T_k+1 = 2 (H - mid) T_k / half - T_k-1, so every term costs one product
    of H with the complex state. Returns the state, the product count and
    the truncation bound sum_{k>K} |c_k|.
    """
    j, tail = _chebyshev_terms(x)
    c = 2.0 * j * np.array([1.0, -1j, -1.0, 1j])[np.arange(len(j)) % 4]
    c[0] = j[0]
    out = c[0] * psi
    t_prev, t_k = None, psi
    for k in range(1, len(j)):
        t_next = h.matvec(t_k)
        t_next -= mid * t_k
        if k == 1:
            t_next /= half
        else:
            t_next *= 2.0 / half
            t_next -= t_prev
        out += c[k] * t_next
        t_prev, t_k = t_k, t_next
    return out, len(j) - 1, tail


def _parity_bases(mirror, dim):
    """Orthonormal real bases, sparse (dim, k), of the even and odd
    subspaces of a basis involution m: e_i for each row with m(i) = i,
    and (e_i + e_m(i)) / sqrt(2), (e_i - e_m(i)) / sqrt(2) for each pair
    i < m(i). mirror None is the identity: one even basis, no odd one."""
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
    return even, odd


def _observables(h, psis, overlap_rows):
    """Norms, label populations and energies of the state rows psis."""
    norms = np.einsum("ij,ij->i", psis.conj(), psis).real
    pops = np.abs(psis @ overlap_rows.T) ** 2
    energies = np.einsum("ij,ij->i", psis.conj(), (h.mat @ psis.T).T).real
    return norms, pops, energies


def evolve(h: SparseOperator, psi0, times, label_states=None,
           dense_threshold=DENSE_THRESHOLD, mirror=None):
    """Propagate psi0 over the time grid and record label populations.

    label_states maps label -> dense vector; populations are squared
    overlaps. H must be real symmetric, as every Hamiltonian the program
    builds is. The dense method splits H into the even and odd blocks of
    mirror, a zero-argument callable returning the chain reflection of
    h's basis (SectorBasis.mirror), None for the identity; it is called
    only by the dense method. Each block is diagonalised by one real
    divide-and-conquer eigh (numpy.linalg.eigh, LAPACK syevd) and
    propagated over the whole grid at once; a LAPACK failure raises
    numpy.linalg.LinAlgError. The Chebyshev method keeps only the
    current state and records each time point's observables as it
    passes. Raises ValueError on an H not stored float64, or non-finite
    or non-Hermitian, on one that mixes the parity blocks, or on a bad or
    non-finite grid; FloatingPointError if the last time times the
    Gershgorin bound on |H| overflows, or if the Chebyshev method would
    need more than CHEBYSHEV_MAX_PRODUCTS products.
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
    # a product of Python floats overflows to inf, without a warning
    if not np.isfinite(float(times[-1]) * max(abs(lo), abs(hi))):
        raise FloatingPointError(f"the phases of H at t = {times[-1]:g} ms "
                                 "overflow")

    labels = tuple(label_states or {})
    overlap_rows = np.array([label_states[lab].conj() for lab in labels],
                            dtype=complex).reshape(len(labels), h.dim)

    products, truncation_bound, blocks = 0, 0.0, ()
    if h.dim < dense_threshold:
        method = "dense"
        even, odd = _parity_bases(None if mirror is None else mirror(), h.dim)
        h_even = h.mat @ even
        cross = odd.T @ h_even
        if cross.nnz and (np.max(np.abs(cross.data))
                          > HERMITICITY_TOL * max(1.0, scale)):
            raise ValueError("Hamiltonian fails the reflection-symmetry "
                             "pre-check")
        psis = np.zeros((len(times), h.dim), dtype=complex)
        for basis, h_block in ((even, even.T @ h_even),
                               (odd, odd.T @ h.mat @ odd)):
            if basis.shape[1] == 0:
                continue
            # v stays real, and is applied to the real and imaginary parts
            # apart so that it is never upcast
            w, v = np.linalg.eigh(h_block.toarray())
            c0 = (v.T @ (basis.T @ psi0.real)
                  + 1j * (v.T @ (basis.T @ psi0.imag)))
            coeffs = np.exp(-1j * np.outer(times, w)) * c0
            psis.real += (basis @ (v @ coeffs.real.T)).T
            psis.imag += (basis @ (v @ coeffs.imag.T)).T
            blocks += (basis.shape[1],)
        norms, pops, energies = _observables(h, psis, overlap_rows)
        final_state = psis[-1]
    else:
        method = "chebyshev"
        # complex H times the complex state: the fastest product
        h_complex = SparseOperator(h.dim, h.mat.astype(complex))
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        if half * times[-1] > CHEBYSHEV_MAX_PRODUCTS:
            raise FloatingPointError(
                f"propagating to t = {times[-1]:g} ms takes at least "
                f"{half * times[-1]:.3g} products of H, above the limit of "
                f"{CHEBYSHEV_MAX_PRODUCTS:.0e}")
        steps = []
        psi = psi0.copy()
        t_prev = 0.0
        for t in times:
            dt = t - t_prev
            n_split = max(1, int(np.ceil(half * dt / CHEBYSHEV_MAX_X)))
            for _ in range(n_split):
                # half = 0 gives x = 0: the series is J_0 = 1, no product
                psi, n_products, tail = _chebyshev_propagate(
                    h_complex, psi, mid, half, half * dt / n_split)
                products += n_products
                truncation_bound += tail
            psi *= np.exp(-1j * mid * dt)
            steps.append(_observables(h_complex, psi[None, :], overlap_rows))
            t_prev = t
        norms, pops, energies = (np.concatenate(obs) for obs in zip(*steps))
        final_state = psi

    norm_drift = float(np.max(np.abs(norms - 1.0)))
    e0 = energies[0]
    energy_drift = float(
        np.max(np.abs(energies - e0)) / max(abs(e0), scale, 1e-30)
    )

    populations = {lab: pops[:, i] for i, lab in enumerate(labels)}
    return EvolutionResult(
        times=times,
        labels=labels,
        populations=populations,
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
    the initial state is stationary. Only its S_z block is diagonalised."""
    basis = spin_block(model.manifold, initial_labels)
    w, v = np.linalg.eigh(build_spin_hamiltonian(model, basis).mat.toarray())
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
    the dominant oscillation."""
    if t_final is None:
        period = estimate_period(model, initial_labels)
        t_final = N_PERIODS * period if period is not None else 1.0
    return np.linspace(0.0, t_final, n_steps)


def _tracked_labels(manifold, n_sites, initial_labels):
    single = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
    if len(single) ** n_sites <= TRACK_CAP:
        labels = [()]
        for _ in range(n_sites):
            labels = [pre + (s,) for pre in labels for s in single]
        return tuple(labels)
    return (tuple(initial_labels),)


def _evolve_labels(h, basis, state_of, initial, tracked, times):
    """evolve state_of(initial) in h's block, that of the initial X, with
    the block's chain reflection; a tracked label with another X never
    gains population: exact zeros."""
    n_x = _n_x(initial)
    result = evolve(h, state_of(initial), times,
                    {lab: state_of(lab) for lab in tracked if _n_x(lab) == n_x},
                    mirror=basis.mirror)
    populations = {lab: result.populations[lab] if lab in result.populations
                   else np.zeros(len(result.times)) for lab in tracked}
    return replace(result, labels=tuple(tracked), populations=populations)


@dataclass(frozen=True)
class FullRun:
    """Exact full-model evolution of a config's run, with the effective
    model of the same manifold (it sizes the default time grid)."""

    model: SpinModel
    initial_labels: tuple
    tracked: tuple
    sector_dim: int  # the total-excitation sector, counted, not allocated
    block_dim: int  # the N_X block that was propagated
    result: EvolutionResult


def evolve_full_model(cfg: SimConfig):
    """Evolve the dressed initial product state in its conserved N_X block.

    Checks that every initial label lives in the n_excitations manifold,
    builds that manifold's effective model, takes the time grid from
    default_times, and tracks dressed product labels as observables.
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

    build_model = spin_half_general if n_per_site == 1 else spin_one_general
    model = build_model(geometry, drive)
    times = default_times(model, labels0, n_steps=cfg.run.n_steps,
                          t_final=cfg.run.t_final_ms)
    tracked = _tracked_labels(model.manifold, geometry.n_ions, labels0)

    basis = sector_basis_for(geometry.n_ions, n_per_site, dim_cap=cfg.dim_cap,
                             n_x_total=_n_x(labels0))
    h_full = build_full(basis, geometry, drive)
    det_x, det_y = local_detunings(geometry, drive)
    result = _evolve_labels(
        h_full, basis,
        lambda lab: dressed_product_state(lab, drive, basis, det_x, det_y),
        labels0, tracked, times)
    return FullRun(model=model, initial_labels=labels0, tracked=tracked,
                   sector_dim=sector_dim(geometry.n_ions,
                                         geometry.n_ions * n_per_site),
                   block_dim=basis.dim, result=result)


def compare_full_vs_effective(cfg: SimConfig):
    """Run matched full-model and effective-spin evolutions.

    The full model evolves as in evolve_full_model; the effective model
    evolves the coupling-table Hamiltonian in the initial labels' S_z
    block (spin_block), on the same time grid and tracked labels.
    """
    drive = cfg.drive
    run = evolve_full_model(cfg)
    res_full = run.result
    times = res_full.times

    basis = spin_block(run.model.manifold, run.initial_labels)
    res_eff = _evolve_labels(
        build_spin_hamiltonian(run.model, basis), basis,
        lambda lab: basis.product_vector([[(s, 1.0)] for s in lab]),
        run.initial_labels, run.tracked, times)

    max_dev = {}
    l2_dev = {}
    for lab in run.tracked:
        diff = res_full.populations[lab] - res_eff.populations[lab]
        max_dev[lab] = float(np.max(np.abs(diff)))
        l2_dev[lab] = float(np.sqrt(np.mean(diff**2)))
    parameters = {
        "n_ions": len(run.initial_labels),
        "manifold": run.model.manifold,
        "g_x_khz": drive.g_x / (2.0 * np.pi),
        "g_y_khz": drive.g_y / (2.0 * np.pi),
        "delta_khz": drive.delta / (2.0 * np.pi),
        "homogeneous": drive.homogeneous,
        "sector_dim": run.sector_dim,
        "block_dim": run.block_dim,
        "full_method": res_full.method,
        "effective_method": res_eff.method,
        "blocks": f"full {res_full.blocks}, effective {res_eff.blocks}",
        "initial_state": ",".join(run.initial_labels),
        "t_final_ms": float(times[-1]),
        "n_steps": len(times),
    }
    return ComparisonReport(
        times=times,
        labels=run.tracked,
        full=res_full,
        effective=res_eff,
        max_abs_deviation=max_dev,
        l2_deviation=l2_dev,
        parameters=parameters,
    )
