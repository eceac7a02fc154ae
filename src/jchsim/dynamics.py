"""Exact time evolution and full-vs-effective comparison.

Evolution is unitary: dense eigendecomposition below a dimension
threshold, Lanczos propagation with adaptive substepping above it.
States are tracked through squared overlaps with dressed product
labels (full model) or spin product labels (effective model), which
makes the two sides directly comparable trace by trace. Both run in the
block of the initial labels' X: N_X for the full model, total S_z for
the effective one. Tracked labels outside it have population exactly 0.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .crystal import geometry_from_config, local_detunings
from .fock import SectorBasis, SectorError, SparseOperator, sector_dim
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
    build_spin_hamiltonian,
    spin_block,
    spin_half_general,
    spin_one_general,
)

DENSE_THRESHOLD = 2000
KRYLOV_DIM = 30
KRYLOV_LOCAL_TOL = 1e-9
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
    method: str  # "dense" or "krylov"

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
        return max(self.max_abs_deviation.values()) if self.max_abs_deviation else 0.0


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
    excitations = {lab: n for n, labs in MANIFOLD_LABELS.items() for lab in labs}
    total = sum(excitations[lab] for lab in labels)
    if total != basis.n_total:
        raise SectorError(
            f"labels carry {total} excitations, sector holds {basis.n_total}"
        )
    n_x = _n_x(labels)
    if basis.n_x_total is not None and n_x != basis.n_x_total:
        raise SectorError(
            f"labels carry X = {n_x}, block holds X = {basis.n_x_total}"
        )
    site_vectors = []
    for j, lab in enumerate(labels):
        _, vectors = site_manifold_states(excitations[lab], det_x[j],
                                          det_y[j], drive)
        site_vectors.append(vectors[lab])
    return basis.product_vector(site_vectors)


def _lanczos_basis(matvec, psi, m):
    """Lanczos tridiagonalization with double full reorthogonalization.

    Returns (alpha, beta, basis rows, next beta). The next beta feeds
    the a-posteriori error estimate; near-zero means happy breakdown.
    """
    dim = psi.shape[0]
    k_max = min(m, dim)
    rows = np.empty((k_max, dim), dtype=complex)
    alpha = np.empty(k_max)
    betas = []
    rows[0] = psi
    b_next = 0.0
    k_used = k_max
    for j in range(k_max):
        w = matvec(rows[j])
        alpha[j] = float(np.real(np.vdot(rows[j], w)))
        w = w - alpha[j] * rows[j]
        if j > 0:
            w = w - betas[j - 1] * rows[j - 1]
        for _ in range(2):
            # conj(rows @ conj(w)) = conj(rows) @ w without copying rows
            w = w - (rows[: j + 1] @ w.conj()).conj() @ rows[: j + 1]
        b_next = float(np.linalg.norm(w))
        scale = max(np.max(np.abs(alpha[: j + 1])), 1e-30)
        if j == k_max - 1 or b_next < 1e-13 * scale:
            k_used = j + 1
            break
        betas.append(b_next)
        rows[j + 1] = w / b_next
    return alpha[:k_used], np.array(betas[: k_used - 1]), rows[:k_used], b_next


def _krylov_propagate(matvec, psi, dt_total, m, tol):
    """psi -> exp(-i H dt_total) psi, halving substeps until the
    residual estimate beta_next * |last Krylov coefficient| clears tol."""
    if dt_total == 0.0:
        return psi
    t_done = 0.0
    while t_done < dt_total * (1.0 - 1e-14):
        alpha, beta, rows, b_next = _lanczos_basis(matvec, psi, m)
        if len(alpha) == 1:
            ew = alpha.copy()
            eu = np.ones((1, 1))
        else:
            ew, eu = scipy.linalg.eigh_tridiagonal(alpha, beta)
        dt = dt_total - t_done
        for _ in range(80):
            y = eu @ (np.exp(-1j * ew * dt) * eu[0])
            if b_next * abs(y[-1]) <= tol:
                break
            dt *= 0.5
        psi = y @ rows
        t_done += dt
    return psi


def _observables(h, psis, overlap_rows):
    """Norms, label populations and energies of the state rows psis."""
    norms = np.einsum("ij,ij->i", psis.conj(), psis).real
    pops = np.abs(psis @ overlap_rows.T) ** 2
    energies = np.einsum("ij,ij->i", psis.conj(), (h.mat @ psis.T).T).real
    return norms, pops, energies


def evolve(h: SparseOperator, psi0, times, label_states=None,
           dense_threshold=DENSE_THRESHOLD):
    """Propagate psi0 over the time grid and record label populations.

    label_states maps label -> dense vector; populations are squared
    overlaps. H must be real symmetric, as every Hamiltonian the program
    builds is. The dense method propagates the whole grid at once; the
    Krylov method keeps only the current state and records each time
    point's observables as it passes. Raises ValueError on a complex or
    non-Hermitian H, or a bad grid.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1d grid")
    if times[0] < 0.0 or np.any(np.diff(times) < 0.0):
        raise ValueError("times must ascend from 0")
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("psi0 is not normalized")
    if np.any(h.mat.data.imag):
        raise ValueError("Hamiltonian has an imaginary part; evolve takes "
                         "real symmetric H only")
    scale = np.max(np.abs(h.mat.data)) if h.mat.nnz else 0.0
    if h.hermiticity_defect() > HERMITICITY_TOL * max(1.0, scale):
        raise ValueError("Hamiltonian fails the Hermiticity pre-check")

    labels = tuple(label_states or {})
    overlap_rows = np.array([label_states[lab].conj() for lab in labels],
                            dtype=complex).reshape(len(labels), h.dim)

    if h.dim < dense_threshold:
        method = "dense"
        # v stays real, and is applied to the real and imaginary parts
        # apart so that it is never upcast
        w, v = scipy.linalg.eigh(h.mat.real.toarray(order="F"),
                                 overwrite_a=True)
        c0 = v.T @ psi0.real + 1j * (v.T @ psi0.imag)
        coeffs = np.exp(-1j * np.outer(times, w)) * c0
        psis = np.empty((len(times), h.dim), dtype=complex)
        psis.real = coeffs.real @ v.T
        psis.imag = coeffs.imag @ v.T
        norms, pops, energies = _observables(h, psis, overlap_rows)
        final_state = psis[-1]
    else:
        method = "krylov"
        steps = []
        psi = psi0.copy()
        t_prev = 0.0
        for t in times:
            psi = _krylov_propagate(h.matvec, psi, t - t_prev, KRYLOV_DIM,
                                    KRYLOV_LOCAL_TOL)
            steps.append(_observables(h, psi[None, :], overlap_rows))
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
    )


def estimate_period(model, initial_labels):
    """Superexchange transfer period of the effective model.

    Taken as pi over the dominant eigen-gap, the gap weighted by the
    initial state's overlaps; this is the pi/(4 K_xy) transfer time in
    the two-site flip-flop case, half a full population cycle. None if
    the initial state is stationary. Only its S_z block is diagonalised."""
    basis = spin_block(model.manifold, initial_labels)
    w, v = scipy.linalg.eigh(build_spin_hamiltonian(model, basis).dense())
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


def _evolve_labels(h, state_of, initial, tracked, times):
    """evolve state_of(initial) in h's block, that of the initial X; a
    tracked label with another X never gains population: exact zeros."""
    n_x = _n_x(initial)
    result = evolve(h, state_of(initial), times,
                    {lab: state_of(lab) for lab in tracked if _n_x(lab) == n_x})
    populations = {lab: result.populations[lab] if lab in result.populations
                   else np.zeros(len(result.times)) for lab in tracked}
    return replace(result, labels=tuple(tracked), populations=populations)


@dataclass(frozen=True)
class FullRun:
    """Exact full-model evolution of a config's run, with the effective
    model of the same manifold (it sizes the default time grid)."""

    model: object  # SpinHalfModel or SpinOneModel
    initial_labels: tuple
    tracked: tuple
    sector_dim: int  # the total-excitation sector, counted, not allocated
    block_dim: int  # the N_X block that was propagated
    result: EvolutionResult


def evolve_full_model(cfg: SimConfig, initial_labels=None, times=None,
                      tracked=None):
    """Evolve the dressed initial product state in its conserved N_X block.

    Checks that every initial label lives in the n_excitations manifold,
    builds that manifold's effective model, defaults the time grid to its
    transfer periods, and tracks dressed product labels as observables.
    The total-excitation sector is narrowed to the block with the initial
    labels' X (cfg.dim_cap bounds that block); a tracked label with
    another X never gains population, so its trace is exactly 0.
    """
    n_per_site = cfg.run.n_excitations
    if initial_labels is None:
        initial_labels = cfg.run.initial_state
    if initial_labels is None:
        raise SectorError("no initial state given (config key initial_state)")
    labels0 = tuple(initial_labels)
    # tracked labels too: one from another manifold would read as a zero trace
    for lab in labels0 + tuple(s for t in tracked or () for s in t):
        if lab not in MANIFOLD_LABELS[n_per_site]:
            raise SectorError(f"label {lab!r} does not live in the "
                              f"{n_per_site}-excitation manifold")
    geometry = geometry_from_config(cfg)
    drive = cfg.drive

    build_model = spin_half_general if n_per_site == 1 else spin_one_general
    model = build_model(geometry, drive)
    if times is None:
        times = default_times(model, labels0, n_steps=cfg.run.n_steps,
                              t_final=cfg.run.t_final_ms)
    if tracked is None:
        tracked = _tracked_labels(model.manifold, geometry.n_ions, labels0)

    basis = sector_basis_for(geometry.n_ions, n_per_site, dim_cap=cfg.dim_cap,
                             n_x_total=_n_x(labels0))
    h_full = build_full(basis, geometry, drive)
    det_x, det_y = local_detunings(geometry, drive)
    result = _evolve_labels(
        h_full, lambda lab: dressed_product_state(lab, drive, basis, det_x, det_y),
        labels0, tracked, times)
    return FullRun(model=model, initial_labels=labels0, tracked=tuple(tracked),
                   sector_dim=sector_dim(geometry.n_ions,
                                         geometry.n_ions * n_per_site),
                   block_dim=basis.dim, result=result)


def compare_full_vs_effective(cfg: SimConfig, initial_labels=None, times=None,
                              tracked=None):
    """Run matched full-model and effective-spin evolutions.

    The full model evolves as in evolve_full_model; the effective model
    evolves the coupling-table Hamiltonian in the initial labels' S_z
    block (spin_block), on the same time grid and tracked labels.
    """
    drive = cfg.drive
    run = evolve_full_model(cfg, initial_labels, times, tracked)
    res_full = run.result
    times = res_full.times

    basis = spin_block(run.model.manifold, run.initial_labels)
    res_eff = _evolve_labels(
        build_spin_hamiltonian(run.model, basis),
        lambda lab: basis.product_vector([{s: 1.0} for s in lab]),
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
