import itertools
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.special  # the oracle for J_k; src/ computes its own
from hypothesis import example, given, settings, strategies as st

import jchsim.dynamics as dynamics
from jchsim.dynamics import (
    CHEBYSHEV_TOL,
    DENSE_THRESHOLD,
    Run,
    _chebyshev_terms,
    bessel_j,
    block_eigh,
    compare_full_vs_effective,
    default_times,
    dressed_product_state,
    estimate_period,
    evolve,
    evolve_full_model,
    gershgorin_interval,
    _dominant_gap,
    _tracked_labels,
)
from jchsim.fock import (SectorError, SparseOperator, enumerate_sector,
                         product_basis, site_states)
from jchsim.jchv import (
    LABEL_X,
    MANIFOLD_LABELS,
    MANIFOLD_N,
    build_full,
    site_manifold_states,
)
from jchsim.params import KHZ, make_drive, parse_config
from jchsim.crystal import CrystalGeometry, geometry_from_config, local_detunings
from jchsim.superexchange import (
    build_spin_hamiltonian,
    spin_block,
    spin_half_general,
    spin_one_general,
)
from support import forced_method, oracle_model

DRIVE = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ)

THREE_ION_CFG = """
n_ions = 3
nu_z_khz = 120.0
aspect_x = 55.555555555555556
aspect_y = 100.0
g_x_khz = 19.0
g_y_khz = 20.0
delta_khz = -0.22
n_excitations = 1
initial_state = up,down,up
"""


def rabi_model(k_xy_khz):
    k = np.array([[0.0, k_xy_khz * KHZ], [k_xy_khz * KHZ, 0.0]])
    return oracle_model("half", {"K_xy": k, "K_z": np.zeros((2, 2)),
                                 "H_field": np.zeros(2), "E0_split": np.zeros(2)},
                        0.0)


def site_vectors(n, det_x, det_y, drive):
    """Every site's dressed n-excitation states, as evolve_full_model reads
    them."""
    return site_manifold_states(n, det_x, det_y, drive.delta, drive.g_x,
                                drive.g_y)[1]


def bare_state(labels, drive, basis):
    """dressed_product_state with no local detuning on any site."""
    det = np.zeros(basis.n_sites)
    vectors = site_vectors(basis.n_total // basis.n_sites, det, det, drive)
    return dressed_product_state(labels, vectors, basis)


def test_dressed_states_orthonormal():
    basis = enumerate_sector(2, 2)
    labels = [("up", "down"), ("down", "up"), ("up", "up"), ("down", "down")]
    vecs = [bare_state(lab, DRIVE, basis) for lab in labels]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_dressed_state_sector_mismatch():
    basis = enumerate_sector(2, 2)
    with pytest.raises(SectorError, match="1 labels for 2 sites"):
        bare_state(("up",), DRIVE, basis)
    with pytest.raises(SectorError, match="'1' does not live in the 1-"):
        bare_state(("1", "-1"), DRIVE, basis)
    with pytest.raises(SectorError, match="'up' does not live in the 2-"):
        bare_state(("up", "down"), DRIVE, enumerate_sector(2, 4))
    block = enumerate_sector(2, 2, n_x_total=1)
    with pytest.raises(SectorError, match="X = 2"):
        bare_state(("up", "up"), DRIVE, block)


@pytest.mark.parametrize("homogeneous", [False, True])
@pytest.mark.parametrize("n_ions,n", [(2, 1), (3, 1), (4, 1), (5, 1),
                                      (2, 2), (3, 2)])
def test_dressed_product_state_equals_per_site(n_ions, n, homogeneous):
    # the run's stacked site vectors give every label's product state bit
    # for bit as one scalar site_manifold_states call per site does
    labels = MANIFOLD_LABELS[n]
    cfg = run_config(n_ions, n, True, ",".join(labels[:1] * n_ions), homogeneous)
    det_x, det_y = local_detunings(geometry_from_config(cfg), cfg.drive)
    vectors = site_vectors(n, det_x, det_y, cfg.drive)
    for lab in itertools.product(labels, repeat=n_ions):
        basis = enumerate_sector(n_ions, n_ions * n,
                                 n_x_total=sum(LABEL_X[s] for s in lab))
        ref = basis.product_vector(
            zip(site_states(n), site_vectors(n, det_x[j], det_y[j],
                                             cfg.drive)[labels.index(s)])
            for j, s in enumerate(lab))
        assert np.array_equal(dressed_product_state(lab, vectors, basis), ref)


def test_evolve_input_validation():
    h = SparseOperator(2, sp.csr_matrix(np.diag([1.0, 2.0])))
    psi0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        evolve(h, psi0, [])
    with pytest.raises(ValueError):
        evolve(h, psi0, [-1.0, 0.0])
    with pytest.raises(ValueError):
        evolve(h, psi0, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        evolve(h, 2.0 * psi0, [0.0, 1.0])
    bad = SparseOperator(2, sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValueError):
        evolve(bad, psi0, [0.0, 1.0])
    # Hermitian but complex: every H the program builds is real symmetric
    cplx = SparseOperator(2, sp.csr_matrix(np.array([[0.0, -1j], [1j, 0.0]])))
    with pytest.raises(ValueError, match="imaginary"):
        evolve(cplx, psi0, [0.0, 1.0])
    for grid in ([0.0, np.nan], [0.0, np.inf], [np.nan]):
        with pytest.raises(ValueError, match="finite"):
            evolve(h, psi0, grid)
    # np.linalg.eigh returns NaN eigenvalues for an infinite entry
    for value in (np.inf, np.nan):
        bad = SparseOperator(2, sp.csr_matrix(np.diag([1.0, value])))
        with pytest.raises(ValueError, match="non-finite"):
            evolve(bad, psi0, [0.0, 1.0])


@pytest.mark.parametrize("method", ["dense", "chebyshev"])
def test_evolve_refuses_overflowing_horizon(method):
    # 20 * 1e307 overflows; the dense phases would read NaN, and the
    # Chebyshev split count would be unbounded
    h = SparseOperator(2, sp.csr_matrix(np.diag([1.0, 20.0])))
    psi0 = np.array([1.0, 0.0])
    with forced_method(method):
        with pytest.raises(FloatingPointError, match="overflow"):
            evolve(h, psi0, [0.0, 1e307])
        # finite, but phases rounded to about 4e291 rad
        with pytest.raises(FloatingPointError, match="rounded"):
            evolve(h, psi0, [0.0, 1e306])


@pytest.mark.parametrize("method", ["dense", "chebyshev"])
def test_evolve_phase_rounding_boundary(method):
    # eps |E| t crosses PHASE_TOL at t_edge; the spectrum is narrow, so the
    # Chebyshev method needs few products to get there
    h = SparseOperator(2, sp.csr_matrix(np.diag([1e3, 1e3 + 2e-3])))
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    t_edge = dynamics.PHASE_TOL / (np.finfo(float).eps * (1e3 + 2e-3))
    with forced_method(method):
        res = evolve(h, psi0, [0.0, t_edge * (1.0 - 1e-9)], [psi0])
    assert res.method == method
    t = res.times[-1]
    exact = np.cos(0.5 * ((1e3 + 2e-3) - 1e3) * t) ** 2
    assert abs(res.populations[-1, 0] - exact) < dynamics.PHASE_TOL
    assert res.norm_drift < dynamics.PHASE_TOL
    if res.method == "chebyshev":
        # H is shifted and scaled onto [-1, 1] once, a Hermitian rounding,
        # so the 4 935 products keep the error within the truncation bound
        assert res.products == 4935
        assert abs(res.populations[-1, 0] - exact) <= res.truncation_bound
    with forced_method(method), pytest.raises(FloatingPointError,
                                              match="rounded to 1e-06 rad"):
        evolve(h, psi0, [0.0, t_edge * (1.0 + 1e-9)])


def test_evolve_refuses_unbounded_chebyshev_work():
    # phases rounded to 4.4e-7 rad, under PHASE_TOL, but 2e9 products:
    # refused before the first one
    h = SparseOperator(2, sp.csr_matrix(np.diag([-10.0, 10.0])))
    with (mock.patch.object(dynamics, "_chebyshev_span") as span,
          forced_method("chebyshev")):
        with pytest.raises(FloatingPointError, match="2e[+]09 products"):
            evolve(h, np.array([1.0, 0.0]), [0.0, 2e8])
    span.assert_not_called()


def test_initial_populations_are_overlaps():
    basis = enumerate_sector(2, 2)
    psi0 = bare_state(("up", "down"), DRIVE, basis)
    geo = CrystalGeometry.from_uniform_hoppings(2, 0.05 * KHZ, 0.07 * KHZ)
    h = build_full(basis, geo, replace(DRIVE, homogeneous=True))
    tracked = [bare_state(lab, DRIVE, basis)
               for lab in [("up", "down"), ("down", "up")]]
    res = evolve(h, psi0, [0.0], tracked)
    assert res.populations[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert res.populations[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_flip_flop_rabi_formula():
    k = -0.02  # kHz
    model = rabi_model(k)
    basis = spin_block("half", ("up", "down"))
    h = build_spin_hamiltonian(model, basis)
    psi0 = basis.product_vector([[("up", 1.0)], [("down", 1.0)]])
    target = basis.product_vector([[("down", 1.0)], [("up", 1.0)]])
    times = np.linspace(0.0, 20.0, 201)
    res = evolve(h, psi0, times, [target])
    expected = np.sin(2.0 * k * KHZ * times) ** 2
    assert np.max(np.abs(res.populations[:, 0] - expected)) < 1e-10
    # transfer time = pi / (4 |K|)
    assert estimate_period(model, ("up", "down")) == pytest.approx(
        np.pi / (4.0 * abs(k) * KHZ), rel=1e-12)


def test_dense_peak_does_not_grow_with_the_grid(monkeypatch):
    # phases are formed 20 time points at a time: a grid 20 times longer
    # adds to the traced peak no more than its outputs, the times,
    # amplitudes and populations; a state array over the grid would add
    # 16 bytes per entry, 4 800 per time point
    monkeypatch.setattr(dynamics, "DENSE_CHUNK", 300 * 20)
    rng = np.random.default_rng(41)
    a = rng.normal(size=(300, 300))
    h = SparseOperator(300, sp.csr_matrix(a + a.T))
    tracked = np.eye(300)[:4]
    peaks = []
    for n_times in (200, 4000):
        tracemalloc.start()
        try:
            result = evolve(h, tracked[0], np.linspace(0.0, 1.0, n_times),
                            tracked)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.method == "dense"
    assert peaks[1] - peaks[0] <= 2 * 8 * (len(tracked) + 2) * (4000 - 200)


def test_dense_chunks_agree_with_one_chunk(monkeypatch):
    # 7 time points per chunk, the last chunk short, both parity blocks
    cfg = parse_config(THREE_ION_CFG)
    basis = enumerate_sector(3, 3)
    h = build_full(basis, geometry_from_config(cfg), cfg.drive)
    tracked = [bare_state(lab, cfg.drive, basis)
               for lab in [("up", "down", "up"), ("down", "up", "up")]]
    psi0 = tracked[0]
    times = np.linspace(0.0, 4.0, 45)
    whole = evolve(h, psi0, times, tracked, mirror=basis.mirror)
    monkeypatch.setattr(dynamics, "DENSE_CHUNK", 7 * basis.dim)
    chunked = evolve(h, psi0, times, tracked, mirror=basis.mirror)
    assert len(whole.blocks) == 2 and chunked.blocks == whole.blocks
    assert np.max(np.abs(chunked.populations - whole.populations)) < 1e-12
    assert abs(chunked.norm_drift - whole.norm_drift) < 1e-12
    assert abs(chunked.energy_drift - whole.energy_drift) < 1e-12
    assert np.max(np.abs(chunked.final_state - whole.final_state)) < 1e-12


def reference_states(h, psi0, times, mirror):
    """psi(t) = sum over the parity blocks of basis v e^{-iwt} v^T basis^T
    psi0, one whole state per grid time."""
    states = np.zeros((len(times), h.dim), dtype=complex)
    for basis, w, v in block_eigh(h, mirror):
        u = basis.toarray() @ v
        states += (np.exp(-1j * np.outer(times, w)) * (u.T @ psi0)) @ u.T
    return states


def degenerate_hamiltonian(rng, m):
    """A real symmetric H that commutes with the involution m and repeats
    its eigenvalues exactly, within each parity block and across them."""
    dim = len(m)
    zero = SparseOperator(dim, sp.csr_matrix((dim, dim)))
    h = np.zeros((dim, dim))
    for basis, _, _ in block_eigh(zero, m):
        spectrum = np.resize([1.5, 1.5, -2.0, 1.5, 3.0], basis.shape[1])
        q, _ = np.linalg.qr(rng.normal(size=(len(spectrum),) * 2))
        b = basis.toarray()
        h += b @ (q * spectrum) @ q.T @ b.T
    return 0.5 * (h + h.T)


@pytest.mark.parametrize("spectrum", ["random", "degenerate"])
def test_dense_matches_the_state_by_state_formula(monkeypatch, spectrum):
    # a random involution with fixed points, a complex psi0 and complex
    # tracked rows; 5 time points per chunk, so the 23-point grid crosses
    # four chunk boundaries and ends on a short chunk
    rng = np.random.default_rng(29)
    dim = 14
    m = random_involution(rng, dim, 4)
    if spectrum == "random":
        a = random_symmetric(rng, dim).mat.toarray()
        h = 0.5 * (a + a[np.ix_(m, m)])
    else:
        h = degenerate_hamiltonian(rng, m)
    h = SparseOperator(dim, sp.csr_matrix(h))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    tracked = np.vstack([np.eye(dim),
                         rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))])
    times = np.linspace(0.0, 2.0, 23)
    monkeypatch.setattr(dynamics, "DENSE_CHUNK", 5 * dim)
    res = evolve(h, psi0, times, tracked, mirror=lambda: m)
    assert res.method == "dense" and res.blocks == (10, 4)
    states = reference_states(h, psi0, times, m)
    assert np.max(np.abs(res.populations
                         - np.abs(states @ tracked.conj().T) ** 2)) < 1e-12
    assert np.max(np.abs(res.final_state - states[-1])) < 1e-12
    assert res.norm_drift < 1e-12 and res.energy_drift < 1e-12

    # a skipped parity block, or a wrong eigenvalue, shows in the drifts
    def skipping(skip):
        def spectra(h, mirror):
            return (s for i, s in enumerate(block_eigh(h, mirror)) if i != skip)
        return spectra

    for skip in (0, 1):
        with mock.patch.object(dynamics, "block_eigh", skipping(skip)):
            assert evolve(h, psi0, times, tracked,
                          mirror=lambda: m).norm_drift > 0.1

    def shifted(h, mirror):
        for i, (basis, w, v) in enumerate(block_eigh(h, mirror)):
            yield basis, w + (i == 1), v

    with mock.patch.object(dynamics, "block_eigh", shifted):
        assert evolve(h, psi0, times, tracked,
                      mirror=lambda: m).energy_drift > 1e-3


def test_dense_peak_holds_one_parity_block():
    # dim 1 600 under the reversal, two blocks of 800: the traced peak is
    # one block's eigh, its dense array and eigenvectors, with its
    # projections, the inputs and outputs, and block_eigh's sparse
    # operators, within two copies of H's nonzeros. Keeping the first block's
    # eigenvectors through the second eigh would add 5.1 MB, forming the
    # (times x dim) states 2.6 MB
    dim, n_times, k = 1600, 100, 4
    rng = np.random.default_rng(43)
    reverse = np.arange(dim)[::-1].copy()
    a = sp.random(dim, dim, density=3.0 / dim, random_state=rng)
    a = a + a.T
    h = SparseOperator(dim, sp.csr_matrix(a + a[reverse][:, reverse]))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    tracked = np.eye(dim)[:k]
    times = np.linspace(0.0, 1.0, n_times)
    tracemalloc.start()
    try:
        result = evolve(h, psi0, times, tracked, mirror=lambda: reverse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.method == "dense" and result.blocks == (dim // 2, dim // 2)
    n_block = dim // 2
    csr_bytes = h.mat.data.nbytes + h.mat.indices.nbytes + h.mat.indptr.nbytes
    bound = (2 * 8 * n_block**2  # the block's dense array and eigenvectors
             + 16 * (k + 1) * n_block  # its projections c0 and R
             + 16 * k * dim  # the tracked rows, conjugated
             + 8 * n_times * k + 16 * dim  # populations and final state
             + 2 * csr_bytes)  # block_eigh's sparse operators
    assert peak < bound


def test_dense_hamiltonian_matches_expm():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(20, 20))
    h = SparseOperator(20, sp.csr_matrix(a + a.T))
    psi0 = rng.normal(size=20) + 1j * rng.normal(size=20)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 0.7, 8)
    res = evolve(h, psi0, times, np.eye(20))
    assert res.method == "dense"
    exact = np.array([scipy.linalg.expm(-1j * t * h.mat.toarray()) @ psi0
                      for t in times])
    assert np.max(np.abs(res.final_state - exact[-1])) < 1e-10
    assert np.max(np.abs(res.populations - np.abs(exact) ** 2)) < 1e-10


def test_dense_degenerate_parity_blocks_match_expm():
    # exactly repeated eigenvalues inside each parity block and across them:
    # the dense branch must not depend on how eigh picks a degenerate basis
    dim = 7
    reverse = np.arange(dim)[::-1].copy()
    rng = np.random.default_rng(17)
    h = degenerate_hamiltonian(rng, reverse)
    assert np.max(np.abs(h - h[np.ix_(reverse, reverse)])) < 1e-14
    op = SparseOperator(dim, sp.csr_matrix(h))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 3.0, 9)
    res = evolve(op, psi0, times, np.eye(dim), mirror=lambda: reverse)
    assert res.method == "dense" and res.blocks == (4, 3)
    exact = np.array([scipy.linalg.expm(-1j * t * h) @ psi0 for t in times])
    assert np.max(np.abs(res.final_state - exact[-1])) < 1e-10
    assert np.max(np.abs(res.populations - np.abs(exact) ** 2)) < 1e-10
    assert res.norm_drift < 1e-12 and res.energy_drift < 1e-12


def two_sided(full, effective):
    """A Run of two sides that hold only the population arrays given."""
    labels = tuple((str(i),) for i in range(np.shape(full)[1]))
    return Run(model=None, initial_labels=labels[0], labels=labels,
               sector_dim=0, sides={
                   "full": SimpleNamespace(populations=np.asarray(full)),
                   "effective": SimpleNamespace(populations=np.asarray(effective))})


def test_deviations_are_the_per_label_reductions():
    # bit for bit the 1-D reductions of each label's trace, on a compare
    # run and on a wide random pair, where a reduction over the time axis
    # of the (times x labels) array moves the last bits of the RMS
    cfg = parse_config(THREE_ION_CFG + "t_final_ms = 5.0\nn_steps = 120\n")
    rng = np.random.default_rng(7)
    for run in (compare_full_vs_effective(cfg),
                two_sided(rng.random((400, 81)), rng.random((400, 81)))):
        full, effective = (run.sides[side].populations
                           for side in ("full", "effective"))
        assert full.shape[0] >= 100 and full.shape[1] >= 2
        diffs = [full[:, i] - effective[:, i] for i in range(full.shape[1])]
        max_dev, rms_dev = run.deviations()
        assert max_dev.tobytes() == np.array(
            [np.max(np.abs(d)) for d in diffs]).tobytes()
        assert rms_dev.tobytes() == np.array(
            [np.sqrt(np.mean(d**2)) for d in diffs]).tobytes()


def test_overall_max_deviation_propagates_nan():
    # a NaN anywhere in a label's trace is that label's deviation, and the
    # overall deviation, np.max over the labels, keeps it where Python's
    # max keeps 0.1 when the NaN comes second
    def deviations(*columns):
        full = np.array(columns).T
        return two_sided(full, np.zeros_like(full)).deviations()

    max_dev, rms_dev = deviations([0.1, -0.05], [0.0, 0.3])
    assert list(max_dev) == [0.1, 0.3] and np.max(max_dev) == 0.3
    for columns in (([0.1, 0.0], [0.0, np.nan]), ([np.nan, 0.0], [0.1, 0.0])):
        max_dev, rms_dev = deviations(*columns)
        assert np.isnan(max_dev).sum() == 1 == np.isnan(rms_dev).sum()
        assert np.isnan(np.max(max_dev))


def test_diagonal_hamiltonian_freezes_populations():
    rng = np.random.default_rng(5)
    d = rng.uniform(-3.0, 3.0, size=8)
    h = SparseOperator(8, sp.csr_matrix(np.diag(d)))
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    res = evolve(h, psi0, np.linspace(0.0, 7.0, 40), np.eye(8))
    for trace in res.populations.T:
        assert np.max(np.abs(trace - trace[0])) < 1e-12
    assert res.norm_drift < 1e-12
    assert res.energy_drift < 1e-12


def test_chebyshev_matches_dense():
    cfg = parse_config(THREE_ION_CFG)
    geo = geometry_from_config(cfg)
    basis = enumerate_sector(3, 3)
    h = build_full(basis, geo, cfg.drive)
    psi0 = bare_state(("up", "down", "up"), cfg.drive, basis)
    times = np.linspace(0.0, 4.0, 25)
    with forced_method("dense"):
        dense = evolve(h, psi0, times, [psi0])
    with forced_method("chebyshev"):
        cheb = evolve(h, psi0, times, [psi0])
    assert cheb.method == "chebyshev"
    diff = np.abs(dense.populations[:, 0] - cheb.populations[:, 0])
    assert np.max(diff) < 1e-8
    assert np.max(np.abs(dense.final_state - cheb.final_state)) < 1e-8
    assert cheb.norm_drift < 1e-9
    assert cheb.energy_drift < 1e-8
    assert 0 < cheb.truncation_bound <= 24 * CHEBYSHEV_TOL
    assert (dense.products, dense.truncation_bound) == (0, 0.0)
    assert (dense.blocks, cheb.blocks) == ((basis.dim,), ())


def random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim)) * rng.uniform(0.1, 10.0)
    return SparseOperator(dim, sp.csr_matrix(a + a.T))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.05, 0.3, 2.0]),
                min_size=1, max_size=8),
       st.sampled_from([CHEBYSHEV_TOL, 1e-7, 1e-3]))
@example(40, 7, [0.0, 0.05, 0.0, 0.05], 1e-6)
@example(1, 3, [0.0, 2.0, 2.0], CHEBYSHEV_TOL)
def test_chebyshev_error_within_bound(dim, seed, gaps, tol):
    # zero gaps repeat a time point: that interval must cost nothing
    rng = np.random.default_rng(seed)
    h = random_symmetric(rng, dim)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    tracked = np.eye(dim)
    times = np.cumsum(gaps)
    with (mock.patch.object(dynamics, "CHEBYSHEV_TOL", tol),
          forced_method("chebyshev")):
        cheb = evolve(h, psi0, times, tracked)
    with forced_method("dense"):
        dense = evolve(h, psi0, times, tracked)
    assert cheb.method == "chebyshev"
    # one tail per expansion; an interval is split into expansions of
    # half * gap <= CHEBYSHEV_MAX_X
    lo, hi = gershgorin_interval(h)
    expansions = sum(np.ceil(0.5 * (hi - lo) * gap / dynamics.CHEBYSHEV_MAX_X)
                     for gap in gaps)
    assert cheb.truncation_bound <= expansions * tol
    if not np.any(gaps):
        assert cheb.products == 0
        assert np.array_equal(cheb.final_state, psi0)
    roundoff = 1e-10
    err = np.linalg.norm(cheb.final_state - dense.final_state)
    assert err <= cheb.truncation_bound + roundoff
    # |P - P'| <= (|a| + |a'|) |a - a'| at every point, each within the bound
    pop_err = np.abs(cheb.populations - dense.populations)
    assert np.max(pop_err) <= 2.0 * cheb.truncation_bound + roundoff


def test_long_interval_is_split():
    # x = half * dt = 2500 > CHEBYSHEV_MAX_X: three expansions of x / 3
    rng = np.random.default_rng(11)
    h = random_symmetric(rng, 30)
    lo, hi = gershgorin_interval(h)
    half = 0.5 * (hi - lo)
    dt = 2500.0 / half
    psi0 = rng.normal(size=30) + 1j * rng.normal(size=30)
    psi0 /= np.linalg.norm(psi0)
    with forced_method("chebyshev"):
        cheb = evolve(h, psi0, [0.0, dt])
    with forced_method("dense"):
        dense = evolve(h, psi0, [0.0, dt])
    j, tail = _chebyshev_terms(half * dt / 3)
    assert cheb.products == 3 * (len(j) - 1)
    assert cheb.truncation_bound == pytest.approx(3 * tail)
    err = np.linalg.norm(cheb.final_state - dense.final_state)
    assert err <= cheb.truncation_bound + 1e-10


def per_interval_states(h, psi0, times):
    """The state at every grid time from one Chebyshev series per grid
    interval, the series restarted at each, over _chebyshev_terms (an
    interval of half * dt above CHEBYSHEV_MAX_X is split into equal
    expansions), and the summed tails bounding their error."""
    lo, hi = gershgorin_interval(h)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    h_unit = h.mat - mid * sp.identity(h.dim, format="csr")
    if half > 0.0:
        h_unit = h_unit / half
    h_unit = h_unit.astype(complex)
    psi, states, bound = np.array(psi0, dtype=complex), [], 0.0
    for dt in np.diff(times, prepend=0.0):
        n_split = max(1, int(np.ceil(half * dt / dynamics.CHEBYSHEV_MAX_X)))
        for _ in range(n_split):
            j, tail = _chebyshev_terms(half * dt / n_split)
            bound += tail
            out, t_prev, t_k = j[0] * psi, None, psi
            for k in range(1, len(j)):
                t_next = h_unit @ t_k
                if k > 1:
                    t_next = 2.0 * t_next - t_prev
                out = out + 2.0 * (-1j) ** k * j[k] * t_next
                t_prev, t_k = t_k, t_next
            psi = out
        psi = psi * np.exp(-1j * mid * dt)
        states.append(psi)
    return np.array(states), bound


def span_spy():
    """A patch of dynamics._chebyshev_span, and the list that it fills
    with each call's xs and the traced memory at the call (0 untraced);
    the first call resets the traced peak."""
    calls = []
    span = dynamics._chebyshev_span

    def spy(h, psi, xs):
        if not calls:  # the traced peak from the first span on
            tracemalloc.reset_peak()
        calls.append((np.array(xs, dtype=float),
                      tracemalloc.get_traced_memory()[0]))
        return span(h, psi, xs)
    return mock.patch.object(dynamics, "_chebyshev_span", spy), calls


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.05, 0.4, 2.0, 30.0]),
                min_size=1, max_size=30),
       st.integers(min_value=0, max_value=30))
@example(1, 0, [0.0, 0.0, 1e-3], 1)  # one row per span
@example(30, 5, [0.05] * 30, 30)  # 30 times in spans of 30 rows
def test_spans_match_the_per_interval_series(dim, seed, x_gaps, at):
    # x_gaps are half * dt; one of 1.3 CHEBYSHEV_MAX_X is split in two
    rng = np.random.default_rng(seed)
    h = random_symmetric(rng, dim)
    lo, hi = gershgorin_interval(h)
    half = 0.5 * (hi - lo)  # 0 for dim 1: every x is 0
    x_gaps = list(x_gaps)
    x_gaps.insert(min(at, len(x_gaps)), 1.3 * dynamics.CHEBYSHEV_MAX_X)
    times = np.cumsum(x_gaps) / (half if half > 0.0 else 1.0)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    # the basis populations, and overlaps that see relative phases
    tracked = np.vstack([np.eye(dim), rng.normal(size=(3, dim))
                         + 1j * rng.normal(size=(3, dim))])
    patch, calls = span_spy()
    with patch, forced_method("chebyshev"):
        cheb = evolve(h, psi0, times, tracked)
    with forced_method("dense"):
        dense = evolve(h, psi0, times, tracked)
    ref, ref_bound = per_interval_states(h, psi0, times)
    assert cheb.method == "chebyshev"
    # each side's states lie within its summed tails of the exact ones;
    # the restarted series adds one tail per interval
    tol = 1e-12 + cheb.truncation_bound + ref_bound
    assert np.linalg.norm(cheb.final_state - ref[-1]) <= tol
    ref_pops = np.abs(ref @ tracked.conj().T) ** 2
    scale = np.max(np.sum(np.abs(tracked) ** 2, axis=1))
    assert np.max(np.abs(cheb.populations - ref_pops)) <= 2.0 * scale * tol
    # one series per span, each cut at its last x, each within the limits
    assert cheb.products == sum(len(_chebyshev_terms(xs[-1])[0]) - 1
                                for xs, _ in calls)
    rows = max(1, min(dynamics.DENSE_CHUNK, h.mat.nnz) // dim)
    for xs, _ in calls:
        assert len(xs) <= rows and np.all(np.diff(xs) >= 0.0)
        assert xs[-1] <= dynamics.CHEBYSHEV_MAX_X * (1.0 + 1e-12)
    # every grid time in one span, and one more call per split piece
    pieces = np.maximum(1, np.ceil(half * np.diff(times, prepend=0.0)
                                   / dynamics.CHEBYSHEV_MAX_X))
    assert sum(len(xs) for xs, _ in calls) == np.sum(pieces)
    pop_err = np.abs(cheb.populations - dense.populations)
    assert np.max(pop_err) <= 2.0 * cheb.truncation_bound + 1e-10


def test_every_grid_state_matches_the_per_interval_series():
    # each prefix of the grid ends at one of its times: its final state
    # is that time's state
    rng = np.random.default_rng(3)
    h = random_symmetric(rng, 12)
    lo, hi = gershgorin_interval(h)
    x_gaps = [0.0, 0.3, 0.0, 1e-3, 2.0, 1.5 * dynamics.CHEBYSHEV_MAX_X,
              0.05, 0.05, 7.0, 0.0]
    times = np.cumsum(x_gaps) / (0.5 * (hi - lo))
    psi0 = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi0 /= np.linalg.norm(psi0)
    ref, ref_bound = per_interval_states(h, psi0, times)
    with forced_method("chebyshev"):
        for n in range(1, len(times) + 1):
            cheb = evolve(h, psi0, times[:n])
            assert (np.linalg.norm(cheb.final_state - ref[n - 1])
                    <= 1e-12 + cheb.truncation_bound + ref_bound)


def test_one_span_reaches_every_short_interval():
    # 40 times of x <= 3: one series cut at the last x, not 40 restarts
    rng = np.random.default_rng(5)
    h = random_symmetric(rng, 50)
    lo, hi = gershgorin_interval(h)
    times = np.linspace(0.0, 3.0 / (0.5 * (hi - lo)), 40)
    psi0 = np.eye(50)[0].astype(complex)
    with forced_method("chebyshev"):
        cheb = evolve(h, psi0, times, [psi0])
    j, tail = _chebyshev_terms(0.5 * (hi - lo) * times[-1])
    assert cheb.products == len(j) - 1
    assert cheb.truncation_bound == tail


@pytest.mark.parametrize("chunk", [None, 24 * 2000])
def test_span_states_stay_within_h_data(chunk):
    # dim 2 000 with about 60 nonzeros per row, 300 grid times: a span
    # holds at most min(DENSE_CHUNK, nnz) // dim states, 60 or 24 of them
    rng = np.random.default_rng(9)
    dim = 2000
    a = sp.random(dim, dim, density=0.015, random_state=rng, format="csr")
    h = SparseOperator(dim, sp.csr_matrix(a + a.T + sp.diags(rng.normal(size=dim))))
    chunk = dynamics.DENSE_CHUNK if chunk is None else chunk
    cap = min(chunk, h.mat.nnz)
    lo, hi = gershgorin_interval(h)
    times = np.linspace(0.0, 30.0 / (0.5 * (hi - lo)), 300)
    psi0 = np.eye(dim)[0].astype(complex)
    patch, calls = span_spy()
    with (patch, mock.patch.object(dynamics, "DENSE_CHUNK", chunk),
          forced_method("chebyshev")):
        tracemalloc.start()
        try:
            evolve(h, psi0, times, [psi0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(len(xs) for xs, _ in calls) == cap // dim
    # no span's states outlive it: each span starts on the same memory
    start = [traced for _, traced in calls]
    assert max(start) - min(start) <= 4 * 16 * dim
    # from there on, one span's states, their coefficients and a few
    # one-state temporaries
    assert peak - min(start) <= 16 * cap + 12 * 16 * dim + 64 * 1024


@pytest.mark.parametrize("x", [0.0, 1e-31, 1e-12, 1e-5, 0.5, 1.55, 10.0,
                               100.0, 637.3, 999.9, 1000.0])
def test_bessel_j_matches_scipy(x):
    j = bessel_j(x)
    ref = scipy.special.jv(np.arange(len(j)), x)
    assert np.max(np.abs(j - ref)) < 1e-13
    big = np.abs(ref) > 1e-30
    assert np.max(np.abs(j - ref)[big] / np.abs(ref[big])) < 1e-8
    # every order left out is below 1e-30
    assert np.all(np.abs(scipy.special.jv(len(j) + np.arange(50), x)) < 1e-30)


@pytest.mark.parametrize("x", [1e-12, 0.5, 1.55, 31.0, 262.0, 1000.0])
def test_chebyshev_cut_is_the_first_order_within_tolerance(x):
    j, tail = _chebyshev_terms(x)
    k_cut = len(j) - 1
    absolute = np.abs(scipy.special.jv(np.arange(k_cut + 400), x))
    assert tail == pytest.approx(2.0 * np.sum(absolute[k_cut + 1:]),
                                 rel=1e-6, abs=1e-30)
    assert tail <= CHEBYSHEV_TOL
    assert 2.0 * np.sum(absolute[k_cut:]) > CHEBYSHEV_TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(0, 2**32 - 1))
def test_gershgorin_interval_holds_spectrum(dim, seed):
    rng = np.random.default_rng(seed)
    h = random_symmetric(rng, dim)
    w = scipy.linalg.eigvalsh(h.mat.toarray())
    lo, hi = gershgorin_interval(h)
    assert lo <= w[0] and w[-1] <= hi


def random_involution(rng, dim, n_pairs):
    """Map of range(dim) swapping n_pairs random pairs, fixing the rest."""
    order = rng.permutation(dim)
    a, b = order[:n_pairs], order[n_pairs:2 * n_pairs]
    m = np.arange(dim)
    m[a], m[b] = b, a
    return m


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(0, 2**32 - 1),
       st.integers(min_value=0, max_value=20))
@example(7, 0, 0)  # the identity
@example(8, 1, 4)  # no fixed point
def test_parity_blocks_match_one_block(dim, seed, pairs):
    rng = np.random.default_rng(seed)
    n_pairs = min(pairs, dim // 2)
    m = random_involution(rng, dim, n_pairs)
    a = random_symmetric(rng, dim).mat.toarray()
    # exactly invariant: each mirrored pair of entries sums the same two terms
    h = SparseOperator(dim, sp.csr_matrix(0.5 * (a + a[np.ix_(m, m)])))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, rng.uniform(0.1, 2.0), 7)
    whole = evolve(h, psi0, times, np.eye(dim))
    split = evolve(h, psi0, times, np.eye(dim), mirror=lambda: m)
    assert whole.blocks == (dim,)
    assert split.blocks == ((dim - n_pairs, n_pairs) if n_pairs else (dim,))
    assert np.max(np.abs(split.populations - whole.populations)) < 1e-10
    assert np.max(np.abs(split.final_state - whole.final_state)) < 1e-10
    assert abs(split.norm_drift - whole.norm_drift) < 1e-10
    assert abs(split.energy_drift - whole.energy_drift) < 1e-10


def test_evolve_checks_the_mirror():
    psi0 = np.array([1.0, 0.0])
    swap = lambda: np.array([1, 0])  # noqa: E731
    # H mixes the even and odd vectors of the swap
    h = SparseOperator(2, sp.csr_matrix(np.diag([1.0, 2.0])))
    with pytest.raises(ValueError, match="reflection"):
        evolve(h, psi0, [0.0, 1.0], mirror=swap)
    # a rounding-level asymmetry passes
    h = SparseOperator(2, sp.csr_matrix(np.diag([1.0, 1.0 + 4e-16])))
    assert evolve(h, psi0, [0.0, 1.0], mirror=swap).blocks == (1, 1)
    for bad in ([1, 1], [1, 2], [0]):
        with pytest.raises(ValueError, match="involution"):
            evolve(h, psi0, [0.0, 1.0], mirror=lambda: np.array(bad))
    # the Chebyshev method never asks for the map
    mirror = mock.Mock()
    with forced_method("chebyshev"):
        assert evolve(h, psi0, [0.0, 1.0], mirror=mirror).blocks == ()
    mirror.assert_not_called()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 0.3, 0.05]))
@example(1, 0, 1.0)
def test_identity_block_eigh_is_the_whole_eigh(dim, seed, density):
    # estimate_period's eigenpairs: the identity mirror must hand syevd h's
    # own dense array, so that not one bit moves
    rng = np.random.default_rng(seed)
    a = sp.random(dim, dim, density=density, random_state=rng,
                  data_rvs=lambda k: rng.normal(size=k) * rng.uniform(0.1, 10.0))
    h = SparseOperator(dim, sp.csr_matrix(a + a.T))
    (basis, w, v), = block_eigh(h)
    w_ref, v_ref = np.linalg.eigh(h.mat.toarray())
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert np.array_equal(basis.toarray(), np.eye(dim))


def test_effective_chain_n14_over_two_periods_in_spans():
    # the north star's long horizon on the effective side: the uniform
    # spin-1/2 chain of 14 sites, S_z block 3 432, over 0-512 ms in 200
    # points; one series per interval takes 2 189 products
    geo = CrystalGeometry.from_uniform_hoppings(14, 0.1 * KHZ, 0.17 * KHZ)
    labels = ("up",) * 7 + ("down",) * 7
    basis = spin_block("half", labels)
    h = build_spin_hamiltonian(spin_half_general(geo, DRIVE), basis)
    assert (basis.dim, h.dim >= DENSE_THRESHOLD) == (3432, True)
    tracked = np.array([basis.product_vector([[(s, 1.0)] for s in lab])
                        for lab in (labels, labels[::-1],
                                    ("down",) + labels[:-1])])
    times = np.linspace(0.0, 512.0, 200)
    res = evolve(h, tracked[0], times, tracked)
    assert res.method == "chebyshev" and res.products <= 400
    ref, _ = per_interval_states(h, tracked[0], times)
    ref_pops = np.abs(ref @ tracked.conj().T) ** 2
    assert np.max(np.abs(res.populations - ref_pops)) <= 1e-10


@pytest.mark.slow
def test_chebyshev_matches_dense_above_threshold():
    cfg = run_config(5, 1, False, "up,down,down,down,down")
    geo = geometry_from_config(cfg)
    basis = enumerate_sector(5, 5, n_x_total=1)
    assert basis.dim > DENSE_THRESHOLD
    h = build_full(basis, geo, cfg.drive)
    vectors = site_vectors(1, *local_detunings(geo, cfg.drive), cfg.drive)
    labels = [tuple("up" if i == j else "down" for i in range(5))
              for j in range(5)]
    states = [dressed_product_state(lab, vectors, basis) for lab in labels]
    times = np.linspace(0.0, 2.0, 11)
    cheb = evolve(h, states[0], times, states)
    with forced_method("dense"):
        dense = evolve(h, states[0], times, states)
        split = evolve(h, states[0], times, states, mirror=basis.mirror)
    assert (cheb.method, dense.method) == ("chebyshev", "dense")
    assert np.max(np.abs(cheb.populations - dense.populations)) < 1e-9
    assert np.max(np.abs(cheb.final_state - dense.final_state)) < 1e-9
    assert cheb.truncation_bound < 1e-9
    assert sum(split.blocks) == basis.dim and len(split.blocks) == 2
    assert np.max(np.abs(split.populations - dense.populations)) < 1e-9
    assert np.max(np.abs(split.final_state - dense.final_state)) < 1e-9


def test_joint_detuning_offset_invariance():
    cfg = parse_config(THREE_ION_CFG)
    geo = geometry_from_config(cfg)
    basis = enumerate_sector(3, 3)
    times = np.linspace(0.0, 6.0, 30)

    def traces(drive):
        h = build_full(basis, geo, drive)
        psi0 = bare_state(("up", "down", "up"), drive, basis)
        tracked = [bare_state(lab, drive, basis)
                   for lab in [("up", "down", "up"), ("down", "up", "up")]]
        return evolve(h, psi0, times, tracked).populations

    # a common detuning Delta in the config leaves every trace exactly
    # as it was
    shifted = parse_config(THREE_ION_CFG + "Delta_khz = 5.0\n").drive
    assert np.array_equal(traces(cfg.drive), traces(shifted))


def test_compare_zero_hopping_is_trivial():
    cfg = parse_config("n_ions = 2\nt_x_khz = 0.0\nt_y_khz = 0.0\n"
                       "g_x_khz = 20.0\ng_y_khz = 26.0\ndelta_khz = 0.1\n"
                       "n_excitations = 1\ninitial_state = up,down\n")
    run = compare_full_vs_effective(cfg)
    assert isinstance(run, Run)
    assert np.max(run.deviations()[0]) < 1e-10
    trace = run.sides["full"].populations[:, run.labels.index(("up", "down"))]
    assert np.max(np.abs(trace - 1.0)) < 1e-10


def test_compare_three_ion_window():
    cfg = parse_config(THREE_ION_CFG + "t_final_ms = 5.0\nn_steps = 60\n")
    run = compare_full_vs_effective(cfg)
    full = run.sides["full"]
    assert np.max(run.deviations()[0]) < 0.1
    assert run.sector_dim == 262
    assert len(full.final_state) == 93
    # reflection symmetry of the crystal about the center ion
    mirror = np.abs(full.populations[:, run.labels.index(("down", "up", "up"))]
                    - full.populations[:, run.labels.index(("up", "up", "down"))])
    assert np.max(mirror) < 1e-9


def test_default_times_and_period():
    model = rabi_model(-0.02)
    times = default_times(model, ("up", "down"), n_steps=101, t_final=None)
    assert len(times) == 101
    assert times[0] == 0.0
    # two transfer periods = one full population cycle
    assert times[-1] == pytest.approx(2.0 * np.pi / (0.08 * KHZ), rel=1e-12)
    stationary = default_times(model, ("up", "up"), n_steps=11, t_final=None)
    assert stationary[-1] == pytest.approx(1.0)
    assert estimate_period(model, ("up", "up")) is None


def test_tracked_labels_cap():
    assert len(_tracked_labels("half", 2, ("up", "down"))) == 4
    assert len(_tracked_labels("one", 2, ("1", "-1"))) == 9
    only = _tracked_labels("one", 6, ("1", "0", "0", "0", "0", "-1"))
    assert only == (("1", "0", "0", "0", "0", "-1"),)


def test_each_tracked_state_is_built_once(monkeypatch):
    # the initial label is tracked: its state is the tracked one, not a
    # second build. three_ion_xxz's up,down,up block holds 3 of 8 labels
    calls = []

    def counted(*args):
        calls.append(args[0])
        return dressed_product_state(*args)

    monkeypatch.setattr(dynamics, "dressed_product_state", counted)
    run = evolve_full_model(parse_config(THREE_ION_CFG))
    assert len(run.labels) == 8
    assert sorted(calls) == sorted(lab for lab in run.labels
                                   if lab.count("up") == 2)


def test_compare_rejects_wrong_manifold_labels():
    cfg = parse_config(THREE_ION_CFG.replace("initial_state = up,down,up",
                                             "initial_state = 1,0,-1"))
    with pytest.raises(SectorError):
        compare_full_vs_effective(cfg)


def loop_dominant_gap(w, weights):
    """The eigenpair scan estimate_period used to run, one pair at a time."""
    gap_tol = max(1e-12 * np.max(np.abs(w)), 1e-30)
    best = None
    for a in range(len(w)):
        if weights[a] < 1e-12:
            continue
        for b in range(a + 1, len(w)):
            if weights[b] < 1e-12:
                continue
            gap = abs(w[b] - w[a])
            if gap <= gap_tol:
                continue
            weight = weights[a] * weights[b]
            if best is None or weight > best[0]:
                best = (weight, gap)
    return None if best is None else best[1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-2.5, -1.0, -1.0 + 1e-13, 0.0, 0.3, 0.3,
                                 1.7, 4.0]), min_size=1, max_size=12),
       st.lists(st.sampled_from([0.0, 1e-13, 1e-12, 0.05, 0.1, 0.1, 0.25]),
                min_size=12, max_size=12))
def test_dominant_gap_matches_loop(energies, weights):
    # repeated energies and weights make ties and sub-tolerance gaps common
    w = np.sort(np.array(energies))
    weights = np.array(weights[: len(w)])
    assert _dominant_gap(w, weights) == loop_dominant_gap(w, weights)


def run_config(n_ions, n, trap, labels, homogeneous=None, t_final_ms=None,
               n_steps=400):
    """Trap crystal or uniform chain; homogeneous defaults to the uniform
    chain's flag and to off for the trap, t_final_ms to the default
    horizon."""
    geometry = ("nu_z_khz = 120.0\naspect_x = 55.555555555555556\n"
                "aspect_y = 100.0\n" if trap else
                "t_x_khz = 0.1\nt_y_khz = 0.17\n")
    if homogeneous is None:
        homogeneous = not trap
    horizon = "" if t_final_ms is None else f"t_final_ms = {t_final_ms}\n"
    return parse_config(f"n_ions = {n_ions}\n{geometry}g_x_khz = 19.0\n"
                        f"g_y_khz = 20.0\ndelta_khz = -0.22\n"
                        f"homogeneous = {str(homogeneous).lower()}\n"
                        f"n_excitations = {n}\ninitial_state = {labels}\n"
                        f"{horizon}n_steps = {n_steps}\n")


@pytest.mark.parametrize("trap", [False, True])
@pytest.mark.parametrize("n_ions,n,labels", [(3, 1, "up,down,up"),
                                             (2, 2, "1,-1")])
def test_block_run_matches_full_sector(n_ions, n, labels, trap):
    cfg = run_config(n_ions, n, trap, labels, t_final_ms=200.0, n_steps=30)
    run = evolve_full_model(cfg)
    full = run.sides["full"]
    times = full.times
    assert np.array_equal(times, np.linspace(0.0, 200.0, 30))
    assert run.sector_dim == enumerate_sector(n_ions, n_ions * n).dim
    assert len(full.final_state) < run.sector_dim

    # reference: the whole total-excitation sector
    geo = geometry_from_config(cfg)
    basis = enumerate_sector(n_ions, n_ions * n)
    vectors = site_vectors(n, *local_detunings(geo, cfg.drive), cfg.drive)
    ref = evolve(build_full(basis, geo, cfg.drive),
                 dressed_product_state(run.initial_labels, vectors, basis),
                 times, [dressed_product_state(lab, vectors, basis)
                         for lab in run.labels])
    n_x = sum(LABEL_X[s] for s in run.initial_labels)
    assert full.populations.shape == (len(times), len(run.labels))
    for lab, trace, ref_trace in zip(run.labels, full.populations.T,
                                     ref.populations.T):
        if sum(LABEL_X[s] for s in lab) == n_x:
            assert np.max(np.abs(trace - ref_trace)) < 1e-10
        else:
            assert np.all(trace == 0.0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)]),
       st.booleans(), st.booleans(), st.data())
def test_hamiltonians_are_reflection_symmetric(size, trap, homogeneous, data):
    n_ions, n = size
    labels = data.draw(st.lists(st.sampled_from(MANIFOLD_LABELS[n]),
                                min_size=n_ions, max_size=n_ions))
    cfg = run_config(n_ions, n, trap, ",".join(labels), homogeneous)
    geo = geometry_from_config(cfg)
    full = enumerate_sector(n_ions, n_ions * n,
                            n_x_total=sum(LABEL_X[s] for s in labels))
    model = (spin_half_general if n == 1 else spin_one_general)(geo, cfg.drive)
    spin = spin_block(model.manifold, labels)
    for h, basis in ((build_full(full, geo, cfg.drive), full),
                     (build_spin_hamiltonian(model, spin), spin)):
        m = basis.mirror()
        scale = np.max(np.abs(h.mat.data))
        assert abs(h.mat[m][:, m] - h.mat).max() <= 1e-12 * scale


def test_compare_n4_parity_blocks():
    cfg = run_config(4, 1, False, "up,down,up,down", t_final_ms=1.0,
                     n_steps=3)
    run = compare_full_vs_effective(cfg)
    # 834 N_X = 2 states, 14 their own reflection; 6 S_z = 0 spin states
    assert run.sides["full"].blocks == (424, 410)
    assert run.sides["effective"].blocks == (4, 2)


def whole_space_basis(manifold, n_sites):
    """Every spin product state of the manifold, in kron order."""
    letters = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
    return product_basis(dict.fromkeys(letters, 0), n_sites, 0)


def one_hot(basis, labels):
    return basis.product_vector([[(s, 1.0)] for s in labels])


@pytest.mark.parametrize("trap", [False, True])
@pytest.mark.parametrize("n_ions,n,labels", [(3, 1, "up,down,up"),
                                             (2, 2, "1,-1")])
def test_effective_block_run_matches_whole_space(n_ions, n, labels, trap):
    cfg = run_config(n_ions, n, trap, labels, t_final_ms=200.0, n_steps=30)
    run = compare_full_vs_effective(cfg)
    eff = run.sides["effective"]
    times = eff.times
    initial = tuple(labels.split(","))
    manifold = run.model.manifold
    assert len(eff.final_state) == spin_block(manifold, initial).dim
    assert len(eff.final_state) < len(MANIFOLD_LABELS[n]) ** n_ions

    # reference: the whole 2^N / 3^N product space
    build = spin_half_general if n == 1 else spin_one_general
    model = build(geometry_from_config(cfg), cfg.drive)
    whole = whole_space_basis(manifold, n_ions)
    ref = evolve(build_spin_hamiltonian(model, whole), one_hot(whole, initial),
                 times, [one_hot(whole, lab) for lab in run.labels])
    n_x = sum(LABEL_X[s] for s in initial)
    assert eff.populations.shape == (len(times), len(run.labels))
    for lab, trace, ref_trace in zip(run.labels, eff.populations.T,
                                     ref.populations.T):
        if sum(LABEL_X[s] for s in lab) == n_x:
            assert np.max(np.abs(trace - ref_trace)) < 1e-10
        else:
            assert np.all(trace == 0.0)


def whole_space_period(model, initial_labels):
    """estimate_period over the whole product space, with the loop scan."""
    basis = whole_space_basis(model.manifold, model.n_sites)
    w, v = scipy.linalg.eigh(build_spin_hamiltonian(model, basis).mat.toarray())
    idx = np.flatnonzero(one_hot(basis, initial_labels))[0]
    gap = loop_dominant_gap(w, np.abs(v[idx]) ** 2)
    return None if gap is None else np.pi / gap


def random_model(manifold, n_sites, rng):
    def couplings():
        m = np.triu(rng.normal(size=(n_sites, n_sites)), k=1)
        return m + m.T

    def field():
        return rng.normal(size=n_sites)

    if manifold == "half":
        tables = {"K_xy": couplings(), "K_z": couplings(), "H_field": field(),
                  "E0_split": field()}
    else:
        tables = {name: couplings() for name in ("J_xy", "J_z", "W", "V",
                                                 "v_p1", "v_m1")}
        tables.update(D_field=field(), B_field=field())
    return oracle_model(manifold, tables, rng.normal())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["half", "one"]), st.integers(min_value=2, max_value=5),
       st.data())
def test_period_matches_whole_space(manifold, n_sites, data):
    if manifold == "one":
        n_sites = min(n_sites, 4)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = random_model(manifold, n_sites, rng)
    letters = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
    labels = tuple(data.draw(st.lists(st.sampled_from(letters),
                                      min_size=n_sites, max_size=n_sites)))
    ref = whole_space_period(model, labels)
    got = estimate_period(model, labels)
    if ref is None:
        assert got is None
    else:
        assert got == pytest.approx(ref, rel=1e-9)
