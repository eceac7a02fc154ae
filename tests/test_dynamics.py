from dataclasses import replace
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
    ComparisonReport,
    _chebyshev_terms,
    bessel_j,
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
from jchsim.fock import SectorError, SparseOperator, product_basis
from jchsim.jchv import (
    LABEL_X,
    MANIFOLD_LABELS,
    MANIFOLD_N,
    build_full,
    sector_basis_for,
)
from jchsim.params import KHZ, make_drive, parse_config
from jchsim.crystal import CrystalGeometry, geometry_from_config, local_detunings
from jchsim.superexchange import (
    SpinModel,
    build_spin_hamiltonian,
    spin_block,
    spin_half_general,
    spin_one_general,
)

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
    return SpinModel("half", {"K_xy": k, "K_z": np.zeros((2, 2)),
                              "H_field": np.zeros(2), "E0_split": np.zeros(2)},
                     energy_offset=0.0)


def bare_state(labels, drive, basis):
    """dressed_product_state with the drive's own detuning on every site."""
    det = np.full(basis.n_sites, drive.Delta)
    return dressed_product_state(labels, drive, basis, det, det)


def test_dressed_states_orthonormal():
    basis = sector_basis_for(2, 1)
    labels = [("up", "down"), ("down", "up"), ("up", "up"), ("down", "down")]
    vecs = [bare_state(lab, DRIVE, basis) for lab in labels]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_dressed_state_sector_mismatch():
    basis = sector_basis_for(2, 1)
    with pytest.raises(SectorError):
        bare_state(("up",), DRIVE, basis)
    with pytest.raises(SectorError):
        bare_state(("1", "-1"), DRIVE, basis)
    block = sector_basis_for(2, 1, n_x_total=1)
    with pytest.raises(SectorError, match="X = 2"):
        bare_state(("up", "up"), DRIVE, block)


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


@pytest.mark.parametrize("dense_threshold", [DENSE_THRESHOLD, 1])
def test_evolve_refuses_overflowing_horizon(dense_threshold):
    # 20 * 1e307 overflows; the dense phases would read NaN, and the
    # Chebyshev split count would be unbounded
    h = SparseOperator(2, sp.csr_matrix(np.diag([1.0, 20.0])))
    psi0 = np.array([1.0, 0.0])
    with pytest.raises(FloatingPointError, match="overflow"):
        evolve(h, psi0, [0.0, 1e307], dense_threshold=dense_threshold)
    assert evolve(h, psi0, [0.0, 1e306],
                  dense_threshold=10**9).norm_drift < 1e-12


def test_evolve_refuses_unbounded_chebyshev_work():
    # finite phases, but about 1e305 products: refused before the first one
    h = SparseOperator(2, sp.csr_matrix(np.diag([1.0, 20.0])))
    with mock.patch.object(dynamics, "_chebyshev_propagate") as propagate:
        with pytest.raises(FloatingPointError, match="products"):
            evolve(h, np.array([1.0, 0.0]), [0.0, 1e306], dense_threshold=1)
    propagate.assert_not_called()


def test_initial_populations_are_overlaps():
    basis = sector_basis_for(2, 1)
    psi0 = bare_state(("up", "down"), DRIVE, basis)
    geo = CrystalGeometry.from_uniform_hoppings(2, 0.05 * KHZ, 0.07 * KHZ)
    h = build_full(basis, geo, replace(DRIVE, homogeneous=True))
    tracked = {lab: bare_state(lab, DRIVE, basis)
               for lab in [("up", "down"), ("down", "up")]}
    res = evolve(h, psi0, [0.0], tracked)
    assert res.populations[("up", "down")][0] == pytest.approx(1.0, abs=1e-12)
    assert res.populations[("down", "up")][0] == pytest.approx(0.0, abs=1e-12)


def test_flip_flop_rabi_formula():
    k = -0.02  # kHz
    model = rabi_model(k)
    basis = spin_block("half", ("up", "down"))
    h = build_spin_hamiltonian(model, basis)
    psi0 = basis.product_vector([[("up", 1.0)], [("down", 1.0)]])
    target = basis.product_vector([[("down", 1.0)], [("up", 1.0)]])
    times = np.linspace(0.0, 20.0, 201)
    res = evolve(h, psi0, times, {("down", "up"): target})
    expected = np.sin(2.0 * k * KHZ * times) ** 2
    assert np.max(np.abs(res.populations[("down", "up")] - expected)) < 1e-10
    # transfer time = pi / (4 |K|)
    assert estimate_period(model, ("up", "down")) == pytest.approx(
        np.pi / (4.0 * abs(k) * KHZ), rel=1e-12)


def test_dense_hamiltonian_matches_expm():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(20, 20))
    h = SparseOperator(20, sp.csr_matrix(a + a.T))
    psi0 = rng.normal(size=20) + 1j * rng.normal(size=20)
    psi0 /= np.linalg.norm(psi0)
    tracked = {("e", str(i)): np.eye(20)[i] for i in range(20)}
    times = np.linspace(0.0, 0.7, 8)
    res = evolve(h, psi0, times, tracked)
    assert res.method == "dense"
    exact = np.array([scipy.linalg.expm(-1j * t * h.mat.toarray()) @ psi0
                      for t in times])
    assert np.max(np.abs(res.final_state - exact[-1])) < 1e-10
    assert np.max(np.abs(res.population_matrix() - np.abs(exact.T) ** 2)) < 1e-10


def test_dense_degenerate_parity_blocks_match_expm():
    # exactly repeated eigenvalues inside each parity block and across them:
    # the dense branch must not depend on how eigh picks a degenerate basis
    dim = 7
    reverse = np.arange(dim)[::-1].copy()
    even, odd = dynamics._parity_bases(reverse, dim)
    rng = np.random.default_rng(17)
    h = np.zeros((dim, dim))
    for basis, spectrum in ((even, [1.5, 1.5, 1.5, -2.0]),
                            (odd, [1.5, 1.5, 3.0])):
        q, _ = np.linalg.qr(rng.normal(size=(len(spectrum),) * 2))
        b = basis.toarray()
        h += b @ (q * spectrum) @ q.T @ b.T
    h = 0.5 * (h + h.T)
    assert np.max(np.abs(h - h[np.ix_(reverse, reverse)])) < 1e-14
    op = SparseOperator(dim, sp.csr_matrix(h))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    tracked = {("e", str(i)): np.eye(dim)[i] for i in range(dim)}
    times = np.linspace(0.0, 3.0, 9)
    res = evolve(op, psi0, times, tracked, mirror=lambda: reverse)
    assert res.method == "dense" and res.blocks == (4, 3)
    exact = np.array([scipy.linalg.expm(-1j * t * h) @ psi0 for t in times])
    assert np.max(np.abs(res.final_state - exact[-1])) < 1e-10
    assert np.max(np.abs(res.population_matrix()
                         - np.abs(exact.T) ** 2)) < 1e-10
    assert res.norm_drift < 1e-12 and res.energy_drift < 1e-12


def test_overall_max_deviation_propagates_nan():
    def report(devs):
        return ComparisonReport(times=np.zeros(1), labels=(), full=None,
                                effective=None, max_abs_deviation=devs,
                                l2_deviation={})
    assert report({}).overall_max_deviation == 0.0
    assert report({"a": 0.1, "b": 0.3}).overall_max_deviation == 0.3
    # Python's max keeps 0.1 when the NaN comes second
    assert np.isnan(report({"a": 0.1, "b": np.nan}).overall_max_deviation)
    assert np.isnan(report({"a": np.nan, "b": 0.1}).overall_max_deviation)


def test_diagonal_hamiltonian_freezes_populations():
    rng = np.random.default_rng(5)
    d = rng.uniform(-3.0, 3.0, size=8)
    h = SparseOperator(8, sp.csr_matrix(np.diag(d)))
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    tracked = {("e", str(i)): np.eye(8)[i] for i in range(8)}
    res = evolve(h, psi0, np.linspace(0.0, 7.0, 40), tracked)
    for lab, trace in res.populations.items():
        assert np.max(np.abs(trace - trace[0])) < 1e-12
    assert res.norm_drift < 1e-12
    assert res.energy_drift < 1e-12


def test_chebyshev_matches_dense():
    cfg = parse_config(THREE_ION_CFG)
    geo = geometry_from_config(cfg)
    basis = sector_basis_for(3, 1)
    h = build_full(basis, geo, cfg.drive)
    psi0 = bare_state(("up", "down", "up"), cfg.drive, basis)
    tracked = {("up", "down", "up"): psi0}
    times = np.linspace(0.0, 4.0, 25)
    dense = evolve(h, psi0, times, tracked, dense_threshold=10**9)
    cheb = evolve(h, psi0, times, tracked, dense_threshold=1)
    assert cheb.method == "chebyshev"
    diff = np.abs(dense.populations[("up", "down", "up")]
                  - cheb.populations[("up", "down", "up")])
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
    tracked = {("e", str(i)): np.eye(dim)[i] for i in range(dim)}
    times = np.cumsum(gaps)
    with mock.patch.object(dynamics, "CHEBYSHEV_TOL", tol):
        cheb = evolve(h, psi0, times, tracked, dense_threshold=1)
    dense = evolve(h, psi0, times, tracked, dense_threshold=10**9)
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
    pop_err = np.abs(cheb.population_matrix() - dense.population_matrix())
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
    cheb = evolve(h, psi0, [0.0, dt], dense_threshold=1)
    dense = evolve(h, psi0, [0.0, dt], dense_threshold=10**9)
    j, tail = _chebyshev_terms(half * dt / 3)
    assert cheb.products == 3 * (len(j) - 1)
    assert cheb.truncation_bound == pytest.approx(3 * tail)
    err = np.linalg.norm(cheb.final_state - dense.final_state)
    assert err <= cheb.truncation_bound + 1e-10


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
    tracked = {("e", str(i)): np.eye(dim)[i] for i in range(dim)}
    times = np.linspace(0.0, rng.uniform(0.1, 2.0), 7)
    whole = evolve(h, psi0, times, tracked)
    split = evolve(h, psi0, times, tracked, mirror=lambda: m)
    assert whole.blocks == (dim,)
    assert split.blocks == ((dim - n_pairs, n_pairs) if n_pairs else (dim,))
    assert np.max(np.abs(split.population_matrix()
                         - whole.population_matrix())) < 1e-10
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
    assert evolve(h, psi0, [0.0, 1.0], dense_threshold=1,
                  mirror=mirror).blocks == ()
    mirror.assert_not_called()


@pytest.mark.slow
def test_chebyshev_matches_dense_above_threshold():
    cfg = run_config(5, 1, False, "up,down,down,down,down")
    geo = geometry_from_config(cfg)
    basis = sector_basis_for(5, 1, n_x_total=1)
    assert basis.dim > DENSE_THRESHOLD
    h = build_full(basis, geo, cfg.drive)
    det_x, det_y = local_detunings(geo, cfg.drive)
    labels = [tuple("up" if i == j else "down" for i in range(5))
              for j in range(5)]
    states = {lab: dressed_product_state(lab, cfg.drive, basis, det_x, det_y)
              for lab in labels}
    times = np.linspace(0.0, 2.0, 11)
    cheb = evolve(h, states[labels[0]], times, states)
    dense = evolve(h, states[labels[0]], times, states,
                   dense_threshold=10**9)
    split = evolve(h, states[labels[0]], times, states,
                   dense_threshold=10**9, mirror=basis.mirror)
    assert (cheb.method, dense.method) == ("chebyshev", "dense")
    assert np.max(np.abs(cheb.population_matrix()
                         - dense.population_matrix())) < 1e-9
    assert np.max(np.abs(cheb.final_state - dense.final_state)) < 1e-9
    assert cheb.truncation_bound < 1e-9
    assert sum(split.blocks) == basis.dim and len(split.blocks) == 2
    assert np.max(np.abs(split.population_matrix()
                         - dense.population_matrix())) < 1e-9
    assert np.max(np.abs(split.final_state - dense.final_state)) < 1e-9


def test_joint_detuning_offset_invariance():
    cfg = parse_config(THREE_ION_CFG)
    geo = geometry_from_config(cfg)
    basis = sector_basis_for(3, 1)
    times = np.linspace(0.0, 6.0, 30)

    def traces(drive):
        h = build_full(basis, geo, drive)
        psi0 = bare_state(("up", "down", "up"), drive, basis)
        tracked = {
            lab: bare_state(lab, drive, basis)
            for lab in [("up", "down", "up"), ("down", "up", "up")]
        }
        return evolve(h, psi0, times, tracked).population_matrix()

    base = cfg.drive
    shifted = make_drive(g_x=base.g_x, g_y=base.g_y, delta=base.delta,
                         Delta=base.Delta + 5.0 * KHZ)
    assert np.max(np.abs(traces(base) - traces(shifted))) < 1e-9


def test_compare_zero_hopping_is_trivial():
    cfg = parse_config("n_ions = 2\nt_x_khz = 0.0\nt_y_khz = 0.0\n"
                       "g_x_khz = 20.0\ng_y_khz = 26.0\ndelta_khz = 0.1\n"
                       "n_excitations = 1\ninitial_state = up,down\n")
    report = compare_full_vs_effective(cfg)
    assert isinstance(report, ComparisonReport)
    assert report.overall_max_deviation < 1e-10
    trace = report.full.populations[("up", "down")]
    assert np.max(np.abs(trace - 1.0)) < 1e-10


def test_compare_three_ion_window():
    cfg = parse_config(THREE_ION_CFG + "t_final_ms = 5.0\nn_steps = 60\n")
    report = compare_full_vs_effective(cfg)
    assert report.overall_max_deviation < 0.1
    assert report.parameters["sector_dim"] == 262
    assert report.parameters["block_dim"] == 93
    # reflection symmetry of the crystal about the center ion
    mirror = np.abs(report.full.populations[("down", "up", "up")]
                    - report.full.populations[("up", "up", "down")])
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
    times = run.result.times
    assert np.array_equal(times, np.linspace(0.0, 200.0, 30))
    assert run.sector_dim == sector_basis_for(n_ions, n).dim
    assert run.block_dim < run.sector_dim

    # reference: the whole total-excitation sector
    geo = geometry_from_config(cfg)
    basis = sector_basis_for(n_ions, n)
    det_x, det_y = local_detunings(geo, cfg.drive)
    states = {lab: dressed_product_state(lab, cfg.drive, basis, det_x, det_y)
              for lab in run.tracked}
    ref = evolve(build_full(basis, geo, cfg.drive),
                 states[run.initial_labels], times, states)
    n_x = sum(LABEL_X[s] for s in run.initial_labels)
    assert run.result.labels == run.tracked
    for lab in run.tracked:
        trace = run.result.populations[lab]
        if sum(LABEL_X[s] for s in lab) == n_x:
            assert np.max(np.abs(trace - ref.populations[lab])) < 1e-10
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
    full = sector_basis_for(n_ions, n,
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
    report = compare_full_vs_effective(cfg)
    # 834 N_X = 2 states, 14 their own reflection; 6 S_z = 0 spin states
    assert report.full.blocks == (424, 410)
    assert report.effective.blocks == (4, 2)


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
    report = compare_full_vs_effective(cfg)
    times = report.times
    eff = report.effective
    initial = tuple(labels.split(","))
    manifold = report.parameters["manifold"]
    assert len(eff.final_state) == spin_block(manifold, initial).dim
    assert len(eff.final_state) < len(MANIFOLD_LABELS[n]) ** n_ions

    # reference: the whole 2^N / 3^N product space
    build = spin_half_general if n == 1 else spin_one_general
    model = build(geometry_from_config(cfg), cfg.drive)
    whole = whole_space_basis(manifold, n_ions)
    states = {lab: one_hot(whole, lab) for lab in report.labels}
    ref = evolve(build_spin_hamiltonian(model, whole), states[initial], times,
                 states)
    n_x = sum(LABEL_X[s] for s in initial)
    assert eff.labels == report.labels
    for lab in report.labels:
        trace = eff.populations[lab]
        if sum(LABEL_X[s] for s in lab) == n_x:
            assert np.max(np.abs(trace - ref.populations[lab])) < 1e-10
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
    return SpinModel(manifold, tables, energy_offset=rng.normal())


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
