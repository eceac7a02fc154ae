import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jchsim import superexchange
from jchsim.cli import _COUPLING_COLUMNS, config_variant, parse_sweep
from jchsim.crystal import CrystalGeometry, geometry_from_config, local_detunings
from jchsim.fock import (
    SectorError,
    product_basis,
    site_sector_operators,
)
from jchsim.jchv import (
    LABEL_X,
    MANIFOLD_LABELS,
    MANIFOLD_N,
    site_manifold_states,
    site_sector_eigh,
)
from jchsim.params import KHZ, DriveParams, TrapConfig, make_drive, parse_config
from jchsim.superexchange import (
    MODEL_TERMS,
    DegenerateIntermediateError,
    SIGMA_Z,
    S_PLUS,
    S_Z1,
    SpinModel,
    build_spin_hamiltonian,
    pair_effective_matrix,
    pair_stack,
    spin_half_analytic,
    spin_half_general,
    spin_one_general,
    spin_block,
    spin_one_isotropic_analytic,
)


# the complex Pauli and spin-1 matrices of the explicit kron oracle
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
S_MINUS = S_PLUS.T
S_X1 = 0.5 * (S_PLUS + S_MINUS)
S_Y1 = 0.5j * (S_MINUS - S_PLUS)


def uniform_pair(t_x_khz, t_y_khz):
    return CrystalGeometry.from_uniform_hoppings(2, t_x_khz * KHZ,
                                                 t_y_khz * KHZ)


def test_frozen_isotropic_xxz_constants():
    # at zeta = pi/4 the closed forms reduce to K_xy = -9 t_x t_y / (16 g)
    # and K_z = -9 (t_x^2 + t_y^2) / (32 g)
    g = 34.0 * KHZ
    t_x, t_y = 1e-3 * KHZ, 1.7e-3 * KHZ
    drive = make_drive(g_x=g, g_y=g, delta=0.0, homogeneous=True)
    tables = spin_half_general(uniform_pair(1e-3, 1.7e-3), drive).tables
    assert tables["K_xy"][0, 1] == pytest.approx(-9.0 * t_x * t_y / (16.0 * g),
                                                 rel=1e-12)
    assert tables["K_z"][0, 1] == pytest.approx(
        -9.0 * (t_x**2 + t_y**2) / (32.0 * g), rel=1e-12)
    kxy_a, kz_a, _ = spin_half_analytic(g, g, t_x, t_y)
    assert kxy_a == pytest.approx(-9.0 * t_x * t_y / (16.0 * g), rel=1e-14)
    assert kz_a == pytest.approx(-9.0 * (t_x**2 + t_y**2) / (32.0 * g),
                                 rel=1e-14)


def test_engine_matches_analytic_anisotropic():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g_x = rng.uniform(8.0, 40.0)
        g_y = rng.uniform(8.0, 40.0)
        scale = rng.uniform(0.001, 0.05) * min(g_x, g_y)
        t_x = scale * rng.uniform(0.2, 1.0)
        t_y = scale * rng.uniform(0.2, 1.0)
        drive = make_drive(g_x=g_x * KHZ, g_y=g_y * KHZ, delta=0.0,
                           homogeneous=True)
        geo = uniform_pair(t_x, t_y)
        tables = spin_half_general(geo, drive).tables
        kxy_a, kz_a, h_a = spin_half_analytic(g_x * KHZ, g_y * KHZ,
                                              geo.t_x, geo.t_y)
        assert tables["K_xy"][0, 1] == pytest.approx(kxy_a[0, 1], rel=1e-10)
        assert tables["K_z"][0, 1] == pytest.approx(kz_a[0, 1], rel=1e-10)
        assert tables["H_field"][0] == pytest.approx(h_a[0], rel=1e-10)


def test_spin_one_isotropic_closed_forms():
    g = 34.0 * KHZ
    t_x, t_y = 0.1 * KHZ, 0.17 * KHZ
    drive = make_drive(g_x=g, g_y=g, delta=0.0, homogeneous=True)
    geo = uniform_pair(0.1, 0.17)
    tables = spin_one_general(geo, drive).tables
    jxy_a, jz_a, b_a = spin_one_isotropic_analytic(g, geo.t_x, geo.t_y)
    assert tables["J_xy"][0, 1] == pytest.approx(jxy_a[0, 1], rel=1e-6)
    assert tables["J_z"][0, 1] == pytest.approx(jz_a[0, 1], rel=1e-6)
    assert tables["B_field"][0] == pytest.approx(b_a.sum(axis=1)[0], rel=1e-6)
    # the cubic/quartic channels close at the isotropic point
    scale = abs(tables["J_xy"][0, 1])
    for name in ("W", "V", "v_p1", "v_m1"):
        assert abs(tables[name][0, 1]) < 1e-10 * scale
    assert abs(tables["D_field"][0]) < 1e-10 * scale


def test_no_direct_double_flip_coupling():
    # (1,-1) <-> (-1,1) needs four phonon moves; absent at second order
    drive = make_drive(g_x=12.0 * KHZ, g_y=18.0 * KHZ, delta=-0.5 * KHZ,
                       homogeneous=True)
    pair = pair_effective_matrix(0, 1, uniform_pair(0.05, 0.07), drive,
                                 manifold="one")
    i = pair.labels.index(("1", "-1"))
    j = pair.labels.index(("-1", "1"))
    assert abs(pair.second_order[i, j]) < 1e-14 * np.max(
        np.abs(pair.second_order))


def test_second_order_scales_quadratically():
    drive = make_drive(g_x=20.0 * KHZ, g_y=26.0 * KHZ, delta=3.0 * KHZ,
                       homogeneous=True)
    base = pair_effective_matrix(0, 1, uniform_pair(0.02, 0.03), drive,
                                 manifold="half")
    scaled = pair_effective_matrix(0, 1, uniform_pair(0.06, 0.09), drive,
                                   manifold="half")
    assert np.max(np.abs(scaled.second_order - 9.0 * base.second_order)) \
        < 1e-10 * np.max(np.abs(scaled.second_order))


def test_species_swap_symmetry():
    t_x, t_y = 0.04, 0.07
    g_x, g_y = 14.0, 22.0
    d1 = make_drive(g_x=g_x * KHZ, g_y=g_y * KHZ, delta=0.0, homogeneous=True)
    d2 = make_drive(g_x=g_y * KHZ, g_y=g_x * KHZ, delta=0.0, homogeneous=True)
    m1 = spin_half_general(uniform_pair(t_x, t_y), d1).tables
    m2 = spin_half_general(uniform_pair(t_y, t_x), d2).tables
    assert m2["K_xy"][0, 1] == pytest.approx(m1["K_xy"][0, 1], rel=1e-12)
    assert m2["K_z"][0, 1] == pytest.approx(m1["K_z"][0, 1], rel=1e-12)
    assert m2["H_field"][0] == pytest.approx(-m1["H_field"][0], rel=1e-12)
    o1 = spin_one_general(uniform_pair(t_x, t_y), d1).tables
    o2 = spin_one_general(uniform_pair(t_y, t_x), d2).tables
    assert o2["J_xy"][0, 1] == pytest.approx(o1["J_xy"][0, 1], rel=1e-12)
    assert o2["J_z"][0, 1] == pytest.approx(o1["J_z"][0, 1], rel=1e-12)
    assert o2["W"][0, 1] == pytest.approx(-o1["W"][0, 1], rel=1e-10)
    assert o2["V"][0, 1] == pytest.approx(o1["V"][0, 1], rel=1e-10)
    assert o2["v_p1"][0, 1] == pytest.approx(o1["v_m1"][0, 1], rel=1e-10)
    assert o2["B_field"][0] == pytest.approx(-o1["B_field"][0], rel=1e-12)
    assert o2["D_field"][0] == pytest.approx(o1["D_field"][0], rel=1e-10)


def test_zero_hopping_gives_free_spins():
    drive = make_drive(g_x=20.0 * KHZ, g_y=21.0 * KHZ, delta=0.0,
                       homogeneous=True)
    tables = spin_half_general(uniform_pair(0.0, 0.0), drive).tables
    assert np.all(tables["K_xy"] == 0.0)
    assert np.all(tables["K_z"] == 0.0)
    assert np.all(tables["H_field"] == 0.0)
    assert tables["E0_split"][0] != 0.0  # zeroth-order splitting survives


def test_degenerate_intermediate_raises():
    g = 34.0 * KHZ
    drive = make_drive(g_x=g, g_y=g, delta=1e6 * g, homogeneous=True)
    with pytest.raises(DegenerateIntermediateError):
        pair_effective_matrix(0, 1, uniform_pair(0.1, 0.17), drive,
                              manifold="half")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("manifold", ["half", "one"])
@pytest.mark.parametrize("t_khz, Delta_khz", [(1e307, 0.0), (0.1, 2e307)],
                         ids=["hopping", "detuning"])
def test_non_finite_pair_matrix_raises(manifold, t_khz, Delta_khz):
    # every input is finite, but the second-order sum or the pair energies
    # overflow: the pair fails instead of feeding inf/nan to the tables
    drive = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=0.0,
                       Delta=Delta_khz * KHZ)
    geo = uniform_pair(t_khz, t_khz)
    with pytest.raises(FloatingPointError, match=r"pair \(0, 1\): non-finite"):
        pair_effective_matrix(0, 1, geo, drive, manifold=manifold)
    build = spin_half_general if manifold == "half" else spin_one_general
    with pytest.raises(FloatingPointError, match=r"pair \(0, 1\): non-finite"):
        build(geo, drive)


def test_benign_zero_coupled_crossing_passes():
    # at g_y = sqrt(3) g_x, delta = 0 an intermediate crosses the manifold
    # energy with exactly vanishing coupling; must not raise
    g_x = 10.0 * KHZ
    drive = make_drive(g_x=g_x, g_y=math.sqrt(3.0) * g_x, delta=0.0,
                       homogeneous=True)
    pair = pair_effective_matrix(0, 1, uniform_pair(0.01, 0.01), drive,
                                 manifold="half")
    assert np.all(np.isfinite(pair.second_order))


def test_pair_matrix_consistency_with_spin_hamiltonian():
    drive = make_drive(g_x=12.0 * KHZ, g_y=18.0 * KHZ, delta=-0.5 * KHZ,
                       homogeneous=True)
    geo = uniform_pair(0.05, 0.07)
    for manifold, builder in (("half", spin_half_general),
                              ("one", spin_one_general)):
        pair = pair_effective_matrix(0, 1, geo, drive, manifold=manifold)
        model = builder(geo, drive)
        letters = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
        basis = product_basis(dict.fromkeys(letters, 0), 2, 0)
        h = build_spin_hamiltonian(model, basis).mat.toarray()
        idx = basis.rank(np.array([[letters.index(s) for s in lab]
                                   for lab in pair.labels]))
        diff = np.max(np.abs(h[np.ix_(idx, idx)] - pair.matrix))
        assert diff < 1e-12 * max(1.0, np.max(np.abs(pair.matrix)))


def test_extraction_residuals_tiny():
    drive = make_drive(g_x=25.0 * KHZ, g_y=31.0 * KHZ, delta=2.0 * KHZ,
                       homogeneous=True)
    geo = CrystalGeometry.from_uniform_hoppings(3, 0.05 * KHZ, 0.08 * KHZ)
    for builder in (spin_half_general, spin_one_general):
        model = builder(geo, drive)
        xy = "K_xy" if model.manifold == "half" else "J_xy"
        scale = max(np.max(np.abs(model.tables[xy])), 1e-30)
        assert model.residuals["extraction"] < 1e-10 * scale
        assert model.residuals["hermiticity"] < 1e-12 * scale


def test_spin_one_operator_algebra():
    comm = S_Z1 @ S_PLUS - S_PLUS @ S_Z1
    assert np.allclose(comm, S_PLUS)
    comm = S_Z1 @ S_MINUS - S_MINUS @ S_Z1
    assert np.allclose(comm, -S_MINUS)
    casimir = 0.5 * (S_PLUS @ S_MINUS + S_MINUS @ S_PLUS) + S_Z1 @ S_Z1
    assert np.allclose(casimir, 2.0 * np.eye(3))


def test_product_basis_rank_round_trip():
    for manifold, n_sites in itertools.product(("half", "one"), (1, 2, 4)):
        letters = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
        rows = np.array(list(itertools.product(range(len(letters)),
                                               repeat=n_sites)))  # kron order
        whole = product_basis(dict.fromkeys(letters, 0), n_sites, 0)
        np.testing.assert_array_equal(whole.codes, rows)
        np.testing.assert_array_equal(whole.rank(rows), np.arange(len(rows)))
        # every S_z block: the kron rows with its X, ranked in that order
        x = np.array([LABEL_X[s] for s in letters])[rows].sum(axis=1)
        for n_x in range(x.max() + 1):
            block = spin_block(manifold,
                               [letters[c] for c in rows[x == n_x][0]])
            np.testing.assert_array_equal(block.codes, rows[x == n_x])
            np.testing.assert_array_equal(block.rank(block.codes),
                                          np.arange(block.dim))
            with pytest.raises(SectorError):
                block.rank(rows[x != n_x][:1])


def test_transition_elements_feed_back_consistently():
    # the off-diagonal pattern T1 = Jxy + 2 v_p1 etc. must reproduce the
    # raw pair matrix elements it was extracted from
    drive = make_drive(g_x=12.0 * KHZ, g_y=18.0 * KHZ, delta=-0.5 * KHZ,
                       homogeneous=True)
    geo = uniform_pair(0.05, 0.07)
    pair = pair_effective_matrix(0, 1, geo, drive, manifold="one")
    tables = spin_one_general(geo, drive).tables
    m2 = pair.second_order
    lab = pair.labels
    t_1 = m2[lab.index(("1", "0")), lab.index(("0", "1"))]
    t_m1 = m2[lab.index(("-1", "0")), lab.index(("0", "-1"))]
    assert tables["J_xy"][0, 1] + 2.0 * tables["v_p1"][0, 1] == pytest.approx(
        t_1, rel=1e-12)
    assert tables["J_xy"][0, 1] + 2.0 * tables["v_m1"][0, 1] == pytest.approx(
        t_m1, rel=1e-12)


def test_inhomogeneous_detunings_break_field_uniformity():
    trap_geo = CrystalGeometry.from_uniform_hoppings(3, 0.05 * KHZ,
                                                     0.08 * KHZ)
    drive = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ)
    hom = spin_half_general(trap_geo, replace(drive, homogeneous=True))
    inh = spin_half_general(trap_geo, drive)
    hom_split, inh_split = hom.tables["E0_split"], inh.tables["E0_split"]
    assert hom_split[0] == pytest.approx(hom_split[1])
    assert inh_split[0] != pytest.approx(inh_split[1])


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=8.0, max_value=40.0),
       st.floats(min_value=8.0, max_value=40.0),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=0.001, max_value=0.03),
       st.floats(min_value=0.001, max_value=0.03))
def test_pair_matrix_properties(g_x, g_y, d_over_g, tx_frac, ty_frac):
    g_lo = min(g_x, g_y)
    drive = make_drive(g_x=g_x * KHZ, g_y=g_y * KHZ,
                       delta=d_over_g * g_lo * KHZ, homogeneous=True)
    geo = uniform_pair(tx_frac * g_lo, ty_frac * g_lo)
    pair = pair_effective_matrix(0, 1, geo, drive, manifold="half")
    m2 = pair.second_order
    assert np.max(np.abs(m2 - m2.T)) == 0.0
    assert np.all(np.isfinite(m2))
    # K_xy is exactly bilinear in (t_x, t_y): the flip-flop element has no
    # t_x^2 or t_y^2 piece, so doubling t_x alone doubles it
    k_xy = spin_half_general(geo, drive).tables["K_xy"]
    geo2 = uniform_pair(2.0 * tx_frac * g_lo, ty_frac * g_lo)
    k_xy2 = spin_half_general(geo2, drive).tables["K_xy"]
    assert k_xy2[0, 1] == pytest.approx(2.0 * k_xy[0, 1], rel=1e-10, abs=1e-18)


def kron_at(ops, n_sites, d):
    """np.kron chain with ops[j] on site j and the identity elsewhere."""
    out = np.eye(1)
    for j in range(n_sites):
        out = np.kron(out, ops.get(j, np.eye(d)))
    return out


@pytest.mark.parametrize("manifold", ["half", "one"])
def test_spin_hamiltonian_matches_explicit_kron(manifold):
    n = 3  # includes the non-adjacent pair (0, 2)
    rng = np.random.default_rng(41 if manifold == "half" else 43)

    def couplings():
        m = rng.normal(size=(n, n))
        m = m + m.T
        np.fill_diagonal(m, 0.0)
        return m

    offset = rng.normal()
    if manifold == "half":
        t = {"K_xy": couplings(), "K_z": couplings(),
             "H_field": rng.normal(size=n), "E0_split": rng.normal(size=n)}
        model = SpinModel("half", t, energy_offset=offset)
        d = 2
        expect = offset * np.eye(d**n, dtype=complex)
        for j in range(n):
            expect += ((t["H_field"][j] + t["E0_split"][j])
                       * kron_at({j: SIGMA_Z}, n, d))
            for k in range(j + 1, n):
                expect += t["K_xy"][j, k] * (
                    kron_at({j: SIGMA_X, k: SIGMA_X}, n, d)
                    + kron_at({j: SIGMA_Y, k: SIGMA_Y}, n, d))
                expect += t["K_z"][j, k] * kron_at({j: SIGMA_Z, k: SIGMA_Z}, n, d)
    else:
        t = {name: couplings() for name in ("J_xy", "J_z", "W", "V", "v_p1",
                                            "v_m1")}
        t.update(D_field=rng.normal(size=n), B_field=rng.normal(size=n))
        model = SpinModel("one", t, energy_offset=offset)
        d = 3
        sz2 = S_Z1 @ S_Z1
        expect = offset * np.eye(d**n, dtype=complex)
        for j in range(n):
            expect += t["D_field"][j] * kron_at({j: sz2}, n, d)
            expect += t["B_field"][j] * kron_at({j: S_Z1}, n, d)
            for k in range(j + 1, n):
                def pair(a, b):
                    return kron_at({j: a, k: b}, n, d)

                a_p = pair(S_Z1 @ S_PLUS, S_MINUS @ S_Z1)
                a_m = pair(S_Z1 @ S_MINUS, S_PLUS @ S_Z1)
                expect += t["J_xy"][j, k] * (pair(S_X1, S_X1) + pair(S_Y1, S_Y1))
                expect += t["J_z"][j, k] * pair(S_Z1, S_Z1)
                expect += t["W"][j, k] * (pair(S_Z1, sz2) + pair(sz2, S_Z1))
                expect += t["V"][j, k] * pair(sz2, sz2)
                expect += t["v_p1"][j, k] * (a_p + a_p.conj().T)
                expect += t["v_m1"][j, k] * (a_m + a_m.conj().T)
    letters = MANIFOLD_LABELS[MANIFOLD_N[manifold]]
    scale = np.max(np.abs(expect))
    h = build_spin_hamiltonian(model, product_basis(dict.fromkeys(letters, 0),
                                                    n, 0))
    assert h.dim == d**n
    assert np.max(np.abs(h.mat.toarray() - expect)) < 1e-13 * scale
    # each S_z block is the kron matrix on the block's rows, and the blocks
    # together hold every entry of it
    blocks = np.zeros_like(expect)
    for n_x in range(n * (d - 1) + 1):
        block = product_basis({s: LABEL_X[s] for s in letters}, n, n_x)
        rows = block.codes @ d ** np.arange(n - 1, -1, -1)
        got = build_spin_hamiltonian(model, block).mat.toarray()
        assert np.max(np.abs(got - expect[np.ix_(rows, rows)])) < 1e-13 * scale
        blocks[np.ix_(rows, rows)] = got
    assert np.max(np.abs(blocks - expect)) < 1e-13 * scale


def trap_crystal(n_ions, nu_z_khz=120.0):
    return CrystalGeometry.from_trap(
        TrapConfig(n_ions, nu_z_khz * KHZ, 55.555555555555556, 100.0))


def reference_site(n, det_x, det_y, drive):
    """One site's energies and ladder matrix elements from its own eighs."""
    energies, man_v = site_manifold_states(n, det_x, det_y, drive)
    upper_e, upper_v = site_sector_eigh(n + 1, det_x, det_y, drive)
    lower_e, lower_v = site_sector_eigh(n - 1, det_x, det_y, drive)
    up, dn = site_sector_operators(n + 1), site_sector_operators(n)
    return {
        "e": energies,
        "upper_e": upper_e, "lower_e": lower_e,
        "drop": {b: man_v @ up[f"a_{b}"] @ upper_v for b in "xy"},
        "lift": {b: lower_v.T @ dn[f"a_{b}"] @ man_v.T for b in "xy"},
    }


def reference_second_order(j, k, geometry, drive, manifold):
    """Second-order pair matrix summed one intermediate at a time."""
    n = {"half": 1, "one": 2}[manifold]
    det_x, det_y = local_detunings(geometry, drive)
    sj, sk = (reference_site(n, det_x[s], det_y[s], drive) for s in (j, k))
    t = {"x": geometry.t_x[j, k], "y": geometry.t_y[j, k]}
    e_pair = np.add.outer(sj["e"], sk["e"]).ravel()
    m2 = np.zeros((len(e_pair), len(e_pair)))

    def add(num, e_chi):
        inv = 1.0 / (e_pair - e_chi)
        m2[:, :] += np.outer(num, num) * 0.5 * (inv[:, None] + inv[None, :])

    # (n+1 at j, n-1 at k), then (n-1 at j, n+1 at k); site j indexes rows
    for a, e_a in enumerate(sj["upper_e"]):
        for b, e_b in enumerate(sk["lower_e"]):
            add(sum(t[x] * np.outer(sj["drop"][x][:, a], sk["lift"][x][b])
                    for x in "xy").ravel(), e_a + e_b)
    for a, e_a in enumerate(sk["upper_e"]):
        for b, e_b in enumerate(sj["lower_e"]):
            add(sum(t[x] * np.outer(sj["lift"][x][b], sk["drop"][x][:, a])
                    for x in "xy").ravel(), e_a + e_b)
    return m2


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["half", "one"]),
       st.booleans(),
       st.sampled_from([2, 4, 5]),
       st.data(),
       st.floats(min_value=8.0, max_value=40.0),
       st.floats(min_value=8.0, max_value=40.0),
       st.floats(min_value=-1.5, max_value=1.5))
def test_pair_matrix_matches_per_intermediate_reference(
        manifold, homogeneous, n_ions, data, g_x, g_y, d_over_g):
    # two ions: an explicit uniform pair; four or five: a trap crystal,
    # whose pairs include non-adjacent ones and either site order
    if n_ions == 2:
        geo = uniform_pair(0.1, 0.17)
    else:
        geo = trap_crystal(n_ions)
    j = data.draw(st.integers(0, n_ions - 1))
    k = data.draw(st.integers(0, n_ions - 1).filter(lambda x: x != j))
    drive = make_drive(g_x=g_x * KHZ, g_y=g_y * KHZ,
                       delta=d_over_g * min(g_x, g_y) * KHZ,
                       homogeneous=homogeneous)
    pair = pair_effective_matrix(j, k, geo, drive, manifold=manifold)
    ref = reference_second_order(j, k, geo, drive, manifold)
    scale = np.max(np.abs(pair.second_order))
    assert np.max(np.abs(pair.second_order - ref)) <= 1e-13 * scale


def test_pair_entries_match_model_tables():
    # inhomogeneous four-ion crystal: every pair, adjacent or not
    geo = trap_crystal(4)
    drive = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ)
    half = spin_half_general(geo, drive)
    one = spin_one_general(geo, drive)
    tables = {**{name: half.tables[name] for name in ("K_xy", "K_z")},
              **{name: one.tables[name] for name in ("J_xy", "J_z", "W", "V",
                                                     "v_p1", "v_m1")}}
    # site fields: zeroth order plus each partner's second-order share
    fields = {"H_field": np.zeros(4), "B_field": np.zeros(4),
              "D_field": np.zeros(4)}
    det_x, det_y = local_detunings(geo, drive)
    for s in range(4):
        e1, e0, em1 = site_manifold_states(2, det_x[s], det_y[s], drive)[0]
        fields["B_field"][s] = 0.5 * (e1 - em1)
        fields["D_field"][s] = 0.5 * (e1 + em1 - 2.0 * e0)
    for j in range(4):
        for k in range(j + 1, 4):
            for manifold in ("half", "one"):
                pair = pair_effective_matrix(j, k, geo, drive,
                                             manifold=manifold)
                for name, (for_j, for_k) in pair.couplings.items():
                    if name in tables:
                        assert for_j == for_k == tables[name][j, k]
                        assert tables[name][k, j] == tables[name][j, k]
                    elif name in fields:
                        fields[name][j] += for_j
                        fields[name][k] += for_k
    assert fields["H_field"] == pytest.approx(half.tables["H_field"], rel=1e-12)
    assert fields["B_field"] == pytest.approx(one.tables["B_field"], rel=1e-12)
    assert fields["D_field"] == pytest.approx(one.tables["D_field"], rel=1e-12)


@pytest.mark.parametrize("manifold, builder", [("half", spin_half_general),
                                               ("one", spin_one_general)])
def test_coupling_names_agree_across_modules(manifold, builder):
    site, pair = MODEL_TERMS[manifold]
    names = {name for name, _ in site + pair}
    geo = CrystalGeometry.from_uniform_hoppings(3, 0.05 * KHZ, 0.08 * KHZ)
    drive = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ)
    assert set(builder(geo, drive).tables) == names
    # every CSV column reads a table of the model
    for columns in _COUPLING_COLUMNS[manifold]:
        assert {name for name in columns if name is not None} <= names
    d = len(MANIFOLD_LABELS[MANIFOLD_N[manifold]])
    for terms, dim in ((site, d), (pair, d * d)):
        for name, op in terms:
            assert op.dtype == np.float64 and op.shape == (dim, dim), name
            np.testing.assert_array_equal(op, op.T)


DRIVE_TRAP = dict(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ)
BUILDERS = {"half": spin_half_general, "one": spin_one_general}


@pytest.mark.parametrize("manifold", ["half", "one"])
def test_row_stacks_equal_single_pairs(manifold):
    # the rows of a seven-ion crystal stack 6 down to 1 partners; each
    # table entry is the one-pair engine's coupling bit for bit, [j, k]
    # read as for_j and [k, j] as for_k
    geo = trap_crystal(7)
    drive = make_drive(**DRIVE_TRAP)
    _, tables, _ = superexchange._all_pairs(
        MANIFOLD_N[manifold], geo, drive, superexchange._EXTRACT[manifold])
    model = BUILDERS[manifold](geo, drive)
    for name, _ in MODEL_TERMS[manifold][1]:
        np.testing.assert_array_equal(model.tables[name], tables[name])
    for j, k in itertools.combinations(range(7), 2):
        pair = pair_effective_matrix(j, k, geo, drive, manifold=manifold)
        assert set(pair.couplings) == set(tables)
        for name, (for_j, for_k) in pair.couplings.items():
            assert tables[name][j, k] == for_j, (name, j, k)
            assert tables[name][k, j] == for_k, (name, j, k)
        ref = reference_second_order(j, k, geo, drive, manifold)
        scale = np.max(np.abs(pair.second_order))
        assert np.max(np.abs(pair.second_order - ref)) <= 1e-13 * scale


def hopping_chain(t_khz, dw_khz=()):
    """Geometry with the given symmetric hopping table (t_y = 0.6 t_x) and
    on-site shifts, for chains whose pairs fail where a test puts them."""
    t = np.asarray(t_khz, dtype=float) * KHZ
    dw = np.zeros(len(t))
    for site, shift in dw_khz:
        dw[site] = shift * KHZ
    return CrystalGeometry(u=np.arange(len(t), dtype=float), t_x=t,
                           t_y=0.6 * t, dw_x=dw, dw_y=dw.copy())


def hoppings(n_ions, pairs, t_khz=0.1, rest_khz=0.0):
    t = np.full((n_ions, n_ions), rest_khz)
    np.fill_diagonal(t, 0.0)
    for j, k in pairs:
        t[j, k] = t[k, j] = t_khz
    return t


FAR_DETUNED = dict(g_x=34.0 * KHZ, g_y=34.0 * KHZ, delta=34e6 * KHZ)
FAILING_CHAINS = {
    # a coupled resonance on every pair that hops: (1, 3), (1, 4), (2, 4)
    # and (3, 4), so row 1 holds two offending pairs
    "resonant": (hopping_chain(hoppings(5, [(1, 3), (1, 4), (2, 4), (3, 4)])),
                 FAR_DETUNED, DegenerateIntermediateError, (1, 3)),
    # second-order sums overflow on (1, 2), (1, 3) and (2, 3)
    "overflow": (hopping_chain(hoppings(4, [(1, 2), (1, 3), (2, 3)], 1e307, 0.1)),
                 DRIVE_TRAP, FloatingPointError, (1, 2)),
    # site 2's energies overflow, so (0, 2) fails as non-finite before the
    # resonant (0, 3); with site 3's instead, resonant (0, 2) comes first
    "overflow_then_resonant": (
        hopping_chain(hoppings(4, [(0, 1)], 0.0, 0.1), [(2, 2e307)]),
        FAR_DETUNED, FloatingPointError, (0, 2)),
    "resonant_then_overflow": (
        hopping_chain(hoppings(4, [(0, 1)], 0.0, 0.1), [(3, 2e307)]),
        FAR_DETUNED, DegenerateIntermediateError, (0, 2)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("manifold", ["half", "one"])
@pytest.mark.parametrize("chain", FAILING_CHAINS)
def test_model_build_names_first_failing_pair(chain, manifold):
    # the row stacks fail on the pair a j-major loop of single pairs
    # meets first, with the same message
    geo, drive, error, first = FAILING_CHAINS[chain]
    drive = make_drive(**drive)
    loop = []
    for j, k in itertools.combinations(range(geo.n_ions), 2):
        try:
            pair_effective_matrix(j, k, geo, drive, manifold=manifold)
        except (DegenerateIntermediateError, FloatingPointError) as exc:
            loop.append(exc)
    assert len(loop) > 1
    assert type(loop[0]) is error and str(loop[0]).startswith(f"pair {first}:")
    with pytest.raises(error) as info:
        BUILDERS[manifold](geo, drive)
    assert str(info.value) == str(loop[0])
    if error is DegenerateIntermediateError:
        assert info.value.pair == first and info.value.gap == loop[0].gap


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("manifold", ["half", "one"])
@pytest.mark.parametrize("order, error", [
    (("fine", "overflow", "resonant", "overflow"), FloatingPointError),
    (("fine", "resonant", "overflow", "resonant"), DegenerateIntermediateError),
])
def test_pair_stack_names_first_failing_point(order, error, manifold):
    # one stack of points fails on its first failing point, by name
    points = {
        "fine": (hopping_chain(hoppings(2, [(0, 1)])), make_drive(**DRIVE_TRAP)),
        "overflow": (hopping_chain(hoppings(2, [(0, 1)], 1e307)),
                     make_drive(**DRIVE_TRAP)),
        "resonant": (hopping_chain(hoppings(2, [(0, 1)])),
                     make_drive(**FAR_DETUNED)),
    }
    geometries, drives = zip(*(points[name] for name in order))
    names = [f"point {p}" for p in range(len(order))]
    with pytest.raises(error, match=r"^point 1: pair \(0, 1\): "):
        pair_stack(0, 1, geometries, drives, manifold, names)


@pytest.mark.parametrize("manifold", ["half", "one"])
def test_model_build_runs_one_contraction_per_row(monkeypatch, manifold):
    # N - 1 stacked contractions, one per row j over its partners k > j,
    # not one per pair
    engine = superexchange._second_order
    stacks = []

    def counted(site_j, partners, *args):
        stacks.append(len(partners.manifold_e))
        return engine(site_j, partners, *args)

    monkeypatch.setattr(superexchange, "_second_order", counted)
    n_ions = 7
    BUILDERS[manifold](trap_crystal(n_ions), make_drive(**DRIVE_TRAP))
    assert stacks == list(range(n_ions - 1, 0, -1))


@pytest.mark.parametrize("manifold", ["half", "one"])
@pytest.mark.parametrize("drive", [DRIVE_TRAP,
                                   dict(g_x=20.0 * KHZ, g_y=20.0 * KHZ, delta=0.0),
                                   dict(DRIVE_TRAP, homogeneous=True)],
                         ids=["trap", "g_x=g_y", "homogeneous"])
def test_site_table_equals_per_ion_site_data(manifold, drive):
    # the 21-ion table's energies and ladder elements, spread over the
    # slots a pair reads, are each ion's own bit for bit
    geo, drive, n = trap_crystal(21), make_drive(**drive), MANIFOLD_N[manifold]
    det_x, det_y = local_detunings(geo, drive)
    sites = superexchange._site_table(n, det_x, det_y, drive.omega0, drive.g_x,
                                      drive.g_y)
    for j in range(21):
        ref = reference_site(n, det_x[j], det_y[j], drive)
        for name in ("e", "upper_e", "lower_e"):
            table = sites.manifold_e if name == "e" else getattr(sites, name)
            np.testing.assert_array_equal(table[j], ref[name])
        for b in "xy":
            drop, lift = getattr(sites, f"drop_{b}")[j], getattr(sites, f"lift_{b}")[j]
            # drop[A, B, r_j, r_k] = <r_k| a |A>, lift[B, r_j, r_k] = <B| a |r_k>
            np.testing.assert_array_equal(
                drop, np.broadcast_to(ref["drop"][b].T[:, None, None, :], drop.shape))
            np.testing.assert_array_equal(
                lift, np.broadcast_to(ref["lift"][b][:, None, :], lift.shape))


CRYSTAL21 = (Path(__file__).resolve().parents[1] / "configs" / "crystal21.cfg")


def sweep_points(sweep):
    key, start, stop, n = parse_sweep(sweep)
    raw = parse_config(CRYSTAL21.read_text()).raw
    variants = [config_variant(raw, **{key: float(v)})
                for v in np.linspace(start, stop, n)]
    return [geometry_from_config(v) for v in variants], [v.drive for v in variants]


@pytest.mark.parametrize("manifold", ["half", "one"])
@pytest.mark.parametrize("sweep", ["g_y_khz:12:40:29", "delta_khz:-3:3:7",
                                   "nu_z_khz:100:140:5", "n_ions:2:6:5"])
def test_sweep_stack_equals_single_pairs(sweep, manifold):
    # one site table and one engine call for every point of a sweep give
    # each point's pair_effective_matrix(0, 1) exactly
    geometries, drives = sweep_points(sweep)
    e_pair, m2, couplings = pair_stack(0, 1, geometries, drives, manifold)
    for p, (geo, drive) in enumerate(zip(geometries, drives)):
        pair = pair_effective_matrix(0, 1, geo, drive, manifold=manifold)
        np.testing.assert_array_equal(m2[p], pair.second_order)
        np.testing.assert_array_equal(np.diag(e_pair[p]) + m2[p], pair.matrix)
        assert set(couplings) == set(pair.couplings)
        for name, (for_j, for_k) in pair.couplings.items():
            assert couplings[name][0][p] == for_j and couplings[name][1][p] == for_k


@pytest.mark.parametrize("manifold", ["half", "one"])
def test_site_eighs_do_not_grow_with_the_stack(monkeypatch, manifold):
    # sector n + 1, sector n - 1 and one per label block, however many
    # ions a build has and however many points a sweep has
    eigh = np.linalg.eigh
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    def eighs(run, *args):
        calls.clear()
        run(*args)
        return len(calls)

    crystals = [trap_crystal(3), trap_crystal(9)]
    geometries, drives = sweep_points("g_y_khz:12:40:29")
    drive = make_drive(**DRIVE_TRAP)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    counts = [eighs(BUILDERS[manifold], geo, drive) for geo in crystals]
    counts += [eighs(pair_stack, 0, 1, geometries[:p], drives[:p], manifold)
               for p in (1, 29)]
    assert counts == [2 + len(MANIFOLD_LABELS[MANIFOLD_N[manifold]])] * 4
