import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jchsim.crystal import CrystalGeometry, local_detunings
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
from jchsim.params import KHZ, DriveParams, TrapConfig, make_drive
from jchsim.superexchange import (
    DegenerateIntermediateError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    S_MINUS,
    S_PLUS,
    S_X1,
    S_Y1,
    S_Z1,
    SpinHalfModel,
    SpinOneModel,
    build_spin_hamiltonian,
    pair_effective_matrix,
    spin_half_analytic,
    spin_half_general,
    spin_one_general,
    spin_block,
    spin_one_isotropic_analytic,
)


def uniform_pair(t_x_khz, t_y_khz):
    return CrystalGeometry.from_uniform_hoppings(2, t_x_khz * KHZ,
                                                 t_y_khz * KHZ)


def test_frozen_isotropic_xxz_constants():
    # at zeta = pi/4 the closed forms reduce to K_xy = -9 t_x t_y / (16 g)
    # and K_z = -9 (t_x^2 + t_y^2) / (32 g)
    g = 34.0 * KHZ
    t_x, t_y = 1e-3 * KHZ, 1.7e-3 * KHZ
    drive = make_drive(g_x=g, g_y=g, delta=0.0, homogeneous=True)
    model = spin_half_general(uniform_pair(1e-3, 1.7e-3), drive)
    assert model.K_xy[0, 1] == pytest.approx(-9.0 * t_x * t_y / (16.0 * g),
                                             rel=1e-12)
    assert model.K_z[0, 1] == pytest.approx(
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
        model = spin_half_general(geo, drive)
        kxy_a, kz_a, h_a = spin_half_analytic(g_x * KHZ, g_y * KHZ,
                                              geo.t_x, geo.t_y)
        assert model.K_xy[0, 1] == pytest.approx(kxy_a[0, 1], rel=1e-10)
        assert model.K_z[0, 1] == pytest.approx(kz_a[0, 1], rel=1e-10)
        assert model.H_field[0] == pytest.approx(h_a[0], rel=1e-10)


def test_spin_one_isotropic_closed_forms():
    g = 34.0 * KHZ
    t_x, t_y = 0.1 * KHZ, 0.17 * KHZ
    drive = make_drive(g_x=g, g_y=g, delta=0.0, homogeneous=True)
    geo = uniform_pair(0.1, 0.17)
    model = spin_one_general(geo, drive)
    jxy_a, jz_a, b_a = spin_one_isotropic_analytic(g, geo.t_x, geo.t_y)
    assert model.J_xy[0, 1] == pytest.approx(jxy_a[0, 1], rel=1e-6)
    assert model.J_z[0, 1] == pytest.approx(jz_a[0, 1], rel=1e-6)
    assert model.B_field[0] == pytest.approx(b_a.sum(axis=1)[0], rel=1e-6)
    # the cubic/quartic channels close at the isotropic point
    scale = abs(model.J_xy[0, 1])
    for extra in (model.W, model.V, model.v_p1, model.v_m1):
        assert abs(extra[0, 1]) < 1e-10 * scale
    assert abs(model.D_field[0]) < 1e-10 * scale


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
    m1 = spin_half_general(uniform_pair(t_x, t_y), d1)
    m2 = spin_half_general(uniform_pair(t_y, t_x), d2)
    assert m2.K_xy[0, 1] == pytest.approx(m1.K_xy[0, 1], rel=1e-12)
    assert m2.K_z[0, 1] == pytest.approx(m1.K_z[0, 1], rel=1e-12)
    assert m2.H_field[0] == pytest.approx(-m1.H_field[0], rel=1e-12)
    o1 = spin_one_general(uniform_pair(t_x, t_y), d1)
    o2 = spin_one_general(uniform_pair(t_y, t_x), d2)
    assert o2.J_xy[0, 1] == pytest.approx(o1.J_xy[0, 1], rel=1e-12)
    assert o2.J_z[0, 1] == pytest.approx(o1.J_z[0, 1], rel=1e-12)
    assert o2.W[0, 1] == pytest.approx(-o1.W[0, 1], rel=1e-10)
    assert o2.V[0, 1] == pytest.approx(o1.V[0, 1], rel=1e-10)
    assert o2.v_p1[0, 1] == pytest.approx(o1.v_m1[0, 1], rel=1e-10)
    assert o2.B_field[0] == pytest.approx(-o1.B_field[0], rel=1e-12)
    assert o2.D_field[0] == pytest.approx(o1.D_field[0], rel=1e-10)


def test_zero_hopping_gives_free_spins():
    drive = make_drive(g_x=20.0 * KHZ, g_y=21.0 * KHZ, delta=0.0,
                       homogeneous=True)
    model = spin_half_general(uniform_pair(0.0, 0.0), drive)
    assert np.all(model.K_xy == 0.0)
    assert np.all(model.K_z == 0.0)
    assert np.all(model.H_field == 0.0)
    assert model.E0_split[0] != 0.0  # zeroth-order splitting survives


def test_degenerate_intermediate_raises():
    g = 34.0 * KHZ
    drive = make_drive(g_x=g, g_y=g, delta=1e6 * g, homogeneous=True)
    with pytest.raises(DegenerateIntermediateError):
        pair_effective_matrix(0, 1, uniform_pair(0.1, 0.17), drive,
                              manifold="half")


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
        scale = max(np.max(np.abs(model.K_xy if hasattr(model, "K_xy")
                                  else model.J_xy)), 1e-30)
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
    model = spin_one_general(geo, drive)
    m2 = pair.second_order
    lab = pair.labels
    t_1 = m2[lab.index(("1", "0")), lab.index(("0", "1"))]
    t_m1 = m2[lab.index(("-1", "0")), lab.index(("0", "-1"))]
    assert model.J_xy[0, 1] + 2.0 * model.v_p1[0, 1] == pytest.approx(
        t_1, rel=1e-12)
    assert model.J_xy[0, 1] + 2.0 * model.v_m1[0, 1] == pytest.approx(
        t_m1, rel=1e-12)


def test_inhomogeneous_detunings_break_field_uniformity():
    trap_geo = CrystalGeometry.from_uniform_hoppings(3, 0.05 * KHZ,
                                                     0.08 * KHZ)
    drive = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ)
    hom = spin_half_general(trap_geo, replace(drive, homogeneous=True))
    inh = spin_half_general(trap_geo, drive)
    assert hom.E0_split[0] == pytest.approx(hom.E0_split[1])
    assert inh.E0_split[0] != pytest.approx(inh.E0_split[1])


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
    model = spin_half_general(geo, drive)
    geo2 = uniform_pair(2.0 * tx_frac * g_lo, ty_frac * g_lo)
    model2 = spin_half_general(geo2, drive)
    assert model2.K_xy[0, 1] == pytest.approx(2.0 * model.K_xy[0, 1],
                                              rel=1e-10, abs=1e-18)


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
        model = SpinHalfModel(K_xy=couplings(), K_z=couplings(),
                              H_field=rng.normal(size=n),
                              E0_split=rng.normal(size=n),
                              energy_offset=offset)
        d = 2
        expect = offset * np.eye(d**n, dtype=complex)
        for j in range(n):
            expect += ((model.H_field[j] + model.E0_split[j])
                       * kron_at({j: SIGMA_Z}, n, d))
            for k in range(j + 1, n):
                expect += model.K_xy[j, k] * (
                    kron_at({j: SIGMA_X, k: SIGMA_X}, n, d)
                    + kron_at({j: SIGMA_Y, k: SIGMA_Y}, n, d))
                expect += model.K_z[j, k] * kron_at({j: SIGMA_Z, k: SIGMA_Z}, n, d)
    else:
        model = SpinOneModel(J_xy=couplings(), J_z=couplings(), W=couplings(),
                             V=couplings(), v_p1=couplings(), v_m1=couplings(),
                             D_field=rng.normal(size=n),
                             B_field=rng.normal(size=n), energy_offset=offset)
        d = 3
        sz2 = S_Z1 @ S_Z1
        expect = offset * np.eye(d**n, dtype=complex)
        for j in range(n):
            expect += model.D_field[j] * kron_at({j: sz2}, n, d)
            expect += model.B_field[j] * kron_at({j: S_Z1}, n, d)
            for k in range(j + 1, n):
                def pair(a, b):
                    return kron_at({j: a, k: b}, n, d)

                a_p = pair(S_Z1 @ S_PLUS, S_MINUS @ S_Z1)
                a_m = pair(S_Z1 @ S_MINUS, S_PLUS @ S_Z1)
                expect += model.J_xy[j, k] * (pair(S_X1, S_X1) + pair(S_Y1, S_Y1))
                expect += model.J_z[j, k] * pair(S_Z1, S_Z1)
                expect += model.W[j, k] * (pair(S_Z1, sz2) + pair(sz2, S_Z1))
                expect += model.V[j, k] * pair(sz2, sz2)
                expect += model.v_p1[j, k] * (a_p + a_p.conj().T)
                expect += model.v_m1[j, k] * (a_m + a_m.conj().T)
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


def reference_second_order(j, k, geometry, drive, manifold):
    """Second-order pair matrix summed one intermediate at a time."""
    n = {"half": 1, "one": 2}[manifold]
    det_x, det_y = local_detunings(geometry, drive)

    def site(s):
        energies, man_v = site_manifold_states(n, det_x[s], det_y[s], drive)
        upper_e, upper_v = site_sector_eigh(n + 1, det_x[s], det_y[s], drive)
        lower_e, lower_v = site_sector_eigh(n - 1, det_x[s], det_y[s], drive)
        up, dn = site_sector_operators(n + 1), site_sector_operators(n)
        return {
            "e": energies,
            "upper_e": upper_e, "lower_e": lower_e,
            "drop": {b: man_v @ up[f"a_{b}"] @ upper_v for b in "xy"},
            "lift": {b: lower_v.T @ dn[f"a_{b}"] @ man_v.T for b in "xy"},
        }

    sj, sk = site(j), site(k)
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
    tables = {"K_xy": half.K_xy, "K_z": half.K_z, "J_xy": one.J_xy,
              "J_z": one.J_z, "W": one.W, "V": one.V, "v_p1": one.v_p1,
              "v_m1": one.v_m1}
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
    assert fields["H_field"] == pytest.approx(half.H_field, rel=1e-12)
    assert fields["B_field"] == pytest.approx(one.B_field, rel=1e-12)
    assert fields["D_field"] == pytest.approx(one.D_field, rel=1e-12)
