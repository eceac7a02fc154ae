import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jchsim.crystal import CrystalGeometry, local_detunings
from jchsim.fock import (
    assemble,
    enumerate_sector,
    site_operators,
    site_sector_operators,
    site_states,
    site_x_count,
)
from jchsim.jchv import (
    LABEL_X,
    MANIFOLD_LABELS,
    build_full,
    build_hb,
    build_hjc,
    particle_hole_gaps,
    single_site_spectra,
    site_hamiltonian,
    site_manifold_states,
    site_sector_eigh,
    x_blocks,
)
from jchsim.params import KHZ, DriveParams, TrapConfig, make_drive
from support import basis_index

GEO2 = CrystalGeometry.from_uniform_hoppings(2, 0.1 * KHZ, 0.17 * KHZ)


def random_drive(rng):
    """A random drive and a random common detuning Delta to offset it by."""
    g_x = rng.uniform(5.0, 50.0) * KHZ
    g_y = rng.uniform(5.0, 50.0) * KHZ
    delta = rng.uniform(-4.0, 4.0) * max(g_x, g_y)
    Delta = rng.uniform(-10.0, 10.0) * KHZ
    return DriveParams(g_x=g_x, g_y=g_y, delta=delta), Delta


def test_one_excitation_closed_forms_match_numerics():
    # the site builders at detunings Delta and omega0 = Delta + delta: a
    # common Delta shifts the n-excitation sector by n Delta
    rng = np.random.default_rng(11)
    for _ in range(30):
        drive, Delta = random_drive(rng)
        params = (Delta, Delta, Delta + drive.delta, drive.g_x, drive.g_y)
        s1, s2 = single_site_spectra(drive)
        w1, _ = site_sector_eigh(1, *params)
        expect1 = np.sort([s1.E_minus_x, s1.E_plus_x, s1.E_minus_y,
                           s1.E_plus_y]) + Delta
        assert np.max(np.abs(np.sort(w1) - expect1)) / drive.g_x < 1e-12
        w2, _ = site_sector_eigh(2, *params)
        # the three two-excitation ground states sit below the rest
        lows = np.sort([s2.E_1, s2.E_0, s2.E_m1]) + 2.0 * Delta
        assert np.max(np.abs(np.sort(w2)[:3] - lows)) / drive.g_x < 1e-12


def test_up_state_at_zero_detuning():
    drive = make_drive(g_x=10.0 * KHZ, g_y=10.0 * KHZ, delta=0.0)
    _, vectors = site_manifold_states(1, 0.0, 0.0, drive.delta, drive.g_x,
                                      drive.g_y)
    # equal-weight (|g,1,0> - |e1,0,0>)/sqrt(2), nothing else
    expect = dict.fromkeys(site_states(1), 0.0)
    expect[(0, 1, 0)] = 1.0 / math.sqrt(2.0)
    expect[(1, 0, 0)] = -1.0 / math.sqrt(2.0)
    up = vectors[MANIFOLD_LABELS[1].index("up")]
    assert np.max(np.abs(up - list(expect.values()))) < 1e-14


def test_manifold_states_orthonormal_and_sign_fixed():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        drive, Delta = random_drive(rng)
        energies, vectors = site_manifold_states(
            n, Delta, Delta, Delta + drive.delta, drive.g_x, drive.g_y)
        d = len(MANIFOLD_LABELS[n])
        assert energies.shape == (d,)
        assert vectors.shape == (d, len(site_states(n)))
        assert np.max(np.abs(vectors @ vectors.T - np.eye(d))) < 1e-12
        # each label's first nonzero coefficient, its purely phononic
        # component, is positive
        for vec in vectors:
            assert vec[np.flatnonzero(vec)[0]] > 0.0


def test_manifold_energies_match_closed_forms():
    drive = make_drive(g_x=12.0 * KHZ, g_y=18.0 * KHZ, delta=-0.5 * KHZ)
    s1, s2 = single_site_spectra(drive)
    params = (0.0, 0.0, drive.delta, drive.g_x, drive.g_y)
    e1, _ = site_manifold_states(1, *params)
    assert e1 == pytest.approx([s1.E_minus_x, s1.E_minus_y], abs=1e-10)
    e2, _ = site_manifold_states(2, *params)
    assert e2 == pytest.approx([s2.E_1, s2.E_0, s2.E_m1], abs=1e-10)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sector_eigenpairs_hold_one_x(n):
    # random sites, and sites with det_x = det_y = 0, where sector 3 has a
    # level of X = 1 and one of X = 2 at exactly omega0 (dark states):
    # every column is 0.0 off its X block, energies ascend within it, and
    # the pairs are the whole sector's eigenpairs
    rng = np.random.default_rng(29)
    drives = [random_drive(rng) for _ in range(20)]
    det_x = np.array([rng.uniform(-2.0, 2.0) * KHZ for _ in drives] + [0.0])
    det_y = np.array([rng.uniform(-2.0, 2.0) * KHZ for _ in drives] + [0.0])
    omega0, g_x, g_y = np.array([(Delta + d.delta, d.g_x, d.g_y)
                                 for d, Delta in drives + [drives[0]]]).T
    params = (det_x, det_y, omega0, g_x, g_y)
    energies, vectors = site_sector_eigh(n, *params)
    h = site_hamiltonian(site_sector_operators(n), *params)
    blocks = x_blocks(n)
    assert sorted(np.concatenate(blocks)) == list(range(3 * n + 1))
    x_of = np.empty(3 * n + 1, dtype=int)
    for x, idx in enumerate(blocks):
        x_of[idx] = x
        off = np.setdiff1d(np.arange(3 * n + 1), idx)
        assert np.all(vectors[:, off[:, None], idx] == 0.0)
        assert np.all(np.diff(energies[:, idx], axis=1) >= 0.0)
    np.testing.assert_array_equal(x_of, [site_x_count(s) for s in site_states(n)])
    scale = np.max(np.abs(h), axis=(1, 2), initial=1.0)[:, None, None]
    assert np.max(np.abs(h @ vectors - vectors * energies[:, None, :])
                  / scale) < 1e-13
    assert np.max(np.abs(vectors.swapaxes(1, 2) @ vectors
                         - np.eye(3 * n + 1))) < 1e-13
    whole = np.linalg.eigvalsh(h)
    assert np.max(np.abs(np.sort(energies, axis=1) - whole) / scale[:, 0]) < 1e-13
    if n == 3:
        dark = energies[-1, np.concatenate(blocks[1:3])]
        assert np.sum(np.abs(dark - omega0[-1]) < 1e-12 * scale[-1, 0, 0]) == 2


def per_block_manifold_states(n, det_x, det_y, drive):
    """One site's dressed manifold, one label block at a time."""
    h = site_hamiltonian(site_sector_operators(n), det_x, det_y, drive.delta,
                         drive.g_x, drive.g_y)
    x_count = np.array([site_x_count(s) for s in site_states(n)])
    labels = MANIFOLD_LABELS[n]
    energies, vectors = np.empty(len(labels)), np.zeros((len(labels), len(x_count)))
    for r, label in enumerate(labels):
        idx = np.flatnonzero(x_count == LABEL_X[label])
        vals, vecs = np.linalg.eigh(h[np.ix_(idx, idx)])
        energies[r] = vals[0]
        vectors[r, idx] = vecs[:, 0] if vecs[0, 0] >= 0 else -vecs[:, 0]
    return energies, vectors


TRAP21 = CrystalGeometry.from_trap(TrapConfig(21, 120.0 * KHZ, 55.555555555555556,
                                              100.0))
STACK_DRIVES = {
    "trap": dict(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ),
    "g_x=g_y": dict(g_x=20.0 * KHZ, g_y=20.0 * KHZ, delta=0.0),
    "homogeneous": dict(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ,
                        homogeneous=True),
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("drive", STACK_DRIVES)
def test_stacked_site_data_equals_per_ion(n, drive):
    # one eigh per X block of each sector for all 21 ions of a trap
    # crystal gives every ion's own site_sector_eigh and
    # site_manifold_states, called on its scalar parameters, bit for bit,
    # and the manifold equals a loop over label blocks with eighs of its own
    drive = make_drive(**STACK_DRIVES[drive])
    det_x, det_y = local_detunings(TRAP21, drive)
    params = (det_x, det_y, drive.delta, drive.g_x, drive.g_y)
    manifold = site_manifold_states(n, *params)
    sectors = {m: site_sector_eigh(m, *params) for m in (n - 1, n + 1)}
    assert manifold[1].shape == (21, len(MANIFOLD_LABELS[n]), 3 * n + 1)
    for j in range(21):
        ion = (det_x[j], det_y[j], drive.delta, drive.g_x, drive.g_y)
        loop = per_block_manifold_states(n, det_x[j], det_y[j], drive)
        for stacked, single, ref in zip(manifold, site_manifold_states(n, *ion),
                                        loop):
            np.testing.assert_array_equal(stacked[j], single)
            np.testing.assert_array_equal(single, ref)
        for m, stack in sectors.items():
            for stacked, single in zip(stack, site_sector_eigh(m, *ion)):
                np.testing.assert_array_equal(stacked[j], single)


def test_isotropic_gaps_closed_form():
    g = 23.0 * KHZ
    drive = make_drive(g_x=g, g_y=g, delta=0.0)
    u1, u0, um1 = particle_hole_gaps(drive)
    expect = (2.0 - math.sqrt(2.0)) * g
    assert u1 == pytest.approx(expect, abs=1e-10 * g)
    assert u0 == pytest.approx(expect, abs=1e-10 * g)
    assert um1 == pytest.approx(expect, abs=1e-10 * g)


def test_gap_asymptotics():
    g = 20.0 * KHZ
    # photon-blockade gap closes monotonically toward positive detuning
    deltas = np.linspace(0.0, 100.0 * g, 40)
    gaps = [particle_hole_gaps(make_drive(g_x=g, g_y=g, delta=d))[1]
            for d in deltas]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2 * g
    # far red detuning: U grows linearly, U/|delta| -> 1
    u0 = particle_hole_gaps(make_drive(g_x=g, g_y=g, delta=-100.0 * g))[1]
    assert abs(u0 / (100.0 * g) - 1.0) < 0.05


def test_full_hamiltonian_conserves_excitation():
    basis = enumerate_sector(2, 4)
    drive = make_drive(g_x=32.0 * KHZ, g_y=34.0 * KHZ, delta=0.0)
    h = build_full(basis, GEO2, drive)
    ops = site_operators(basis.n_total)
    n_tot = assemble(basis, [((j,), ops["num_x"] + ops["num_y"] + ops["proj_e1"]
                              + ops["proj_e2"]) for j in range(2)])
    assert abs(h.mat - h.mat.T).max() < 1e-13
    assert abs(h.mat @ n_tot.mat - n_tot.mat @ h.mat).max() < 1e-13


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_full_hamiltonian_conserves_x_excitation(sector, trap, homogeneous, seed):
    n_sites, n = sector
    rng = np.random.default_rng(seed)
    if trap:
        geo = CrystalGeometry.from_trap(TrapConfig(
            n_sites, rng.uniform(80.0, 200.0) * KHZ, rng.uniform(30.0, 80.0),
            rng.uniform(90.0, 150.0)))
    else:
        geo = CrystalGeometry.from_uniform_hoppings(
            n_sites, rng.uniform(0.01, 1.0) * KHZ, rng.uniform(0.01, 1.0) * KHZ)
    basis = enumerate_sector(n_sites, n_sites * n)
    drive = replace(random_drive(rng)[0], homogeneous=homogeneous)
    h = build_full(basis, geo, drive)
    ops = site_operators(basis.n_total)
    n_x = assemble(basis, [((j,), ops["num_x"] + ops["proj_e1"])
                           for j in range(n_sites)])
    assert abs(h.mat @ n_x.mat - n_x.mat @ h.mat).max() == 0.0
    # N_X is not a multiple of the identity here, so the check has teeth
    assert np.ptp(n_x.mat.diagonal()) > 0


def test_joint_offset_shifts_by_identity():
    # H_JC from explicit per-site detunings, offset by a common Delta:
    # build_hjc is its Delta = 0 member, bit for bit, and Delta shifts the
    # sector by Delta N
    basis = enumerate_sector(2, 2)
    drive = make_drive(g_x=10.0 * KHZ, g_y=12.0 * KHZ, delta=-1.0 * KHZ)
    det_x, det_y = local_detunings(GEO2, drive)
    ops = site_operators(basis.n_total)

    def offset_hjc(shift):
        return assemble(basis, [
            ((j,), site_hamiltonian(ops, det_x[j] + shift, det_y[j] + shift,
                                    drive.delta + shift, drive.g_x, drive.g_y))
            for j in range(basis.n_sites)]).mat.toarray()

    h0 = build_hjc(basis, GEO2, drive).mat.toarray()
    np.testing.assert_array_equal(h0, offset_hjc(0.0))
    shift = 5.0 * KHZ
    assert np.max(np.abs(offset_hjc(shift) - h0
                         - shift * basis.n_total * np.eye(basis.dim))) < 1e-10


def test_hb_only_couples_equal_species():
    basis = enumerate_sector(2, 1)
    h_b = build_hb(basis, GEO2).mat.toarray()
    index = basis_index(basis)
    i_xx = index[((0, 1, 0), (0, 0, 0))]
    j_xx = index[((0, 0, 0), (0, 1, 0))]
    i_yy = index[((0, 0, 1), (0, 0, 0))]
    j_yy = index[((0, 0, 0), (0, 0, 1))]
    assert h_b[i_xx, j_xx] == pytest.approx(GEO2.t_x[0, 1])
    assert h_b[i_yy, j_yy] == pytest.approx(GEO2.t_y[0, 1])
    assert h_b[i_xx, j_yy] == 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=5.0, max_value=50.0),
       st.floats(min_value=5.0, max_value=50.0),
       st.floats(min_value=-150.0, max_value=150.0))
def test_spectra_property_sweep(gx, gy, dl):
    # gap convention references the y polariton pair, so keep g_y >= g_x
    gx, gy = min(gx, gy), max(gx, gy)
    drive = make_drive(g_x=gx * KHZ, g_y=gy * KHZ, delta=dl * KHZ)
    s1, s2 = single_site_spectra(drive)
    # minus branches sit below plus branches, and the n=2 ground triple
    # sits below twice the most-bound polariton plus the gap structure
    assert s1.E_minus_x < s1.E_plus_x
    assert s1.E_minus_y < s1.E_plus_y
    u1, u0, um1 = particle_hole_gaps(drive)
    for u in (u1, u0, um1):
        assert u > -1e-12
