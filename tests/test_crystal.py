from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jchsim.crystal import (
    CrystalGeometry,
    equilibrium_positions,
    force_residual,
    geometry_from_config,
    hopping_matrix,
    local_detunings,
    onsite_shifts,
)
from jchsim.params import KHZ, TrapConfig, make_drive, parse_config

# closed forms: two ions sit at +-(1/4)^(1/3); three at +-(5/4)^(1/3), 0
U2 = 0.25 ** (1.0 / 3.0)
U3 = 1.25 ** (1.0 / 3.0)

FIG3_TRAP = TrapConfig(n_ions=3, omega_z=120.0 * KHZ, aspect_x=100.0 / 1.8,
                       aspect_y=100.0)


def test_positions_two_ions_closed_form():
    u = equilibrium_positions(2)
    assert u == pytest.approx([-U2, U2], abs=1e-12)


def test_positions_three_ions_closed_form():
    u = equilibrium_positions(3)
    assert u == pytest.approx([-U3, 0.0, U3], abs=1e-12)
    # solved once per ion count: later calls share one read-only array
    assert equilibrium_positions(3) is u and not u.flags.writeable


def test_single_ion_at_origin():
    assert equilibrium_positions(1) == pytest.approx([0.0])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21])
def test_residual_and_symmetry(n):
    u = equilibrium_positions(n)
    assert np.max(np.abs(force_residual(u))) < 1e-12
    assert np.all(np.diff(u) > 0)
    assert u == pytest.approx(list(-u[::-1]), abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=25))
def test_positions_property(n):
    u = equilibrium_positions(n)
    assert np.max(np.abs(force_residual(u))) < 1e-12
    assert np.all(np.diff(u) > 0)


def reference_force_residual(u):
    """force_residual as a loop over ion pairs, squaring float scalars with **."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    g = u.copy()
    for m in range(n):
        for k in range(n):
            if k < m:
                g[m] -= 1.0 / (u[m] - u[k]) ** 2
            elif k > m:
                g[m] += 1.0 / (u[k] - u[m]) ** 2
    return g


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_force_residual_equals_loop(n, seed):
    # sorted positions with full-precision mantissas: the squares of the
    # short floats hypothesis favours are exact however they are taken,
    # while the solved positions' last bits depend on every bit here
    u = np.sort(np.random.default_rng(seed).uniform(-n, n, n))
    assert np.array_equal(force_residual(u), reference_force_residual(u))


@pytest.mark.parametrize("n", [2, 21, 60])
def test_force_residual_equals_loop_at_equilibrium(n):
    # near-cancelling terms, where a changed rounding shows most
    u = equilibrium_positions(n)
    assert np.array_equal(force_residual(u), reference_force_residual(u))


@pytest.mark.parametrize("n", [115, 140, 200])
def test_long_crystal_meets_rounding_floor(n):
    # from 115 ions max |g| cannot reach 1e-12 in double precision; the
    # solve stops at its rounding floor, a few 1e-12
    u = equilibrium_positions(n)
    assert np.max(np.abs(force_residual(u))) < 1e-11
    assert np.array_equal(u, -u[::-1])
    assert np.all(np.diff(u) > 0)


def test_hoppings_reference_trap():
    # frozen: the N=3 separation obeys |u|^3 = 5/4 exactly, so the
    # nearest-neighbour hoppings are (omega_z^2 / 2 omega_beta) * 4/5
    geo = CrystalGeometry.from_trap(FIG3_TRAP)
    assert geo.t_x[0, 1] / KHZ == pytest.approx(0.864, rel=1e-12)
    assert geo.t_y[0, 1] / KHZ == pytest.approx(0.480, rel=1e-12)
    assert geo.t_x[0, 2] / KHZ == pytest.approx(0.108, rel=1e-12)
    assert geo.t_y[0, 2] / KHZ == pytest.approx(0.060, rel=1e-12)


def test_onsite_shifts_are_negated_row_sums():
    geo = CrystalGeometry.from_trap(FIG3_TRAP)
    assert geo.dw_x / KHZ == pytest.approx([-0.972, -1.728, -0.972],
                                           rel=1e-12)
    assert geo.dw_x == pytest.approx(list(-geo.t_x.sum(axis=1)))
    assert geo.dw_y == pytest.approx(list(-geo.t_y.sum(axis=1)))


def test_onsite_shifts_are_exactly_mirror_symmetric():
    geometries = [CrystalGeometry.from_uniform_hoppings(n, 0.1 * KHZ, 0.17 * KHZ)
                  for n in range(2, 11)]
    geometries += [CrystalGeometry.from_trap(replace(FIG3_TRAP, n_ions=n))
                   for n in range(2, 9)]
    for geo in geometries:
        np.testing.assert_array_equal(geo.dw_x, geo.dw_x[::-1])
        np.testing.assert_array_equal(geo.dw_y, geo.dw_y[::-1])


def test_hopping_matrix_rejects_coincident_ions():
    with pytest.raises(ValueError):
        hopping_matrix(np.array([0.0, 0.0]), FIG3_TRAP)


def test_local_detunings_reference_convention():
    geo = CrystalGeometry.from_trap(FIG3_TRAP)
    drive = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ)
    det_x, det_y = local_detunings(geo, drive)
    # reference ion sees no detuning in the frame Delta = 0; the centre ion
    # is shifted by the on-site frequency difference, -0.756 kHz in x for
    # this trap
    assert det_x[0] == 0.0 and det_y[0] == 0.0
    assert (det_x[1] - det_x[0]) / KHZ == pytest.approx(-0.756, rel=1e-12)
    hom_x, hom_y = local_detunings(geo, replace(drive, homogeneous=True))
    np.testing.assert_array_equal(hom_x, np.zeros(3))
    np.testing.assert_array_equal(hom_y, np.zeros(3))


def test_local_detunings_bad_reference():
    geo = CrystalGeometry.from_trap(FIG3_TRAP)
    drive = make_drive(g_x=1.0, g_y=1.0, delta=0.0, reference_ion=7)
    with pytest.raises(IndexError):
        local_detunings(geo, drive)


def test_uniform_hoppings_two_ions_exact():
    geo = CrystalGeometry.from_uniform_hoppings(2, 0.1 * KHZ, 0.17 * KHZ)
    assert geo.t_x[0, 1] == pytest.approx(0.1 * KHZ)
    assert geo.t_y[0, 1] == pytest.approx(0.17 * KHZ)


def test_uniform_hoppings_inverse_cube_profile():
    geo = CrystalGeometry.from_uniform_hoppings(4, 1.0, 2.0)
    assert geo.t_x[0, 1] == pytest.approx(1.0)
    assert geo.t_x[0, 2] == pytest.approx(1.0 / 8.0)
    assert geo.t_x[0, 3] == pytest.approx(1.0 / 27.0)
    assert geo.t_y[1, 3] == pytest.approx(2.0 / 8.0)


def test_geometry_from_config_dispatch():
    cfg = parse_config("n_ions = 2\nt_x_khz = 0.1\nt_y_khz = 0.2\n"
                       "g_x_khz = 10\ng_y_khz = 10\ndelta_khz = 0\n")
    geo = geometry_from_config(cfg)
    assert geo.t_x[0, 1] / KHZ == pytest.approx(0.1)
    cfg = parse_config("n_ions = 3\nnu_z_khz = 120\naspect_x = 55.5555555555"
                       "55556\naspect_y = 100\ng_x_khz = 10\ng_y_khz = 10\n"
                       "delta_khz = 0\n")
    geo = geometry_from_config(cfg)
    assert geo.t_x[0, 1] / KHZ == pytest.approx(0.864, rel=1e-12)
