"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line with
the measured numbers (run with -s to see them on success) and enforces
the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from jchsim.crystal import (
    CrystalGeometry,
    TrapConfig,
    equilibrium_positions,
    force_residual,
    geometry_from_config,
    local_detunings,
)
from jchsim.dynamics import (
    compare_full_vs_effective,
    dressed_product_state,
    evolve,
)
from jchsim.fock import assemble, enumerate_sector, site_operators
from jchsim.jchv import (
    build_full,
    particle_hole_gaps,
    sector_basis_for,
    single_site_spectra,
    site_sector_eigh,
)
from jchsim.params import KHZ, make_drive, parse_config
from jchsim.superexchange import (
    spin_half_analytic,
    spin_half_general,
    spin_one_general,
)

from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _report(num, name, ok, detail, t0, budget=None):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    if budget is not None and elapsed >= budget:
        status = "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail} "
          f"[{elapsed:.2f} s]")
    assert ok, detail
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f} s over {budget} s"


@pytest.fixture(scope="module")
def three_ion_report():
    cfg = parse_config((CONFIG_DIR / "three_ion_xxz.cfg").read_text())
    return cfg, compare_full_vs_effective(cfg)


@pytest.fixture(scope="module")
def spin_one_reports():
    out = {}
    for tag in ("aniso", "iso"):
        cfg = parse_config(
            (CONFIG_DIR / f"two_ion_spin1_{tag}.cfg").read_text())
        out[tag] = compare_full_vs_effective(cfg)
    return out


def test_criterion_1_trap_hoppings():
    t0 = time.perf_counter()
    trap = TrapConfig(n_ions=3, omega_z=120.0 * KHZ, aspect_x=100.0 / 1.8,
                      aspect_y=100.0)
    geo = CrystalGeometry.from_trap(trap)
    got = np.array([geo.t_x[0, 1], geo.t_y[0, 1],
                    geo.t_x[0, 2], geo.t_y[0, 2]]) / KHZ
    quoted = np.array([0.86, 0.48, 0.1, 0.06])
    rel = np.abs(got - quoted) / quoted
    detail = ("nearest/next hoppings kHz = "
              + "/".join(f"{v:.4f}" for v in got)
              + " vs quoted (0.86, 0.48, 0.1, 0.06), "
              + f"max rel dev {rel.max():.3f}")
    _report(1, "trap hopping reproduction", bool(np.all(rel < 0.10)),
            detail, t0, budget=1.0)


def test_criterion_2_closed_form_spectra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        g_x = rng.uniform(5.0, 50.0) * KHZ
        g_y = rng.uniform(5.0, 50.0) * KHZ
        delta = rng.uniform(-3.0, 3.0) * max(g_x, g_y)
        big_delta = rng.uniform(-20.0, 20.0) * KHZ
        drive = make_drive(g_x=g_x, g_y=g_y, delta=delta, Delta=big_delta)
        s1, s2 = single_site_spectra(drive)
        w1, _ = site_sector_eigh(1, big_delta, big_delta, drive)
        closed1 = np.sort([s1.E_minus_x, s1.E_plus_x,
                           s1.E_minus_y, s1.E_plus_y])
        worst = max(worst, np.max(np.abs(np.sort(w1) - closed1)) / g_x)
        w2, _ = site_sector_eigh(2, big_delta, big_delta, drive)
        closed2 = np.sort([s2.E_1, s2.E_0, s2.E_m1])
        worst = max(worst, np.max(np.abs(np.sort(w2)[:3] - closed2)) / g_x)
    detail = f"100 draws, worst |dE|/g_x = {worst:.3e} (tol 1e-12)"
    _report(2, "single-site closed-form spectra", worst < 1e-12, detail, t0,
            budget=1.0)


def test_criterion_3_spin_half_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        g_x = rng.uniform(8.0, 40.0) * KHZ
        g_y = rng.uniform(8.0, 40.0) * KHZ
        ratio = rng.uniform(0.002, 0.05)
        t_x = ratio * min(g_x, g_y) * rng.uniform(0.3, 1.0)
        t_y = ratio * min(g_x, g_y) * rng.uniform(0.3, 1.0)
        drive = make_drive(g_x=g_x, g_y=g_y, delta=0.0, homogeneous=True)
        geo = CrystalGeometry.from_uniform_hoppings(2, t_x, t_y)
        tables = spin_half_general(geo, drive).tables
        kxy_a, kz_a, h_a = spin_half_analytic(g_x, g_y, geo.t_x, geo.t_y)
        worst = max(
            worst,
            abs(tables["K_xy"][0, 1] / kxy_a[0, 1] - 1.0),
            abs(tables["K_z"][0, 1] / kz_a[0, 1] - 1.0),
            abs(tables["H_field"][0] / h_a[0] - 1.0),
        )
    detail = f"50 draws at delta=0, worst rel dev {worst:.3e} (tol 1e-8)"
    _report(3, "spin-1/2 engine vs closed form", worst < 1e-8, detail, t0,
            budget=10.0)


def test_criterion_4_spin_one_closed_forms():
    t0 = time.perf_counter()
    g = 34.0 * KHZ
    t_x, t_y = 0.1 * KHZ, 0.17 * KHZ
    drive = make_drive(g_x=g, g_y=g, delta=0.0, homogeneous=True)
    geo = CrystalGeometry.from_uniform_hoppings(2, t_x, t_y)
    tables = spin_one_general(geo, drive).tables
    targets = {
        "J_xy": (tables["J_xy"][0, 1],
                 -123.0 * math.sqrt(2.0) / 7.0 * t_x * t_y / g),
        "J_z": (tables["J_z"][0, 1],
                -123.0 / (7.0 * math.sqrt(2.0)) * (t_x**2 + t_y**2) / g),
        "B": (tables["B_field"][0],
              -53.0 / (2.0 * math.sqrt(2.0)) * (t_x**2 - t_y**2) / g),
    }
    worst = max(abs(num / ana - 1.0) for num, ana in targets.values())
    parts = ", ".join(
        f"{k} num {num / KHZ:.6e} kHz vs closed {ana / KHZ:.6e} kHz"
        for k, (num, ana) in targets.items()
    )
    detail = f"{parts}; worst rel dev {worst:.3e} (tol 1e-6)"
    _report(4, "spin-1 isotropic closed forms", worst < 1e-6, detail, t0,
            budget=10.0)


def test_criterion_5_three_ion_dynamics(three_ion_report):
    t0 = time.perf_counter()
    _, rep = three_ion_report
    dev = rep.overall_max_deviation
    uud = rep.full.populations[("up", "up", "down")]
    duu = rep.full.populations[("down", "up", "up")]
    mirror = float(np.max(np.abs(uud - duu)))
    peak = float(uud.max())
    # transfer out of the initial product state and back
    oscillates = peak > 0.02 and uud[-1] < 0.8 * peak
    ok = dev <= 0.1 and mirror < 1e-9 and oscillates
    detail = (f"max dev full vs effective {dev:.4f} (tol 0.1), "
              f"peak P(up.up.down) {peak:.4f}, mirror asym {mirror:.2e} "
              f"(tol 1e-9), sector dim {rep.parameters['sector_dim']}")
    _report(5, "three-ion superexchange dynamics", ok, detail, t0,
            budget=60.0)


def test_criterion_6_spin_one_dynamics(spin_one_reports):
    t0 = time.perf_counter()
    details = []
    ok = True
    for tag, rep in spin_one_reports.items():
        dev = rep.overall_max_deviation
        p00 = float(rep.full.populations[("0", "0")].max())
        pm11 = float(rep.full.populations[("-1", "1")].max())
        ok = ok and dev <= 0.1 and p00 > 0.1 and pm11 > 0.5
        details.append(f"{tag}: dev {dev:.4f} (tol 0.1), "
                       f"peaks P(0.0) {p00:.3f} P(-1.1) {pm11:.3f}")
    _report(6, "two-ion spin-1 dynamics", ok, "; ".join(details), t0,
            budget=60.0)


def test_criterion_7_conservation(three_ion_report):
    t0 = time.perf_counter()
    cfg, rep = three_ion_report
    geo = geometry_from_config(cfg)
    drive = cfg.drive

    comm_worst = 0.0
    for basis in (sector_basis_for(3, 1), sector_basis_for(2, 2),
                  enumerate_sector(3, 2)):
        h = build_full(basis, geo if basis.n_sites == 3 else
                       CrystalGeometry.from_uniform_hoppings(
                           2, 0.1 * KHZ, 0.17 * KHZ),
                       drive)
        ops = site_operators(basis.n_total)
        n_op = assemble(basis, [(ops["num_x"] + ops["num_y"] + ops["proj_e1"]
                                 + ops["proj_e2"], (j,))
                                for j in range(basis.n_sites)])
        comm = h.mat @ n_op.mat - n_op.mat @ h.mat
        comm_worst = max(comm_worst,
                         np.max(np.abs(comm.toarray())) if comm.nnz else 0.0)

    norm_drift = max(rep.full.norm_drift, rep.effective.norm_drift)
    energy_drift = max(rep.full.energy_drift, rep.effective.energy_drift)

    basis = sector_basis_for(3, 1)
    times = np.linspace(0.0, 6.0, 30)

    def traces(d):
        h = build_full(basis, geo, d)
        det_x, det_y = local_detunings(geo, d)
        psi0 = dressed_product_state(("up", "down", "up"), d, basis,
                                     det_x, det_y)
        tracked = {
            lab: dressed_product_state(lab, d, basis, det_x, det_y)
            for lab in [("up", "down", "up"), ("down", "up", "up")]
        }
        return evolve(h, psi0, times, tracked).population_matrix()

    shifted = make_drive(g_x=drive.g_x, g_y=drive.g_y, delta=drive.delta,
                         Delta=drive.Delta + 5.0 * KHZ)
    offset_dev = float(np.max(np.abs(traces(drive) - traces(shifted))))

    ok = (comm_worst < 1e-13 and norm_drift < 1e-9
          and energy_drift < 1e-8 and offset_dev < 1e-9)
    detail = (f"max |[H,N]| {comm_worst:.2e} (tol 1e-13), norm drift "
              f"{norm_drift:.2e} (tol 1e-9), energy drift {energy_drift:.2e} "
              f"(tol 1e-8), offset invariance {offset_dev:.2e} (tol 1e-9)")
    _report(7, "conservation suite", ok, detail, t0)


def test_criterion_8_gap_properties():
    t0 = time.perf_counter()
    g = 20.0 * KHZ
    u_iso = particle_hole_gaps(make_drive(g_x=g, g_y=g, delta=0.0))
    iso_err = max(abs(u / g - (2.0 - math.sqrt(2.0))) for u in u_iso)

    deltas = np.linspace(0.0, 100.0 * g, 201)
    u0 = np.array([particle_hole_gaps(make_drive(g_x=g, g_y=g, delta=d))[1]
                   for d in deltas])
    monotone = bool(np.all(np.diff(u0) < 0.0)) and u0[-1] < 1e-2 * g

    u_neg = particle_hole_gaps(make_drive(g_x=g, g_y=g, delta=-100.0 * g))
    linear_err = max(abs(u / (100.0 * g) - 1.0) for u in u_neg)

    ok = iso_err < 1e-10 and monotone and linear_err < 0.05
    detail = (f"isotropic gaps (2-sqrt2)g to {iso_err:.2e} (tol 1e-10); "
              f"U_0 monotone to {u0[-1] / g:.2e} g at delta=+100g; "
              f"U/|delta| off by {linear_err:.3f} at delta=-100g (tol 0.05)")
    _report(8, "particle-hole gap properties", ok, detail, t0)


def test_criterion_9_equilibrium_positions():
    t0 = time.perf_counter()
    u2 = equilibrium_positions(2)
    u3 = equilibrium_positions(3)
    closed_err = max(
        np.max(np.abs(u2 - np.array([-1.0, 1.0]) * 0.25 ** (1.0 / 3.0))),
        np.max(np.abs(u3 - np.array([-1.0, 0.0, 1.0]) * 1.25 ** (1.0 / 3.0))),
    )
    residual = max(np.max(np.abs(force_residual(equilibrium_positions(n))))
                   for n in range(2, 22))
    ok = closed_err < 1e-10 and residual < 1e-12
    detail = (f"N=2,3 closed forms to {closed_err:.2e} (tol 1e-10); "
              f"worst force residual to N=21 {residual:.2e} (tol 1e-12)")
    _report(9, "crystal equilibrium positions", ok, detail, t0)
