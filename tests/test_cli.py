import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import jchsim
from jchsim import crystal
from jchsim.cli import (
    _COUPLING_HEADER,
    _coupling_rows,
    _write_csv,
    config_variant,
    main,
    parse_sweep,
    write_line_svg,
)
from jchsim.crystal import CrystalGeometry, geometry_from_config
from jchsim.dynamics import CHEBYSHEV_TOL
from jchsim.params import KHZ, ConfigError, TrapConfig, make_drive, parse_config
from jchsim.superexchange import spin_half_general, spin_one_general
from support import one_pair

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


ZERO_HOP = """
n_ions = 2
t_x_khz = 0.0
t_y_khz = 0.0
g_x_khz = 20.0
g_y_khz = 26.0
delta_khz = 0.1
n_excitations = 1
initial_state = up,down
"""

ISO_PAIR = """
n_ions = 2
t_x_khz = 0.1
t_y_khz = 0.1
g_x_khz = 20.0
g_y_khz = 20.0
delta_khz = 0.0
n_excitations = 1
initial_state = up,down
"""


def test_crystal_command(tmp_path):
    out = tmp_path / "o"
    rc = main(["crystal", "--config", str(CONFIG_DIR / "crystal21.cfg"),
               "--out", str(out), "--svg"])
    assert rc == 0
    header, rows = read_csv(out / "crystal.csv")
    assert header[0] == "j"
    assert len(rows) == 21
    positions = [r[header.index("u_j")] for r in rows]
    assert positions == sorted(positions)
    assert positions[10] == pytest.approx(0.0, abs=1e-12)
    dw = [r[header.index("dw_x_khz")] for r in rows]
    # on-site shifts are negative and deepest at the center
    assert all(x < 0.0 for x in dw)
    assert min(dw) == dw[10]
    assert dw[:11] == sorted(dw[:11], reverse=True)  # deeper toward center
    _, pairs = read_csv(out / "crystal_pairs.csv")
    assert len(pairs) == 21 * 20 // 2
    manifest = json.loads((out / "crystal_manifest.json").read_text())
    assert manifest["residuals"]["force_residual"] < 1e-12
    tree = ET.parse(out / "crystal.svg")
    assert tree.getroot().tag.endswith("svg")


def test_crystal_uniform_hoppings_report_no_force_residual(tmp_path):
    # explicit hoppings place the ions on a unit lattice, not at a solved
    # force balance: the manifest has no residual to report
    out = tmp_path / "o"
    assert main(["crystal", "--config", write_cfg(tmp_path, ISO_PAIR),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "crystal_manifest.json").read_text())
    assert manifest["residuals"] == {"force_residual": None}


def test_spectrum_isotropic_point(tmp_path):
    cfg = write_cfg(tmp_path, ISO_PAIR)
    out = tmp_path / "o"
    rc = main(["spectrum", "--config", cfg, "--out", str(out),
               "--sweep", "delta_khz:-10:10:5", "--svg"])
    assert rc == 0
    header, rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 5
    assert len(svg_polylines(out / "spectrum.svg")) == 4
    center = rows[2]
    assert center[header.index("delta_khz")] == 0.0
    assert abs(center[header.index("split_khz")]) < 1e-12
    assert center[header.index("U0_khz")] == pytest.approx(
        (2.0 - math.sqrt(2.0)) * 20.0, rel=1e-10)
    # normalized column is the same gap in units of g_x (both angular)
    assert center[header.index("U0_over_gx")] == pytest.approx(
        2.0 - math.sqrt(2.0), rel=1e-10)


@pytest.mark.parametrize("sweep", [[], ["--sweep", "delta_khz:-5:5:11"]])
def test_spectrum_refuses_zero_g_x(tmp_path, capsys, sweep):
    # every delta would be 0 by default, and each *_over_gx column inf
    cfg = write_cfg(tmp_path, ISO_PAIR.replace("g_x_khz = 20.0", "g_x_khz = 0.0"))
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)] + sweep) == 2
    assert "config error" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_couplings_isotropic_lambda_is_one(tmp_path):
    cfg = write_cfg(tmp_path, ISO_PAIR)
    out = tmp_path / "o"
    rc = main(["couplings", "--config", cfg, "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "couplings_spin_half.csv")
    pair = rows[0]
    assert pair[:2] == [1.0, 2.0]
    k_xy = pair[header.index("Kxy_or_Jxy_khz")]
    k_z = pair[header.index("Kz_or_Jz_khz")]
    assert k_xy == pytest.approx(-9.0 * 0.1 * 0.1 / (16.0 * 20.0), rel=1e-10)
    assert k_z / k_xy == pytest.approx(1.0, rel=1e-10)
    one_header, one_rows = read_csv(out / "couplings_spin_one.csv")
    assert one_header == list(header)
    assert len(one_rows) == len(rows)


def test_couplings_sweep(tmp_path):
    cfg = write_cfg(tmp_path, ISO_PAIR)
    out = tmp_path / "o"
    rc = main(["couplings", "--config", cfg, "--out", str(out),
               "--sweep", "g_y_khz:12:20:3", "--svg"])
    assert rc == 0
    header, rows = read_csv(out / "couplings_sweep.csv")
    assert header[0] == "g_y_khz"
    assert [r[0] for r in rows] == [12.0, 16.0, 20.0]
    lam = [r[header.index("lambda")] for r in rows]
    assert all(math.isfinite(x) for x in lam)
    assert lam[-1] == pytest.approx(1.0, rel=1e-10)
    tree = ET.parse(out / "couplings_sweep.svg")
    assert tree.getroot().tag.endswith("svg")


def test_couplings_sweep_integer_key(tmp_path):
    cfg = str(CONFIG_DIR / "crystal21.cfg")
    out = tmp_path / "o"
    assert main(["couplings", "--config", cfg, "--out", str(out),
                 "--sweep", "n_ions:2:4:3"]) == 0
    header, rows = read_csv(out / "couplings_sweep.csv")
    assert header[0] == "n_ions"
    assert [r[0] for r in rows] == [2.0, 3.0, 4.0]
    # more ions pull the pair closer: stronger coupling
    k_xy = [abs(r[header.index("K_xy_khz")]) for r in rows]
    assert k_xy == sorted(k_xy)


@pytest.mark.parametrize("sweep", ["g_y_khz:12:40:29", "delta_khz:-3:3:7",
                                   "nu_z_khz:100:140:5", "n_ions:2:6:5"])
def test_couplings_sweep_rows_equal_single_pairs(tmp_path, sweep):
    # each row holds its point's pair (0, 1) solved alone, as written by
    # the one CSV format
    cfg = CONFIG_DIR / "crystal21.cfg"
    out = tmp_path / "o"
    assert main(["couplings", "--config", str(cfg), "--out", str(out),
                 "--sweep", sweep]) == 0
    key, start, stop, n = parse_sweep(sweep)
    raw = parse_config(cfg.read_text()).raw
    expect = [f"{key},K_xy_khz,K_z_khz,lambda"]
    for v in np.linspace(start, stop, n):
        vcfg = config_variant(raw, **{key: float(v)})
        _, _, couplings = one_pair(0, 1, geometry_from_config(vcfg), vcfg.drive)
        kxy, kz = couplings["K_xy"][0], couplings["K_z"][0]
        expect.append("%.11e,%.11e,%.11e,%.11e" % (v, kxy / KHZ, kz / KHZ, kz / kxy))
    assert (out / "couplings_sweep.csv").read_text().splitlines() == expect


def test_couplings_sweep_bad_point_writes_nothing(tmp_path, capsys):
    # the middle point asks for 2.5 ions
    out = tmp_path / "o"
    assert main(["couplings", "--config", str(CONFIG_DIR / "crystal21.cfg"),
                 "--out", str(out), "--sweep", "n_ions:2:3:3"]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_couplings_one_ion(tmp_path):
    # one ion has no pair: no couplings, so no closed form to compare with
    cfg = write_cfg(tmp_path, ISO_PAIR.replace("n_ions = 2", "n_ions = 1")
                    .replace("initial_state = up,down\n", ""))
    out = tmp_path / "o"
    assert main(["couplings", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "couplings_spin_half.csv")
    assert [r[:2] for r in rows] == [[1.0, 1.0]]
    residuals = json.loads((out / "couplings_manifest.json").read_text())[
        "residuals"]
    assert not any(key.startswith("analytic_") for key in residuals)


def test_couplings_sweep_to_one_ion_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["couplings", "--config", str(CONFIG_DIR / "crystal21.cfg"),
                 "--out", str(out), "--sweep", "n_ions:1:3:3"]) == 2
    assert "fewer than 2 ions" in capsys.readouterr().err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["crystal", "evolve", "compare"])
def test_sweep_refused_where_unread(tmp_path, command):
    cfg = write_cfg(tmp_path, ISO_PAIR)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"),
              "--sweep", "g_y_khz:12:40:3"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_couplings_zero_hopping_manifest_is_strict_json(tmp_path):
    out = tmp_path / "o"
    assert main(["couplings", "--config",
                 str(CONFIG_DIR / "single_site_spectrum.cfg"),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "couplings_manifest.json").read_text(),
                          parse_constant=refuse_constant)
    # the closed forms are 0, so no relative residual exists
    assert manifest["residuals"]["analytic_K_xy_rel"] is None
    assert manifest["residuals"]["analytic_K_z_rel"] is None


def test_svg_escapes_markup_only(tmp_path):
    path = tmp_path / "t.svg"
    write_line_svg(path, [0.0, 1.0], [("a<b", [0.0, 1.0])], "x & y",
                   "'y' \"z\"", title="t > 0")
    text = path.read_text()
    for escaped in ("a&lt;b", "x &amp; y", "'y' \"z\"", "t &gt; 0"):
        assert escaped in text
    ET.parse(path)


def svg_polylines(path):
    """Each polyline's points as (x, y) pairs."""
    lines = ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}polyline")
    return [[tuple(map(float, pt.split(","))) for pt in line.get("points").split()]
            for line in lines]


def test_svg_breaks_line_at_non_finite_points(tmp_path):
    path = tmp_path / "t.svg"
    write_line_svg(path, [0.0, 1.0, 2.0, 3.0, 4.0],
                   [("a", [0.0, 1.0, math.nan, 2.0, 3.0]),
                    ("b", [3.0, 2.0, 1.0, 0.0, math.inf])], "x", "y", title="t")
    assert "nan" not in path.read_text() and "inf" not in path.read_text()
    a_left, a_right, b_line = svg_polylines(path)
    assert [x for x, _ in a_left] == [72.0, 210.0]
    assert [x for x, _ in a_right] == [486.0, 624.0]
    assert [x for x, _ in b_line] == [72.0, 210.0, 348.0, 486.0]
    # the y range is the finite values' 0..3, padded by 5 %
    assert max(y for line in (a_left, a_right) for _, y in line) == b_line[-1][1]
    assert b_line[-1][1] == pytest.approx(348.0 - 0.05 / 1.1 * 320.0, abs=0.005)
    # a series of finite values stays one line
    write_line_svg(path, [0.0, 1.0], [("a", [0.0, 1.0])], "x", "y", title="t")
    assert len(svg_polylines(path)) == 1


def test_svg_marks_isolated_point(tmp_path):
    # a finite point between two non-finite ones is a dot, not an empty line
    path = tmp_path / "t.svg"
    write_line_svg(path, [0.0, 1.0, 2.0], [("a", [math.nan, 1.0, math.nan])],
                   "x", "y", title="t")
    assert svg_polylines(path) == []
    (dot,) = ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}circle")
    assert (dot.get("cx"), dot.get("cy")) == ("348.00", "333.45")
    assert dot.get("fill") == "#1f77b4"


def test_svg_one_point_x_range(tmp_path):
    # x.min() == x.max(): the x axis spans [x, x + 1], the point is a dot
    path = tmp_path / "t.svg"
    write_line_svg(path, [2.0], [("a", [1.0])], "x", "y", title="t")
    root = ET.parse(path).getroot()
    (dot,) = root.iter("{http://www.w3.org/2000/svg}circle")
    assert (dot.get("cx"), dot.get("cy")) == ("72.00", "333.45")
    ticks = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert ticks[:5] == ["2", "2.25", "2.5", "2.75", "3"]


def test_couplings_sweep_svg_skips_nan_point(tmp_path):
    # lambda = K_z / K_xy is nan at t_y = 0, where K_xy = 0
    out = tmp_path / "o"
    assert main(["couplings", "--config", str(CONFIG_DIR / "anisotropy_scan.cfg"),
                 "--out", str(out), "--sweep", "t_y_khz:0:0.2:3", "--svg"]) == 0
    _, rows = read_csv(out / "couplings_sweep.csv")
    assert math.isnan(rows[0][-1]) and all(math.isfinite(r[-1]) for r in rows[1:])
    assert "nan" not in (out / "couplings_sweep.svg").read_text()
    (line,) = svg_polylines(out / "couplings_sweep.svg")
    assert [x for x, _ in line] == [348.0, 624.0]


TRAP4 = """
n_ions = 4
nu_z_khz = 120.0
aspect_x = 55.555555555555556
aspect_y = 100.0
g_x_khz = 19.0
g_y_khz = 20.0
delta_khz = -0.22
"""


def couplings_csv_bytes(tmp_path, text, name):
    cfg = write_cfg(tmp_path, text, name + ".cfg")
    out = tmp_path / name
    assert main(["couplings", "--config", cfg, "--out", str(out)]) == 0
    return [(out / f).read_bytes()
            for f in ("couplings_spin_half.csv", "couplings_spin_one.csv")]


def test_couplings_from_laser_keys(tmp_path):
    # eta = 1/8 is a power of two, so g = eta * Omega is exactly 19 and 20 kHz
    laser = TRAP4.replace("g_x_khz = 19.0\ng_y_khz = 20.0\n",
                          "rabi_x_khz = 152\nrabi_y_khz = 160\n"
                          "ld_x = 0.125\nld_y = 0.125\n")
    assert laser != TRAP4
    assert (couplings_csv_bytes(tmp_path, laser, "laser")
            == couplings_csv_bytes(tmp_path, TRAP4, "explicit"))


def test_couplings_from_gradient_keys_either_sign(tmp_path):
    # g = |b mu| / sqrt(2 m omega) is about 19 kHz here; the sign of b mu is a
    # gauge, so both signs give the same tables
    tables = []
    for b in ("1e5", "-1e5"):
        text = TRAP4.replace("g_x_khz = 19.0\ng_y_khz = 20.0\n",
                             f"gradient_b = {b}\ngradient_mu1 = 2.2\n"
                             "gradient_mu2 = 3.0\nion_mass_amu = 40\n")
        tables.append(couplings_csv_bytes(tmp_path, text, "b" + b))
    assert tables[0] == tables[1]
    header, rows = read_csv(tmp_path / "b1e5" / "couplings_spin_half.csv")
    assert rows[0][header.index("Kxy_or_Jxy_khz")] < 0.0


def test_couplings_homogeneous_switch(tmp_path):
    # the config key reaches the detunings through the drive alone
    names = ("couplings_spin_half.csv", "couplings_spin_one.csv")
    geo = CrystalGeometry.from_trap(TrapConfig(4, 120.0 * KHZ,
                                               55.555555555555556, 100.0))
    drive = make_drive(g_x=19.0 * KHZ, g_y=20.0 * KHZ, delta=-0.22 * KHZ,
                       homogeneous=True)
    _write_csv(tmp_path / names[0], _COUPLING_HEADER,
               _coupling_rows(spin_half_general(geo, drive)))
    _write_csv(tmp_path / names[1], _COUPLING_HEADER,
               _coupling_rows(spin_one_general(geo, drive)))
    tables = {}
    for flag in ("true", "false"):
        cfg = write_cfg(tmp_path, TRAP4 + f"homogeneous = {flag}\n",
                        flag + ".cfg")
        out = tmp_path / flag
        assert main(["couplings", "--config", cfg, "--out", str(out)]) == 0
        tables[flag] = [(out / name).read_bytes() for name in names]
    assert tables["true"] == [(tmp_path / name).read_bytes() for name in names]
    for hom, inh in zip(tables["true"], tables["false"]):
        assert hom != inh


def test_evolve_zero_hopping_static(tmp_path):
    cfg = write_cfg(tmp_path, ZERO_HOP)
    out = tmp_path / "o"
    rc = main(["evolve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "evolution.csv")
    i_init = header.index("P_up.down")
    assert all(r[i_init] == pytest.approx(1.0, abs=1e-10) for r in rows)
    manifest = json.loads((out / "evolve_manifest.json").read_text())
    assert manifest["residuals"]["norm_drift"] < 1e-9
    # two sites sharing two excitations: 1*7 + 4*4 + 7*1 site splittings
    assert manifest["residuals"]["sector_dim"] == 30
    # propagated in the N_X = 1 block: 3 + 3 states with both on one site,
    # 2*2 + 2*2 with one each
    assert manifest["residuals"]["block_dim"] == 14
    assert manifest["residuals"]["method"] == "dense"
    # no row is its own reflection: X = 1 cannot split evenly over two sites
    assert manifest["residuals"]["blocks"] == [7, 7]
    assert manifest["residuals"]["products"] == 0
    assert manifest["residuals"]["truncation_bound"] == 0.0


N5_EVOLVE = """
n_ions = 5
t_x_khz = 0.1
t_y_khz = 0.17
g_x_khz = 19.0
g_y_khz = 20.0
delta_khz = -0.22
n_excitations = 1
initial_state = up,down,up,down,up
t_final_ms = 0.01
n_steps = 5
"""


def test_evolve_manifest_reports_chebyshev_budget(tmp_path):
    cfg = write_cfg(tmp_path, N5_EVOLVE)
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    residuals = json.loads((out / "evolve_manifest.json").read_text())[
        "residuals"]
    assert residuals["block_dim"] == 6735
    assert residuals["method"] == "chebyshev"
    assert residuals["blocks"] == []
    # four intervals, each cut where its tail falls below CHEBYSHEV_TOL
    assert residuals["products"] > 0
    assert 0.0 < residuals["truncation_bound"] <= 4 * CHEBYSHEV_TOL
    assert residuals["norm_drift"] < 1e-9


def test_compare_command(tmp_path):
    out = tmp_path / "o"
    rc = main(["compare", "--config",
               str(CONFIG_DIR / "anisotropy_scan.cfg"),
               "--out", str(out), "--svg"])
    assert rc == 0
    for name in ("compare_full.csv", "compare_effective.csv",
                 "compare_report.txt", "compare.svg",
                 "compare_manifest.json"):
        assert (out / name).exists()
    report = (out / "compare_report.txt").read_text()
    dev = float(report.splitlines()[0].split("=")[1])
    assert "parameters.blocks = full (7, 7), effective (1, 1)\n" in report
    assert dev < 0.1
    manifest = json.loads((out / "compare_manifest.json").read_text())
    assert manifest["residuals"]["overall_max_deviation"] == pytest.approx(
        dev, abs=5e-7)
    for key, value in (("full_block_dim", 14), ("full_method", "dense"),
                       ("effective_block_dim", 2),
                       ("effective_method", "dense"), ("full_products", 0),
                       ("full_blocks", [7, 7]), ("effective_blocks", [1, 1]),
                       ("full_truncation_bound", 0.0),
                       ("effective_products", 0),
                       ("effective_truncation_bound", 0.0)):
        assert manifest["residuals"][key] == value


def test_outputs_are_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, ISO_PAIR)
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["couplings", "--config", cfg, "--out", str(out)]) == 0
        blobs.append((out / "couplings_spin_half.csv").read_bytes()
                     + (out / "couplings_spin_one.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_exit_code_config_errors(tmp_path, capsys):
    assert main(["crystal", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)]) == 2
    bad = write_cfg(tmp_path, ISO_PAIR + "\nbogus = 1\n", "bad.cfg")
    assert main(["crystal", "--config", bad, "--out", str(tmp_path)]) == 2
    cfg = write_cfg(tmp_path, ISO_PAIR)
    assert main(["couplings", "--config", cfg, "--out", str(tmp_path),
                 "--sweep", "g_y_khz:12"]) == 2
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                 "--sweep", "g_x_khz:1:2:3"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_exit_code_dim_cap_below_one(tmp_path, capsys, command):
    # refused as the config is read: no geometry, no basis count, no output
    cfg = write_cfg(tmp_path, ISO_PAIR + "dim_cap = -3\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: dim_cap must be a positive integer\n")
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_exit_code_unwritable_out(tmp_path, capsys, sub):
    # --out names a regular file, or a directory below one
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["crystal", "--config", str(CONFIG_DIR / "three_ion_xxz.cfg"),
               "--out", str(blocker / sub)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output error: ")


def test_evolve_rejects_labels_outside_manifold(tmp_path, capsys):
    # spin-1/2 labels on a two-excitation run, default horizon
    cfg = write_cfg(tmp_path, ISO_PAIR.replace("n_excitations = 1",
                                               "n_excitations = 2"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


GRADIENT_MASS_0 = TRAP4.replace("g_x_khz = 19.0\ng_y_khz = 20.0\n",
                                "gradient_b = 1e5\ngradient_mu1 = 2.2\n"
                                "gradient_mu2 = 3.0\nion_mass_amu = 0\n")
NO_INITIAL_STATE = ISO_PAIR.replace("initial_state = up,down\n", "")


@pytest.mark.parametrize("command, text, error", [
    ("couplings", GRADIENT_MASS_0, "ion_mass_amu must be positive"),
    ("evolve", ISO_PAIR.replace("n_excitations = 1", "n_excitations = 3"),
     "n_excitations must be 1 (spin-1/2) or 2 (spin-1)"),
    ("evolve", ISO_PAIR + "n_steps = 1\n", "n_steps must be at least 2"),
    ("couplings", ISO_PAIR + "homogeneous = maybe\n",
     "bad value for homogeneous: 'maybe'"),
    ("crystal", "n_ions 2\n", "line 1: expected 'key = value', got 'n_ions 2'"),
    ("crystal", ISO_PAIR.replace("n_ions = 2", "n_ions = 0"),
     "n_ions must be a positive integer"),
    ("evolve", NO_INITIAL_STATE,
     "no initial state given (config key initial_state)"),
    ("compare", NO_INITIAL_STATE,
     "no initial state given (config key initial_state)"),
], ids=["ion_mass", "n_excitations", "n_steps", "homogeneous", "separator",
        "n_ions", "evolve_initial_state", "compare_initial_state"])
def test_exit_code_refused_configs(tmp_path, capsys, command, text, error):
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not out.exists() or not any(out.iterdir())


def test_exit_code_crystal_not_converged(tmp_path, capsys, monkeypatch):
    # one Newton step leaves the three-ion force balance unsolved
    monkeypatch.setattr(crystal, "MAX_NEWTON_ITER", 1)
    crystal.equilibrium_positions.cache_clear()
    out = tmp_path / "o"
    try:
        code = main(["crystal", "--config", str(CONFIG_DIR / "three_ion_xxz.cfg"),
                     "--out", str(out)])
    finally:
        crystal.equilibrium_positions.cache_clear()
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: Newton did not converge (residual 6.975e-01)\n")
    assert not any(out.iterdir())


def test_exit_code_numerical_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
n_ions = 2
t_x_khz = 0.1
t_y_khz = 0.17
g_x_khz = 34.0
g_y_khz = 34.0
delta_khz = 34000000.0
n_excitations = 1
""")
    assert main(["couplings", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_sweep_names_first_failing_point(tmp_path, capsys):
    # the base config is fine; far above the dressed doublets, from
    # delta = 1e6 kHz on, an intermediate is resonant with the pair, so
    # the last three of the five points fail
    cfg = write_cfg(tmp_path, ISO_PAIR.replace("20.0", "34.0"))
    assert main(["couplings", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    out = tmp_path / "sweep"
    assert main(["couplings", "--config", cfg, "--out", str(out),
                 "--sweep", "delta_khz:-1e6:3e6:5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: sweep point delta_khz = 1e+06: "
                          "pair (0, 1): intermediate at"), err
    assert not any(out.iterdir())


@pytest.mark.parametrize("t_x, sweep, point", [
    ("0.1", ["--sweep", "t_x_khz:0.1:2e307:3"], "sweep point t_x_khz = 2e+307: "),
    ("2e307", [], ""),
], ids=["sweep", "single"])
def test_overflowing_shifts_are_config_errors(tmp_path, capsys, t_x, sweep, point):
    # finite hoppings whose row sums, the on-site shifts, overflow; at the
    # sweep's middle point, 1e307 kHz, they do not
    text = ISO_PAIR.replace("20.0", "34.0").replace("t_y_khz = 0.1", "t_y_khz = 0.17")
    cfg = write_cfg(tmp_path, text.replace("t_x_khz = 0.1", f"t_x_khz = {t_x}"))
    out = tmp_path / "o"
    assert main(["couplings", "--config", cfg, "--out", str(out)] + sweep) == 2
    assert capsys.readouterr().err == (
        f"config error: {point}non-finite hoppings or on-site shifts from "
        "t_x_khz, t_y_khz\n")
    assert not any(out.iterdir())


NU_Z = "nu_z_khz = 120.0"


@pytest.mark.parametrize("command, edits, sweep, error", [
    ("crystal", {NU_Z: "nu_z_khz = 1e154"}, [],
     "non-finite hoppings or on-site shifts from nu_z_khz"),
    ("couplings", {NU_Z: "nu_z_khz = 1e154"}, [],
     "non-finite hoppings or on-site shifts from nu_z_khz"),
    ("couplings", {NU_Z: "nu_z_khz = 1e150",
                   "aspect_x = 55.555555555555556": "aspect_x = 1e160",
                   "aspect_y = 100.0": "aspect_y = 1e160"}, [],
     "non-finite omega_x from nu_z_khz, aspect_x"),
    ("couplings", {}, ["--sweep", "nu_z_khz:100:1e160:3"],
     "sweep point nu_z_khz = 5e+159: non-finite hoppings or on-site shifts "
     "from nu_z_khz"),
    ("crystal", {NU_Z: "nu_z_khz = 1e153"}, [], None),
    ("couplings", {NU_Z: "nu_z_khz = 1e153"}, [], None),
], ids=["crystal", "couplings", "radial", "sweep", "crystal-finite",
        "couplings-finite"])
def test_overflowing_trap_keys_are_config_errors(tmp_path, capsys, command,
                                                 edits, sweep, error):
    # omega_z^2 overflows from nu_z_khz = 1e154, where a float's ** raises
    # OverflowError; an infinite omega_x or omega_y gives zero hoppings
    text = (CONFIG_DIR / "three_ion_xxz.cfg").read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    out = tmp_path / "o"
    code = main([command, "--config", write_cfg(tmp_path, text),
                 "--out", str(out)] + sweep)
    err = capsys.readouterr().err
    if error is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, f"config error: {error}\n")
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("line", ["t_final_ms = nan", "g_x_khz = inf"])
def test_exit_code_non_finite_config(tmp_path, capsys, line):
    key = line.split()[0]
    text = "\n".join(ln for ln in ISO_PAIR.splitlines()
                     if not ln.startswith(key)) + f"\n{line}\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
    assert f"non-finite value for {key}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_exit_code_non_finite_sweep_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ISO_PAIR)
    out = tmp_path / "o"
    for sweep in ("g_y_khz:nan:40:3", "g_y_khz:12:inf:3"):
        assert main(["couplings", "--config", cfg, "--out", str(out),
                     "--sweep", sweep]) == 2
        assert "sweep bounds must be finite" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["couplings", "evolve", "compare"])
@pytest.mark.parametrize("old, new", [
    ("t_x_khz = 0.1\nt_y_khz = 0.1", "t_x_khz = 1e307\nt_y_khz = 1e307"),
    ("delta_khz = 0.0", "delta_khz = -2e307"),
], ids=["hopping", "detuning"])
def test_exit_code_non_finite_pair_matrix(tmp_path, capsys, command, old, new):
    # finite keys whose second-order matrix, or pair energy 2 delta,
    # overflows: before any output
    cfg = write_cfg(tmp_path, ISO_PAIR.replace(old, new))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert ("numerical failure: pair (0, 1): non-finite"
            in capsys.readouterr().err)
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["couplings", "evolve", "compare"])
def test_huge_common_detuning_runs(tmp_path, command):
    # Delta_khz = 2e307 only offsets each sector by Delta N: every output
    # byte equals its Delta = 0 twin's
    outs = []
    for extra in ("", "Delta_khz = 2e307\n"):
        out = tmp_path / f"o{len(outs)}"
        cfg = write_cfg(tmp_path, ISO_PAIR + extra, name=f"{len(outs)}.cfg")
        assert main([command, "--config", cfg, "--out", str(out), "--svg"]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()
                     if not p.name.endswith(".json")})
    assert outs[0] == outs[1] and len(outs[0]) >= 2


@pytest.mark.parametrize("command", ["spectrum", "couplings"])
@pytest.mark.parametrize("keys, member", [
    ("rabi_x_khz = 1e10\nrabi_y_khz = 160\nld_x = 1e300\nld_y = 0.125\n"
     "delta_khz = 0.0\n", "g_x"),
    ("g_x_khz = 20.0\ng_y_khz = 20.0\nomega0_khz = 1.5e307\n"
     "Delta_khz = -1.5e307\n", "delta"),
], ids=["laser_product", "detuning_sum"])
@pytest.mark.filterwarnings("ignore:Lamb-Dicke parameter above 0.3")
def test_exit_code_non_finite_drive(tmp_path, capsys, command, keys, member):
    # every key is finite, but g = eta * Omega or delta = omega0 - Delta is not
    cfg = write_cfg(tmp_path, "n_ions = 2\nt_x_khz = 0.1\nt_y_khz = 0.1\n" + keys)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert (f"config error: non-finite drive parameter: {member}"
            in capsys.readouterr().err)
    assert not out.exists() or not any(out.iterdir())


def test_exit_code_eigh_failure(tmp_path, monkeypatch, capsys):
    # what np.linalg.eigh raises when LAPACK does not converge
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        np.linalg.eigh(np.full((3, 3), np.nan))

    eigh = np.linalg.eigh

    def fail_in_dynamics(a):
        # the site and pair solvers of jchv and superexchange still run
        if sys._getframe(1).f_globals["__name__"] != "jchsim.dynamics":
            return eigh(a)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail_in_dynamics)
    cfg = write_cfg(tmp_path, ISO_PAIR + "t_final_ms = 1.0\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_exit_code_overflowing_horizon(tmp_path, capsys, command):
    # finite, but t times the spectral bound overflows every phase
    text = (CONFIG_DIR / "anisotropy_scan.cfg").read_text()
    cfg = write_cfg(tmp_path, text + "t_final_ms = 1e307\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert "overflow" in capsys.readouterr().err
    assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_exit_code_phase_rounding_horizon(tmp_path, capsys, command):
    # finite phases, but rounded to 1.9e-4 rad at 1e9 ms: refused, where
    # populations used to read 0.356 or 0.355 by the rounding alone
    text = (CONFIG_DIR / "two_ion_spin1_iso.cfg").read_text()
    cfg = write_cfg(tmp_path, text + "t_final_ms = 1e9\nn_steps = 2\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "are rounded to 0.000191 rad, above the limit of 1e-06 rad" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["evolve", "--config", "big_grid.cfg"],
    ["couplings", "--config", "anisotropy_scan.cfg",
     "--sweep", "g_y_khz:12:40:10000000000000000"],
    ["spectrum", "--config", "anisotropy_scan.cfg",
     "--sweep", "delta_khz:-1:1:10000000000000000"],
], ids=["n_steps", "couplings_sweep", "spectrum_sweep"])
def test_exit_code_out_of_memory(tmp_path, capsys, argv):
    # 1e16 grid points: more than any address space holds, so the
    # allocation fails at once
    text = (CONFIG_DIR / "anisotropy_scan.cfg").read_text()
    write_cfg(tmp_path, text, "anisotropy_scan.cfg")
    write_cfg(tmp_path, text + "n_steps = 10000000000000000\n", "big_grid.cfg")
    argv[2] = str(tmp_path / argv[2])
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert not any(out.iterdir())


RESONANT_PAIR = """
n_ions = 2
t_x_khz = 0.1
t_y_khz = 0.17
g_x_khz = 34
g_y_khz = 34
delta_khz = 34e6
n_excitations = 1
initial_state = up,down
n_steps = 5
"""


def test_resonant_drive_evolves_over_explicit_horizon(tmp_path, capsys,
                                                      monkeypatch):
    # a coupled intermediate is resonant, so the spin model fails; evolve
    # reads it only for the default horizon, and compare always
    from jchsim import dynamics

    built = []
    for name in ("spin_half_general", "spin_one_general"):
        build = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name,
                            lambda *a, build=build: built.append(1) or build(*a))
    with_t = write_cfg(tmp_path, RESONANT_PAIR + "t_final_ms = 1\n", "t.cfg")
    without_t = write_cfg(tmp_path, RESONANT_PAIR, "no_t.cfg")
    out = tmp_path / "o"
    assert main(["evolve", "--config", with_t, "--out", str(out)]) == 0
    assert built == []
    manifest = json.loads((out / "evolve_manifest.json").read_text())
    assert manifest["residuals"]["norm_drift"] < 1e-14
    for command, cfg in (("evolve", without_t), ("compare", with_t)):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 3
        assert "intermediate at E=" in capsys.readouterr().err
    assert built == [1, 1]


def test_program_never_loads_scipy_linalg(tmp_path):
    # scipy.linalg's LAPACK/BLAS extension modules cost about 8 MB of RSS and
    # a tenth of start-up; tests may use it as a reference, the program not
    cfg = write_cfg(tmp_path, ISO_PAIR + "t_final_ms = 1.0\nn_steps = 5\n")
    code = (
        "import sys\n"
        "import jchsim.cli, jchsim.dynamics\n"
        "for cmd in ('compare', 'evolve'):\n"
        f"    assert jchsim.cli.main([cmd, '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    src = str(Path(jchsim.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_manifest_structure(tmp_path):
    cfg = write_cfg(tmp_path, ISO_PAIR)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "spectrum_manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["version"] == jchsim.__version__
    assert manifest["config"]["g_x_khz"] == "20.0"
    for path in manifest["outputs"]:
        assert Path(path).exists()


def test_parse_sweep_grammar():
    assert parse_sweep("g_y_khz:1:2:5") == ("g_y_khz", 1.0, 2.0, 5)
    with pytest.raises(ConfigError):
        parse_sweep("g_y_khz:1:2:1")
    with pytest.raises(ConfigError):
        parse_sweep("g_y_khz:1:2:2.5")
    with pytest.raises(ConfigError, match="finite"):
        parse_sweep("g_y_khz:-inf:2:3")
