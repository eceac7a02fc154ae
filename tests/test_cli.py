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
from jchsim.superexchange import (
    pair_effective_matrix,
    spin_half_general,
    spin_one_general,
)

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


def test_spectrum_isotropic_point(tmp_path):
    cfg = write_cfg(tmp_path, ISO_PAIR)
    out = tmp_path / "o"
    rc = main(["spectrum", "--config", cfg, "--out", str(out),
               "--sweep", "delta_khz:-10:10:5"])
    assert rc == 0
    header, rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 5
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
    # each row holds its point's pair_effective_matrix(0, 1), as written
    # by the one CSV format
    cfg = CONFIG_DIR / "crystal21.cfg"
    out = tmp_path / "o"
    assert main(["couplings", "--config", str(cfg), "--out", str(out),
                 "--sweep", sweep]) == 0
    key, start, stop, n = parse_sweep(sweep)
    raw = parse_config(cfg.read_text()).raw
    expect = [f"{key},K_xy_khz,K_z_khz,lambda"]
    for v in np.linspace(start, stop, n):
        vcfg = config_variant(raw, **{key: float(v)})
        pair = pair_effective_matrix(0, 1, geometry_from_config(vcfg), vcfg.drive)
        kxy, kz = pair.couplings["K_xy"][0], pair.couplings["K_z"][0]
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
    assert main(["couplings", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--sweep", "delta_khz:-1e6:3e6:5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: sweep point delta_khz = 1e+06: "
                          "pair (0, 1): intermediate at"), err


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
    ("delta_khz = 0.0", "delta_khz = 0.0\nDelta_khz = 2e307"),
], ids=["hopping", "detuning"])
def test_exit_code_non_finite_pair_matrix(tmp_path, capsys, command, old, new):
    # finite keys whose second-order matrix overflows: before any output
    cfg = write_cfg(tmp_path, ISO_PAIR.replace(old, new))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert ("numerical failure: pair (0, 1): non-finite"
            in capsys.readouterr().err)
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["spectrum", "couplings"])
@pytest.mark.parametrize("keys, member", [
    ("rabi_x_khz = 1e10\nrabi_y_khz = 160\nld_x = 1e300\nld_y = 0.125\n"
     "delta_khz = 0.0\n", "g_x"),
    ("g_x_khz = 20.0\ng_y_khz = 20.0\ndelta_khz = 1.5e307\n"
     "Delta_khz = 1.5e307\n", "omega0"),
], ids=["laser_product", "detuning_sum"])
@pytest.mark.filterwarnings("ignore:Lamb-Dicke parameter above 0.3")
def test_exit_code_non_finite_drive(tmp_path, capsys, command, keys, member):
    # every key is finite, but g = eta * Omega or omega0 = Delta + delta is not
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


def test_thread_env_var(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("JCHSIM_THREADS", "2")
    cfg = write_cfg(tmp_path, ISO_PAIR)
    assert main(["crystal", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
