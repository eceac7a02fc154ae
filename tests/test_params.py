import math

import pytest
from hypothesis import given, strategies as st

from jchsim.params import (
    KHZ,
    ConfigError,
    DriveParams,
    GradientParams,
    LaserParams,
    TrapConfig,
    couplings_from_gradient,
    couplings_from_laser,
    khz,
    make_drive,
    parse_config,
    parse_initial_state,
    to_khz,
)


def test_khz_is_angular():
    assert khz(1.0) == pytest.approx(2.0 * math.pi)
    assert to_khz(khz(17.25)) == pytest.approx(17.25)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_khz_round_trip(x):
    assert to_khz(khz(x)) == pytest.approx(x, abs=1e-9, rel=1e-12)


def test_trap_frequencies():
    trap = TrapConfig(n_ions=3, nu_z=khz(120.0), aspect_x=100.0 / 1.8,
                      aspect_y=100.0)
    assert to_khz(trap.omega_z) == pytest.approx(120.0)
    assert trap.omega_y / trap.omega_z == pytest.approx(100.0)
    assert trap.omega_y / trap.omega_x == pytest.approx(1.8)


@pytest.mark.parametrize("kwargs", [
    dict(n_ions=0, nu_z=1.0, aspect_x=10.0, aspect_y=10.0),
    dict(n_ions=2, nu_z=-1.0, aspect_x=10.0, aspect_y=10.0),
    dict(n_ions=2, nu_z=1.0, aspect_x=0.5, aspect_y=10.0),
    dict(n_ions=2, nu_z=1.0, aspect_x=10.0, aspect_y=1.0),
])
def test_trap_validation(kwargs):
    with pytest.raises(ConfigError):
        TrapConfig(**kwargs)


def test_make_drive_fills_missing_member():
    d = make_drive(g_x=1.0, g_y=1.0, delta=khz(2.0), Delta=khz(1.0))
    assert d.omega0 == pytest.approx(khz(3.0))
    d = make_drive(g_x=1.0, g_y=1.0, omega0=khz(3.0), Delta=khz(1.0))
    assert d.delta == pytest.approx(khz(2.0))
    # delta alone pins the gauge Delta = 0
    d = make_drive(g_x=1.0, g_y=1.0, delta=khz(-0.22))
    assert d.Delta == 0.0
    assert d.omega0 == pytest.approx(khz(-0.22))


def test_drive_consistency_enforced():
    with pytest.raises(ConfigError):
        make_drive(g_x=1.0, g_y=1.0, delta=khz(1.0), Delta=khz(1.0),
                   omega0=khz(3.0))
    with pytest.raises(ConfigError):
        DriveParams(g_x=-1.0, g_y=1.0, delta=0.0, Delta=0.0, omega0=0.0)


def test_laser_couplings_product():
    laser = LaserParams(rabi_x=khz(200.0), rabi_y=khz(150.0), ld_x=0.1,
                        ld_y=0.2)
    g_x, g_y = couplings_from_laser(laser)
    assert g_x == pytest.approx(0.1 * khz(200.0))
    assert g_y == pytest.approx(0.2 * khz(150.0))


def test_lamb_dicke_warning():
    with pytest.warns(UserWarning):
        LaserParams(rabi_x=1.0, rabi_y=1.0, ld_x=0.5, ld_y=0.1)


def test_gradient_couplings_need_mass():
    grad = GradientParams(b=1.0, mu1=1.0, mu2=1.0)
    trap = TrapConfig(n_ions=2, nu_z=khz(120.0), aspect_x=50.0,
                      aspect_y=100.0)
    with pytest.raises(ConfigError):
        couplings_from_gradient(grad, trap)
    trap = TrapConfig(n_ions=2, nu_z=khz(120.0), aspect_x=50.0,
                      aspect_y=100.0, ion_mass_amu=40.0)
    g_x, g_y = couplings_from_gradient(grad, trap)
    assert g_x == pytest.approx(-1.0 / math.sqrt(2.0 * 40.0 * trap.omega_x))
    assert g_y == pytest.approx(-1.0 / math.sqrt(2.0 * 40.0 * trap.omega_y))


CONFIG = """
# comment line
n_ions = 3
nu_z_khz = 120.0
aspect_x: 55.6
aspect_y: 100.0
g_x_khz = 19.0
g_y_khz = 20.0
delta_khz = -0.22
n_excitations = 1
initial_state = up,down,up
"""


def test_parse_config_happy_path():
    cfg = parse_config(CONFIG)
    assert cfg.n_ions == 3
    assert to_khz(cfg.drive.g_x) == pytest.approx(19.0)
    assert to_khz(cfg.drive.delta) == pytest.approx(-0.22)
    assert cfg.run.initial_state == ("up", "down", "up")
    assert cfg.trap is not None and cfg.t_x is None


def test_parse_config_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError):
        parse_config(CONFIG + "\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config(CONFIG + "\nn_ions = 3\n")


def test_parse_config_requires_couplings():
    with pytest.raises(ConfigError):
        parse_config("n_ions = 2\nt_x_khz = 0.1\nt_y_khz = 0.1\n")


def test_parse_config_explicit_t_needs_both():
    with pytest.raises(ConfigError):
        parse_config("n_ions = 2\nt_x_khz = 0.1\ng_x_khz = 1\ng_y_khz = 1\n")


def test_parse_config_explicit_t_skips_trap():
    cfg = parse_config("n_ions = 2\nt_x_khz = 0.1\nt_y_khz = 0.2\n"
                       "g_x_khz = 10\ng_y_khz = 10\ndelta_khz = 0\n")
    assert cfg.trap is None
    assert to_khz(cfg.t_x) == pytest.approx(0.1)


def test_reference_ion_bounds():
    with pytest.raises(ConfigError):
        parse_config(CONFIG + "\nreference_ion = 4\n")
    cfg = parse_config(CONFIG + "\nreference_ion = 2\n")
    assert cfg.drive.reference_ion == 1  # stored 0-based


def test_initial_state_tokens():
    assert parse_initial_state("u,d", 2) == ("up", "down")
    assert parse_initial_state("+1,0,-1", 3) == ("1", "0", "-1")
    with pytest.raises(ConfigError):
        parse_initial_state("up,sideways", 2)
    with pytest.raises(ConfigError):
        parse_initial_state("up,down", 3)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        parse_config(CONFIG + "\nn_excitations = 3\n")
    with pytest.raises(ConfigError):
        parse_config(CONFIG + "\nt_final_ms = -1.0\n")


@pytest.mark.parametrize("key", ["t_final_ms", "g_x_khz", "delta_khz",
                                 "aspect_x", "t_x_khz"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_config_refuses_non_finite(key, value):
    lines = [ln for ln in CONFIG.splitlines() if not ln.startswith(key)]
    extra = "\nt_y_khz = 0.1\n" if key == "t_x_khz" else "\n"
    with pytest.raises(ConfigError, match=f"non-finite value for {key}"):
        parse_config("\n".join(lines) + f"\n{key} = {value}" + extra)


@pytest.mark.parametrize("key", ["delta_khz", "g_y_khz", "nu_z_khz"])
def test_parse_config_refuses_overflowed_conversion(key):
    # 1e308 kHz is a finite float but inf in rad/ms
    lines = [ln for ln in CONFIG.splitlines() if not ln.startswith(key)]
    with pytest.raises(ConfigError, match=f"non-finite value for {key}"):
        parse_config("\n".join(lines) + f"\n{key} = 1e308\n")
