import math

import pytest
from hypothesis import given, strategies as st

from jchsim.params import (
    KHZ,
    ConfigError,
    DriveParams,
    TrapConfig,
    make_drive,
    parse_config,
    parse_initial_state,
)


def test_khz_is_angular():
    assert KHZ == pytest.approx(2.0 * math.pi)
    assert 17.25 * KHZ / KHZ == pytest.approx(17.25)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_khz_round_trip(x):
    assert x * KHZ / KHZ == pytest.approx(x, abs=1e-9, rel=1e-12)


def test_trap_frequencies():
    trap = TrapConfig(n_ions=3, omega_z=120.0 * KHZ, aspect_x=100.0 / 1.8,
                      aspect_y=100.0)
    assert trap.omega_z / KHZ == pytest.approx(120.0)
    assert trap.omega_y / trap.omega_z == pytest.approx(100.0)
    assert trap.omega_y / trap.omega_x == pytest.approx(1.8)


@pytest.mark.parametrize("kwargs", [
    dict(n_ions=0, omega_z=1.0, aspect_x=10.0, aspect_y=10.0),
    dict(n_ions=2, omega_z=-1.0, aspect_x=10.0, aspect_y=10.0),
    dict(n_ions=2, omega_z=1.0, aspect_x=0.5, aspect_y=10.0),
    dict(n_ions=2, omega_z=1.0, aspect_x=10.0, aspect_y=1.0),
])
def test_trap_validation(kwargs):
    with pytest.raises(ConfigError):
        TrapConfig(**kwargs)


def test_make_drive_fills_missing_member():
    d = make_drive(g_x=1.0, g_y=1.0, delta=2.0 * KHZ, Delta=1.0 * KHZ)
    assert d.omega0 == pytest.approx(3.0 * KHZ)
    d = make_drive(g_x=1.0, g_y=1.0, omega0=3.0 * KHZ, Delta=1.0 * KHZ)
    assert d.delta == pytest.approx(2.0 * KHZ)
    # delta alone pins the gauge Delta = 0
    d = make_drive(g_x=1.0, g_y=1.0, delta=-0.22 * KHZ)
    assert d.Delta == 0.0
    assert d.omega0 == pytest.approx(-0.22 * KHZ)


def test_drive_consistency_enforced():
    with pytest.raises(ConfigError):
        make_drive(g_x=1.0, g_y=1.0, delta=1.0 * KHZ, Delta=1.0 * KHZ,
                   omega0=3.0 * KHZ)
    with pytest.raises(ConfigError):
        DriveParams(g_x=-1.0, g_y=1.0, delta=0.0, Delta=0.0, omega0=0.0)


UNIFORM = "n_ions = 2\nt_x_khz = 0.1\nt_y_khz = 0.17\ndelta_khz = -0.22\n"
LASER = "rabi_x_khz = 200.0\nrabi_y_khz = 150.0\nld_x = 0.1\nld_y = 0.2\n"
TRAP = "n_ions = 2\nnu_z_khz = 120.0\naspect_x = 50.0\naspect_y = 100.0\n"
GRADIENT = "gradient_b = 1.0\ngradient_mu1 = 1.0\ngradient_mu2 = 1.0\n"


def test_laser_couplings_product():
    cfg = parse_config(UNIFORM + LASER)
    assert cfg.drive.g_x == pytest.approx(0.1 * (200.0 * KHZ))
    assert cfg.drive.g_y == pytest.approx(0.2 * (150.0 * KHZ))


def test_lamb_dicke_warning():
    with pytest.warns(UserWarning):
        parse_config(UNIFORM + LASER.replace("ld_x = 0.1", "ld_x = 0.5"))


def test_lamb_dicke_must_be_positive():
    with pytest.raises(ConfigError, match="Lamb-Dicke parameters must be positive"):
        parse_config(UNIFORM + LASER.replace("ld_y = 0.2", "ld_y = 0.0"))


def test_gradient_couplings_need_mass():
    with pytest.raises(ConfigError, match="missing key: ion_mass_amu"):
        parse_config(TRAP + GRADIENT + "delta_khz = 0\n")
    cfg = parse_config(TRAP + GRADIENT + "delta_khz = 0\nion_mass_amu = 40.0\n")
    # the magnitude of -b mu / sqrt(2 m omega): the sign of g is a gauge
    assert cfg.drive.g_x == pytest.approx(1.0 / math.sqrt(2.0 * 40.0 * cfg.trap.omega_x))
    assert cfg.drive.g_y == pytest.approx(1.0 / math.sqrt(2.0 * 40.0 * cfg.trap.omega_y))


def test_gradient_couplings_need_trap():
    # explicit hoppings build no trap, so there is no omega for the gradient
    with pytest.raises(ConfigError, match="gradient couplings need nu_z_khz, "
                                          "aspect_x and aspect_y"):
        parse_config("n_ions = 2\nt_x_khz = 0.1\nt_y_khz = 0.17\n" + GRADIENT
                     + "ion_mass_amu = 40\ndelta_khz = 0\n")


@pytest.mark.parametrize("b", [-3.0, 3.0])
def test_gradient_couplings_sign_is_a_gauge(b):
    cfg = parse_config(TRAP + f"gradient_b = {b}\ngradient_mu1 = 1.0\n"
                       "gradient_mu2 = -2.0\nion_mass_amu = 40.0\ndelta_khz = 0\n")
    m = 40.0
    assert cfg.drive.g_x == 3.0 / math.sqrt(2.0 * m * cfg.trap.omega_x)
    # at b = 3, b mu2 < 0 and g_y is the signed -b mu2 / sqrt(2 m omega_y)
    assert cfg.drive.g_y == -(3.0 * -2.0) / math.sqrt(2.0 * m * cfg.trap.omega_y)


def test_explicit_couplings_outrank_laser_and_gradient():
    # both derived paths are still checked, but the g_*_khz keys win and the
    # gradient's mass is not needed
    cfg = parse_config(TRAP + LASER + GRADIENT
                       + "g_x_khz = 19\ng_y_khz = 20\ndelta_khz = 0\n")
    assert (cfg.drive.g_x, cfg.drive.g_y) == (19.0 * KHZ, 20.0 * KHZ)
    with pytest.raises(ConfigError, match="missing key: ld_y"):
        parse_config(UNIFORM + LASER.replace("ld_y = 0.2\n", "")
                     + "g_x_khz = 19\ng_y_khz = 20\n")
    with pytest.raises(ConfigError, match="missing key: gradient_mu2"):
        parse_config(TRAP + GRADIENT.replace("gradient_mu2 = 1.0\n", "")
                     + "g_x_khz = 19\ng_y_khz = 20\ndelta_khz = 0\n")
    # the laser keys outrank the gradient ones
    cfg = parse_config(TRAP + LASER + GRADIENT + "delta_khz = 0\n")
    assert cfg.drive.g_x == 0.1 * (200.0 * KHZ)


@pytest.mark.parametrize("text, member", [
    # each key is finite, but g_x = eta * Omega overflows
    (UNIFORM + LASER.replace("ld_x = 0.1", "ld_x = 1e300")
     .replace("rabi_x_khz = 200.0", "rabi_x_khz = 1e10"), "g_x"),
    # omega0 = Delta + delta overflows
    (UNIFORM.replace("delta_khz = -0.22", "delta_khz = 1.5e307")
     + "g_x_khz = 19\ng_y_khz = 20\nDelta_khz = 1.5e307\n", "omega0"),
], ids=["laser_product", "detuning_sum"])
@pytest.mark.filterwarnings("ignore:Lamb-Dicke parameter above 0.3")
def test_drive_refuses_non_finite_member(text, member):
    with pytest.raises(ConfigError, match=f"non-finite drive parameter: {member}"):
        parse_config(text)


def test_drive_params_refuse_nan():
    with pytest.raises(ConfigError, match="non-finite drive parameter: g_y"):
        DriveParams(g_x=1.0, g_y=math.nan, delta=0.0, Delta=0.0, omega0=0.0)


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
    assert cfg.drive.g_x / KHZ == pytest.approx(19.0)
    assert cfg.drive.delta / KHZ == pytest.approx(-0.22)
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
    assert cfg.t_x / KHZ == pytest.approx(0.1)


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
