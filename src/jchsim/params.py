"""Configuration parsing, validation and unit conversion.

Internal unit system: hbar = 1, every energy/frequency is an angular
frequency in rad/ms, time is in ms. Configuration files quote linear
frequencies in kHz (the usual way trap parameters are reported), so the
conversion is a factor of 2*pi: 1 kHz <-> 2*pi rad/ms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .fock import DEFAULT_DIM_CAP

KHZ = 2.0 * math.pi  # rad/ms per linear kHz


class ConfigError(ValueError):
    """Invalid or incomplete configuration."""


@dataclass(frozen=True)
class TrapConfig:
    """Linear Paul trap: axial frequency and radial aspect ratios.

    omega_z is angular (rad/ms); aspect_x = omega_x/omega_z and
    aspect_y = omega_y/omega_z are dimensionless and must exceed 1 so the
    crystal stays linear.
    """

    n_ions: int
    omega_z: float
    aspect_x: float
    aspect_y: float
    ion_mass_amu: float | None = None

    def __post_init__(self):
        if self.n_ions < 1:
            raise ConfigError("n_ions must be a positive integer")
        if self.omega_z <= 0:
            raise ConfigError("non-positive frequency: nu_z")
        if self.aspect_x <= 1 or self.aspect_y <= 1:
            raise ConfigError("aspect ratio <= 1: radial confinement must dominate")
        if self.ion_mass_amu is not None and self.ion_mass_amu <= 0:
            raise ConfigError("ion_mass_amu must be positive")
        for axis in ("x", "y"):  # an infinite one gives zero hoppings
            if not math.isfinite(getattr(self, f"omega_{axis}")):
                raise ConfigError(f"non-finite omega_{axis} from nu_z_khz, aspect_{axis}")

    @property
    def omega_x(self):
        return self.aspect_x * self.omega_z

    @property
    def omega_y(self):
        return self.aspect_y * self.omega_z


@dataclass(frozen=True)
class DriveParams:
    """Spin-phonon couplings and detuning delta = omega0 - Delta (rad/ms).

    A common phonon detuning Delta only adds Delta N to a sector of N
    excitations, so the frame is fixed at Delta = 0. reference_ion and
    homogeneous fix the per-site phonon detunings (crystal.local_detunings).
    """

    g_x: float
    g_y: float
    delta: float
    reference_ion: int = 0  # 0-based site index fixing the homogeneous shift
    homogeneous: bool = False  # drop the site dependence of the detunings

    def __post_init__(self):
        if self.g_x < 0 or self.g_y < 0:
            raise ConfigError("couplings g_x, g_y must be >= 0")
        # finite config keys can still overflow in a product (g = eta * Omega)
        # or a difference (delta = omega0 - Delta)
        for name in ("g_x", "g_y", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"non-finite drive parameter: {name}")


def make_drive(g_x, g_y, delta=None, Delta=None, omega0=None, reference_ion=0,
               homogeneous=False):
    """DriveParams from delta or omega0 - Delta, which must agree if both are given."""
    if Delta is not None and omega0 is not None:
        implied = omega0 - Delta
        if delta is None:
            delta = implied
        elif abs(delta - implied) > 1e-9 * max(1.0, abs(omega0), abs(Delta)):
            raise ConfigError("inconsistent detunings: delta != omega0 - Delta")
    if delta is None:
        raise ConfigError("missing key: need delta (or Delta and omega0)")
    return DriveParams(g_x, g_y, delta, reference_ion, homogeneous)


@dataclass(frozen=True)
class RunConfig:
    """Time-evolution request: sector filling, grid and initial product state."""

    n_excitations: int = 1  # per-site filling: 1 -> spin-1/2, 2 -> spin-1
    t_final_ms: float | None = None  # None -> auto from the effective couplings
    n_steps: int = 400
    initial_state: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_excitations not in (1, 2):
            raise ConfigError("n_excitations must be 1 (spin-1/2) or 2 (spin-1)")
        if self.t_final_ms is not None and self.t_final_ms <= 0:
            raise ConfigError("non-positive t_final_ms")
        if self.n_steps < 2:
            raise ConfigError("n_steps must be at least 2")


@dataclass(frozen=True)
class SimConfig:
    """Parsed configuration bundle consumed by the CLI front-end."""

    n_ions: int
    drive: DriveParams
    run: RunConfig
    trap: TrapConfig | None = None
    t_x: float | None = None  # explicit uniform-lattice hopping override (angular)
    t_y: float | None = None
    dim_cap: int = DEFAULT_DIM_CAP  # bounds the allocated basis: a run's N_X block
    raw: dict = field(default_factory=dict)


_KNOWN_KEYS = {
    "n_ions",
    "nu_z_khz",
    "aspect_x",
    "aspect_y",
    "ion_mass_amu",
    "g_x_khz",
    "g_y_khz",
    "delta_khz",
    "Delta_khz",
    "omega0_khz",
    "reference_ion",
    "n_excitations",
    "t_final_ms",
    "n_steps",
    "initial_state",
    "t_x_khz",
    "t_y_khz",
    "homogeneous",
    "dim_cap",
    "rabi_x_khz",
    "rabi_y_khz",
    "ld_x",
    "ld_y",
    "gradient_b",
    "gradient_mu1",
    "gradient_mu2",
}

_SPIN_TOKENS = {
    "up": "up",
    "u": "up",
    "down": "down",
    "d": "down",
    "+1": "1",
    "1": "1",
    "0": "0",
    "-1": "-1",
}


def _parse_kv(text):
    """Flat key-value lines: 'key = value' or 'key: value', '#' comments."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        for sep in ("=", ":"):
            if sep in stripped:
                key, _, val = stripped.partition(sep)
                break
        else:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, val = key.strip(), val.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key: {key}")
        if key in out:
            raise ConfigError(f"duplicate key: {key}")
        out[key] = val
    return out


def _get(raw, key, conv, default=None, required=False):
    if key not in raw:
        if required:
            raise ConfigError(f"missing key: {key}")
        return default
    try:
        value = conv(raw[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw[key]!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"non-finite value for {key}: {raw[key]!r}")
    return value


def _khz(s):
    """A *_khz value in rad/ms; _get refuses one that overflows to inf."""
    return KHZ * float(s)


def _bool(s):
    low = s.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(s)


def parse_initial_state(s, n_ions):
    """Comma-separated spin labels, e.g. 'up,down,up' or '1,-1'."""
    tokens = [tok.strip() for tok in s.split(",")]
    if len(tokens) != n_ions:
        raise ConfigError(
            f"initial_state has {len(tokens)} labels for {n_ions} ions"
        )
    labels = []
    for tok in tokens:
        if tok not in _SPIN_TOKENS:
            raise ConfigError(f"unknown spin label: {tok!r}")
        labels.append(_SPIN_TOKENS[tok])
    return tuple(labels)


def parse_config(text) -> SimConfig:
    """Parse and validate a flat key-value configuration document.

    All *_khz entries are converted to internal angular units. Couplings
    may be given directly (g_x_khz/g_y_khz) or derived from laser
    parameters (rabi_*_khz with ld_*) or a field gradient (gradient_* with
    ion_mass_amu). Hoppings normally come from the trap geometry;
    t_x_khz/t_y_khz override them on a uniform lattice.
    """
    raw = _parse_kv(text)
    n_ions = _get(raw, "n_ions", int, required=True)
    if n_ions < 1:
        raise ConfigError("n_ions must be a positive integer")

    explicit_t = "t_x_khz" in raw or "t_y_khz" in raw
    if explicit_t and not ("t_x_khz" in raw and "t_y_khz" in raw):
        raise ConfigError("missing key: explicit hoppings need both t_x_khz and t_y_khz")

    trap = None
    if "nu_z_khz" in raw or not explicit_t:
        trap = TrapConfig(
            n_ions=n_ions,
            omega_z=_get(raw, "nu_z_khz", _khz, required=True),
            aspect_x=_get(raw, "aspect_x", float, required=True),
            aspect_y=_get(raw, "aspect_y", float, required=True),
            ion_mass_amu=_get(raw, "ion_mass_amu", float),
        )

    g = None  # (g_x, g_y); g_*_khz outrank the laser keys, which outrank the gradient
    if any(k in raw for k in ("rabi_x_khz", "rabi_y_khz", "ld_x", "ld_y")):
        rabi_x = _get(raw, "rabi_x_khz", _khz, required=True)
        rabi_y = _get(raw, "rabi_y_khz", _khz, required=True)
        ld_x = _get(raw, "ld_x", float, required=True)
        ld_y = _get(raw, "ld_y", float, required=True)
        if ld_x <= 0 or ld_y <= 0:
            raise ConfigError("Lamb-Dicke parameters must be positive")
        if max(ld_x, ld_y) > 0.3:
            warnings.warn(
                "Lamb-Dicke parameter above 0.3: expansion accuracy degrades",
                stacklevel=2,
            )
        g = ld_x * rabi_x, ld_y * rabi_y  # g = eta * Omega

    gradient = None
    if any(k in raw for k in ("gradient_b", "gradient_mu1", "gradient_mu2")):
        gradient = [_get(raw, k, float, required=True)
                    for k in ("gradient_b", "gradient_mu1", "gradient_mu2")]

    if "g_x_khz" in raw or "g_y_khz" in raw:
        g = (_get(raw, "g_x_khz", _khz, required=True),
             _get(raw, "g_y_khz", _khz, required=True))
    elif g is None and gradient is not None:
        if trap is None:
            raise ConfigError("gradient couplings need nu_z_khz, aspect_x and aspect_y")
        if trap.ion_mass_amu is None:
            raise ConfigError("missing key: ion_mass_amu (needed for gradient couplings)")
        # g = |b mu| / sqrt(2 m omega): flipping |e> -> -|e> flips the sign of
        # g and commutes with H_b, so the sign is a gauge. Inputs are taken in
        # one consistent unit system; only the scaling (linear in b,
        # omega^-1/2) is contractual.
        b, mu1, mu2 = gradient
        g = (abs(b * mu1) / math.sqrt(2.0 * trap.ion_mass_amu * trap.omega_x),
             abs(b * mu2) / math.sqrt(2.0 * trap.ion_mass_amu * trap.omega_y))
    elif g is None:
        raise ConfigError("missing key: g_x_khz/g_y_khz (or laser/gradient parameters)")

    reference_ion = _get(raw, "reference_ion", int, default=1)
    if not 1 <= reference_ion <= n_ions:
        raise ConfigError(f"reference_ion out of range 1..{n_ions}")

    drive = make_drive(
        *g,
        delta=_get(raw, "delta_khz", _khz),
        Delta=_get(raw, "Delta_khz", _khz),
        omega0=_get(raw, "omega0_khz", _khz),
        reference_ion=reference_ion - 1,
        homogeneous=_get(raw, "homogeneous", _bool, default=False),
    )

    dim_cap = _get(raw, "dim_cap", int, default=DEFAULT_DIM_CAP)
    if dim_cap < 1:
        raise ConfigError("dim_cap must be a positive integer")

    initial = _get(raw, "initial_state", str)
    run = RunConfig(
        n_excitations=_get(raw, "n_excitations", int, default=1),
        t_final_ms=_get(raw, "t_final_ms", float),
        n_steps=_get(raw, "n_steps", int, default=400),
        initial_state=None if initial is None else parse_initial_state(initial, n_ions),
    )

    return SimConfig(
        n_ions=n_ions,
        drive=drive,
        run=run,
        trap=trap,
        t_x=None if not explicit_t else _get(raw, "t_x_khz", _khz, required=True),
        t_y=None if not explicit_t else _get(raw, "t_y_khz", _khz, required=True),
        dim_cap=dim_cap,
        raw=raw,
    )
