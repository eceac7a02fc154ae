"""Linear-crystal geometry: equilibrium positions, hoppings, on-site shifts.

Positions are dimensionless, in units of the characteristic length
l = (e^2 / (m omega_z^2))^(1/3) (Gaussian convention), so the hopping
amplitudes need only frequency ratios:

    t_{j,k}^beta = (omega_z^2 / (2 omega_beta)) |u_j - u_k|^-3.

The on-site phonon frequency shifts are delta_omega_{beta,j} =
-sum_{k != j} t_{j,k}^beta, i.e. minus the hopping row sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import _read_only
from .params import ConfigError, DriveParams, TrapConfig

RESIDUAL_TOL = 1e-12
# a residual above 1e-12 is accepted within this many times its rounding floor
FLOOR_FACTOR = 4.0
MAX_NEWTON_ITER = 200


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def force_residual(u):
    """Force-balance residual g_m = u_m - sum_{k<m} 1/(u_m-u_k)^2 + sum_{k>m} 1/(u_k-u_m)^2."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    m, k = np.nonzero(~np.eye(n, dtype=bool))  # pairs k != m, k order in each row m
    # float_power squares by C pow, as a float scalar's ** does; d * d and
    # an array's ** 2 round some d differently, which would move the solved
    # positions in their last bits
    terms = np.copysign(1.0 / np.float_power(u[k] - u[m], 2.0), k - m)
    # each row summed from u_m in k order; np.sum would sum pairwise
    rows = np.column_stack([u, terms.reshape(n, n - 1)])
    return np.add.accumulate(rows, axis=1)[:, -1]


def _inverse_cubes(u):
    """|u_j - u_k|^-3 with a zero diagonal; ValueError on coincident positions."""
    dist = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(dist, 1.0)
    if np.any(dist <= 0):
        raise ValueError("coincident ion positions")
    inv3 = dist**-3
    np.fill_diagonal(inv3, 0.0)
    return inv3


def _jacobian(u):
    # J = I + 2 D with D_mm = sum_{k != m} |u_m-u_k|^-3, D_mk = -|u_m-u_k|^-3
    inv3 = _inverse_cubes(u)
    jac = -2.0 * inv3
    np.fill_diagonal(jac, 1.0 + 2.0 * inv3.sum(axis=1))
    return jac


@lru_cache(maxsize=None)
def equilibrium_positions(n_ions):
    """Solve the force balance by damped Newton with analytic Jacobian.

    Initial guess: uniform spacing over half-width 1.1 * n^0.56. Steps are
    halved until the residual norm decreases; Newton stops below
    RESIDUAL_TOL or where no damped step lowers it. The solution is
    symmetrized (u -> (u - reverse(u))/2) so reflection antisymmetry holds
    exactly, and must meet RESIDUAL_TOL or FLOOR_FACTOR times the rounding
    floor of force_residual, eps (|J| |u|), which passes 1e-12 from about
    115 ions. Cached per n_ions, which alone fixes it, and read-only.
    """
    if n_ions < 1:
        raise ValueError("n_ions must be >= 1")
    if n_ions == 1:
        return _read_only(np.zeros(1))
    half_width = 1.1 * n_ions**0.56
    u = np.linspace(-half_width, half_width, n_ions)
    g = force_residual(u)
    res = np.max(np.abs(g))
    for _ in range(MAX_NEWTON_ITER):
        if res < RESIDUAL_TOL:
            break
        step = np.linalg.solve(_jacobian(u), -g)
        damping = 1.0
        for _ in range(60):
            trial = u + damping * step
            if np.array_equal(trial, u):
                break  # no smaller step moves u either
            if np.all(np.diff(trial) > 0):
                g_trial = force_residual(trial)
                res_trial = np.max(np.abs(g_trial))
                if res_trial < res:
                    u, g, res = trial, g_trial, res_trial
                    break
            damping *= 0.5
        if u is not trial:  # no damped step lowers the residual
            break
    else:
        raise ConvergenceError("Newton did not converge", res)

    u = 0.5 * (u - u[::-1])  # exact reflection antisymmetry
    res = np.max(np.abs(force_residual(u)))
    floor = np.finfo(float).eps * np.max(np.abs(_jacobian(u)) @ np.abs(u))
    if res >= max(RESIDUAL_TOL, FLOOR_FACTOR * floor):
        raise ConvergenceError("residual above tolerance and rounding floor", res)
    return _read_only(u)


def hopping_matrix(u, trap: TrapConfig):
    """Dipolar hopping matrices (t_x, t_y) in angular units, zero diagonal."""
    inv3 = _inverse_cubes(np.asarray(u, dtype=float))
    # the bits of a float's **, but inf where that raises OverflowError
    t_x = (np.float_power(trap.omega_z, 2.0) / (2.0 * trap.omega_x)) * inv3
    t_y = (np.float_power(trap.omega_z, 2.0) / (2.0 * trap.omega_y)) * inv3
    return t_x, t_y


def onsite_shifts(t_x, t_y):
    """delta_omega_{beta,j} = -sum_{k != j} t_{j,k}^beta (hopping row sums, negated).

    Each row is summed forwards and backwards and the two averaged: site
    j's row is its mirror site's row reversed, so a mirror-symmetric t
    gives shifts that are mirror-symmetric to the last bit.
    """
    return tuple(-0.5 * (t.sum(axis=1) + t[:, ::-1].sum(axis=1))
                 for t in (t_x, t_y))


@dataclass(frozen=True)
class CrystalGeometry:
    """Equilibrium positions plus hopping matrices and on-site shifts."""

    u: np.ndarray
    t_x: np.ndarray
    t_y: np.ndarray
    dw_x: np.ndarray
    dw_y: np.ndarray

    @property
    def n_ions(self):
        return len(self.u)

    @classmethod
    def _from_hoppings(cls, u, t_x, t_y):
        return cls(u, t_x, t_y, *onsite_shifts(t_x, t_y))

    @classmethod
    def from_trap(cls, trap: TrapConfig):
        u = equilibrium_positions(trap.n_ions)
        return cls._from_hoppings(u, *hopping_matrix(u, trap))

    @classmethod
    def from_uniform_hoppings(cls, n_ions, t_x_nn, t_y_nn):
        """Geometry from quoted nearest-neighbour hoppings on a unit lattice.

        Longer-range entries follow the 1/d^3 law of equispaced sites; exact
        for two ions and for any quantity referencing one pair only.
        """
        idx = np.arange(n_ions, dtype=float)
        inv3 = _inverse_cubes(idx)
        return cls._from_hoppings(idx - idx.mean(), t_x_nn * inv3, t_y_nn * inv3)


def local_detunings(geometry: CrystalGeometry, drive: DriveParams):
    """Per-site phonon detunings dw_{beta,j} - dw_{beta,ref} (frame Delta = 0).

    A homogeneous drive drops the site dependence entirely (the limit used
    by the closed-form spectra). The only place that decides detunings:
    the full and the effective side of a run both read them here.
    """
    n = geometry.n_ions
    ref = drive.reference_ion
    if not 0 <= ref < n:
        raise IndexError(f"reference_ion {ref} out of range for {n} ions")
    if drive.homogeneous:
        return np.zeros(n), np.zeros(n)
    return geometry.dw_x - geometry.dw_x[ref], geometry.dw_y - geometry.dw_y[ref]


def geometry_from_config(cfg):
    """Build the geometry a SimConfig describes (trap-derived or explicit).

    Finite keys can still overflow, in omega_z^2 of the trap's hopping
    prefactor or in the on-site shifts of explicit hoppings, the hopping
    row sums: a config error that names the keys.
    """
    explicit = cfg.t_x is not None
    with np.errstate(over="ignore", invalid="ignore"):
        geo = (CrystalGeometry.from_uniform_hoppings(cfg.n_ions, cfg.t_x, cfg.t_y)
               if explicit else CrystalGeometry.from_trap(cfg.trap))
    # a non-finite hopping makes its row sum non-finite too
    if not (np.isfinite(geo.dw_x).all() and np.isfinite(geo.dw_y).all()):
        keys = "t_x_khz, t_y_khz" if explicit else "nu_z_khz"
        raise ConfigError(f"non-finite hoppings or on-site shifts from {keys}")
    return geo
