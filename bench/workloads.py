"""Seeded workload definitions and output checks for the jchsim benchmark.

Each workload is one CLI command on one generated config. The seed draws
the initial product pattern (a permutation that keeps the label counts)
and a small bounded jitter of the hoppings, couplings and detuning. The
jitter is kept small (g within 1 %) so that every seed does the same
amount of work: sector dims, nnz and the grid are seed independent, and
the Krylov cost scales with ||H|| ~ g. All inputs, including t_final_ms
and n_steps, are fixed here, so a change of the program's defaults
cannot change the work a workload does.

Checks run on every sample. The physics gates hold for every seed; the
comparison against stored reference outputs applies to REFERENCE_SEED.
"""

import csv
import json
import math
import os
import random
from dataclasses import dataclass, replace

REFERENCE_SEED = 0
DRIFT_TOL = 1e-8  # manifest norm_drift / energy_drift
DEVIATION_GATE = 0.1  # full vs effective populations, the paper's gate
COUPLING_RESIDUAL_TOL = 1e-8  # spin-1/2 extraction and Hermiticity, rad/ms
POPULATION_ABS_TOL = 1e-6  # against the reference outputs
COUPLING_REL_TOL = 1e-9  # against the reference outputs
PROB_SLACK = 1e-9  # populations stay inside [0, 1] up to rounding


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: callable  # (rng) -> dict of config keys
    extra_argv: tuple
    outputs: tuple  # CSV files compared against the reference
    sector_dim: int | None = None


def _jitter(rng, value, rel):
    return value * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _pattern(rng, labels):
    labels = list(labels)
    rng.shuffle(labels)
    return ",".join(labels)


def _uniform_chain(rng, n_ions, g_x, g_y, delta, n_exc, labels, t_final, n_steps):
    return {
        "n_ions": n_ions,
        "t_x_khz": _jitter(rng, 0.1, 0.05),
        "t_y_khz": _jitter(rng, 0.17, 0.05),
        "g_x_khz": _jitter(rng, g_x, 0.01),
        "g_y_khz": _jitter(rng, g_y, 0.01),
        "delta_khz": delta + 0.01 * rng.uniform(-1.0, 1.0),
        "n_excitations": n_exc,
        "initial_state": _pattern(rng, labels),
        "t_final_ms": t_final,
        "n_steps": n_steps,
    }


def _trap_crystal(rng, n_ions):
    return {
        "n_ions": n_ions,
        "nu_z_khz": _jitter(rng, 120.0, 0.02),
        "aspect_x": 55.6,
        "aspect_y": 100.0,
        "g_x_khz": _jitter(rng, 19.0, 0.01),
        "g_y_khz": _jitter(rng, 20.0, 0.01),
        "delta_khz": -0.22 + 0.01 * rng.uniform(-1.0, 1.0),
    }


def _compare(n_ions):
    labels = ["up", "down"] * (n_ions // 2)
    return lambda rng: _uniform_chain(rng, n_ions, 19.0, 20.0, -0.22, 1,
                                      labels, 5.0, 100)


def _evolve(n_ions):
    labels = (["up", "down"] * n_ions)[:n_ions]
    return lambda rng: _uniform_chain(rng, n_ions, 19.0, 20.0, -0.22, 1,
                                      labels, 0.01, 5)


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    "compare_xxz_n4": Workload(
        name="compare_xxz_n4",
        command="compare",
        config=_compare(4),
        extra_argv=(),
        outputs=("compare_full.csv", "compare_effective.csv"),
        sector_dim=2426,
    ),
    "evolve_xxz_n5": Workload(
        name="evolve_xxz_n5",
        command="evolve",
        config=_evolve(5),
        extra_argv=(),
        outputs=("evolution.csv",),
        sector_dim=23184,
    ),
    "couplings_sweep_n21": Workload(
        name="couplings_sweep_n21",
        command="couplings",
        config=lambda rng: _trap_crystal(rng, 21),
        extra_argv=("--sweep", "g_y_khz:12:40:29"),
        outputs=("couplings_sweep.csv", "couplings_spin_half.csv",
                 "couplings_spin_one.csv"),
    ),
}

# N=2 versions of the same commands, for the benchmark's own smoke test
TINY = {
    "compare_xxz_n4": replace(WORKLOADS["compare_xxz_n4"], config=_compare(2),
                              sector_dim=None),
    "evolve_xxz_n5": replace(WORKLOADS["evolve_xxz_n5"], config=_evolve(2),
                             sector_dim=None),
    "couplings_sweep_n21": replace(WORKLOADS["couplings_sweep_n21"],
                                   config=lambda rng: _trap_crystal(rng, 2),
                                   extra_argv=("--sweep", "g_y_khz:12:40:5")),
}


def generate(workload, seed):
    """(config keys, config file text) for one seed; the program sees
    only the text."""
    keys = workload.config(random.Random(seed))
    text = "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in keys.items())
    return keys, text


# ---------------------------------------------------------------------------
# checks; each returns a list of problems, empty when the sample is correct


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _compare_tables(name, got, ref, close):
    (g_head, g_rows), (r_head, r_rows) = got, ref
    if g_head != r_head:
        return [f"{name}: header differs from the reference"]
    if len(g_rows) != len(r_rows):
        return [f"{name}: {len(g_rows)} rows, reference has {len(r_rows)}"]
    col_max = [max((abs(r[c]) for r in r_rows), default=0.0)
               for c in range(len(r_head))]
    for i, (g_row, r_row) in enumerate(zip(g_rows, r_rows)):
        for c, (a, b) in enumerate(zip(g_row, r_row)):
            if not close(a, b, col_max[c]):
                return [f"{name}: row {i + 1} column {r_head[c]} is {a!r}, "
                        f"reference {b!r}"]
    return []


def _populations_close(a, b, _col_max):
    return abs(a - b) <= POPULATION_ABS_TOL


def _couplings_close(a, b, col_max):
    # relative, with a floor far below the column's scale for exact zeros
    return abs(a - b) <= COUPLING_REL_TOL * max(abs(a), abs(b)) + 1e-12 * col_max


def _check_population_table(name, table, n_steps, t_final, initial):
    head, rows = table
    problems = []
    if len(rows) != n_steps:
        problems.append(f"{name}: {len(rows)} time points, expected {n_steps}")
    if rows and not math.isclose(rows[-1][0], t_final, rel_tol=1e-9):
        problems.append(f"{name}: last time {rows[-1][0]}, expected {t_final}")
    col = "P_" + ".".join(initial)
    if col not in head:
        return problems + [f"{name}: no column for the initial state {col}"]
    if rows and abs(rows[0][head.index(col)] - 1.0) > PROB_SLACK:
        problems.append(f"{name}: initial population {rows[0][head.index(col)]}")
    for i, row in enumerate(rows):
        pops = row[1:]
        if min(pops) < -PROB_SLACK or sum(pops) > 1.0 + PROB_SLACK:
            problems.append(f"{name}: row {i + 1} populations leave [0, 1]")
            break
    return problems


def _limit(problems, label, value, tol):
    if not (isinstance(value, (int, float)) and abs(value) <= tol):
        problems.append(f"{label} = {value!r} exceeds {tol:g}")


def check(workload, cfg, out_dir, reference_dir=None):
    """Problems with one sample's outputs; reference_dir holds the CSVs
    the outputs must reproduce (None skips that comparison)."""
    manifest_path = os.path.join(out_dir, f"{workload.command}_manifest.json")
    try:
        with open(manifest_path) as fh:
            residuals = json.load(fh)["residuals"]
        tables = {name: _read_csv(os.path.join(out_dir, name))
                  for name in workload.outputs}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc}"]

    problems = []
    if workload.command in ("compare", "evolve"):
        initial = cfg["initial_state"].split(",")
        for name, table in tables.items():
            problems += _check_population_table(
                name, table, cfg["n_steps"], cfg["t_final_ms"], initial)
    if workload.command == "compare":
        for key in ("full_norm_drift", "effective_norm_drift",
                    "full_energy_drift", "effective_energy_drift"):
            _limit(problems, key, residuals.get(key), DRIFT_TOL)
        _limit(problems, "overall_max_deviation",
               residuals.get("overall_max_deviation"), DEVIATION_GATE)
    elif workload.command == "evolve":
        for key in ("norm_drift", "energy_drift"):
            _limit(problems, key, residuals.get(key), DRIFT_TOL)
        if workload.sector_dim and residuals.get("sector_dim") != workload.sector_dim:
            problems.append(f"sector_dim {residuals.get('sector_dim')}, "
                            f"expected {workload.sector_dim}")
    elif workload.command == "couplings":
        half, one = residuals.get("spin_half", {}), residuals.get("spin_one", {})
        _limit(problems, "spin_half.extraction", half.get("extraction"),
               COUPLING_RESIDUAL_TOL)
        _limit(problems, "spin_half.hermiticity", half.get("hermiticity"),
               COUPLING_RESIDUAL_TOL)
        _limit(problems, "spin_one.hermiticity", one.get("hermiticity"),
               COUPLING_RESIDUAL_TOL)
        problems += _check_sweep(workload, tables["couplings_sweep.csv"])

    if reference_dir is not None:
        close = (_couplings_close if workload.command == "couplings"
                 else _populations_close)
        for name, table in tables.items():
            try:
                ref = _read_csv(os.path.join(reference_dir, name))
            except (OSError, ValueError, IndexError) as exc:
                problems.append(f"unreadable reference: {exc}")
                continue
            problems += _compare_tables(name, table, ref, close)
    return problems


def _check_sweep(workload, table):
    _, start, stop, n = workload.extra_argv[1].split(":")
    start, stop, n = float(start), float(stop), int(n)
    _, rows = table
    if len(rows) != n:
        return [f"couplings_sweep.csv: {len(rows)} points, expected {n}"]
    for i, (g_y, k_xy, k_z, lam) in enumerate(rows):
        expected = start + (stop - start) * i / (n - 1)
        if not math.isclose(g_y, expected, rel_tol=1e-9):
            return [f"couplings_sweep.csv: point {i} at {g_y}, expected {expected}"]
        if not (math.isfinite(k_xy) and k_xy != 0.0
                and math.isclose(lam, k_z / k_xy, rel_tol=1e-9)):
            return [f"couplings_sweep.csv: point {i} has inconsistent "
                    f"K_xy={k_xy}, K_z={k_z}, lambda={lam}"]
    return []
