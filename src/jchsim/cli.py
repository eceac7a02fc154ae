"""Command-line front-end: crystal tables, spectra, couplings, dynamics.

Every subcommand reads a flat key-value config, writes deterministic CSV
(12 significant digits, fixed row order) plus a JSON run manifest, and
optionally a native SVG line chart (CSV is authoritative, SVG is a
courtesy). Exit codes: 0 success, 2 configuration or output error, 3
numerical failure. JCHSIM_THREADS pins the BLAS thread count.
"""

import argparse
import html
import json
import math
import os
import sys
import time


def _write_csv(path, header, rows):
    """Integer cells (Python or numpy) as integers, others as %.11e floats,
    by one % format per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%d" if type(v).__name__ in _INTS else "%.11e"
                              for v in row) % tuple(row) + "\n")


_INTS = ("int", "bool", "int64", "int32")


def _label_col(labels):
    return "P_" + ".".join(labels)


# ---------------------------------------------------------------------------
# native SVG line charts

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 72, 16, 28, 52


def write_line_svg(path, x, series, xlabel, ylabel, title, dashed=()):
    """series: list of (name, y-array); dashed names get a dash pattern."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    lo_x, hi_x = float(x.min()), float(x.max())
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in series])
    lo_y, hi_y = float(ys.min()), float(ys.max())
    if hi_x == lo_x:
        hi_x = lo_x + 1.0
    if hi_y == lo_y:
        hi_y = lo_y + 1.0
    pad = 0.05 * (hi_y - lo_y)
    lo_y -= pad
    hi_y += pad

    def px(v):
        return _ML + (v - lo_x) / (hi_x - lo_x) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - lo_y) / (hi_y - lo_y) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>',
    ]
    for tx in np.linspace(lo_x, hi_x, 5):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{_H - _MB}" x2="{px(tx):.1f}" '
            f'y2="{_H - _MB + 5}" stroke="#333"/>'
            f'<text x="{px(tx):.1f}" y="{_H - _MB + 18}" font-size="11" '
            f'text-anchor="middle">{tx:.4g}</text>'
        )
    for ty in np.linspace(lo_y, hi_y, 5):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py(ty):.1f}" x2="{_ML}" '
            f'y2="{py(ty):.1f}" stroke="#333"/>'
            f'<text x="{_ML - 8}" y="{py(ty) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{ty:.4g}</text>'
        )
    for i, (name, y) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        dash = ' stroke-dasharray="6,4"' if name in dashed else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        ly = _MT + 14 + 14 * i
        parts.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 96}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"{dash}/>'
            f'<text x="{_W - _MR - 90}" y="{ly}" font-size="11">'
            f"{html.escape(name, quote=False)}</text>"
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" font-size="13" '
        f'text-anchor="middle">{html.escape(xlabel, quote=False)}</text>'
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.0f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(_MT + _H - _MB) / 2:.0f})">{html.escape(ylabel, quote=False)}</text>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="18" font-size="14" '
        f'text-anchor="middle">{html.escape(title, quote=False)}</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# sweep plumbing


def parse_sweep(text):
    from .params import ConfigError

    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep wants KEY:START:STOP:N")
    key, start, stop, n = parts
    try:
        start, stop, n = float(start), float(stop), int(n)
    except ValueError as exc:
        raise ConfigError(f"bad sweep bounds: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("sweep bounds must be finite")
    if n < 2:
        raise ConfigError("sweep needs at least 2 points")
    return key, start, stop, n


def config_variant(raw, **overrides):
    """Re-render a raw key-value dict with overrides and re-parse it.

    An integral float is written as an integer, so integer keys sweep."""
    from .params import parse_config

    merged = dict(raw)
    merged.update({k: str(int(v)) if float(v).is_integer() else repr(v)
                   for k, v in overrides.items()})
    text = "\n".join(f"{k} = {v}" for k, v in merged.items())
    return parse_config(text)


# ---------------------------------------------------------------------------
# subcommands; each returns (output paths, residuals for the manifest)


def cmd_crystal(cfg, args, out_dir):
    import numpy as np

    from .crystal import force_residual, geometry_from_config
    from .params import KHZ

    geo = geometry_from_config(cfg)
    n = geo.n_ions
    center = (n - 1) // 2
    rows = []
    for j in range(n):
        t_x = geo.t_x[j, center] if j != center else 0.0
        t_y = geo.t_y[j, center] if j != center else 0.0
        rows.append(
            (j + 1, center + 1, geo.u[j], t_x / KHZ, t_y / KHZ,
             geo.dw_x[j] / KHZ, geo.dw_y[j] / KHZ)
        )
    path = os.path.join(out_dir, "crystal.csv")
    _write_csv(path, ("j", "k", "u_j", "t_x_khz", "t_y_khz",
                      "dw_x_khz", "dw_y_khz"), rows)

    pair_rows = [
        (j + 1, k + 1, geo.t_x[j, k] / KHZ, geo.t_y[j, k] / KHZ)
        for j in range(n) for k in range(j + 1, n)
    ]
    pair_path = os.path.join(out_dir, "crystal_pairs.csv")
    _write_csv(pair_path, ("j", "k", "t_x_khz", "t_y_khz"), pair_rows)

    outputs = [path, pair_path]
    if args.svg:
        svg = os.path.join(out_dir, "crystal.svg")
        write_line_svg(
            svg, geo.u,
            [("dw_x_khz", geo.dw_x / KHZ), ("dw_y_khz", geo.dw_y / KHZ)],
            "position (l units)", "on-site shift (kHz)",
            title=f"N={n} on-site phonon shifts",
        )
        outputs.append(svg)
    residual = float(np.max(np.abs(force_residual(geo.u)))) if n > 1 else 0.0
    return outputs, {"force_residual": residual}


def cmd_spectrum(cfg, args, out_dir):
    import numpy as np

    from .jchv import particle_hole_gaps, single_site_spectra
    from .params import KHZ, ConfigError, make_drive

    g_x, g_y = cfg.drive.g_x, cfg.drive.g_y
    if g_x == 0.0:  # the default span and the *_over_gx columns scale with it
        raise ConfigError("spectrum needs g_x_khz > 0")
    if args.sweep:
        key, start, stop, n = parse_sweep(args.sweep)
        if key != "delta_khz":
            raise ConfigError("spectrum sweeps only delta_khz")
    else:
        span = 4.0 * g_x / KHZ
        start, stop, n = -span, span, 161
    deltas = np.linspace(start, stop, n)

    rows = []
    for d in deltas:
        drive = make_drive(g_x=g_x, g_y=g_y, delta=d * KHZ)
        s1, _ = single_site_spectra(drive)
        split = s1.E_minus_x - s1.E_minus_y
        u1, u0, um1 = particle_hole_gaps(drive)
        rows.append(
            (d, split / KHZ, u1 / KHZ, u0 / KHZ, um1 / KHZ,
             split / g_x, u1 / g_x, u0 / g_x, um1 / g_x)
        )
    path = os.path.join(out_dir, "spectrum.csv")
    _write_csv(
        path,
        ("delta_khz", "split_khz", "U1_khz", "U0_khz", "Um1_khz",
         "split_over_gx", "U1_over_gx", "U0_over_gx", "Um1_over_gx"),
        rows,
    )
    outputs = [path]
    if args.svg:
        arr = np.array([r[1:5] for r in rows])
        svg = os.path.join(out_dir, "spectrum.svg")
        write_line_svg(
            svg, deltas,
            [("split", arr[:, 0]), ("U_1", arr[:, 1]),
             ("U_0", arr[:, 2]), ("U_-1", arr[:, 3])],
            "delta (kHz)", "energy (kHz)",
            title="dressed splitting and particle-hole gaps",
        )
        outputs.append(svg)
    return outputs, {}


_COUPLING_HEADER = ("j", "k", "Kxy_or_Jxy_khz", "Kz_or_Jz_khz", "W_khz",
                    "V_khz", "v_p1_khz", "v_m1_khz", "D_j_khz",
                    "B_or_H_j_khz", "E0_split_khz")


# the model table behind each pair column (K/J to v_m1) and each site
# column (D_j to E0_split) of _COUPLING_HEADER; None is a column of zeros
_COUPLING_COLUMNS = {
    "half": (("K_xy", "K_z", None, None, None, None),
             (None, "H_field", "E0_split")),
    "one": (("J_xy", "J_z", "W", "V", "v_p1", "v_m1"),
            ("D_field", "B_field", None)),
}


def _coupling_rows(model):
    """One row per pair j < k, then one per site, in kHz; a pair row's
    site columns and a site row's pair columns are 0."""
    from .params import KHZ

    pair_cols, site_cols = _COUPLING_COLUMNS[model.manifold]

    def cells(names, index):
        return tuple(0.0 if name is None else model.tables[name][index] / KHZ
                     for name in names)

    n = model.n_sites
    no_pair, no_site = (0.0,) * len(pair_cols), (0.0,) * len(site_cols)
    return ([(j + 1, k + 1) + cells(pair_cols, (j, k)) + no_site
             for j in range(n) for k in range(j + 1, n)]
            + [(j + 1, j + 1) + no_pair + cells(site_cols, j)
               for j in range(n)])


def cmd_couplings(cfg, args, out_dir):
    import numpy as np

    from .crystal import geometry_from_config
    from .params import KHZ, ConfigError
    from .superexchange import (
        pair_stack,
        spin_half_analytic,
        spin_half_general,
        spin_one_general,
        spin_one_isotropic_analytic,
    )

    # every sweep point's config is built before anything is written, so
    # a bad point fails the run with no output
    if args.sweep:
        key, start, stop, n = parse_sweep(args.sweep)
        values = np.linspace(start, stop, n)
        variants = [config_variant(cfg.raw, **{key: float(v)}) for v in values]
        points = [f"sweep point {key} = {v:g}" for v in values]
        for point, vcfg in zip(points, variants):
            if vcfg.n_ions < 2:
                raise ConfigError(f"{point} leaves fewer than 2 ions")

    geo = geometry_from_config(cfg)
    half = spin_half_general(geo, cfg.drive)
    one = spin_one_general(geo, cfg.drive)

    half_path = os.path.join(out_dir, "couplings_spin_half.csv")
    one_path = os.path.join(out_dir, "couplings_spin_one.csv")
    _write_csv(half_path, _COUPLING_HEADER, _coupling_rows(half))
    _write_csv(one_path, _COUPLING_HEADER, _coupling_rows(one))
    outputs = [half_path, one_path]

    residuals = {
        "spin_half": half.residuals,
        "spin_one": one.residuals,
    }

    def rel(model, name, closed_form):
        # no relative residual against a closed form that is 0
        num, ref = model.tables[name][0, 1], closed_form[0, 1]
        return abs(num / ref - 1.0) if ref != 0.0 else None

    # closed forms of the first pair hold at delta = 0 (spin-1 additionally
    # at g_x = g_y)
    if cfg.drive.delta == 0.0 and geo.n_ions > 1:
        kxy_a, kz_a, _ = spin_half_analytic(
            cfg.drive.g_x, cfg.drive.g_y, geo.t_x, geo.t_y
        )
        residuals["analytic_K_xy_rel"] = rel(half, "K_xy", kxy_a)
        residuals["analytic_K_z_rel"] = rel(half, "K_z", kz_a)
        if cfg.drive.g_x == cfg.drive.g_y:
            jxy_a, jz_a, _ = spin_one_isotropic_analytic(
                cfg.drive.g_x, geo.t_x, geo.t_y
            )
            residuals["analytic_J_xy_rel"] = rel(one, "J_xy", jxy_a)
            residuals["analytic_J_z_rel"] = rel(one, "J_z", jz_a)

    if args.sweep:
        _, _, pair = pair_stack(0, 1, [geometry_from_config(vcfg) for vcfg in variants],
                                [vcfg.drive for vcfg in variants], points=points)
        sweep_rows = [(v, kxy / KHZ, kz / KHZ, kz / kxy if kxy else math.nan)
                      for v, kxy, kz in zip(values.tolist(), pair["K_xy"][0].tolist(),
                                            pair["K_z"][0].tolist())]
        sweep_path = os.path.join(out_dir, "couplings_sweep.csv")
        _write_csv(sweep_path, (key, "K_xy_khz", "K_z_khz", "lambda"),
                   sweep_rows)
        outputs.append(sweep_path)
        if args.svg:
            svg = os.path.join(out_dir, "couplings_sweep.svg")
            write_line_svg(
                svg, values, [("lambda", np.array([r[3] for r in sweep_rows]))],
                key, "K_z / K_xy", title="anisotropy",
            )
            outputs.append(svg)
    return outputs, residuals


def _time_series_rows(times, labels, populations):
    cols = ["t_ms"] + [_label_col(lab) for lab in labels]
    rows = [
        tuple([t] + [populations[lab][i] for lab in labels])
        for i, t in enumerate(times)
    ]
    return cols, rows


def _run_residuals(result):
    """The manifest record of one EvolutionResult."""
    return {
        "norm_drift": result.norm_drift,
        "energy_drift": result.energy_drift,
        "block_dim": len(result.final_state),
        "method": result.method,
        "blocks": result.blocks,
        "products": result.products,
        "truncation_bound": result.truncation_bound,
    }


def cmd_evolve(cfg, args, out_dir):
    """Exact full-model evolution in the conserved N_X block."""
    from .dynamics import evolve_full_model

    run = evolve_full_model(cfg)
    res, tracked = run.result, run.tracked
    times = res.times

    cols, rows = _time_series_rows(times, tracked, res.populations)
    path = os.path.join(out_dir, "evolution.csv")
    _write_csv(path, cols, rows)
    outputs = [path]
    if args.svg:
        series = [(".".join(lab), res.populations[lab]) for lab in tracked
                  if res.populations[lab].max() > 0.01]
        svg = os.path.join(out_dir, "evolution.svg")
        write_line_svg(svg, times, series, "t (ms)", "population",
                       title="full-model dynamics")
        outputs.append(svg)
    return outputs, {**_run_residuals(res), "sector_dim": run.sector_dim}


def cmd_compare(cfg, args, out_dir):
    from .dynamics import compare_full_vs_effective

    rep = compare_full_vs_effective(cfg)
    cols, rows = _time_series_rows(rep.times, rep.labels, rep.full.populations)
    full_path = os.path.join(out_dir, "compare_full.csv")
    _write_csv(full_path, cols, rows)
    cols, rows = _time_series_rows(rep.times, rep.labels,
                                   rep.effective.populations)
    eff_path = os.path.join(out_dir, "compare_effective.csv")
    _write_csv(eff_path, cols, rows)

    report_path = os.path.join(out_dir, "compare_report.txt")
    with open(report_path, "w") as fh:
        fh.write(f"overall_max_deviation = {rep.overall_max_deviation:.6e}\n")
        for lab in rep.labels:
            fh.write(f"max_abs_deviation[{'.'.join(lab)}] = "
                     f"{rep.max_abs_deviation[lab]:.6e}\n")
        for lab in rep.labels:
            fh.write(f"l2_deviation[{'.'.join(lab)}] = "
                     f"{rep.l2_deviation[lab]:.6e}\n")
        fh.write(f"full_norm_drift = {rep.full.norm_drift:.6e}\n")
        fh.write(f"effective_norm_drift = {rep.effective.norm_drift:.6e}\n")
        fh.write(f"full_energy_drift = {rep.full.energy_drift:.6e}\n")
        fh.write(f"effective_energy_drift = {rep.effective.energy_drift:.6e}\n")
        for key, val in sorted(rep.parameters.items()):
            fh.write(f"parameters.{key} = {val}\n")

    outputs = [full_path, eff_path, report_path]
    if args.svg:
        shown = [lab for lab in rep.labels
                 if rep.full.populations[lab].max() > 0.01]
        series = [(".".join(lab), rep.full.populations[lab]) for lab in shown]
        series += [(".".join(lab) + " (eff)", rep.effective.populations[lab])
                   for lab in shown]
        dashed = {name for name, _ in series if name.endswith("(eff)")}
        svg = os.path.join(out_dir, "compare.svg")
        write_line_svg(svg, rep.times, series, "t (ms)", "population",
                       title="full vs effective", dashed=dashed)
        outputs.append(svg)
    residuals = {"overall_max_deviation": rep.overall_max_deviation}
    for side, res in (("full", rep.full), ("effective", rep.effective)):
        residuals.update((f"{side}_{key}", val)
                         for key, val in _run_residuals(res).items())
    return outputs, residuals


_COMMANDS = {
    "crystal": cmd_crystal,
    "spectrum": cmd_spectrum,
    "couplings": cmd_couplings,
    "evolve": cmd_evolve,
    "compare": cmd_compare,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jchsim",
        description="trapped-ion JC-Hubbard lattice: crystal tables, "
                    "dressed spectra, superexchange couplings, dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key-value config file")
        p.add_argument("--out", default=".", help="output directory")
        if name in ("spectrum", "couplings"):
            p.add_argument("--sweep", default=None,
                           metavar="KEY:START:STOP:N")
        p.add_argument("--svg", action="store_true", help="also draw SVG")
    return parser


def main(argv=None):
    threads = os.environ.get("JCHSIM_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)

    args = _build_parser().parse_args(argv)

    import numpy as np

    from . import __version__
    from .crystal import ConvergenceError
    from .fock import SectorError
    from .params import ConfigError, parse_config
    from .superexchange import DegenerateIntermediateError

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
        t0 = time.perf_counter()
        outputs, residuals = _COMMANDS[args.command](cfg, args, args.out)
        manifest = {
            "command": args.command,
            "config_path": os.path.abspath(args.config),
            "config": dict(cfg.raw),
            "outputs": [os.path.abspath(p) for p in outputs],
            "wall_time_s": time.perf_counter() - t0,
            "version": __version__,
            "residuals": residuals,
        }
        manifest_path = os.path.join(args.out, f"{args.command}_manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except (ConfigError, SectorError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the output directory or a file in it
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DegenerateIntermediateError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
