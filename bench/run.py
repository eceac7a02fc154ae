#!/usr/bin/env python3
"""jchsim benchmark: CLI workloads timed end to end, and per module.

Run from the repository root:

    python3 bench/run.py --workload compare_xxz_n4 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40   # one line per workload

Every sample is a call to jchsim.cli.main in a fresh child interpreter
with BLAS pinned to one thread and the program's own knobs at their
defaults. With --trace 0 the run reports run_s, setup_s and peak_rss_mb
(medians); with --trace 1 it alternates untraced and traced samples and
reports the per-layer metrics of the traced ones plus the tracing
overhead. Every sample's outputs are checked (see workloads.py); the
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--tiny runs the N=2 versions of the workloads; --reference DIR and
--write-reference DIR point the output comparison at, or copy the
outputs into, DIR/<workload>/. Both exist for the smoke test and for
regenerating bench/reference/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

sys.dont_write_bytecode = True

import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3  # set-up-only children per untraced run, besides each sample's own
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not take a measurement at all."""


def child_env():
    env = dict(os.environ)
    env.pop("JCHSIM_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(config_path, cli_argv, env, flags=()):
    """(result dict or None, error text or None) of one child interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), config_path,
           *flags, "--", *cli_argv]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-800:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result, None


def _dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def measure(workload, seed, seconds, trace, reference_dir, work):
    """Samples of one workload for `seconds`; a new sample (or, traced, a
    pair of untraced and traced samples) starts only if the slowest so
    far would still end in time, so a run overruns only by set-up."""
    keys, text = wl.generate(workload, seed)
    config_path = os.path.join(work, f"{workload.name}.cfg")
    with open(config_path, "w") as fh:
        fh.write(text)
    out = os.path.join(work, "out")
    cli_argv = [workload.command, "--config", config_path, "--out", out,
                *workload.extra_argv]
    env = child_env()

    samples = {"setup_s": [], "run_s": [], "peak_rss_mb": [],
               "traced_run_s": [], "out_bytes": [], "layers": []}
    attempted = failed = 0
    problems = []
    versions = None
    if not trace:
        for _ in range(SETUP_REPEATS):
            result, error = run_child(config_path, cli_argv, env, ["--setup-only"])
            if result is None:
                raise BenchError(f"set-up failed: {error}")
            samples["setup_s"].append(result["setup_s"])

    deadline = time.monotonic() + seconds
    slowest = 0.0
    while attempted == 0 or time.monotonic() + slowest <= deadline:
        began = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            shutil.rmtree(out, ignore_errors=True)
            attempted += 1
            result, error = run_child(config_path, cli_argv, env,
                                      ["--trace"] if traced else [])
            errors = [error] if error else []
            if result is not None:
                versions = result["versions"]
                if result["exit_code"] != 0:
                    errors.append(f"jchsim exited {result['exit_code']}")
                errors += wl.check(workload, keys, out, reference_dir)
                if traced:
                    samples["traced_run_s"].append(result["run_s"])
                    samples["layers"].append(result["layers"])
                    samples["out_bytes"].append(_dir_bytes(out))
                else:
                    samples["setup_s"].append(result["setup_s"])
                    samples["run_s"].append(result["run_s"])
                    samples["peak_rss_mb"].append(result["peak_rss_mb"])
            if errors:
                failed += 1
                problems.append(errors)
        slowest = max(slowest, time.monotonic() - began)

    if not samples["run_s"] or (trace and not samples["layers"]):
        raise BenchError(f"{workload.name}: no sample completed: {problems}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "samples": samples, "versions": versions, "out": out}


def end_to_end(samples, units):
    return {name: {"value": median(samples[name]), "unit": units[name]}
            for name in ("run_s", "setup_s", "peak_rss_mb")}


def per_layer(samples, units):
    values = {name: median([m[name] for m in samples["layers"]])
              for name in samples["layers"][0]}
    values["cli.out_bytes"] = median(samples["out_bytes"])
    values["trace.run_s"] = median(samples["traced_run_s"])
    values["trace.overhead_s"] = values["trace.run_s"] - median(samples["run_s"])
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def summary_line(name, seed, run, units):
    s = run["samples"]
    parts = []
    for metric in ("run_s", "setup_s", "peak_rss_mb", "traced_run_s"):
        if s[metric]:
            unit = units.get(metric, "s")
            parts.append(f"{metric} {median(s[metric]):.4f} {unit} "
                         f"(median of {len(s[metric])})")
    parts.append(f"failed_frac {run['failed']}/{run['attempted']} = "
                 f"{run['failed'] / run['attempted']:.3g}")
    return f"{name} seed {seed}: " + ", ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="N=2 versions of the workloads")
    parser.add_argument("--reference", metavar="DIR",
                        help="compare outputs with DIR/<workload>/ for any seed")
    parser.add_argument("--write-reference", metavar="DIR",
                        help="copy the outputs of the last sample to DIR/<workload>/")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "jchsim", "cli.py")):
        print(f"no jchsim sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    table = wl.TINY if args.tiny else wl.WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    work = tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT)
    try:
        runs = {}
        for name in names:
            reference = None
            if args.reference:
                reference = os.path.join(args.reference, name)
            elif (args.seed == wl.REFERENCE_SEED and not args.tiny
                  and not args.write_reference):
                reference = os.path.join(HERE, "reference", name)
            run = measure(table[name], args.seed, seconds, bool(args.trace),
                          reference, work)
            for errors in run["problems"]:
                print(f"{name}: failed sample: {'; '.join(errors)}", file=sys.stderr)
            if args.write_reference:
                dest = os.path.join(args.write_reference, name)
                os.makedirs(dest, exist_ok=True)
                for output in table[name].outputs:
                    shutil.copyfile(os.path.join(run["out"], output),
                                    os.path.join(dest, output))
            print(summary_line(name, args.seed, run, units), flush=True)
            runs[name] = run
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "child_threads": {var: "1" for var in THREAD_VARS},
           "JCHSIM_THREADS": "unset (program default)",
           **next(iter(runs.values()))["versions"]}
    print("env " + json.dumps(env, sort_keys=True))

    metrics = {}
    for name, run in runs.items():
        found = (per_layer(run["samples"], units) if args.trace
                 else end_to_end(run["samples"], units))
        prefix = "" if len(runs) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
