"""Smoke test of the benchmark itself on the N=2 workloads (a few seconds).

    python -m pytest bench/test_bench.py -q

Checks that every metric BENCHMARK.json names is emitted in both trace
modes, that the outputs pass their checks against a reference written
by the same code, and that a corrupted reference makes samples fail.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
         "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_and_correct(tmp_path):
    spec = _spec()
    ref = str(tmp_path / "ref")
    _bench("--workload", "all", "--seed", "3", "--write-reference", ref)
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = _bench("--workload", workload["name"], "--seed", "3",
                            "--trace", str(trace), "--reference", ref)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            names = {m["name"]: m["unit"] for m in spec[kind]}
            assert set(result["metrics"]) == set(names)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == names[name]
                assert isinstance(metric["value"], (int, float))


def test_corrupted_reference_fails_samples(tmp_path):
    ref = tmp_path / "ref"
    _bench("--workload", "compare_xxz_n4", "--seed", "5",
           "--write-reference", str(ref))
    path = ref / "compare_xxz_n4" / "compare_full.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")

    result = _bench("--workload", "compare_xxz_n4", "--seed", "5",
                    "--reference", str(ref))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
