"""The bench tracer wraps package functions by name: keep those names alive.

bench/tracer.py replaces every function in its TRACED table in the
package's module namespaces and counts SparseOperator.matvec calls. A
rename or a changed signature would silently drop layer metrics from
`bench/run.py --trace 1`, so the names and the shapes it reads are
checked here.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from jchsim.dynamics import evolve
from jchsim.fock import SparseOperator
from jchsim.superexchange import build_spin_hamiltonian, spin_block
from support import forced_method, oracle_model

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_traced_table():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_functions_exist():
    for mod_name, names in load_traced_table().items():
        module = importlib.import_module(mod_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod_name}.{name}"
    assert callable(SparseOperator.matvec)


def test_traced_shapes_hold():
    # the tracer reads evolve's `h` and build_spin_hamiltonian's operator
    evolve = importlib.import_module("jchsim.dynamics").evolve
    assert next(iter(inspect.signature(evolve).parameters)) == "h"
    zeros = np.zeros((2, 2))
    model = oracle_model("half", {"K_xy": zeros, "K_z": zeros,
                                  "H_field": np.zeros(2), "E0_split": np.zeros(2)},
                         0.0)
    h = build_spin_hamiltonian(model, spin_block("half", ("up", "down")))
    assert isinstance(h, SparseOperator)


def test_every_chebyshev_product_is_a_matvec(monkeypatch):
    # the tracer's dynamics.matvecs counts SparseOperator.matvec calls
    calls = []
    matvec = SparseOperator.matvec

    def counted(op, v):
        calls.append(op)
        return matvec(op, v)

    monkeypatch.setattr(SparseOperator, "matvec", counted)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(30, 30))
    h = SparseOperator(30, sp.csr_matrix(a + a.T))
    psi0 = np.eye(30)[0]
    with forced_method("chebyshev"):
        result = evolve(h, psi0, np.linspace(0.0, 1.0, 5))
    assert result.method == "chebyshev" and result.products > 0
    assert len(calls) == result.products


def test_tracer_counts_the_stacked_site_and_pair_calls(tmp_path):
    # a traced couplings sweep in a child, as the bench runs it: the site
    # data and the sweep's one stacked pair call are seen under the names
    # the tracer wraps
    config = str(ROOT / "configs" / "three_ion_xxz.cfg")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), config, "--trace",
         "--", "couplings", "--config", config, "--out", str(tmp_path),
         "--sweep", "g_y_khz:12:40:3"],
        capture_output=True, text=True, env=env, check=True)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["exit_code"] == 0
    assert result["layers"]["jchv.site_eigh_calls"] > 0
    assert result["layers"]["superexchange.pair_calls"] == 1
