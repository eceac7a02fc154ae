"""Span recorder wrapped around jchsim's public functions from outside.

Nothing inside the package is edited: install() replaces each traced
function in every loaded jchsim module namespace that refers to it, so
calls through module globals and through `from .x import f` both land
in the wrapper. Spans stay in memory; layer_metrics() reduces them.

A span records name, start, end, parent and thread. Each thread keeps
its own stack, so the two evolve calls that compare runs on a pool do
not nest; a span that starts on a thread with an empty stack takes the
main thread's innermost open span as its parent (the caller that is
waiting on the pool).
"""

import functools
import sys
import threading
import time

TRACED = {
    "jchsim.params": ("parse_config",),
    "jchsim.crystal": ("geometry_from_config",),
    "jchsim.fock": ("enumerate_sector",),
    "jchsim.jchv": ("build_full", "build_hjc", "build_hb", "site_sector_eigh",
                    "site_manifold_states"),
    "jchsim.superexchange": ("spin_half_general", "spin_one_general",
                             "pair_effective_matrix", "build_spin_hamiltonian"),
    "jchsim.dynamics": ("compare_full_vs_effective", "evolve",
                        "dressed_product_state"),
    "jchsim.cli": ("main",),
}


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "info")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.info = {}

    @property
    def duration(self):
        return self.end - self.start


def _union(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._matvecs = {}  # thread ident -> SparseOperator.matvec calls
        self._spin_h_ids = set()  # effective Hamiltonians, to split evolve

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, parent, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            thread = span.thread
            matvecs0 = self._matvecs.get(thread, 0)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack().pop()
            self._annotate(span, args, kwargs, result,
                           self._matvecs.get(thread, 0) - matvecs0)
            return result

        return wrapper

    def _annotate(self, span, args, kwargs, result, matvecs):
        name = span.name
        if name == "fock.enumerate_sector":
            span.info["dim"] = result.dim
        elif name == "jchv.build_full":
            span.info["nnz"] = result.mat.nnz
        elif name == "superexchange.build_spin_hamiltonian":
            span.info["dim"] = result.dim
            self._spin_h_ids.add(id(result))
        elif name == "dynamics.evolve":
            h = args[0] if args else kwargs["h"]
            span.info["effective"] = id(h) in self._spin_h_ids
            span.info["matvecs"] = matvecs

    def install(self):
        """Wrap every TRACED function and count SparseOperator.matvec calls."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "jchsim" or n.startswith("jchsim.")]
        for mod_name, names in TRACED.items():
            module = sys.modules[mod_name]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{mod_name[7:]}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

        operator = sys.modules["jchsim.fock"].SparseOperator
        matvec = operator.matvec
        counts = self._matvecs

        def counted_matvec(op, v):
            thread = threading.get_ident()  # each thread writes its own key
            counts[thread] = counts.get(thread, 0) + 1
            return matvec(op, v)

        operator.matvec = counted_matvec

    def layer_metrics(self):
        """Per-layer busy seconds and counts, one group per jchsim module."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def spans(*names):
            return [s for n in names for s in by_name.get(n, ())]

        def busy(*names):
            return float(sum(s.duration for s in spans(*names)))

        evolves = spans("dynamics.evolve")
        models = spans("superexchange.spin_half_general",
                       "superexchange.spin_one_general")
        model_union = _union([(s.start, s.end) for s in models])
        mains = spans("cli.main")
        cli_self = sum(
            m.duration - _union([(max(c.start, m.start), min(c.end, m.end))
                                 for c in self.spans if c.parent is m])
            for m in mains)
        return {
            "params.parse_s": busy("params.parse_config"),
            "crystal.geometry_s": busy("crystal.geometry_from_config"),
            "crystal.calls": len(spans("crystal.geometry_from_config")),
            "fock.enumerate_s": busy("fock.enumerate_sector"),
            "fock.sector_dim": max((s.info["dim"] for s in
                                    spans("fock.enumerate_sector")), default=0),
            "jchv.hjc_s": busy("jchv.build_hjc"),
            "jchv.hb_s": busy("jchv.build_hb"),
            "jchv.nnz": max((s.info["nnz"] for s in spans("jchv.build_full")),
                            default=0),
            "jchv.site_eigh_calls": len(spans("jchv.site_sector_eigh",
                                              "jchv.site_manifold_states")),
            "dynamics.evolve_s": busy("dynamics.evolve"),
            "dynamics.evolve_full_s": float(sum(
                s.duration for s in evolves if not s.info["effective"])),
            "dynamics.evolve_eff_s": float(sum(
                s.duration for s in evolves if s.info["effective"])),
            "dynamics.matvecs": sum(self._matvecs.values()),
            "dynamics.dense_evolves": sum(1 for s in evolves
                                          if not s.info["matvecs"]),
            "dynamics.krylov_evolves": sum(1 for s in evolves
                                           if s.info["matvecs"]),
            "dynamics.states_s": busy("dynamics.dressed_product_state"),
            "dynamics.state_calls": len(spans("dynamics.dressed_product_state")),
            "superexchange.model_s": float(sum(s.duration for s in models)),
            "superexchange.pair_calls": len(spans(
                "superexchange.pair_effective_matrix")),
            "superexchange.model_concurrency": (
                sum(s.duration for s in models) / model_union
                if model_union else 0.0),
            "superexchange.spin_h_s": busy("superexchange.build_spin_hamiltonian"),
            "superexchange.spin_h_dim": max(
                (s.info["dim"] for s in
                 spans("superexchange.build_spin_hamiltonian")), default=0),
            "cli.self_s": cli_self,
        }
