"""Per-layer spans and counters for a traced benchmark operation.

The program carries no instrumentation of its own, so the tracer wraps it
from outside.  Every public function of each `twistorflow` module is
replaced by a span wrapper, both in its own module and in every module that
bound it with `from ... import`; `FormMatrix.d` is wrapped on its class.
The ring layer is counted, not timed: `Coeff.__mul__` and `Coeff.__add__`
run up to 800 k times per operation, too often for a clock read each.

Span times are CPU seconds of the calling thread (`time.thread_time`).
`verify.run_checks` runs its checks on worker threads that take turns on
the interpreter lock; thread CPU time leaves out the turns a thread spends
waiting, which wall time would charge to whatever span it waited in.  The
one wall-clock span is `verify.suite_s`.  A span's self time is its time
minus the time of the spans it directly contains.  A function re-entered
while its span is open is counted as a call but timed once.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import Counter

import checks

PACKAGE = "twistorflow"
# coeff is left out: its functions are ring constructors, counted through Coeff
SPAN_MODULES = ["forms", "connections", "pointcurv", "zmetric", "canonical", "gaussc",
                "liealg", "verify", "flow", "cli"]
ALL_MODULES = ["coeff"] + SPAN_MODULES
# cli.cmd_* are the bodies of cli.main; their parsing, formatting and file
# writes belong to cli's self time
CLI_SPANS = {"main"}
# per-step scalar formulas: a span on each call would cost about as much as
# the formula and more than double the traced time of the flow loops
UNSPANNED = {"flow.invariant", "flow.closed_form_z", "flow.scalar_curvature", "flow.rhs"}

CHECK_NAMES = sorted(checks.CHECK_NAMES)

# per-layer metric -> (kind, source); kinds: cpu (inclusive), self, wall,
# calls (span calls) and count (tracer counter)
LAYER_METRICS = {
    "coeff.mul_calls": ("count", "coeff.mul_calls"),
    "coeff.add_calls": ("count", "coeff.add_calls"),
    "coeff.mul_pairs": ("count", "coeff.mul_pairs"),
    "coeff.mul_out_terms": ("count", "coeff.mul_out_terms"),
    "forms.FormMatrix.d_s": ("cpu", "forms.FormMatrix.d"),
    "forms.mat_wedge_s": ("cpu", "forms.mat_wedge"),
    "forms.exterior_derivative_calls": ("calls", "forms.exterior_derivative"),
    "connections.coframe_expansion_s": ("cpu", "connections.coframe_expansion"),
    "connections.levi_civita_s": ("cpu", "connections.levi_civita"),
    "connections.levi_civita_calls": ("calls", "connections.levi_civita"),
    "connections.ricci_matrix_s": ("cpu", "connections.ricci_matrix"),
    "pointcurv.point_geometry_self_s": ("self", "pointcurv.point_geometry"),
    "pointcurv.omega_terms": ("count", "pointcurv.omega_terms"),
    "zmetric.z_setup_s": ("cpu", "zmetric.z_setup"),
    "zmetric.z_geometry_calls": ("calls", "zmetric.z_geometry"),
    "zmetric.ricci_z_s": ("cpu", "zmetric.ricci_z"),
    "canonical.ricci_canonical_s": ("cpu", "canonical.ricci_canonical"),
    "canonical.kahler_criterion_s": ("cpu", "canonical.kahler_criterion"),
    "canonical.contact_check_s": ("cpu", "canonical.contact_check"),
    "gaussc.complex_transform_s": ("cpu", "gaussc.complex_transform"),
    "liealg.structure_constants_s": ("cpu", "liealg.structure_constants"),
    "liealg.structure_constants_calls": ("calls", "liealg.structure_constants"),
    "liealg.make_rules_s": ("cpu", "liealg.make_rules"),
    "liealg.hpn_curvature_s": ("cpu", "liealg.hpn_curvature"),
    "liealg.verify_block_equations_s": ("cpu", "liealg.verify_block_equations"),
    "verify.suite_s": ("wall", "verify.run_checks"),
    "flow.integrate_s": ("cpu", "flow.integrate"),
    "flow.samples": ("count", "flow.samples"),
    "flow.trajectory_to_csv_s": ("cpu", "flow.trajectory_to_csv"),
    "flow.trajectory_to_json_s": ("cpu", "flow.trajectory_to_json"),
    "flow.entropy_series_s": ("cpu", "flow.entropy_series"),
    "flow.entropy_to_csv_s": ("cpu", "flow.entropy_to_csv"),
    "flow.export_bytes": ("count", "flow.export_bytes"),
    "cli.self_s": ("self", "cli.main"),
}
CHECK_METRICS = [f"verify.check.{name}_s" for name in CHECK_NAMES] + ["verify.checks_sum_s"]


def _omega_terms(geo) -> int:
    return sum(len(c.terms) for row in geo.omega.entries for e in row for c in e.coeffs.values())


# counters taken from a span's return value
RESULT_COUNTERS = {
    "pointcurv.point_geometry": ("pointcurv.omega_terms", _omega_terms),
    "flow.integrate": ("flow.samples", lambda traj: len(traj.samples)),
    "flow.trajectory_to_csv": ("flow.export_bytes", len),
    "flow.trajectory_to_json": ("flow.export_bytes", len),
    "flow.entropy_to_csv": ("flow.export_bytes", len),
    "flow.entropy_to_json": ("flow.export_bytes", len),
}


class _ThreadState:
    def __init__(self):
        self.cpu = Counter()
        self.self_cpu = Counter()
        self.wall = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.open: set[str] = set()
        self.child_cpu: list[float] = []  # one accumulator per open span


class Tracer:
    """Wraps the program's layers in place, for the rest of the process."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _span(self, name: str, fn):
        tracer = self
        counter = RESULT_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.calls[name] += 1
            if name in st.open:
                return fn(*args, **kwargs)
            st.open.add(name)
            st.child_cpu.append(0.0)
            c0, w0 = time.thread_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dc = time.thread_time() - c0
                st.wall[name] += time.perf_counter() - w0
                st.cpu[name] += dc
                st.self_cpu[name] += dc - st.child_cpu.pop()
                if st.child_cpu:
                    st.child_cpu[-1] += dc
                st.open.discard(name)
            if counter is not None:
                st.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in ALL_MODULES}
        for short in SPAN_MODULES:
            mod = mods[short]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (short == "cli" and attr not in CLI_SPANS)
                        or f"{short}.{attr}" in UNSPANNED):
                    continue
                wrapped = self._span(f"{short}.{attr}", fn)
                for other in mods.values():  # the module itself and every from-import
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, name, wrapped)
        forms, coeff = mods["forms"], mods["coeff"]
        forms.FormMatrix.d = self._span("forms.FormMatrix.d", forms.FormMatrix.d)
        mul, add = coeff.Coeff.__mul__, coeff.Coeff.__add__
        tracer = self

        def counted_mul(a, b):
            c = tracer._state().counts
            out = mul(a, b)
            c["coeff.mul_calls"] += 1
            c["coeff.mul_pairs"] += len(a.terms) * len(b.terms)
            c["coeff.mul_out_terms"] += len(out.terms)
            return out

        def counted_add(a, b):
            tracer._state().counts["coeff.add_calls"] += 1
            return add(a, b)

        coeff.Coeff.__mul__ = counted_mul
        coeff.Coeff.__add__ = counted_add

    def totals(self) -> dict[str, Counter]:
        out = {k: Counter() for k in ("cpu", "self", "wall", "calls", "count")}
        with self._lock:
            for st in self._states:
                out["cpu"].update(st.cpu)
                out["self"].update(st.self_cpu)
                out["wall"].update(st.wall)
                out["calls"].update(st.calls)
                out["count"].update(st.counts)
        return out

    def layer_metrics(self, argv: list[str]) -> dict[str, float]:
        """The per-layer metrics of the operation just run; for `verify`,
        each check is then also timed alone through run_checks(n, [name])."""
        tot = self.totals()
        metrics = {name: float(tot[kind][src]) for name, (kind, src) in LAYER_METRICS.items()}
        metrics.update(dict.fromkeys(CHECK_METRICS, 0.0))
        if argv and argv[0] == "verify":
            metrics.update(self._time_checks(int(argv[argv.index("--n") + 1])))
        return metrics

    def _time_checks(self, n: int) -> dict[str, float]:
        from twistorflow import canonical, verify
        out = {}
        for name in CHECK_NAMES:
            canonical._sp_structure.cache_clear()  # as in a fresh process
            t0 = time.perf_counter()
            verify.run_checks(n, checks=[name])
            out[f"verify.check.{name}_s"] = time.perf_counter() - t0
        out["verify.checks_sum_s"] = sum(out.values())
        return out
