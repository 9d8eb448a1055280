"""Layer tracing from outside the program.

`Tracer.install(focklab)` replaces every public function and every public
method or arithmetic operator of every public class in focklab's modules with
a wrapper that times the call.  A wrapper opens a span only when the call
crosses a layer boundary (the caller is another layer, or the benchmark);
calls inside a layer run through to keep the overhead low.  Self time of a
span is its duration minus the spans of other layers it caused, so the self
times of all layers plus the benchmark's own share add up to the traced
wall time exactly.

Spans are aggregated per function (calls, self time, errors) instead of kept
one by one: the scalar and rational-function layers make millions of calls.

A few probes count where work is wasted, at the same boundaries:
  scalars.zero_operand_ratio    GaussianRational products with a zero factor
  linalg.mul_useful_ratio       sum_k nnz(A[:,k]) nnz(B[k,:]) / (n m p)
  laurent.residue_useful_ratio  pairs (e, -1-e) that reach the residue /
                                coefficient products the product series forms
  oscillator.apply_distinct_ratio  distinct (operator, vector) / apply calls
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import time

LAYERS = (
    "scalars", "ratfunc", "linalg", "forms", "laurent", "fock",
    "oscillator", "subalgebra", "geometry", "hodge", "cli",
)
MODULE_LAYER = {f"focklab.{name}": name for name in LAYERS}
MODULE_LAYER["focklab.reports"] = "cli"
HARNESS = "bench"

# Dunders that carry arithmetic or construction work.  Accessors such as
# __hash__, __bool__, __getitem__ and __repr__ stay unwrapped: their cost is
# the caller's.
_DUNDERS = {
    "__init__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__pow__", "__call__",
}


class FunctionStats:
    __slots__ = ("layer", "name", "calls", "self_s", "errors")

    def __init__(self, layer, name):
        self.layer, self.name = layer, name
        self.calls, self.self_s, self.errors = 0, 0.0, 0


class Tracer:
    """Per-layer calls, self time and errors, plus the waste counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [layer, time covered by child spans]
        self.functions = []
        self.counters = {
            "scalars.mul": 0, "scalars.mul_zero": 0,
            "linalg.products": 0, "linalg.useful": 0,
            "laurent.residue_calls": 0, "laurent.residue_products": 0,
            "laurent.residue_useful": 0,
            "oscillator.quasi_symplectic_checks": 0,
            "oscillator.apply_calls": 0,
        }
        self._apply_keys = set()
        self._keep_alive = []  # keeps ids in apply keys from being reused
        self._root = None
        self._root_start = 0.0
        self._harness_s = 0.0
        self._originals = []  # (owner, attribute, value before install)

    # -- spans ----------------------------------------------------------------

    def wrap(self, fn, layer, name, probe=None):
        """Return fn timed as a call into `layer`; probe(args, result) runs
        after every call, nested or not."""
        stats = FunctionStats(layer, name)
        self.functions.append(stats)
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(args, result)
                return result
            frame = [layer, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if not ok:
                    stats.errors += 1
                if stack:
                    stack[-1][1] += elapsed
            if probe is not None:
                probe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def start(self):
        """Open the root span that holds the benchmark's own time."""
        self._root = [HARNESS, 0.0]
        self.stack.append(self._root)
        self._root_start = self.clock()

    def stop(self) -> float:
        """Close the root span; returns the traced wall time."""
        wall = self.clock() - self._root_start
        self.stack.remove(self._root)
        self._harness_s = wall - self._root[1]
        return wall

    # -- installation ------------------------------------------------------------

    def install(self, package):
        """Wrap focklab's public API in place; every module that imported a
        wrapped name by value gets the wrapper too."""
        modules = {name: importlib.import_module(name) for name in MODULE_LAYER}
        replaced = {}
        for modname, mod in modules.items():
            layer = MODULE_LAYER[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(obj, layer, f"{layer}.{attr}", self._probe_for(attr))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, layer)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._replace(mod, attr, replaced[obj])

    def uninstall(self):
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def _replace(self, owner, attr, value):
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            probe = self._probe_for(f"{cls.__name__}.{attr}")
            if isinstance(raw, staticmethod):
                self._replace(cls, attr, staticmethod(self.wrap(raw.__func__, layer, name, probe)))
            elif isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self.wrap(raw.__func__, layer, name, probe)))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, self.wrap(raw, layer, name, probe))

    def _probe_for(self, name):
        return {
            "GaussianRational.__mul__": self._probe_scalar_mul,
            "GaussianRational.__rmul__": self._probe_scalar_mul,
            "ExactMatrix.__mul__": self._probe_matrix_mul,
            "ExactMatrix.apply": self._probe_matrix_apply,
            "residue_form": self._probe_residue_form,
            "check_quasi_symplectic": self._probe_quasi_symplectic,
            "QuadraticOperator.apply": self._probe_operator_apply,
            "LiftedDerivation.apply": self._probe_operator_apply,
        }.get(name)

    # -- probes -------------------------------------------------------------------

    def _probe_scalar_mul(self, args, result):
        if result is NotImplemented:
            return
        self.counters["scalars.mul"] += 1
        if not args[0] or not args[1]:
            self.counters["scalars.mul_zero"] += 1

    def _probe_matrix_mul(self, args, result):
        a, b = args
        if not hasattr(b, "rows"):
            return  # scalar multiple
        n, m, p = a.nrows, a.ncols, b.ncols
        col_nnz = [0] * m
        for row in a.rows:
            for k, x in enumerate(row):
                if x:
                    col_nnz[k] += 1
        useful = sum(c * sum(1 for y in b.rows[k] if y) for k, c in enumerate(col_nnz))
        self.counters["linalg.products"] += n * m * p
        self.counters["linalg.useful"] += useful

    def _probe_matrix_apply(self, args, result):
        a, vec = args
        self.counters["linalg.products"] += a.nrows * a.ncols
        self.counters["linalg.useful"] += sum(
            1 for row in a.rows for x, v in zip(row, vec) if x and v
        )

    def _probe_residue_form(self, args, result):
        # res(g df) as computed today: the whole product g * f' within its
        # window, of which only exponent -1 is read.
        f, g = args
        df = f.derivative()
        prec = min(g.floor + df.prec, df.floor + g.prec)
        exps = sorted(df.coeffs)
        products = sum(bisect.bisect_left(exps, prec - e) for e in g.coeffs)
        useful = sum(1 for e in g.coeffs if (-1 - e) in df.coeffs)
        self.counters["laurent.residue_calls"] += 1
        self.counters["laurent.residue_products"] += products
        self.counters["laurent.residue_useful"] += useful

    def _probe_quasi_symplectic(self, args, result):
        self.counters["oscillator.quasi_symplectic_checks"] += 1

    def _probe_operator_apply(self, args, result):
        op, vec = args
        if hasattr(op, "weights"):
            op_key = (tuple(sorted(op.weights.items())), op.klo, op.khi, op.central)
        else:  # LiftedDerivation: its derivation and the basis objects it uses
            op_key = (repr(op.D), tuple(sorted((i, id(e)) for i, e in op.basis.items())))
            self._keep_alive.append(op.basis)
        self.counters["oscillator.apply_calls"] += 1
        self._apply_keys.add((op_key, tuple(sorted(vec.terms.items()))))

    # -- results ------------------------------------------------------------------

    def layer_totals(self) -> dict:
        totals = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for st in self.functions:
            t = totals[st.layer]
            t["calls"] += st.calls
            t["self_s"] += st.self_s
            t["errors"] += st.errors
        return totals

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of a traced pass whose wall time was wall_s."""
        c = self.counters
        out = {}
        for layer, t in self.layer_totals().items():
            out[f"{layer}.calls"] = (t["calls"], "count")
            out[f"{layer}.self_s"] = (t["self_s"], "s")
            out[f"{layer}.errors"] = (t["errors"], "count")
        out["bench.self_s"] = (self._harness_s, "s")
        out["scalars.zero_operand_ratio"] = (_ratio(c["scalars.mul_zero"], c["scalars.mul"]), "ratio")
        out["linalg.mul_useful_ratio"] = (_ratio(c["linalg.useful"], c["linalg.products"]), "ratio")
        out["laurent.residue_calls"] = (c["laurent.residue_calls"], "count")
        out["laurent.residue_useful_ratio"] = (
            _ratio(c["laurent.residue_useful"], c["laurent.residue_products"]), "ratio")
        out["oscillator.quasi_symplectic_checks"] = (c["oscillator.quasi_symplectic_checks"], "count")
        out["oscillator.apply_distinct_ratio"] = (
            _ratio(len(self._apply_keys), c["oscillator.apply_calls"]), "ratio")
        out["traced_verify_s"] = (wall_s, "s")
        return out

    def top_functions(self, n=25):
        ranked = sorted(self.functions, key=lambda s: s.self_s, reverse=True)[:n]
        return [
            {"name": s.name, "calls": s.calls, "self_s": round(s.self_s, 6), "errors": s.errors}
            for s in ranked if s.calls
        ]


def _ratio(num, den):
    """num / den, or 0.0 when the layer made no such call."""
    return num / den if den else 0.0
