"""Per-layer spans and counters, installed from outside the library.

Nothing under src/ is changed: the tracer rebinds the layer entry points
named in HOOKS (module functions in every funcjohn module that imported
them, and _Engine / Bump methods on their classes) to timing wrappers, and
swaps johnsolve's reference to scipy.optimize for a proxy that counts
minimize runs.  A layer's self time is its span's duration minus the time
covered by its child spans.  A hook that no longer resolves is listed in
``missing`` and its metrics read 0; the run goes on.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# span name, module, attribute path, and whose rows the span counts: the
# index of an argument, "result" for the returned array, or None
HOOKS = (
    ("johnsolve.fused", "funcjohn.johnsolve", "_Engine.fused", None),
    ("johnsolve.target_log_grad", "funcjohn.johnsolve", "target_log_grad", 1),
    ("johnsolve.solve_lambda", "funcjohn.johnsolve", "_Engine.solve_lambda",
     None),
    ("johnsolve.separation", "funcjohn.johnsolve", "_Engine.separation", None),
    ("johnsolve.sup_over", "funcjohn.johnsolve", "_Engine._sup_over", None),
    ("johnsolve.certify", "funcjohn.johnsolve", "_Engine.certify", None),
    ("johnsolve.extract_and_certify", "funcjohn.johnsolve",
     "extract_and_certify", None),
    ("verify.ball_grid", "funcjohn.verify", "ball_grid", "result"),
    ("cli.main", "funcjohn.cli", "main", None),
    ("polar.bump_log_sup", "funcjohn.polar", "bump_log_sup", 1),
    ("polar.highs", "funcjohn.polar", "_bump_log_sup_linprog", 3),
    ("decomp.generate_decomposition", "funcjohn.decomp",
     "generate_decomposition", None),
    ("decomp.hull_ball_margin", "funcjohn.decomp", "hull_ball_margin", None),
    ("decomp.weights_from_points", "funcjohn.decomp", "weights_from_points",
     None),
    ("decomp.regularize_decomposition", "funcjohn.decomp",
     "regularize_decomposition", None),
    ("bump.bump_from_decomposition", "funcjohn.bump",
     "bump_from_decomposition", None),
    ("bump.norm_gap_probe", "funcjohn.bump", "norm_gap_probe", None),
    ("verify.check_domination", "funcjohn.verify", "check_domination", None),
    ("verify.sandwich_construct", "funcjohn.verify", "sandwich_construct",
     None),
    ("verify.john_inclusion_check", "funcjohn.verify", "john_inclusion_check",
     None),
    ("lcfunc.bump_log_evaluate", "funcjohn.lcfunc", "Bump.log_evaluate_many",
     1),
)

# metrics of a traced run, in BENCHMARK.json order
SPAN_METRICS = (
    "johnsolve.fused.calls", "johnsolve.fused.self_s",
    "johnsolve.lbfgs.runs", "johnsolve.lbfgs.iters",
    "johnsolve.target_log_grad.calls", "johnsolve.target_log_grad.rows",
    "johnsolve.target_log_grad.self_s",
    "johnsolve.solve_lambda.calls", "johnsolve.solve_lambda.self_s",
    "johnsolve.constraint_points",
    "johnsolve.separation.calls", "johnsolve.sup_over.calls",
    "johnsolve.sup_over.self_s",
    "johnsolve.certify.calls", "johnsolve.certify.self_s",
    "verify.ball_grid.calls", "verify.ball_grid.points",
    "verify.ball_grid.self_s",
    "johnsolve.extract_and_certify.self_s", "johnsolve.nelder_mead.runs",
    "cli.main.self_s",
    "polar.bump_log_sup.calls", "polar.bump_log_sup.rows",
    "polar.bump_log_sup.self_s", "polar.highs_lps", "polar.highs.self_s",
    "decomp.generate_decomposition.self_s", "decomp.hull_ball_margin.self_s",
    "decomp.weights_from_points.self_s",
    "decomp.regularize_decomposition.self_s",
    "bump.bump_from_decomposition.self_s", "bump.norm_gap_probe.self_s",
    "verify.check_domination.self_s", "verify.sandwich_construct.self_s",
    "verify.john_inclusion_check.self_s",
    "lcfunc.bump_log_evaluate.rows", "lcfunc.bump_log_evaluate.self_s",
)

# counters whose name differs from <span>.rows
_ROW_NAMES = {"polar.highs": "polar.highs_lps",
              "verify.ball_grid": "verify.ball_grid.points"}


def metric_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    if shape:
        return int(shape[0]) if len(shape) > 1 else 1
    return 0


class _OptimizeProxy:
    """Stands in for scipy.optimize inside johnsolve and counts the L-BFGS
    runs, their iterations, and the Nelder-Mead runs it forwards."""

    def __init__(self, real, counts: Counter):
        self._real, self._counts = real, counts

    def __getattr__(self, name):
        return getattr(self._real, name)

    def minimize(self, *args, **kwargs):
        res = self._real.minimize(*args, **kwargs)
        method = str(kwargs.get("method", "")).lower()
        if method == "l-bfgs-b":
            self._counts["johnsolve.lbfgs.runs"] += 1
            self._counts["johnsolve.lbfgs.iters"] += int(
                getattr(res, "nit", 0))
        elif method == "nelder-mead":
            self._counts["johnsolve.nelder_mead.runs"] += 1
        return res


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, seconds in children]
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.counts.clear()
        self.self_s.clear()

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in SPAN_METRICS:
            span, _, kind = name.rpartition(".")
            out[name] = float(self.self_s[span] if kind == "self_s"
                              else self.counts[name])
        return out

    # --- spans -----------------------------------------------------------

    def _wrap(self, span: str, fn, rows_at):
        stack, counts, self_s = self._stack, self.counts, self.self_s
        rows_name = _ROW_NAMES.get(span, span + ".rows")
        calls_name = span + ".calls"

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == span:
                # a layer calling itself (a positioned target recursing into
                # its inner function) stays one span
                return fn(*args, **kwargs)
            frame = [span, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame[1]
                self_s[span] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
            counts[calls_name] += 1
            if rows_at == "result":
                counts[rows_name] += _rows(result)
            elif rows_at is not None and len(args) > rows_at:
                counts[rows_name] += _rows(args[rows_at])
            return result

        return traced

    def _rebind_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "funcjohn" and not modname.startswith("funcjohn."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        self.missing = []
        for span, modname, path, rows_at in HOOKS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(span, original, rows_at)
            if outer:  # a method: rebind on its class
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._rebind_everywhere(original, wrapped)
        self._install_engine_counters()

    def _install_engine_counters(self) -> None:
        """johnsolve.constraint_points sums, over solver engines, the final
        size of the constraint sample: its initial size plus every point the
        exchange adds.  Also swaps in the scipy.optimize proxy."""
        try:
            js = importlib.import_module("funcjohn.johnsolve")
            engine = js._Engine
            init, add = engine.__init__, engine.add_points
            real_optimize = js.optimize
        except (ImportError, AttributeError):
            self.missing.append("funcjohn.johnsolve._Engine (counters)")
            return
        counts = self.counts

        def counted_init(eng, *args, **kwargs):
            init(eng, *args, **kwargs)
            counts["johnsolve.constraint_points"] += _rows(
                getattr(eng, "Y", None))

        def counted_add(eng, points):
            added = add(eng, points)
            counts["johnsolve.constraint_points"] += int(added)
            return added

        for attr, value, original in (("__init__", counted_init, init),
                                      ("add_points", counted_add, add)):
            self._undo.append((engine, attr, original))
            setattr(engine, attr, value)
        self._undo.append((js, "optimize", real_optimize))
        js.optimize = _OptimizeProxy(real_optimize, counts)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
