"""Per-layer spans measured from outside the package.

Only the traced benchmark process installs these wrappers.  Each wrapped
call is a span with a layer and a name; a stack of open spans gives every
span its parent, so a layer's self time is its spans' durations minus the
part covered by their child spans.  The package itself is not modified:
the geometry is traced through a ``NormedSpace`` subclass handed to the
solver as its space, oracles through instance attributes, and the other
layers through patched module and class attributes that are restored on
exit.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import arplr.harness
import arplr.solver
from arplr import NormedSpace, RegularizedModel, SymmetricTensor, TaylorModel, Termination

# metric name of each traced tensor method; other public methods are
# traced under their own names and only counted in tensors.calls
TENSOR_METHODS = {
    (SymmetricTensor, "apply"): "apply",
    (SymmetricTensor, "partial_apply"): "partial_apply",
    (TaylorModel, "value"): "taylor_value",
    (TaylorModel, "gradient"): "taylor_gradient",
    (RegularizedModel, "value"): "model_value",
    (RegularizedModel, "gradient_from_taylor"): "gradient_from_taylor",
}
GEOMETRY_METHODS = ("norm", "dual_norm", "duality_map", "dual_direction")


class Tracer:
    """In-memory span accounting: calls, inclusive and self seconds, and
    byte counts keyed by layer and name."""

    def __init__(self):
        self._stack = []
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.tallies = Counter()

    def wrap(self, layer, name, fn, before=None, after=None):
        stack, key = self._stack, (layer, name)
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[key] += 1
                total_s[key] += duration
                self_s[layer] += duration - frame[0]
            if after is not None:
                after(result)
            return result

        return traced

    def layer_calls(self, layer) -> int:
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def mean_us(self, layer, name):
        """Inclusive microseconds per call, or None when never called."""
        n = self.calls[(layer, name)]
        return 1e6 * self.total_s[(layer, name)] / n if n else None

    # -- installers ----------------------------------------------------------

    def space_type(self):
        """A NormedSpace subclass whose geometry calls are spans."""
        methods = {
            name: self.wrap("geometry", name, getattr(NormedSpace, name))
            for name in GEOMETRY_METHODS
        }
        return type("TracedSpace", (NormedSpace,), methods)

    def wrap_oracle(self, problem):
        """Trace eval_f and eval_derivative on the oracle instance (once)."""
        if "eval_f" in vars(problem):
            return

        def derivative_bytes(tensor):
            self.tallies["deriv_bytes"] += tensor.entries.nbytes

        problem.eval_f = self.wrap("problems", "eval_f", problem.eval_f)
        problem.eval_derivative = self.wrap(
            "problems", "eval_derivative", problem.eval_derivative, after=derivative_bytes
        )

    @contextlib.contextmanager
    def patched(self):
        """Patch solver, inner, harness and tensor entry points; restore on exit."""

        def tensor_bytes(args):
            self.tallies["bytes_touched"] += args[0].entries.nbytes

        def inner_result(result):
            self.tallies["inner_iters"] += result.iterations
            self.tallies["guard_hits"] += result.termination is Termination.MAX_ITERS

        targets = [
            (arplr.solver, "solve", self.wrap("solver", "solve", arplr.solver.solve)),
            (arplr.solver, "minimize_model",
             self.wrap("inner", "minimize_model", arplr.solver.minimize_model,
                       after=inner_result)),
            (arplr.solver, "check_trajectory",
             self.wrap("check", "check_trajectory", arplr.solver.check_trajectory)),
            (arplr.harness, "write_run_record",
             self.wrap("harness", "write_run_record", arplr.harness.write_run_record)),
        ]
        for cls in (SymmetricTensor, TaylorModel, RegularizedModel):
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") or not callable(attr):
                    continue
                metric = TENSOR_METHODS.get((cls, name), f"{cls.__name__}.{name}")
                touched = tensor_bytes if cls is SymmetricTensor else None
                targets.append((cls, name, self.wrap("tensors", metric, attr, before=touched)))
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
        try:
            for owner, name, fn in targets:
                setattr(owner, name, fn)
            yield self
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)
