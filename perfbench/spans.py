"""Spans around dqplate's public layer functions, and the metrics made from them.

A ``Tracer`` replaces module attributes of the installed dqplate package with
timing wrappers.  Every call appends one span (name, start, end, parent,
task id) to a list held in memory; nothing is written until the run ends.
Because the wrappers replace module attributes, they see every call that the
package makes through a module (``plate_model.residual``) or through a name
it imported (``plate_model.kron``), and none that stays inside a function.

Self time is a span's duration minus the part of its interval that its child
spans cover.  Layer metrics are totals over the traced part of one run.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import namedtuple
from time import perf_counter

import numpy as np

Span = namedtuple("Span", "name start end parent task")

# (module, attribute, span name).  Names use the module that defines the
# function; kron and row_scale are wrapped where plate_model and
# linear_bending imported them.
WRAPPED = (
    ("case_runner", "parse_case", "case_runner.parse_case"),
    ("dq_core", "make_grid", "dq_core.make_grid"),
    ("dq_core", "diff_matrices", "dq_core.diff_matrices"),
    ("bc_builder", "build_operators", "bc_builder.build_operators"),
    ("bc_builder", "build_delta_rows", "bc_builder.build_delta_rows"),
    ("plate_model", "build_system", "plate_model.build_system"),
    ("plate_model", "assemble", "plate_model.assemble"),
    ("plate_model", "kron", "tensor_ops.kron"),
    ("linear_bending", "kron", "tensor_ops.kron"),
    ("plate_model", "row_scale", "tensor_ops.row_scale"),
    ("plate_model", "linear_solve", "plate_model.linear_solve"),
    ("plate_model", "residual", "plate_model.residual"),
    ("plate_model", "recover_inplane", "plate_model.recover_inplane"),
    ("plate_model", "jacobian", "plate_model.jacobian"),
    ("plate_model", "recover_fields", "plate_model.recover_fields"),
    ("newton_solver", "solve_plate", "newton_solver.solve_plate"),
    ("newton_solver", "newton", "newton_solver.newton"),
    ("newton_solver", "fd_jacobian", "newton_solver.fd_jacobian"),
    ("linear_bending", "linear_reference_center", "linear_bending.series"),
    ("linear_bending", "linear_center_builtin", "linear_bending.builtin"),
    ("linear_bending", "linear_center_delta", "linear_bending.delta"),
)

# Every per-layer metric, in print order, with its unit.  The names are the
# ``per_layer`` list of BENCHMARK.json.
LAYER_UNITS = {
    "case_runner.parse_ms": "ms",
    "dq_core.weights_ms": "ms",
    "dq_core.calls": "count",
    "bc_builder.reduce_ms": "ms",
    "bc_builder.calls": "count",
    "plate_model.assemble_ms": "ms",
    "tensor_ops.kron_ms": "ms",
    "plate_model.operator_mb": "MB",
    "plate_model.jacobian_ms": "ms",
    "plate_model.jacobian_calls": "count",
    "tensor_ops.row_scale_ms": "ms",
    "tensor_ops.row_scale_calls": "count",
    "plate_model.jacobian_gflop": "GFLOP",
    "plate_model.jacobian_gflop_per_s": "GFLOP/s",
    "plate_model.residual_ms": "ms",
    "plate_model.residual_calls": "count",
    "plate_model.recover_inplane_ms": "ms",
    "plate_model.recover_inplane_calls": "count",
    "newton_solver.fd_jacobian_ms": "ms",
    "newton_solver.iterations": "count",
    "newton_solver.residual_evals": "count",
    "newton_solver.accepted_per_eval": "ratio",
    "newton_solver.step_solve_ms": "ms",
    "newton_solver.self_ms": "ms",
    "plate_model.linear_solve_ms": "ms",
    "linear_bending.series_ms": "ms",
    "linear_bending.delta_ms": "ms",
    "process.cpu_per_wall": "ratio",
    "tracing.overhead_frac": "ratio",
}


def array_bytes(obj, seen=None) -> int:
    """Bytes of every distinct ndarray reachable through dataclass fields,
    tuples, lists and dict values."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(x, seen) for x in obj.values())
    return 0


class Tracer:
    """Records spans while installed; ``restore`` puts the originals back.

    ``task`` is stamped on every span opened while it is set.  Side records
    taken from arguments and return values: the byte size of each assembled
    system, n of each explicit Jacobian, and the iteration count and
    step-solve time of each Newton report.
    """

    def __init__(self):
        self.task = None
        self.system_bytes: list[int] = []
        self.jacobian_sizes: list[int] = []
        self.newton_iterations = 0
        self.step_solve_s = 0.0
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self, modules: dict) -> None:
        """Wrap every ``WRAPPED`` entry whose module and attribute exist."""
        hooks = {
            "plate_model.build_system": self._on_system,
            "plate_model.jacobian": self._on_jacobian,
            "newton_solver.newton": self._on_newton,
        }
        for module_name, attr, name in WRAPPED:
            module = modules.get(module_name)
            if module is not None and hasattr(module, attr):
                self._wrap(module, attr, name, hooks.get(name))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self) -> list[Span]:
        return [Span(*s) for s in self._spans]

    def _wrap(self, module, attr, name, on_return) -> None:
        original = getattr(module, attr)
        spans, stack = self._spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def _on_system(self, args, system) -> None:
        self.system_bytes.append(array_bytes(system))

    def _on_jacobian(self, args, result) -> None:
        self.jacobian_sizes.append(args[0].n)

    def _on_newton(self, args, result) -> None:
        report = result[1]
        self.newton_iterations += report.iterations
        self.step_solve_s += report.linear_time


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        covered, cursor = 0.0, s.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def jacobian_flop(n: int) -> float:
    """Computed flops of one explicit Jacobian with n unknowns per field:
    the LU solve of the 2n x 2n in-plane block for n right-hand sides
    (2 (2n)^2 n) plus four n x n by n x n products (2 n^3 each)."""
    return 2.0 * (2 * n) ** 2 * n + 4 * 2.0 * n**3


def layer_metrics(
    tracer: Tracer, cpu_per_wall: float, overhead_frac: float
) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in ``LAYER_UNITS``.

    Jacobian flops are computed from n of each explicit Jacobian, not
    counted.
    """
    spans = tracer.spans()
    own = self_times(spans)
    total: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start) * 1e3
        self_ms[s.name] = self_ms.get(s.name, 0.0) + t * 1e3
        calls[s.name] = calls.get(s.name, 0) + 1

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def cnt(*names):
        return sum(calls.get(n, 0) for n in names)

    newton_calls = cnt("newton_solver.newton")
    residual_evals = sum(
        1
        for s in spans
        if s.name == "plate_model.residual"
        and s.parent >= 0
        and spans[s.parent].name == "newton_solver.newton"
    )
    trial_evals = residual_evals - newton_calls
    gflop = sum(jacobian_flop(n) for n in tracer.jacobian_sizes) / 1e9
    jac_s = tot("plate_model.jacobian") / 1e3
    return {
        "case_runner.parse_ms": tot("case_runner.parse_case"),
        "dq_core.weights_ms": tot("dq_core.make_grid", "dq_core.diff_matrices"),
        "dq_core.calls": cnt("dq_core.make_grid", "dq_core.diff_matrices"),
        "bc_builder.reduce_ms": tot("bc_builder.build_operators", "bc_builder.build_delta_rows"),
        "bc_builder.calls": cnt("bc_builder.build_operators", "bc_builder.build_delta_rows"),
        "plate_model.assemble_ms": self_ms.get("plate_model.assemble", 0.0),
        "tensor_ops.kron_ms": tot("tensor_ops.kron"),
        "plate_model.operator_mb": max(tracer.system_bytes, default=0) / 2**20,
        "plate_model.jacobian_ms": self_ms.get("plate_model.jacobian", 0.0),
        "plate_model.jacobian_calls": cnt("plate_model.jacobian"),
        "tensor_ops.row_scale_ms": tot("tensor_ops.row_scale"),
        "tensor_ops.row_scale_calls": cnt("tensor_ops.row_scale"),
        "plate_model.jacobian_gflop": gflop,
        "plate_model.jacobian_gflop_per_s": gflop / jac_s if jac_s > 0 else 0.0,
        "plate_model.residual_ms": self_ms.get("plate_model.residual", 0.0),
        "plate_model.residual_calls": cnt("plate_model.residual"),
        "plate_model.recover_inplane_ms": tot("plate_model.recover_inplane"),
        "plate_model.recover_inplane_calls": cnt("plate_model.recover_inplane"),
        "newton_solver.fd_jacobian_ms": tot("newton_solver.fd_jacobian"),
        "newton_solver.iterations": tracer.newton_iterations,
        "newton_solver.residual_evals": residual_evals,
        "newton_solver.accepted_per_eval": (
            tracer.newton_iterations / trial_evals if trial_evals > 0 else 0.0
        ),
        "newton_solver.step_solve_ms": tracer.step_solve_s * 1e3,
        "newton_solver.self_ms": self_ms.get("newton_solver.newton", 0.0),
        "plate_model.linear_solve_ms": tot("plate_model.linear_solve"),
        "linear_bending.series_ms": tot("linear_bending.series"),
        "linear_bending.delta_ms": tot("linear_bending.delta"),
        "process.cpu_per_wall": cpu_per_wall,
        "tracing.overhead_frac": overhead_frac,
    }
