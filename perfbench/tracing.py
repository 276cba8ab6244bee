"""Spans around the package's module boundaries, recorded from outside.

The traced run replaces the module-level names that the package looks
up at call time (``cli.minimize``, ``optimizer.energy_gradient``,
``diagnostics.covering_radius``, the ``retract``/``tangent_project`` of
each built set, ...) with wrappers that record one span per call:
name, start, end and the index of the enclosing span.  Spans stay in
memory until the pass ends; ``layer_metrics`` then derives per-layer
calls, inclusive and self time, and the counts named in the README.
No file of the package changes.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from functools import wraps

# (module, attribute, span name): every name a caller looks up.  The
# same function imported into several modules gets one wrapper per
# module, all reporting under one span name.
BOUNDARIES = (
    ("cli", "main", "cli.main"),
    ("cli", "_write_run", "cli.export"),
    ("cli", "set_from_descriptor", "geometry.set_from_descriptor"),
    ("cli", "riesz_constant", "constants.riesz_constant"),
    ("cli", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("cli", "minimize", "optimizer.minimize"),
    ("cli", "design_field", "fields.design_field"),
    ("constants", "riesz_constant", "constants.riesz_constant"),
    ("equilibrium", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("fields", "riesz_constant", "constants.riesz_constant"),
    ("fields", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("fields", "design_field", "fields.design_field"),
    ("fields", "perturbed_density", "fields.perturbed_density"),
    ("fields", "catalog", "fields.catalog"),
    ("geometry", "make_interval", "geometry.make_interval"),
    ("geometry", "make_sphere", "geometry.make_sphere"),
    ("geometry", "make_torus", "geometry.make_torus"),
    ("geometry", "covering_mesh", "geometry.covering_mesh"),
    ("optimizer", "energy", "optimizer.energy"),
    ("optimizer", "energy_gradient", "optimizer.energy_gradient"),
    ("optimizer", "field_gradient", "fields.field_gradient"),
    ("optimizer", "minimize", "optimizer.minimize"),
    ("diagnostics", "energy", "optimizer.energy"),
    ("diagnostics", "separation", "diagnostics.separation"),
    ("diagnostics", "covering_radius", "diagnostics.covering_radius"),
    ("diagnostics", "sublevel_components", "diagnostics.sublevel_components"),
    ("diagnostics", "empirical_density", "diagnostics.empirical_density"),
    ("diagnostics", "density_table_average", "diagnostics.density_table_average"),
    ("diagnostics", "build_report", "diagnostics.build_report"),
)

# layers reported as calls, s, self_s and ms_per_call
TIMED_LAYERS = (
    "cli.main",
    "optimizer.minimize",
    "optimizer.energy_gradient",
    "optimizer.energy",
    "geometry.retract",
    "geometry.tangent_project",
    "fields.field_gradient",
    "equilibrium.solve_equilibrium",
    "diagnostics.build_report",
)

# layers reported by inclusive time only
TOTAL_ONLY = (
    "constants.riesz_constant",
    "fields.design_field",
    "fields.perturbed_density",
    "diagnostics.covering_radius",
    "diagnostics.separation",
    "diagnostics.sublevel_components",
    "geometry.covering_mesh",
    "cli.export",
)

class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, on_result=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(fn, args, kwargs, out)
            return out

        return traced

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self, modules):
        """Wrap every boundary of ``modules`` (short name -> module)."""
        hooks = {
            "optimizer.energy_gradient": self._on_gradient,
            "optimizer.minimize": self._on_minimize,
            "equilibrium.solve_equilibrium": self._on_equilibrium,
            "geometry.covering_mesh": self._on_mesh,
            "cli.export": self._on_export,
            "geometry.make_interval": self._on_set,
            "geometry.make_sphere": self._on_set,
            "geometry.make_torus": self._on_set,
        }
        for mod, attr, name in BOUNDARIES:
            obj = modules[mod]
            orig = getattr(obj, attr)
            self._patches.append((obj, attr, orig))
            setattr(obj, attr, self.wrap(name, orig, hooks.get(name)))

    def restore(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def wrap_set(self, cset):
        """Trace the per-set maps of a set built before ``install``."""
        cset.retract = self.wrap("geometry.retract", cset.retract)
        cset.tangent_project = self.wrap("geometry.tangent_project", cset.tangent_project)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    # -- result hooks: counts taken where the work happens

    def _on_set(self, fn, args, kwargs, cset):
        self.wrap_set(cset)

    def _on_mesh(self, fn, args, kwargs, pts):
        self.count("geometry.covering_mesh.points", len(pts))

    def _on_gradient(self, fn, args, kwargs, grad):
        n, p = grad.shape
        # diff tensor (n*n*p doubles) plus the r2 and coef n*n arrays;
        # computed from the shapes, not measured
        self.count("optimizer.energy_gradient.bytes_computed", (8 * p + 16) * n * n)

    def _on_minimize(self, fn, args, kwargs, result):
        a = _bind(fn, args, kwargs)
        cset, s, n = a["cset"], a["s"], a["N"]
        grad_tol = a["settings"].grad_tol if a["settings"] is not None else 1e-6
        gtol = grad_tol * float(n) ** (1.0 + s / cset.hausdorff_dim) * cset.diameter ** (-s - 1.0)
        worst = self.counts.get("optimizer.grad_ratio", 0.0)
        self.counts["optimizer.grad_ratio"] = max(worst, result.grad_norm / gtol)

    def _on_equilibrium(self, fn, args, kwargs, measure):
        info = measure.solver_info
        self.count("equilibrium.nodes", info["nodes"])
        self.count("equilibrium.evaluations", info["evaluations"])
        self.count("equilibrium.rounds", info["rounds"])
        self.count("equilibrium.budget_hits", int(info["nodes"] >= _bind(fn, args, kwargs)["budget"]))

    def _on_export(self, fn, args, kwargs, files):
        out_dir = args[0]
        self.count("cli.export.bytes", sum(os.path.getsize(os.path.join(out_dir, f)) for f in files))


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def layer_metrics(spans, counts, wall_s):
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children.  No boundary calls another boundary of the same name, so
    summing durations per name counts no interval twice.
    """
    children = {}
    for _, t0, t1, parent in spans:
        children[parent] = children.get(parent, 0.0) + (t1 - t0)
    calls, total, self_s = {}, {}, {}
    for i, (name, t0, t1, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - children.get(i, 0.0)

    out = {}
    for name in TIMED_LAYERS:
        c, s = calls.get(name, 0), total.get(name, 0.0)
        out[f"{name}.calls"] = c
        out[f"{name}.s"] = s
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.ms_per_call"] = 1e3 * s / c if c else 0.0
    for name in TOTAL_ONLY:
        out[f"{name}.s"] = total.get(name, 0.0)

    grads = calls.get("optimizer.energy_gradient", 0)
    bytes_total = counts.get("optimizer.energy_gradient.bytes_computed", 0)
    out["optimizer.energy_gradient.bytes_computed"] = bytes_total / grads if grads else 0.0
    trials, accepted = _line_search(spans)
    out["optimizer.linesearch.trials_per_iter"] = trials / accepted if accepted else 0.0
    out["optimizer.linesearch.accept_ratio"] = accepted / trials if trials else 0.0
    out["optimizer.iterations"] = sum(
        1 for name, _, _, parent in spans
        if name == "optimizer.energy_gradient" and parent >= 0 and spans[parent][0] == "optimizer.minimize"
    )
    for key in ("optimizer.grad_ratio", "equilibrium.nodes", "equilibrium.evaluations",
                "equilibrium.rounds", "equilibrium.budget_hits",
                "geometry.covering_mesh.points", "cli.export.bytes"):
        out[key] = counts.get(key, 0)
    top = sum(t1 - t0 for _, t0, t1, parent in spans if parent < 0)
    out["trace.top_level_coverage"] = top / wall_s if wall_s > 0 else 0.0
    return out


def _line_search(spans):
    """Line-search trials and accepted steps under each minimize span.

    Within one descent every gradient call after the first follows
    exactly one accepted step, so the energy probes between two
    consecutive gradient calls are one iteration's trials, the last of
    them accepted.  Probes after the final gradient call are left out:
    whether that last search succeeded is not visible from outside.
    """
    trials = accepted = 0
    seq = {}
    for name, _, _, parent in spans:
        if parent >= 0 and spans[parent][0] == "optimizer.minimize" and name in (
            "optimizer.energy", "optimizer.energy_gradient"
        ):
            seq.setdefault(parent, []).append(name)
    for names in seq.values():
        pending = None  # probes since the latest gradient call
        for name in names:
            if name == "optimizer.energy_gradient":
                if pending is not None:
                    trials += pending
                    accepted += 1
                pending = 0
            elif pending is not None:
                pending += 1
    return trials, accepted
