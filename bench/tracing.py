"""Outside-in layer tracing of biharm.

The tracer wraps biharm's public functions where the calling module
imported them (``biharm.scenario.point_geometry`` and so on), so every
call that crosses from one module of ``src/biharm`` into another opens a
span.  Calls inside one module are not seen; their time stays with the
span that encloses them.  Each span has a name (``<layer>.<function>``,
the layer being the module that defines the function), a start, an end
and a parent.  Spans stay in memory until the run ends.

Two jet-level boundaries are too hot for one record per call: every
``Jet`` product (``Jet.__mul__``/``__rmul__``) is only counted, and the
dense product kernel (``_JetSpace.mul``) is counted and timed in
aggregate under its calling span.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

# module namespace -> functions wrapped there (names imported from other
# modules, plus a module's own names that other modules reach through it).
BOUNDARIES = {
    "biharm.scenario": (
        "load_scenario", "run_check", "emit_report", "sweep_solve", "convergence_study",
        "point_geometry", "normal_derivatives", "scalar_curvature",
        "pseudo_umbilical_check", "fd_normal_laplacian",
        "decompose", "classify", "verify_relations",
        "residual_general", "residual_gcsf", "residual_gssf", "reduction_residual",
        "proper_biharmonic_verdict", "cmc_characterization", "bound_check",
        "nonexistence_audit",
        "coefficients_at", "verify_structure",
    ),
    "biharm.submanifold": (
        "point_geometry",  # the FD oracle's order-2 geometry calls
        "metric_at", "curvature_parts", "christoffel_point", "tangent_projector",
        "scalar_from_metric_jets", "evaluate_jet_env",
        "embed", "extract", "jet_matrix_inverse",
    ),
    "biharm.structure": ("metric_at", "structure_at", "tangent_projector"),
    "biharm.residuals": ("coefficients_at", "curvature_parts", "structure_at"),
    "biharm.ambient": ("evaluate_jet_env", "jet_matrix_inverse"),
    "biharm.exprs": ("evaluate_expr", "evaluate_jet"),
}

SCENARIO_OPS = ("scenario.run_check", "scenario.sweep_solve", "scenario.convergence_study")

# Stages that _evaluate_point runs once per grid sample.
PER_SAMPLE = (
    "submanifold.point_geometry", "submanifold.normal_derivatives", "structure.decompose",
    "structure.classify", "residuals.residual_general", "residuals.residual_gcsf",
    "residuals.residual_gssf", "residuals.reduction_residual",
    "submanifold.pseudo_umbilical_check", "submanifold.scalar_curvature",
    "ambient.coefficients_at", "structure.verify_relations",
)
AMBIENT_POINTWISE = ("ambient.metric_at", "ambient.structure_at", "ambient.coefficients_at",
                     "ambient.curvature_parts", "ambient.christoffel_point",
                     "ambient.tangent_projector")
RESIDUAL_POINTWISE = ("residuals.residual_general", "residuals.residual_gcsf",
                      "residuals.residual_gssf", "residuals.reduction_residual")
RESIDUAL_AGGREGATE = ("residuals.proper_biharmonic_verdict", "residuals.cmc_characterization",
                      "residuals.bound_check", "residuals.nonexistence_audit")
EXPRS = ("exprs.evaluate_jet_env", "exprs.evaluate_expr", "exprs.evaluate_jet")
KERNEL = "jets.kernel"
LAYERS = ("jets", "exprs", "ambient", "submanifold", "structure", "residuals", "scenario")


class Tracer:
    """Span recorder.  ``install`` patches biharm, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one column entry per span, in call order
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self._stack: list[int] = []
        self._child: list[float] = []      # time covered by children, per open span
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, fn, count_order=False):
        nid = self._name_id(name)
        names, starts, ends, parents, raised = (self.name, self.start, self.end, self.parent,
                                                self.raised)
        stack, child, self_time, counts = self._stack, self._child, self.self_time, self.counts

        def traced(*args, **kwargs):
            if count_order:
                order = args[3] if len(args) > 3 else kwargs.get("order", 4)
                counts[f"{name}.order{order}_calls"] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            raised.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                covered = child.pop()
                starts[idx] = start
                ends[idx] = end
                self_time[name] += (end - start) - covered
                if child:
                    child[-1] += end - start

        return traced

    def _kernel(self, fn):
        child, self_time, counts = self._child, self.self_time, self.counts

        def kernel(space, a, b):
            start = time.perf_counter()
            out = fn(space, a, b)
            dt = time.perf_counter() - start
            counts["jets.kernel_products"] += 1
            self_time[KERNEL] += dt
            if child:
                child[-1] += dt
            return out

        return kernel

    def _counted(self, fn):
        counts = self.counts

        def mul(a, b):
            counts["jets.products"] += 1
            return fn(a, b)

        return mul

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        jets = importlib.import_module("biharm.jets")
        for modname, names in BOUNDARIES.items():
            mod = importlib.import_module(modname)
            for attr in names:
                fn = getattr(mod, attr)
                layer = fn.__module__.rsplit(".", 1)[-1]
                self._patch(mod, attr, self._span(
                    f"{layer}.{attr}", fn, count_order=attr == "point_geometry"))
        mul = jets.Jet.__dict__["__mul__"]
        rmul = jets.Jet.__dict__["__rmul__"]
        self._patch(jets.Jet, "__mul__", self._counted(mul))
        self._patch(jets.Jet, "__rmul__", self._counted(rmul))
        self._patch(jets._JetSpace, "mul", self._kernel(jets._JetSpace.__dict__["mul"]))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    def __len__(self):
        return len(self.name)

    def export(self) -> dict:
        """Spans as columns; times in microseconds from the first span's start."""
        t0 = self.start[0] if len(self) else 0.0
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start_us": [round(1e6 * (t - t0)) for t in self.start],
            "end_us": [round(1e6 * (t - t0)) for t in self.end],
            "parent": self.parent.tolist(),
            "raised": self.raised.tolist(),
        }

    def layer_metrics(self, wall: float, sweep_samples: int, roots: int) -> dict:
        """Per-layer figures for one traced pass that took ``wall`` seconds."""
        names, ids, name_of, parent_of = self.names, self._ids, self.name, self.parent
        total = Counter()      # inclusive time per span name
        calls = Counter()
        raised_under_op = 0
        covered = 0.0
        op_ids = {ids[n] for n in SCENARIO_OPS if n in ids}
        for nid, start, end, parent, raised in zip(name_of, self.start, self.end, parent_of,
                                                   self.raised):
            total[names[nid]] += end - start
            calls[names[nid]] += 1
            if parent < 0:
                covered += end - start
            elif raised and name_of[parent] in op_ids:
                raised_under_op += 1

        def under(name, ancestor):
            """Spans named ``name`` that have an ``ancestor`` span above them."""
            if name not in ids or ancestor not in ids:
                return 0
            nid, aid = ids[name], ids[ancestor]
            n = 0
            for i, span_name in enumerate(name_of):
                if span_name != nid:
                    continue
                p = parent_of[i]
                while p >= 0 and name_of[p] != aid:
                    p = parent_of[p]
                n += p >= 0
            return n

        def direct_children_time(stage_names):
            stage_ids = {ids[n] for n in stage_names if n in ids}
            return sum(end - start for nid, start, end, parent
                       in zip(name_of, self.start, self.end, parent_of)
                       if nid in stage_ids and parent >= 0 and name_of[parent] in op_ids)

        c = self.counts
        samples = c["submanifold.point_geometry.order4_calls"]
        per_sample = max(samples, 1)
        products = c["jets.products"]
        objective_evals = under("scenario.load_scenario", "scenario.sweep_solve")
        layer_self = Counter()
        for name, t in self.self_time.items():
            layer_self[name.split(".", 1)[0]] += t
        m = {
            "jets.products": (products, "count"),
            "jets.kernel_products": (c["jets.kernel_products"], "count"),
            "jets.kernel_frac": (c["jets.kernel_products"] / max(products, 1), "fraction"),
            "jets.kernel_s": (self.self_time[KERNEL], "s"),
            "exprs.evals": (sum(calls[n] for n in EXPRS), "count"),
            "exprs.eval_s": (sum(total[n] for n in EXPRS), "s"),
            "ambient.metric_at.per_sample": (calls["ambient.metric_at"] / per_sample,
                                             "count/sample"),
            "ambient.curvature_parts.per_sample": (calls["ambient.curvature_parts"] / per_sample,
                                                   "count/sample"),
            "ambient.coefficients_at.per_sample": (calls["ambient.coefficients_at"] / per_sample,
                                                   "count/sample"),
            "ambient.pointwise_s": (sum(self.self_time[n] for n in AMBIENT_POINTWISE), "s"),
            "ambient.christoffel_point.calls": (calls["ambient.christoffel_point"], "count"),
            "ambient.verify_structure_s": (total["ambient.verify_structure"], "s"),
            "submanifold.point_geometry_s": (total["submanifold.point_geometry"], "s"),
            "submanifold.normal_derivatives_s": (total["submanifold.normal_derivatives"], "s"),
            "submanifold.scalar_curvature_s": (total["submanifold.scalar_curvature"], "s"),
            "submanifold.point_geometry.calls": (calls["submanifold.point_geometry"], "count"),
            "submanifold.point_geometry.order4_calls": (samples, "count"),
            "submanifold.point_geometry.order2_calls": (
                c["submanifold.point_geometry.order2_calls"], "count"),
            "submanifold.fd_normal_laplacian_s": (
                self.self_time["submanifold.fd_normal_laplacian"], "s"),
            "structure.decompose_s": (total["structure.decompose"], "s"),
            "structure.classify_s": (total["structure.classify"], "s"),
            "structure.verify_relations_s": (total["structure.verify_relations"], "s"),
            "residuals.pointwise_s": (sum(total[n] for n in RESIDUAL_POINTWISE), "s"),
            "residuals.aggregate_s": (sum(total[n] for n in RESIDUAL_AGGREGATE), "s"),
            "scenario.samples": (samples, "count"),
            "scenario.samples_failed": (raised_under_op, "count"),
            "scenario.sample_ms": (1e3 * direct_children_time(PER_SAMPLE) / per_sample, "ms"),
            "scenario.loads": (calls["scenario.load_scenario"], "count"),
            "scenario.load_s": (total["scenario.load_scenario"], "s"),
            "scenario.checks_s": (self.self_time["scenario.run_check"], "s"),
            "scenario.emit_s": (total["scenario.emit_report"], "s"),
            "scenario.sweep.objective_evals": (objective_evals, "count"),
            "scenario.sweep.evals_per_root": (
                (objective_evals - sweep_samples) / roots if roots else 0.0, "count"),
            "scenario.convergence.geometry_calls": (
                under("submanifold.point_geometry", "scenario.convergence_study"), "count"),
            "trace.coverage_frac": (covered / wall, "fraction"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        return m
