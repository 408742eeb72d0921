"""Outside-in span recorder for the cstar_angles layers.

The recorder wraps the package's public functions from the outside: every
place a ``cstar_angles.*`` module binds a traced function is rebound to one
wrapper, and traced methods (classmethods and ``__call__`` included) are
replaced in their class.  ``uninstall`` puts every original object back and
reports any binding that is not the original afterwards.  No source file of
the package is touched.

Spans are kept in memory as tuples
``(job, span_id, parent_id, name, start_ns, duration_ns, self_ns, outermost)``;
a span's self time is its duration minus the durations of its direct
children, and ``outermost`` is false when the span runs inside another span
of the same name (so recursive time is not counted twice in ``total_s``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

# The traced layer boundaries, as "<module>.<function>" or
# "<module>.<Class>.<method>".
TARGETS = (
    "matrices.operator_norm",
    "matrices.max_operator_norm",
    "matrices.orthonormalize",
    "matrices.psd_sqrt",
    "algebra.ConditionalExpectation.__call__",
    "algebra.ConditionalExpectation.from_rule",
    "algebra.verify_quasi_basis",
    "algebra.restrict_expectation",
    "algebra.compatibility_residual",
    "algebra.watatani_index",
    "algebra.MatrixStarAlgebra.from_spanning",
    "tower.GenericModule.__init__",
    "tower.GenericModule.operator_matrix",
    "tower.build_tower_level",
    "tower.intermediate_data",
    "tower.TowerLevel.dual_value",
    "tower.iterate_tower",
    "tower.intermediate_dual_expectation",
    "angles.interior_angle_formula",
    "angles.interior_angle_definition",
    "angles.exterior_angle",
    "groups.all_subgroups",
    "groups.generated_subgroup",
    "groups.group_angle",
    "groups.group_algebra_inclusion",
    "groups.GroupInclusion.expectation_onto",
    "groups.RegularModule.coords",
    "groups.RegularModule.from_coords",
    "groups.RegularModule.operator_matrix",
    "m2.canonical_tower",
    "m2.fu_expectation",
    "m2.exact_angle",
    "verify.lattice_route_sweep",
)

# Modules whose escaping exceptions are counted as "<module>.errors".
ERROR_MODULES = ("matrices", "algebra", "tower", "angles", "groups", "m2")

JOB_SPAN = "job"
PACKAGE = "cstar_angles"


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class SpanRecorder:
    """Records a span around each call of the traced package functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.subgroups_found = 0
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._next_id = itertools.count(1).__next__
        self._depth: dict[str, int] = defaultdict(int)
        self._last_error: dict[str, BaseException] = {}
        self._patches: list[tuple] = []
        self._job = 0

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str):
        parent = self._current.get()
        span = [self._next_id(), parent[0] if parent is not None else 0, 0]
        token = self._current.set(span)
        depth = self._depth[name]
        self._depth[name] = depth + 1
        return parent, span, token, depth

    def _leave(self, name, parent, span, token, depth, start):
        duration = time.perf_counter_ns() - start
        self._depth[name] = depth
        self._current.reset(token)
        if parent is not None:
            parent[2] += duration
        self.spans.append(
            (self._job, span[0], span[1], name, start, duration, duration - span[2], depth == 0)
        )

    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        counts_subgroups = name == "groups.all_subgroups"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._enter(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # one count per exception per module, however many traced
                # frames of that module it leaves
                if self._last_error.get(module) is not exc:
                    self._last_error[module] = exc
                    self.errors[module] += 1
                raise
            finally:
                self._leave(name, *state, start)
            if counts_subgroups:
                self.subgroups_found += len(result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    @contextlib.contextmanager
    def job(self, job_id: int):
        """A root span that the job's spans hang under."""
        self._job = job_id
        state = self._enter(JOB_SPAN)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._leave(JOB_SPAN, *state, start)
            self._job = 0

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("recorder already installed")
        for name in TARGETS:
            module_name, _, path = name.partition(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in path:
                class_name, attr = path.split(".")
                cls = getattr(module, class_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw))
                continue
            fn = vars(module)[path]
            wrapper = self._wrap(name, fn)
            for mod in _package_modules():
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    self._patch(mod, key, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every binding; return the ones that are not the original."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        unrestored = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if getattr(value, "__perfbench_traced__", False):
                    unrestored.append(f"{mod.__name__}.{key}")
        self._patches = []
        return unrestored

    # -- results -----------------------------------------------------------

    def job_self_ns(self) -> dict[int, int]:
        """Summed self time of every span of each job."""
        out: dict[int, int] = defaultdict(int)
        for job, _, _, _, _, _, self_ns, _ in self.spans:
            out[job] += self_ns
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        names = {}
        for _, span_id, _, name, _, duration, own, outermost in self.spans:
            names[span_id] = name
            calls[name] += 1
            self_ns[name] += own
            if outermost:
                total_ns[name] += duration
        generated_in_lattice = sum(
            1 for _, _, parent, name, *_ in self.spans
            if name == "groups.generated_subgroup"
            and names.get(parent) == "groups.all_subgroups"
        )
        out: dict[str, tuple[float, str]] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
            out[f"{name}.total_s"] = (total_ns[name] / 1e9, "s")
        for module in ERROR_MODULES:
            out[f"{module}.errors"] = (self.errors[module], "count")
        ratio = self.subgroups_found / generated_in_lattice if generated_in_lattice else 0.0
        out["groups.all_subgroups.useful_ratio"] = (ratio, "1")
        return out

    def self_shares(self) -> dict[str, float]:
        """Each span name's share of all recorded self time, largest first."""
        own: dict[str, int] = defaultdict(int)
        for span in self.spans:
            own[span[3]] += span[6]
        total = sum(own.values()) or 1
        return dict(sorted(((k, v / total) for k, v in own.items()), key=lambda kv: -kv[1]))

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        keys = ("job", "id", "parent", "name", "start_ns", "duration_ns", "self_ns", "outermost")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
