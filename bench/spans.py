"""In-memory spans around the public functions of the rsdesitter layers.

Each wrapped function records one span per call: name, start, end and the
span that was open when it was called.  A function is wrapped at the name
its callers look up (a module global, a class attribute, or a name another
module imported), so the program itself is not changed.  Spans stay in
memory; :meth:`Tracer.summary` folds them into per-name call counts,
inclusive time and self time (a span's duration minus the time covered by
its direct children).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

# (metric prefix, module, attribute path) for every wrapped function.
# Several entries may share a prefix when a function is looked up under
# more than one name (ansatz imports wigner_d and the geometry helpers by
# name; cli imports the ansatz verify_* functions by name).
TARGETS = (
    ("algebra.clifford_residual", "algebra", "clifford_residual"),
    ("algebra.lorentz_algebra_residual", "algebra", "lorentz_algebra_residual"),
    ("algebra.gamma_contraction_residuals", "algebra", "gamma_contraction_residuals"),
    ("algebra.tilde_similarity_residuals", "algebra", "tilde_similarity_residuals"),
    ("algebra.unitarity_residuals", "algebra", "unitarity_residuals"),
    ("algebra.parity_involution_residual", "algebra", "parity_involution_residual"),
    ("algebra.total_momentum_conjugation_residual", "algebra",
     "total_momentum_conjugation_residual"),
    ("geometry.tetrad", "geometry", "tetrad"),
    ("geometry.metric", "geometry", "metric"),
    ("geometry.connections", "geometry", "connections"),
    ("geometry.connections", "ansatz", "connections"),
    ("geometry.connections_fd", "geometry", "connections_fd"),
    ("geometry.tetrad_divergences", "geometry", "tetrad_divergences"),
    ("geometry.tetrad_divergences", "ansatz", "tetrad_divergences"),
    ("geometry.tetrad_divergences_fd", "geometry", "tetrad_divergences_fd"),
    ("wigner.wigner_d", "wigner", "wigner_d"),
    ("wigner.wigner_d", "ansatz", "wigner_d"),
    ("wigner.wigner_d_dtheta", "wigner", "wigner_d_dtheta"),
    ("wigner.wigner_d_dtheta", "ansatz", "wigner_d_dtheta"),
    ("wigner.recurrence_residuals", "wigner", "recurrence_residuals"),
    ("ansatz.assemble", "ansatz", "assemble"),
    ("ansatz.project_to_amplitudes", "ansatz", "project_to_amplitudes"),
    ("ansatz.verify_T_action", "cli", "verify_T_action"),
    ("ansatz.verify_j03_action", "cli", "verify_j03_action"),
    ("ansatz.verify_angular_operator", "cli", "verify_angular_operator"),
    ("ansatz.verify_trace_constraint", "cli", "verify_trace_constraint"),
    ("ansatz.verify_divergence_constraint", "cli", "verify_divergence_constraint"),
    ("radial.build_A8", "radial", "build_A8"),
    ("radial.build_A16", "radial", "build_A16"),
    ("radial.RadialSystem.matrix", "radial", "RadialSystem.matrix"),
    ("radial.constraint_matrix", "radial", "constraint_matrix"),
    ("radial.ConstraintSet.residuals", "radial", "ConstraintSet.residuals"),
    ("radial.singular_residues", "radial", "singular_residues"),
    ("radial.assemble_from_angular", "radial", "assemble_from_angular"),
    ("solver.integrate", "solver", "integrate"),
    ("solver.frobenius", "solver", "frobenius"),
    ("solver.constraint_kernel_state", "solver", "constraint_kernel_state"),
    ("cli.main", "cli", "main"),
    ("cli.run_integrate", "cli", "run_integrate"),
    ("cli.atomic_write", "cli", "atomic_write"),
)

NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.index = {name: k for k, name in enumerate(NAMES)}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.stack: list[int] = [-1]
        self.counters: Counter = Counter()
        self.results: dict[int, object] = {}
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self.index[name]
        names, starts, ends, parents, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.stack
        )
        clock = time.perf_counter
        keep_result = name == "solver.integrate"
        count_bytes = name == "cli.atomic_write"
        counters, results = self.counters, self.results

        def wrapper(*args, **kwargs):
            if count_bytes:
                data = args[1] if len(args) > 1 else kwargs.get("data", "")
                if isinstance(data, str):
                    data = data.encode("utf-8")
                counters["cli.atomic_write.bytes"] += len(data)
            k = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if keep_result:
                results[k] = out
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        for name, mod, path in TARGETS:
            owner = self.modules[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self):
        """Span name ids, durations and parent indices as numpy arrays."""
        names = np.asarray(self.span_name, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        return names, dur, parent

    def summary(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: calls, inclusive seconds and self seconds."""
        names, dur, parent = self.arrays()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for name, k in self.index.items():
            sel = names == k
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out

    def children_of(self, parent_name: str, child_name: str) -> dict[int, int]:
        """Number of direct ``child_name`` spans under each ``parent_name`` span."""
        names, _, parent = self.arrays()
        pid, cid = self.index[parent_name], self.index[child_name]
        per_parent = {int(k): 0 for k in np.nonzero(names == pid)[0]}
        for k in parent[(names == cid) & (parent >= 0)]:
            if int(k) in per_parent:
                per_parent[int(k)] += 1
        return per_parent

    def has_ancestor(self, span: int, ancestor_name: str) -> bool:
        aid = self.index[ancestor_name]
        k = self.span_parent[span]
        while k >= 0:
            if self.span_name[k] == aid:
                return True
            k = self.span_parent[k]
        return False
