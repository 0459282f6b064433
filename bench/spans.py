"""Span tracing around the package's public calls, installed from outside.

`install` replaces each target function or method with a wrapper that records
a span (name, start, end, parent, run id) and passes arguments, return values
and exceptions through unchanged. Functions are replaced in every loaded
`xyzglass` module that holds them, because modules bind them by name with
`from .x import f`. A target that no longer exists is reported as absent.
Spans stay in memory until `Tracer.dump` writes them out.

`layer_metrics` turns one run's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable

#: (group, module, qualified attribute). A group's metrics sum the spans of
#: its targets; a span nested in a span of the same group counts once.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli", "xyzglass.cli", "main"),
    ("identities", "xyzglass.identities", "one_point_identity"),
    ("identities", "xyzglass.identities", "two_point_identities"),
    ("identities", "xyzglass.identities", "duhamel_identity"),
    ("identities", "xyzglass.identities", "three_point_identity"),
    ("identities", "xyzglass.identities", "magnetization_bound_check"),
    ("identities", "xyzglass.identities", "susceptibility_bound_check"),
    ("identities", "xyzglass.identities", "a1_sum"),
    ("identities", "xyzglass.identities", "mean_pair_correlation"),
    # The CLI calls this one directly for the a2 check.
    ("identities", "xyzglass.identities", "_a2_differences"),
    ("identities", "xyzglass.identities", "finite_size_order_parameters"),
    ("draw", "xyzglass.disorder", "sample_disorder"),
    ("nishimori", "xyzglass.disorder", "nishimori_transform"),
    ("pauli", "xyzglass.operators", "pauli_product"),
    ("pauli", "xyzglass.operators", "pauli_site"),
    ("builder_init", "xyzglass.quantum_gibbs", "HamiltonianBuilder.__init__"),
    ("build", "xyzglass.quantum_gibbs", "HamiltonianBuilder.build"),
    ("decompose", "xyzglass.quantum_gibbs", "spectral_decompose"),
    ("thermal", "xyzglass.quantum_gibbs", "thermal_state"),
    ("table_init", "xyzglass.classical_gibbs", "BondProductTable.__init__"),
    ("eval", "xyzglass.classical_gibbs", "BondProductTable.expectations"),
    ("eval", "xyzglass.classical_gibbs", "BondProductTable.pair_matrix"),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                index = len(spans)
                spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        for _, module_name, qualname in targets:
            name = f"{module_name.removeprefix('xyzglass.')}.{qualname}"
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original)
            if path:  # a method: patch the class once
                self._patch(owner, attr, original, wrapped)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "xyzglass":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "absent": self.absent, "spans": spans}, fh)


def _group_of() -> dict[str, str]:
    return {
        f"{m.removeprefix('xyzglass.')}.{q}": group for group, m, q in TARGETS
    }


def layer_metrics(trace: dict, n_samples: int) -> dict[str, float]:
    """Per-layer times (s) and call counts from one traced run.

    A group's time and calls count its outermost spans only, so a wrapped
    function that calls another target of its own group is not counted
    twice. Self time is a span's duration minus its direct children's.
    """
    group_of = _group_of()
    spans = trace["spans"]
    groups = [group_of[s["name"]] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        g = groups[i]
        dur = s["end"] - s["start"]
        self_s[g] = self_s.get(g, 0.0) + dur - child_time[i]
        parent = s["parent"]
        if parent is not None and groups[parent] == g:
            continue
        busy[g] = busy.get(g, 0.0) + dur
        calls[g] = calls.get(g, 0) + 1

    def t(g):
        return busy.get(g, 0.0)

    def c(g):
        return calls.get(g, 0)

    return {
        "disorder.draw_s": t("draw"),
        "disorder.draw_calls": c("draw"),
        "disorder.nishimori_s": t("nishimori"),
        "disorder.nishimori_calls": c("nishimori"),
        "operators.pauli_s": t("pauli"),
        "operators.pauli_calls": c("pauli"),
        "quantum_gibbs.builder_init_s": t("builder_init"),
        "quantum_gibbs.build_s": t("build"),
        "quantum_gibbs.build_calls": c("build"),
        "quantum_gibbs.decompose_s": t("decompose"),
        "quantum_gibbs.decompose_calls": c("decompose"),
        "quantum_gibbs.thermal_s": t("thermal"),
        "quantum_gibbs.thermal_calls": c("thermal"),
        "classical_gibbs.table_init_s": t("table_init"),
        "classical_gibbs.eval_s": t("eval"),
        "classical_gibbs.eval_calls": c("eval"),
        "identities.self_s": self_s.get("identities", 0.0),
        "identities.passes": c("draw") / n_samples,
        "identities.decompose_per_sample": c("decompose") / n_samples,
        "cli.self_s": self_s.get("cli", 0.0),
    }
