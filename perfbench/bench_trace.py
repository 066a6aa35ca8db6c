"""Span tracing around calls into quditsim's public functions.

Wrappers live in the benchmark, not in the library.  A module-level
function is bound under its own name in every module that imported it
(``from .model import reconstruct`` binds it in ``isolation``,
``universality``, ``cli`` and the package), so the tracer replaces every
binding it finds in any loaded ``quditsim`` module; patching only the
defining module would let calls escape.  Methods are patched on their
class.  ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, job]``; spans stay in memory and
are aggregated when the run ends.  Self time is a span's duration minus
the time its direct children cover.  Work the tracer itself does after a
call (counting DAG nodes or JSON bytes) runs inside a ``bench.count``
child span, so it is charged to no layer.
"""

import importlib
import json
import sys
import time
from collections import Counter
from functools import wraps

LAYERS = {
    "operators": ["embed", "hermitian_exp", "LocalUnitary.from_factors", "LocalUnitary.matrix"],
    "model": ["expand", "reconstruct", "classify"],
    "majorization": ["uhlmann_decompose", "retarget_term"],
    "program": ["effective_hamiltonian", "graft", "trotter_compile", "verify"],
    "isolation": [
        "isolate_term",
        "precondition",
        "stage_depolarize",
        "stage_full_support_filter",
        "stage_cartan_filter",
        "stage_permutation_filter",
        "stage_ladder",
    ],
    "universality": ["connect_all", "reduce_to_two_body", "drop_qudit", "commutator_expansion"],
    "serialize": ["parse_hamiltonian", "program_to_json", "program_from_json", "certificate_to_json"],
    "cli": ["main"],
}

SPAN_NAMES = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]
STAGES = "DTZPX"
COUNT_NAMES = (
    ["program.effective_hamiltonian.nodes"]
    + [f"isolation.surviving_terms.{s}" for s in STAGES]
    + ["universality.edges", "serialize.program_to_json.bytes"]
)
_COUNT = "bench.count"


def unique_nodes(program) -> int:
    """Distinct nodes of a program DAG, by identity."""
    from quditsim.program import Commutator, Conjugate, Sum

    seen = set()
    stack = [program]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Conjugate):
            stack.append(node.child)
        elif isinstance(node, Sum):
            stack.extend(child for _, child in node.children)
        elif isinstance(node, Commutator):
            stack.extend((node.left, node.right))
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, on_result=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                span = self._open(_COUNT)
                try:
                    on_result(result, args)
                finally:
                    self._close(span)
            return result

        return traced

    def _on_result(self, name: str):
        counts = self.counts
        if name == "program.effective_hamiltonian":
            def count(result, args):
                counts["program.effective_hamiltonian.nodes"] += unique_nodes(args[0])
        elif name == "isolation.isolate_term":
            def count(result, args):
                for report in result.stage_reports:
                    counts[f"isolation.surviving_terms.{report.stage}"] += report.surviving_terms
        elif name == "universality.connect_all":
            def count(result, args):
                counts["universality.edges"] += len(result.edges)
        elif name == "serialize.program_to_json":
            def count(result, args):
                counts["serialize.program_to_json.bytes"] += len(
                    json.dumps(result, sort_keys=True).encode()
                )
        else:
            count = None
        return count

    def install(self) -> None:
        """Wrap every listed function in every quditsim namespace binding it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        homes = {name: importlib.import_module(f"quditsim.{name}") for name in LAYERS}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "quditsim" or key.startswith("quditsim.")]
        for module_name, fns in LAYERS.items():
            home = homes[module_name]
            for fn in fns:
                name = f"{module_name}.{fn}"
                hook = self._on_result(name)
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(home, cls_name)
                    raw = vars(cls)[attr]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(name, raw.__func__, hook))
                    else:
                        patched = self._wrap(name, raw, hook)
                    setattr(cls, attr, patched)
                    self._restore.append((cls, attr, raw))
                    continue
                original = getattr(home, fn)
                patched = self._wrap(name, original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, patched)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def aggregate(self, jobs=None) -> tuple[Counter, Counter, Counter]:
        """Per-name calls, self seconds and inclusive seconds over the given jobs.

        Inclusive time counts only the outermost span of a name, so a
        function nested in itself is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for index, (name, start, end, parent, job) in enumerate(spans):
            if name == _COUNT or (jobs is not None and job not in jobs):
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total_s[name] += end - start
        return calls, self_s, total_s
