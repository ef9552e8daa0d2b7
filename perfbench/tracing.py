"""In-memory spans around calls into bb84eve's layers.

The benchmark never edits the program.  While a ``Tracer`` is installed it
swaps each traced public function, in every ``bb84eve`` module namespace
that binds it, for a wrapper that records a span; ``uninstall`` puts the
originals back.  Calls the program makes internally (``hsw_bound`` into
``von_neumann_entropy`` into ``eig_hermitian``) are therefore traced too, so
a span's self time is its duration minus the time of the spans it caused.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Layer functions that get a span, as "<module>.<function>".
TRACED = (
    "states.bell_diagonal_state",
    "states.conditioned_ancilla",
    "states.purification",
    "states.joint_table",
    "linalg.partial_trace",
    "linalg.von_neumann_entropy",
    "linalg.eig_hermitian",
    "infotheory.hsw_bound",
    "infotheory.concurrence",
    "povm.analytic_povm",
    "povm.accessible_info",
    "povm.optimize_povm",
    "analysis.max_entropy_c22",
    "analysis.find_threshold",
    "analysis.nonsymmetric_search",
)

# Work counts read from the result objects; they repeat exactly for a seed.
COUNTERS = {
    "povm.optimize_povm": lambda r: {"iterations": r.iterations},
    "analysis.find_threshold": lambda r: {"iterations": r.iterations},
    "analysis.nonsymmetric_search": lambda r: {
        "trials": r.trials,
        "accepted": r.accepted,
    },
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    owner: str  # workload whose op caused the span
    op: int  # op index within that workload's traced ops
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.owner = ""
        self.op = -1
        self._open: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        s = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            name=name,
            owner=self.owner,
            op=self.op,
            start=0.0,
            attrs=attrs,
        )
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += s.duration_s

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.attrs.update(count(result))
            return result

        return traced

    def install(self) -> None:
        """Route every bb84eve call to a TRACED function through a span."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == "bb84eve" or n.startswith("bb84eve.")
        ]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"bb84eve.{module}"], attr)
            traced = self._wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._restore.append((m, attr, original))
                    setattr(m, attr, traced)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def select(self, name: str, owner: str, **attrs) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.name == name
            and s.owner == owner
            and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]


def median_self_s(spans: list[Span]) -> float:
    return statistics.median(s.self_s for s in spans)


def total(spans: list[Span], key: str) -> int:
    return sum(s.attrs[key] for s in spans)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing, from ``python -X importtime`` output.

    ``total`` sums the outermost imports; ``numpy``, ``scipy`` and
    ``bb84eve`` take the cumulative time of each package's outermost
    import, so ``bb84eve`` includes the numpy and scipy it pulls in.
    """
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, label = line[len("import time:") :].split("|")
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        node = (label.strip(), int(cumulative) * 1e-6, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    roots = pending.get(0, [])

    def outermost(package: str) -> float:
        found, stack = 0.0, list(roots)
        while stack:
            name, cum, children = stack.pop()
            if name == package or name.startswith(package + "."):
                found += cum
            else:
                stack.extend(children)
        return found

    out = {"total": sum(cum for _, cum, _ in roots)}
    for package in ("numpy", "scipy", "bb84eve"):
        out[package] = outermost(package)
    return out
