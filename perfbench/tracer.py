"""Self-time tracer for the benchmark's traced pass.

The tracer attributes the benchmark thread's CPU time to the repo's
layers without touching the package: it replaces public callables *where
they are used* (a module attribute or a class attribute) with wrappers
that record a span around each call, and puts every original back on
:meth:`Tracer.restore`.

Spans nest on one stack.  A span's **self time** is its duration minus the
time its child spans cover, so the self times of all spans plus the time
spent outside any span add up to the traced time exactly; the ledger
reports the latter as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The workloads' clock: this thread's CPU time.
_clock = time.thread_time


@dataclass
class SpanTotals:
    """Accumulated figures of one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class Tracer:
    """Records nested spans into per-name totals."""

    def __init__(self) -> None:
        self.totals: Dict[str, SpanTotals] = {}
        # Each frame: [name, start, child seconds].
        self._stack: List[list] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def traced(
        self,
        name: str,
        fn: Callable,
        count_items: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """``fn`` wrapped in span ``name``; ``count_items(*args)`` adds
        to the span's item count (e.g. a batch length)."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [name, _clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += elapsed
                totals = self.totals.get(name)
                if totals is None:
                    totals = self.totals[name] = SpanTotals()
                totals.calls += 1
                totals.total_s += elapsed
                totals.self_s += elapsed - frame[2]
                if count_items is not None:
                    totals.items += count_items(*args)

        return wrapper

    def wrap_attr(
        self,
        owner: Any,
        attr: str,
        name: str,
        count_items: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a
        traced wrapper; classmethods stay classmethods."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self.traced(name, original.__func__, count_items))
        else:
            wrapped = self.traced(name, original, count_items)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def wrap_function(self, fn: Callable, name: str, package: str) -> None:
        """Wrap ``fn`` in every loaded module of ``package`` that binds
        it: its home module and every ``from x import fn`` site."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.wrap_attr(module, attr, name)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def get(self, name: str) -> SpanTotals:
        return self.totals.get(name, SpanTotals())

    def self_time_sum(self) -> float:
        return sum(t.self_s for t in self.totals.values())
