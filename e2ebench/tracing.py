"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry point of each layer from outside the
program: instance attributes for per-object calls (front end, detector,
extractor, edge, codecs, classifier, modems) and module attributes for
free functions (``correlate_many``, ``try_decode``, ...), replaced in
every loaded ``repro`` module that imported them. Nothing inside
``src/`` is edited; :meth:`Tracer.uninstall` puts every original back.

Spans nest on a stack. A layer's self time is its span minus the spans
opened inside it, so ``classify`` excludes the ``fastcorr`` work it
calls and the cloud decode excludes classify, kill, SIC and demodulation.
On every exit the tracer checks that the children's durations sum to no
more than the parent's.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from typing import Any

#: Child spans may exceed their parent only by clock rounding.
_CLOCK_SLACK_S = 1e-9


class Tracer:
    """Nested span timer with per-layer self time and call counts."""

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []  # [name, start, children_s]
        self._restore: list[Callable[[], None]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        #: Self time split by the outermost open span (the pipeline stage).
        self.stage_self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.violations: list[str] = []

    # -- spans ------------------------------------------------------------

    def reset(self) -> None:
        """Forget the totals (between passes); installed wraps stay."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.self_s.clear()
        self.stage_self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        if children > duration + _CLOCK_SLACK_S:
            self.violations.append(
                f"span {name}: children {children:.9f}s exceed parent {duration:.9f}s"
            )
        self.self_s[name] += duration - children
        stage = self._stack[0][0] if self._stack else name
        self.stage_self_s[stage, name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        """Time a block as layer ``name``."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        observe: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as layer ``name``; ``observe`` sees each result."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installation -----------------------------------------------------

    def wrap_attribute(
        self,
        owner: Any,
        attribute: str,
        name: str,
        observe: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` (an instance or a class) by a traced call."""
        had_own = attribute in vars(owner)
        previous = vars(owner).get(attribute)
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(original, name, observe))

        def restore() -> None:
            if had_own:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)

        self._restore.append(restore)

    def wrap_function(
        self,
        original: Callable[..., Any],
        name: str,
        observe: Callable[[Any], None] | None = None,
    ) -> None:
        """Trace free function ``original`` wherever a ``repro`` module holds it."""
        traced = self.wrap(original, name, observe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, traced)
                    self._restore.append(
                        lambda m=module, a=attribute: setattr(m, a, original)
                    )

    def uninstall(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._restore:
            self._restore.pop()()
