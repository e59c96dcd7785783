"""Tracer that wraps a package's public functions from outside its source
and records one span per call.

Nothing in the traced package's files changes. ``Tracer.install`` replaces every
module binding of each public function (``from .solvers import design_block``
in another module is a second binding of the same function) and the public
methods of public classes, and ``Tracer.uninstall`` puts the originals back.
Spans are kept in memory as ``[name, start, end, parent]`` and written out by
the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import ModuleType


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.hooks: dict[str, object] = {}  # name -> fn(args, result, exc)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, result, exc)

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self, package: str, skip=frozenset()) -> list[str]:
        """Wrap the public functions and methods defined in ``package``.

        ``skip`` holds span names (``module.function`` or
        ``module.Class.method``) to leave alone. Returns the names wrapped.
        """
        modules = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if isinstance(mod, ModuleType)
            and (name == package or name.startswith(package + "."))
        }
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        wrapped: list[str] = []
        for mod_name, mod in modules.items():
            short = mod_name.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ in modules:
                    if getattr(value, "__wrapped_by_tracer__", False):
                        continue
                    span_name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    if span_name in skip:
                        continue
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self.wrap(span_name, value)
                        wrapped.append(span_name)
                    self._patch(mod, attr, wrappers[id(value)])
                elif (
                    inspect.isclass(value)
                    and value.__module__ == mod_name
                    and not issubclass(value, BaseException)
                ):
                    wrapped.extend(self._install_class(short, value, skip))
        return wrapped

    def _install_class(self, short: str, cls: type, skip) -> list[str]:
        wrapped = []
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            span_name = f"{short}.{cls.__name__}.{attr}"
            if span_name in skip:
                continue
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(span_name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(span_name, raw))
            else:
                continue  # properties, staticmethods, class attributes
            wrapped.append(span_name)
        return wrapped

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every binding replaced by ``install``, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct child spans cover.

    Children of one span run one after another on one thread, so their
    intervals do not overlap and their durations add up.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
