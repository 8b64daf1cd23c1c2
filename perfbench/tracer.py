"""Outside-in tracer: wraps public functions of the program from outside.

Nothing in the program is edited.  ``Tracer.install`` replaces each
named function with a wrapper in every ``eulermeasure.*`` namespace that
binds it (modules import each other by name, and call their siblings
through module globals), and in the class dictionaries for methods.
Each wrapped call records a span -- name, start, end, parent span,
query id, exception class -- in memory.  ``Tracer.restore`` puts every
original object back, so untraced runs execute unpatched code.

Very hot leaf functions are wrapped as counters only (no span), so that
tracing them does not dominate the traced run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "eulermeasure"

# Span record fields, kept as plain lists to stay small in memory.
NAME, START, END, PARENT, QUERY, ERROR = range(6)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is a module name ("eulermeasure.setparse") or a module name
    and class ("eulermeasure.interval_sets:PolyhedralSet1D").  ``name``
    is the span name.  ``before(counters, args, kwargs)`` runs before
    each call and ``after(counters, args, kwargs, result)`` after each
    successful one, to update counters.  A target with ``span=False``
    records no span, only its ``after`` hook.
    """

    owner: str
    attr: str
    name: str
    before: Callable | None = None
    after: Callable | None = None
    span: bool = True


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def bindings_snapshot(classes) -> dict:
    """id() of every attribute of every program module and of the given classes."""
    snap = {}
    for module in package_modules():
        for key, value in vars(module).items():
            snap[(module.__name__, key)] = id(value)
    for cls in classes:
        for key, value in vars(cls).items():
            snap[(cls.__qualname__, key)] = id(value)
    return snap


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.query_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.query_id, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, error: BaseException | None):
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        if error is not None:
            span[ERROR] = type(error).__name__
        self._stack.pop()

    def begin_query(self, query_id: int):
        """Start a query; drops spans a timeout left open in the last one."""
        self.query_id = query_id
        self._stack.clear()

    def _wrap(self, fn, target: Target):
        tracer = self
        counters = self.counters
        before, after = target.before, target.after

        if not target.span:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(counters, args, kwargs, result)
                return result
            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counters, args, kwargs)
            index = tracer._open(target.name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index, exc)
                raise
            tracer._close(index, None)
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self):
        modules = package_modules()
        for target in self.targets:
            module_name, _, class_name = target.owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                raw = vars(cls)[target.attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, target))
                else:
                    replacement = self._wrap(raw, target)
                # Aliases such as ``__or__ = union`` share the function object.
                for key, value in list(vars(cls).items()):
                    if value is raw:
                        self._patches.append((cls, key, raw))
                        setattr(cls, key, replacement)
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(original, target)
            for namespace in modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, key, original))
                        setattr(namespace, key, wrapper)

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self._before = bindings_snapshot(self._classes_of_targets())
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        after = bindings_snapshot(self._classes_of_targets())
        if any(after.get(key) != value for key, value in self._before.items()):
            raise RuntimeError("tracer left a patched attribute behind")
        return False

    def _classes_of_targets(self):
        out = []
        for target in self.targets:
            module_name, _, class_name = target.owner.partition(":")
            if class_name and module_name in sys.modules:
                out.append(getattr(sys.modules[module_name], class_name))
        return out

    # -- analysis ------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        return self_times_ns(self.spans)

    def write(self, path):
        """Write the spans as tab-separated lines, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            out.write("name\tstart_ns\tend_ns\tparent\tquery\terror\n")
            for span in self.spans:
                out.write("\t".join("" if v is None else str(v) for v in span) + "\n")


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the time its direct child spans cover.

    Spans are closed in stack order in a single thread, so the children
    of one span never overlap and their durations simply add up.  A span
    a timeout left open (end 0) counts as empty.
    """
    own = [max(span[END] - span[START], 0) for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= max(span[END] - span[START], 0)
    return own


def self_test():
    """Checks the self-time arithmetic and that restore undoes every patch."""
    spans = [
        ["a", 0, 100, -1, 0, None],
        ["b", 10, 30, 0, 0, None],
        ["c", 40, 70, 0, 0, None],
        ["d", 50, 60, 2, 0, None],
        ["e", 200, 205, -1, 1, None],
    ]
    if self_times_ns(spans) != [50, 20, 20, 10, 5]:
        raise AssertionError(f"self-time arithmetic: {self_times_ns(spans)}")

    from eulermeasure import interval_sets, setparse

    parse_before = setparse.parse_set_expression
    union_before = vars(interval_sets.PolyhedralSet1D)["union"]
    targets = [
        Target("eulermeasure.setparse", "parse_set_expression", "parse"),
        Target("eulermeasure.interval_sets:PolyhedralSet1D", "union", "union"),
        Target("eulermeasure.interval_sets:PolyhedralSet1D", "from_pieces", "from_pieces"),
    ]
    with Tracer(targets) as tracer:
        import eulermeasure

        if eulermeasure.parse_set_expression is parse_before:
            raise AssertionError("the package-level binding was not wrapped")
        if interval_sets.PolyhedralSet1D.__or__ is union_before:
            raise AssertionError("the __or__ alias was not wrapped")
        tracer.begin_query(7)
        setparse.parse_set_expression("(0,1) u (1,2) u {5}")
    names = [span[NAME] for span in tracer.spans]
    if names.count("parse") != 1 or names.count("union") != 2 or "from_pieces" not in names:
        raise AssertionError(f"unexpected spans {names}")
    if any(span[PARENT] != 0 for span in tracer.spans[1:]):
        raise AssertionError("nested spans lost their parent")
    own = tracer.self_times_ns()
    if min(own) < 0 or sum(own) != tracer.spans[0][END] - tracer.spans[0][START]:
        raise AssertionError("self times do not add up to the root span")
    if setparse.parse_set_expression is not parse_before:
        raise AssertionError("parse_set_expression was not restored")
    if vars(interval_sets.PolyhedralSet1D)["union"] is not union_before:
        raise AssertionError("PolyhedralSet1D.union was not restored")
