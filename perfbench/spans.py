"""In-memory span recording for the traced run.

A ``Tracer`` wraps named functions in every namespace that calls them.  Each
call of a wrapped function records one span (name, start, end, parent) in
flat arrays; nothing is written until the run ends.  ``uninstall`` puts the
original function objects back and checks that they are the same objects.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

NO_PARENT = -1


def _sites(owner, attr: str, modules) -> list[tuple[object, str]]:
    """Every (namespace, attribute) that holds ``owner.attr``.

    A method lives only on its class.  A module-level function also lives
    under its name in each module that imported it with ``from ... import``,
    and a wrapper must replace every such binding to see all calls.
    """
    original = vars(owner)[attr]
    sites = [(owner, attr)]
    if isinstance(owner, type):
        return sites
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original and (module, name) != (owner, attr):
                sites.append((module, name))
    return sites


def package_modules(package: str) -> list:
    """The imported modules of ``package``, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]


class Tracer:
    """Records spans of the functions in ``targets`` while installed.

    ``targets`` lists (span name, owner, attribute): the owner is the module
    or class that defines the function.  ``modules`` are the namespaces
    searched for further bindings of module-level functions.
    """

    def __init__(self, targets, modules):
        self.names = [name for name, _, _ in targets]
        if len(set(self.names)) != len(self.names):
            raise ValueError("span names must be unique")
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self._installed = False
        self._bindings = []
        for idx, (_, owner, attr) in enumerate(targets):
            original = vars(owner)[attr]
            wrapper = self._wrap(idx, original)
            for site in _sites(owner, attr, modules):
                self._bindings.append((site, original, wrapper))

    def _wrap(self, idx: int, fn):
        clock = time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for (owner, attr), original, _ in self._bindings:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the original function")
        for (owner, attr), _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        """Restore every binding and check it holds the original object again."""
        for (owner, attr), original, _ in self._bindings:
            setattr(owner, attr, original)
        self._installed = False
        for (owner, attr), original, _ in self._bindings:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")

    def spans(self) -> "Spans":
        return Spans(
            self.names,
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )


@dataclass(frozen=True)
class Spans:
    """Recorded spans as parallel arrays; ``parent`` indexes into them."""

    names: list[str]
    name_id: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children.

        Spans of one thread nest, so the children of a span cover disjoint
        parts of its interval.
        """
        dur = self.end - self.start
        child = self.parent != NO_PARENT
        covered = np.bincount(self.parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def calls_by_name(self) -> np.ndarray:
        return np.bincount(self.name_id, minlength=len(self.names))

    def self_by_name(self) -> np.ndarray:
        return np.bincount(self.name_id, weights=self.self_times(), minlength=len(self.names))

    def root_time(self) -> float:
        roots = self.parent == NO_PARENT
        return float(np.sum(self.end[roots] - self.start[roots]))

    def children_named(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        c, p = self.names.index(child), self.names.index(parent)
        nested = self.parent != NO_PARENT
        pid = self.name_id[self.parent[nested]]
        return int(np.sum((self.name_id[nested] == c) & (pid == p)))

    def check(self, wall: float, slack: float = 1e-9) -> list[str]:
        """Consistency of the spans with the traced wall time.

        Every child lies inside its parent, no self time is negative, and
        self times plus the unspanned remainder add up to ``wall``.
        """
        problems = []
        nested = self.parent != NO_PARENT
        p = self.parent[nested]
        if np.any(self.start[nested] < self.start[p]) or np.any(self.end[nested] > self.end[p]):
            problems.append("a child span extends outside its parent")
        if np.any(self.end < self.start):
            problems.append("a span ends before it starts")
        selfs = self.self_times()
        if selfs.size and selfs.min() < -slack:
            problems.append(f"negative self time {selfs.min():.3g} s")
        remainder = wall - self.root_time()
        if remainder < -slack * max(1.0, wall):
            problems.append(f"root spans exceed the traced wall time by {-remainder:.3g} s")
        total = float(selfs.sum()) + remainder
        if abs(total - wall) > slack * max(1.0, wall):
            problems.append(f"self times plus remainder give {total} s, wall is {wall} s")
        return problems

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            parent=self.parent,
            start=self.start,
            end=self.end,
        )
