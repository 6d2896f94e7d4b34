"""Debug lock instrumentation cross-checking R4's static graph.

R4 extracts the *syntactic* lock-nesting graph; orderings that only
arise through call chains (``pump()`` holds the router lock while
``SimulatedNetwork.receive`` takes an inbox lock) are invisible to it.
:class:`OrderedLockFactory` closes that gap at test time: it hands out
instrumented ``threading.Lock`` replacements that record, per thread,
every (held → acquired) edge actually executed.  The union of the
static and the observed dynamic edges must still be acyclic — that is
the global-acquisition-order claim concurrent service studies rely on.

Debug/tests only: nothing in ``repro`` imports this module at runtime.
Typical wiring (see ``TestLockOrderCrossCheck`` in ``tests/test_serve.py``)::

    factory = OrderedLockFactory()
    monkeypatch.setattr(network_module, "threading", factory.shim())
    … run the workload …
    assert not combined_cycles(static_edges, factory.edges())

Instrumented locks are auto-named from their construction site
(``self._stats_lock = threading.Lock()`` inside ``SimulatedNetwork``
becomes ``SimulatedNetwork._stats_lock``), matching R4's canonical
static names, so the two graphs union without a mapping table.
"""

from __future__ import annotations

import linecache
import re
import sys
import threading
import types
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .rules.locks import find_cycles

_SUBSCRIPT_ASSIGN = re.compile(r"self\.(\w+)\s*\[")
_ATTR_ASSIGN = re.compile(r"self\.(\w+)\s*(?::[^=]+)?=")
_NAME_ASSIGN = re.compile(r"^\s*(\w+)\s*(?::[^=]+)?=")


def _caller_site(depth: int = 2) -> Tuple[str, int, str]:
    frame = sys._getframe(depth)
    code = frame.f_code
    qualname = getattr(code, "co_qualname", code.co_name)
    return code.co_filename, frame.f_lineno, qualname


def _name_from_site(filename: str, lineno: int, qualname: str) -> str:
    """Reconstruct R4's canonical lock name from the allocation site."""
    owner = qualname.split(".")[0] if "." in qualname else qualname
    line = linecache.getline(filename, lineno)
    match = _SUBSCRIPT_ASSIGN.search(line)
    if match:
        return f"{owner}.{match.group(1)}[]"
    match = _ATTR_ASSIGN.search(line)
    if match:
        return f"{owner}.{match.group(1)}"
    match = _NAME_ASSIGN.search(line)
    if match:
        return f"{owner}:{match.group(1)}"
    return f"{owner}:<anonymous@{lineno}>"


class InstrumentedLock:
    """A ``threading.Lock`` stand-in that records acquisition edges."""

    def __init__(self, factory: "OrderedLockFactory", name: str):
        self._factory = factory
        self.name = name
        self._inner = threading.Lock()

    # The real Lock API surface the repo uses.

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._factory._note_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._factory._note_release(self.name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<InstrumentedLock {self.name!r}>"


class OrderedLockFactory:
    """Creates named instrumented locks and aggregates their edges."""

    def __init__(self) -> None:
        self._edges: Set[Tuple[str, str]] = set()
        self._acquisitions: Dict[str, int] = {}
        self._held = threading.local()
        self._stats_lock = threading.Lock()

    # -- lock construction ---------------------------------------------------

    def lock(self, name: Optional[str] = None) -> InstrumentedLock:
        if name is None:
            name = _name_from_site(*_caller_site(2))
        return InstrumentedLock(self, name)

    def _lock_from_shim(self) -> InstrumentedLock:
        # One extra frame: caller -> shim Lock() -> here.
        return InstrumentedLock(self, _name_from_site(*_caller_site(3)))

    def shim(self) -> types.SimpleNamespace:
        """A ``threading``-module stand-in whose ``Lock`` is instrumented.

        Swap it into one module's namespace
        (``monkeypatch.setattr(mod, "threading", factory.shim())``) so
        only that module's locks are instrumented; everything else is
        delegated to the real :mod:`threading`.
        """
        factory = self

        def make_lock() -> InstrumentedLock:
            return factory._lock_from_shim()

        shim = types.SimpleNamespace(Lock=make_lock)
        for attr in dir(threading):
            if not attr.startswith("_") and attr != "Lock":
                setattr(shim, attr, getattr(threading, attr))
        return shim

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _note_acquire(self, name: str) -> None:
        stack = self._stack()
        with self._stats_lock:
            self._acquisitions[name] = self._acquisitions.get(name, 0) + 1
            for outer in stack:
                if outer != name:
                    self._edges.add((outer, name))
        stack.append(name)

    def _note_release(self, name: str) -> None:
        stack = self._stack()
        # Releases may interleave out of LIFO order; drop the newest match.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                break

    # -- results ---------------------------------------------------------------

    def edges(self) -> FrozenSet[Tuple[str, str]]:
        """Observed (held → acquired) pairs across all threads."""
        with self._stats_lock:
            return frozenset(self._edges)

    def acquisition_counts(self) -> Dict[str, int]:
        with self._stats_lock:
            return dict(self._acquisitions)


def combined_cycles(
    static_edges: Iterable[Tuple[str, str]],
    runtime_edges: Iterable[Tuple[str, str]],
) -> List[List[str]]:
    """Cycles in the union of R4's static graph and observed edges.

    An empty result is the deadlock-freedom witness: every lock order
    actually executed is consistent with one global acquisition order,
    including orders the static analysis alone cannot see.
    """
    return find_cycles(list(static_edges) + list(runtime_edges))
