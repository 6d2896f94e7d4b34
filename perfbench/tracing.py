"""Span recording around the program's public entry points.

The benchmark measures the program from the outside: nothing under
``src/`` knows it is being traced.  :class:`Instrumentation` replaces
each wrapped function at *every* module global that binds it (a
``from x import f`` copies the reference, so patching only the
defining module would miss callers) and each wrapped method on the
class it is looked up on, and puts the originals back afterwards.

Each wrapped call records one span — name, start, end, parent span and
request id — on a per-thread stack, because the service runs sessions
on worker threads.  Per-name totals are kept as the spans close:

* ``count`` and ``busy_s`` count only the outermost span of a name on a
  thread's stack, so ``ScopedNetwork.receive`` calling
  ``SimulatedNetwork.receive`` is one receive, not two;
* ``self_s`` is the span's duration minus the time its child spans
  cover, so the self times of every span under a root add up to the
  root's duration exactly;
* ``amount`` sums a per-call quantity (bytes, pairs, columns).

Spans stay in memory (up to ``max_spans``) and are written out when the
run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: Span record: (span_id, parent_id, name, start_s, end_s, request_id).
Span = Tuple[int, int, str, float, float, str]

#: Only modules of this package are searched for binding sites.
PACKAGE = "repro"

NameFn = Union[str, Callable[[tuple], str]]
AmountFn = Optional[Callable[[tuple, Any], int]]


class SpanRecorder:
    """Collects spans and per-name totals from any number of threads."""

    def __init__(self, max_spans: int = 500_000):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        #: name -> [count, busy_s, self_s, amount]
        self.totals: Dict[str, List[float]] = {}

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.depth
        except AttributeError:
            local.stack, local.depth, local.request = [], {}, ""
            return local.stack, local.depth

    def set_request(self, request_id: str) -> None:
        """Tag the calling thread's following spans with ``request_id``."""
        self._thread_state()
        self._local.request = request_id

    def add(self, name: str, amount: int) -> None:
        """Add to a counter that has no span of its own."""
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            entry[3] += amount

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        amount: AmountFn = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack, depth = self._thread_state()
        span_id = next(self._ids)
        parent_id = stack[-1][0] if stack else 0
        outer = depth.get(name, 0) == 0
        depth[name] = depth.get(name, 0) + 1
        frame = [span_id, 0.0]  # id, time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        result = failed = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            depth[name] -= 1
            duration = end - start
            if stack:
                stack[-1][1] += duration
            quantity = (
                amount(args, result)
                if amount is not None and not failed
                else 0
            )
            with self._lock:
                entry = self.totals.get(name)
                if entry is None:
                    entry = self.totals[name] = [0, 0.0, 0.0, 0]
                if outer:
                    entry[0] += 1
                    entry[1] += duration
                    entry[3] += quantity
                entry[2] += duration - frame[1]
                if len(self.spans) < self._max_spans:
                    self.spans.append(
                        (span_id, parent_id, name, start, end,
                         self._local.request)
                    )
                else:
                    self.dropped += 1

    def snapshot(self) -> Dict[str, List[float]]:
        with self._lock:
            return {name: list(entry) for name, entry in self.totals.items()}

    def write(self, path: Path) -> None:
        """Write every recorded span as JSON lines, then the totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self.spans)
            totals = {n: list(e) for n, e in self.totals.items()}
            dropped = self.dropped
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, request in spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "request": request,
                        }
                    )
                    + "\n"
                )
            out.write(
                json.dumps({"totals": totals, "dropped": dropped}) + "\n"
            )


def _wrapper(
    recorder: SpanRecorder, name: NameFn, fn: Callable, amount: AmountFn
) -> Callable:
    call = recorder.call
    if isinstance(name, str):
        def wrapped(*args, **kwargs):
            return call(name, fn, args, kwargs, amount)
    else:
        def wrapped(*args, **kwargs):
            return call(name(args), fn, args, kwargs, amount)
    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", "wrapped")
    wrapped.__doc__ = fn.__doc__
    return wrapped


class Instrumentation:
    """Installs span wrappers; :meth:`restore` puts the originals back.

    ``function`` returns the module names whose globals it rebound, so
    callers can insist that a known binding site was found.
    """

    def __init__(self, recorder: SpanRecorder):
        self._recorder = recorder
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def function(
        self,
        module_name: str,
        attr: str,
        name: NameFn,
        *,
        amount: AmountFn = None,
        adapt: Optional[Callable[[Callable], Callable]] = None,
    ) -> List[str]:
        """Wrap module-level function ``module_name.attr`` at every binding.

        ``adapt`` optionally pre-wraps the original (e.g. to count calls
        into an argument) before the span wrapper goes around it.
        """
        original = getattr(sys.modules[module_name], attr)
        inner = adapt(original) if adapt is not None else original
        wrapped = _wrapper(self._recorder, name, inner, amount)
        sites = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original, True))
                    setattr(module, key, wrapped)
                    sites.append(mod_name)
        if module_name not in sites:
            raise RuntimeError(f"{module_name}.{attr} was not rebound")
        return sites

    def method(
        self,
        cls: type,
        attr: str,
        name: NameFn,
        *,
        amount: AmountFn = None,
    ) -> None:
        """Wrap method ``cls.attr`` (patched on ``cls`` itself)."""
        had_own = attr in vars(cls)
        original = vars(cls)[attr] if had_own else getattr(cls, attr)
        if not callable(original):
            raise RuntimeError(f"{cls.__name__}.{attr} is not callable")
        self._undo.append((cls, attr, original, had_own))
        setattr(cls, attr, _wrapper(self._recorder, name, original, amount))

    def replace(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.attr`` by ``make(original)`` without a span."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._undo.append((owner, attr, original, had_own))
        setattr(owner, attr, make(original))
