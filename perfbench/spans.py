"""The benchmark's own span recorder.

Spans are opened by the benchmark around calls into the program's
public functions; nothing inside ``src/`` is edited.  A wrapped function
keeps its signature and return value, so the program behaves the same,
only timed.  Spans are kept in memory and written out once, when the
process that recorded them ends.

Timestamps come from ``time.monotonic``, which on Linux is the
system-wide ``CLOCK_MONOTONIC``: stamps taken in a child process and in
the parent that spawned it are on one time line.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

clock = time.monotonic


class Spans:
    """Append-only list of ``{name, start, end, parent}`` records.

    ``parent`` is the index of the enclosing span on the same thread,
    or ``None``.  Worker threads of a server each keep their own stack.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object, Callable]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, object]]:
        stack = self._stack()
        record: Dict[str, object] = {
            "name": name, "start": clock(), "end": None,
            "parent": stack[-1] if stack else None, **attrs}
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = clock()

    def wrap(self, owner: object, attr: str, name: str,
             setter: Optional[Callable[[object, str, object], None]] = None
             ) -> None:
        """Replace ``owner.attr`` by a version that records span ``name``.

        ``setter`` writes the attribute (``object.__setattr__`` for frozen
        dataclasses).  :meth:`unwrap_all` puts every original back.
        """
        original = getattr(owner, attr)
        put = setter or setattr

        @functools.wraps(original)
        def timed(*args: object, **kwargs: object) -> object:
            with self.span(name):
                return original(*args, **kwargs)

        put(owner, attr, timed)
        self._restore.append((owner, attr, original, put))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original, put = self._restore.pop()
            put(owner, attr, original)
