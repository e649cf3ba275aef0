"""In-memory spans around the benchmark's calls into the program.

A span is (name, start, end, parent, op_id, ok).  Spans are recorded only in
a traced run; an untraced run goes through the same ``call`` wrapper, which
then only remembers which layer raised, so that failures can be attributed
in both modes.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[str, float, float, int, int, bool]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Optional[Span]] = []
        self.op_id = -1
        self._stack: List[int] = []
        #: (layer name, exception) of the last call that raised
        self.error: Optional[Tuple[str, BaseException]] = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as the layer call ``name``."""
        if not self.enabled:
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._record_error(name, exc)
                raise
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        ok = False
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        except Exception as exc:
            self._record_error(name, exc)
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, ok)

    def _record_error(self, name: str, exc: BaseException) -> None:
        # the innermost call that raised names the layer; enclosing calls
        # re-raising the same exception keep it
        if self.error is None or self.error[1] is not exc:
            self.error = (name, exc)

    def layer_of(self, exc: BaseException) -> Optional[str]:
        """Layer whose call raised ``exc``, if it came out of a call."""
        if self.error is not None and self.error[1] is exc:
            return self.error[0]
        return None

    def write(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "op", "ok")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def aggregate(spans: Iterable[Span], names: Iterable[str],
              failed: Dict[str, int]) -> Dict[str, float]:
    """``<name>.{calls,busy_s,p50_us,failed}`` for each requested name.

    ``busy_s`` sums the span durations; ``failed`` counts the operations
    whose failure was attributed to that layer.  A name with no spans
    reports zeros.
    """
    durations: Dict[str, List[float]] = {}
    for name, start, end, _parent, _op, _ok in spans:
        durations.setdefault(name, []).append(end - start)
    out: Dict[str, float] = {}
    for name in names:
        d = durations.get(name, [])
        out[f"{name}.calls"] = len(d)
        out[f"{name}.busy_s"] = sum(d)
        out[f"{name}.p50_us"] = statistics.median(d) * 1e6 if d else 0.0
        out[f"{name}.failed"] = failed.get(name, 0)
    return out
