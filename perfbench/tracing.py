"""Spans and counters recorded from outside the library.

Layers are the module-level functions one ``nodalcheck`` module calls in
another.  A wrapper is installed on every module binding of such a
function (``experiments.sign_grid`` and ``homology.sign_grid`` are both
``cubical.sign_grid``), so a call is seen whichever module makes it.
Nothing under ``src/`` is changed: bindings are swapped in for one traced
trial and the originals are put back afterwards, also when the trial
raises.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _bindings(original):
    """(module, name) of every ``nodalcheck`` module attribute bound to ``original``.

    A binding already replaced by a ``functools.wraps`` wrapper of
    ``original`` (the output capture) counts as a binding of it.
    """
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "nodalcheck"
                               or mod_name.startswith("nodalcheck.")):
            continue
        for name, value in vars(mod).items():
            if value is original or getattr(value, "__wrapped__", None) is original:
                found.append((mod, name))
    return found


class Capture:
    """Keeps the return values of chosen functions for the output check.

    Installed on the ``experiments`` bindings for a whole run, traced or
    not, so both kinds of trial carry the same extra cost: one Python
    call and one list append per captured call.
    """

    def __init__(self, module, names):
        self.values = {name: [] for name in names}
        self._saved = []
        for name in names:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, self.values[name]))

    @staticmethod
    def _wrap(fn, sink):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result
        return captured

    def take(self) -> dict:
        """Values captured since the last call, by function name."""
        out = {name: list(v) for name, v in self.values.items()}
        for v in self.values.values():
            v.clear()
        return out

    def close(self):
        for module, name, original in self._saved:
            setattr(module, name, original)


class Tracer:
    """In-memory span recorder over module-level function bindings.

    ``layers`` maps a span name ``"<module>.<function>"`` to an optional
    counter ``count(counts, name, args, result)`` that adds the layer's
    work counts.  A span is ``(name, start, end, parent, trial)``, where
    ``parent`` indexes the enclosing span or is -1.
    """

    def __init__(self, layers: dict):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._trial = None
        self._patches = []  # (module, attribute, original, wrapper)
        for span_name, count in layers.items():
            mod_name, _, fn_name = span_name.rpartition(".")
            original = getattr(sys.modules["nodalcheck." + mod_name], fn_name)
            for mod, attr in _bindings(original):
                current = getattr(mod, attr)
                self._patches.append(
                    (mod, attr, current, self._wrap(span_name, current, count)))

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._trial)
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, name, args, result)
            return result
        return traced

    @contextmanager
    def trial(self, trial_id):
        """Trace the calls made inside the block as trial ``trial_id``."""
        self._trial = trial_id
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)
            self._trial = None

    def self_times(self) -> Counter:
        """Seconds per span name, each span less the time its children cover.

        Children run one after another inside their parent, so the time
        they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def flush(self, fh):
        """Write the spans as JSON lines and drop them from memory."""
        keys = ("name", "start", "end", "parent", "trial")
        for span in self.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        self.spans.clear()
