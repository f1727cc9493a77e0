"""In-memory spans around modlab's public functions.

A ``Recorder`` keeps one span per wrapped call: name, start, end and the
index of the enclosing span, in flat arrays so a traced iteration of a few
hundred thousand calls stays small.  ``patched`` swaps wrappers in for the
originals in every loaded modlab module that binds them (``train``,
``eval``, ``oracles`` and ``experiments`` import ``policy``/``corrupt``
names directly, so patching the defining module alone would miss those
calls) and puts the originals back on exit.

Spans nest strictly because modlab runs single-threaded and every wrapped
call returns before its caller does.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional, Union


class Recorder:
    """Spans of one iteration, plus per-span work units and captured results."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.units: dict = {}  # span index -> work units (pairs, items, ...)
        self.captured: dict = {}  # span name -> [what Target.capture kept]
        self.open = -1  # index of the innermost open span

    def __len__(self) -> int:
        return len(self.starts)

    def name_of(self, idx: int) -> str:
        return self.names[self.name_ids[idx]]

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.open)
        self.ends.append(0.0)
        self.open = idx
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.open = self.parents[idx]

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span (for building span trees by hand)."""
        saved = self.open
        self.open = parent
        idx = self.begin(name)
        self.starts[idx] = start
        self.ends[idx] = end
        self.open = saved
        return idx

    def write_tsv_gz(self, path, iteration: int, mode: str = "wt") -> None:
        """Append this recorder's spans as TSV rows: iteration, span, parent,
        name, start and end in microseconds from the first span."""
        origin = self.starts[0] if len(self) else 0.0
        with gzip.open(path, mode, compresslevel=1, encoding="ascii") as fh:
            if mode.startswith("w"):
                fh.write("iteration\tspan\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self)):
                fh.write(f"{iteration}\t{i}\t{self.parents[i]}\t{self.name_of(i)}\t"
                         f"{(self.starts[i] - origin) * 1e6:.1f}\t"
                         f"{(self.ends[i] - origin) * 1e6:.1f}\n")


def self_times(rec: Recorder) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    kids: dict = {}
    for i, p in enumerate(rec.parents):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(rec.starts, rec.ends)]
    for p, children in kids.items():
        ps, pe = rec.starts[p], rec.ends[p]
        covered, cur_s, cur_e = 0.0, None, None
        for c in sorted(children, key=rec.starts.__getitem__):
            s, e = max(rec.starts[c], ps), min(rec.ends[c], pe)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def ancestor_flags(rec: Recorder, names) -> list:
    """flag[i] is True when span i or one of its ancestors has a name in names."""
    ids = {i for i, n in enumerate(rec.names) if n in names}
    flags = [False] * len(rec)
    for i, (nid, p) in enumerate(zip(rec.name_ids, rec.parents)):
        flags[i] = nid in ids or (p >= 0 and flags[p])
    return flags


# ---------------------------------------------------------------------------
# Wrapping and patching

SpanName = Union[str, Callable[[tuple, dict], str]]
Units = Callable[[tuple, dict, object], float]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner`` is a module under the package, or
    ``module.Class`` for a method.  ``span`` defaults to ``owner.attr``;
    ``units`` maps (args, kwargs, result) to the work the call did;
    ``capture`` maps (args, kwargs, result) to what the correctness checks
    keep, taken when the call returns (the caller may mutate the result
    afterwards)."""

    owner: str
    attr: str
    span: Optional[SpanName] = None
    units: Optional[Units] = None
    capture: Optional[Callable[[tuple, dict, object], object]] = None

    @property
    def label(self) -> str:
        return self.span if isinstance(self.span, str) else f"{self.owner}.{self.attr}"


def arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    """Positional-or-keyword argument lookup for units and span-name hooks."""
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def wrap(fn, rec: Recorder, target: Target):
    """A wrapper recording one span per call; it returns fn's own result."""
    span = target.span if target.span is not None else target.label
    naming = span if callable(span) else None
    units, capture = target.units, target.capture

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(naming(args, kwargs) if naming else span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if units is not None:
            rec.units[idx] = units(args, kwargs, result)
        if capture is not None:
            rec.captured.setdefault(rec.name_of(idx), []).append(capture(args, kwargs, result))
        return result

    return wrapper


def _resolve(package: str, owner: str):
    module, _, cls = owner.partition(".")
    obj = sys.modules[f"{package}.{module}"]
    return getattr(obj, cls) if cls else obj


def _bindings(package: str, holder, attr: str, original):
    """(object, name) pairs that bind original: the owner itself plus every
    loaded module of the package that imported it by name."""
    found = [(holder, attr)]
    if isinstance(holder, type):
        return found
    for mod_name, module in list(sys.modules.items()):
        if module is None or module is holder:
            continue
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        found += [(module, k) for k, v in vars(module).items() if v is original]
    return found


@contextmanager
def patched(package: str, targets, rec: Recorder):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for target in targets:
            holder = _resolve(package, target.owner)
            original = vars(holder)[target.attr]
            wrapper = wrap(original, rec, target)
            for obj, name in _bindings(package, holder, target.attr, original):
                saved.append((obj, name, original))
                setattr(obj, name, wrapper)
        yield rec
    finally:
        for obj, name, original in reversed(saved):
            setattr(obj, name, original)
