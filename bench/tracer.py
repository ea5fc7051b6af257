"""Span tracing of replidyn's layers from outside the package.

The tracer replaces each public function of the measured modules with a
wrapper that records one span per call: (span id, parent id, run id, name,
start, end, argument note).  A function is replaced at every place a module
holds it by name, because replidyn modules import each other's functions with
``from .x import f`` and call them through their own globals (``solver.run``
calls ``step``, ``dirichlet_energy`` and ``integrate`` that way).  Nothing
inside the package changes; ``uninstall`` puts every original back.

Spans stay in memory; ``aggregate`` turns them into per-name call counts,
inclusive time and self time (duration minus the union of its children).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Modules whose public functions (their ``__all__``) are measured.
# replicator and initdata.construct_initial are left out: no workload runs the
# replicator, and the initial-data construction is not on any measured path.
MEASURED_MODULES = ("mesh", "elliptic", "initdata", "solver", "diagnostics",
                    "blowup", "experiment", "config")
EXCLUDED = {"initdata.construct_initial"}
# Methods measured on classes: (module, class, method).
METHODS = (("diagnostics", "Trace", "to_csv"), ("diagnostics", "Trace", "from_csv"))


def _span_name_main(argv=None, *_args, **_kwargs) -> str:
    """cli.main spans are named after the subcommand they run."""
    sub = argv[0] if argv else "none"
    return f"cli.main.{sub}"


def _note_out_dir(args, kwargs):
    """run_experiment spans remember the output directory of their run."""
    if "out_dir" in kwargs:
        return kwargs["out_dir"]
    return args[1] if len(args) > 1 else None


_NOTES = {"experiment.run_experiment": _note_out_dir}


class Tracer:
    """Collects spans from wrapped replidyn functions.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    with no open span (a sweep worker) takes as parent the innermost span open
    on the thread that created the tracer, which is the one waiting on that
    worker (``run_sweep``).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = None
        self._local = threading.local()
        self._home_stack = self._stack()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        note_fn = _NOTES.get(name)
        name_fn = _span_name_main if name == "cli.main" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home and stack is not home else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name_fn(*args, **kwargs) if name_fn else name
                note = note_fn(args, kwargs) if note_fn else None
                tracer.spans.append((sid, parent, tracer.run_id, label, start, end, note))

        return traced

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the measured functions of ``package`` (the imported replidyn)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        targets = []
        for short in MEASURED_MODULES:
            mod = sys.modules[f"{pkg}.{short}"]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and name not in EXCLUDED:
                    targets.append((name, obj))
        targets.append(("cli.main", sys.modules[f"{pkg}.cli"].main))

        for name, original in targets:
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{pkg}.{short}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(name, raw.__func__))
            else:
                replacement = self.wrap(name, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[tuple]:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _run, _name, start, end, _note in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _run, _name, start, end, _note in spans:
        kids = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
        out[sid] = (end - start) - _union_length([k for k in kids if k[1] > k[0]])
    return out


def aggregate(spans: list[tuple], selfs: dict[int, float] | None = None,
              keep=None) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds ``s`` and ``self_s``.

    ``keep``, if given, selects the spans counted (children still count
    against their parent's self time)."""
    selfs = self_times(spans) if selfs is None else selfs
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span in spans:
        if keep is not None and not keep(span):
            continue
        sid, _parent, _run, name, start, end, _note = span
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += selfs[sid]
    return dict(out)


def ancestor_of(spans: list[tuple], name: str) -> dict[int, int]:
    """Map each span id to the id of its nearest ancestor called ``name``."""
    by_id = {s[0]: s for s in spans}
    found: dict[int, int] = {}
    for sid in by_id:
        cur = by_id[sid][1]
        while cur is not None and cur in by_id:
            if by_id[cur][3] == name:
                found[sid] = cur
                break
            cur = by_id[cur][1]
    return found
