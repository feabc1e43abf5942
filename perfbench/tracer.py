"""Span tracing of a package from outside it.

``Tracer.install`` finds every public function and every public method of a
public class defined in each submodule of the package, wraps it, and rebinds
the wrapper wherever the package's namespaces refer to the original, so calls
between modules and within one module both pass through it. Spans are folded
into per-function totals as they close (calls, total time, self time), which
keeps memory flat however many calls a run makes; ``capture`` additionally
keeps the individual spans of chosen functions.

A span's parent is the innermost open span of the same thread. A span opened
by a worker thread with no open span of its own is attributed to the main
thread's innermost open span, and the union of such spans counts as covered
time of that parent.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import threading
import time

from perfbench.stats import covered_time

# frame slots: function id, start, summed same-thread child time, owner frame
# (cross-thread parent), cross-thread child intervals
_FID, _START, _CHILD, _OWNER, _FOREIGN = range(5)


def package_modules(package) -> list[tuple[str, object]]:
    """(short name, module) for every submodule of ``package``, imported."""
    return [
        (info.name, importlib.import_module(f"{package.__name__}.{info.name}"))
        for info in pkgutil.iter_modules(package.__path__)
    ]


class _ThreadState:
    __slots__ = ("stack", "stats")

    def __init__(self):
        self.stack: list[list] = []
        self.stats: dict[int, list] = {}  # function id -> [calls, total_s, self_s]


class Tracer:
    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: list[str] = []  # function id -> "module.qualname"
        self._restore: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = self._state()
        self._capture_ids: frozenset[int] = frozenset()
        self._captured: list | None = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = package_modules(self.package)
        namespaces = [self.package] + [module for _, module in modules]
        for short, module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{short}.{name}")
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is obj:
                                self._rebind(namespace, key, wrapper)
                elif inspect.isclass(obj):
                    self._install_methods(obj, f"{short}.{name}")

    def _install_methods(self, cls, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                wrapped = self._wrap(member, f"{prefix}.{attr}")
            elif isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._wrap(member.__func__, f"{prefix}.{attr}"))
            else:
                continue
            self._rebind(cls, attr, wrapped)

    def _rebind(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, "__dict__")[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, fid: int) -> list:
        state = self._state()
        owner = None
        if not state.stack and state is not self._main:
            try:
                owner = self._main.stack[-1]
            except IndexError:
                owner = None
        frame = [fid, 0.0, 0.0, owner, None]
        state.stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        state = self._state()
        state.stack.pop()
        fid, start, child, owner, foreign = frame
        duration = end - start
        covered = child
        if foreign:
            with self._lock:
                intervals = list(foreign)
            covered += covered_time(start, end, intervals)
        entry = state.stats.get(fid)
        if entry is None:
            entry = state.stats[fid] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += max(duration - covered, 0.0)
        if state.stack:
            state.stack[-1][_CHILD] += duration
        elif owner is not None:
            with self._lock:
                if owner[_FOREIGN] is None:
                    owner[_FOREIGN] = []
                owner[_FOREIGN].append((start, end))
        if fid in self._capture_ids and self._captured is not None:
            self._captured.append((self.names[fid], start, end))

    @contextlib.contextmanager
    def capture(self, qualnames):
        """Keep every span of the named functions opened inside the block."""
        wanted = set(qualnames)
        spans: list[tuple[str, float, float]] = []
        self._capture_ids = frozenset(i for i, name in enumerate(self.names) if name in wanted)
        self._captured = spans
        try:
            yield spans
        finally:
            self._capture_ids = frozenset()
            self._captured = None

    # -- totals ---------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """qualname -> (calls, total seconds, self seconds), all threads summed."""
        out: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for fid, (calls, total, own) in list(state.stats.items()):
                acc = out.setdefault(self.names[fid], [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return {name: tuple(values) for name, values in out.items()}


def delta(after: dict, before: dict) -> dict[str, tuple[int, float, float]]:
    """Per-function totals accumulated between two ``Tracer.totals`` snapshots."""
    out = {}
    for name, (calls, total, own) in after.items():
        c0, t0, s0 = before.get(name, (0, 0.0, 0.0))
        if calls != c0:
            out[name] = (calls - c0, total - t0, own - s0)
    return out


def by_module(totals: dict, modules) -> dict[str, dict[str, float]]:
    """Roll per-function totals up to ``{module: {"calls", "self_s"}}``."""
    out = {module: {"calls": 0, "self_s": 0.0} for module in modules}
    for name, (calls, _, own) in totals.items():
        entry = out.setdefault(name.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += calls
        entry["self_s"] += own
    return out
