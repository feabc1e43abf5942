import sys
import textwrap
import threading

import pytest

from perfbench.tracer import Tracer, by_module, delta

MODULES = {
    "__init__.py": "from .a import f\n",
    "timebase.py": "now = [0.0]\n",
    "a.py": """
        from . import timebase
        from .b import g as helper

        def f():
            timebase.now[0] += 1.0
            helper()
            timebase.now[0] += 1.0

        class Box:
            def run(self):
                timebase.now[0] += 0.5
                return helper()

            @classmethod
            def make(cls):
                return cls()

            def _private(self):
                return helper()
        """,
    "b.py": """
        from . import timebase

        def g():
            timebase.now[0] += 2.0
            h()

        def h():
            timebase.now[0] += 4.0

        def _hidden():
            timebase.now[0] += 100.0
        """,
}


@pytest.fixture
def toy(tmp_path, monkeypatch):
    pkg = tmp_path / "tracetoy"
    pkg.mkdir()
    for name, text in MODULES.items():
        (pkg / name).write_text(textwrap.dedent(text))
    monkeypatch.syspath_prepend(str(tmp_path))
    import tracetoy

    yield tracetoy
    for name in [m for m in sys.modules if m == "tracetoy" or m.startswith("tracetoy.")]:
        del sys.modules[name]


def make_tracer(toy):
    from tracetoy import timebase

    return Tracer(toy, clock=lambda: timebase.now[0])


def test_self_time_subtracts_nested_child_spans(toy):
    tracer = make_tracer(toy)
    with tracer.installed():
        toy.f()
    totals = tracer.totals()
    # f: 8 s, of which g covers 6; g: 6 s, of which h covers 4
    assert totals["a.f"] == (1, 8.0, 2.0)
    assert totals["b.g"] == (1, 6.0, 2.0)
    assert totals["b.h"] == (1, 4.0, 4.0)
    modules = by_module(totals, ("a", "b"))
    assert modules["a"] == {"calls": 1, "self_s": 2.0}
    assert modules["b"] == {"calls": 2, "self_s": 6.0}


def test_wrappers_found_by_introspection_and_rebound_everywhere(toy):
    from tracetoy import a, b

    tracer = make_tracer(toy)
    tracer.install()
    try:
        assert set(tracer.names) == {"a.f", "a.Box.run", "a.Box.make", "b.g", "b.h"}
        assert a.helper is b.g and toy.f is a.f  # aliases point at the one wrapper
        box = a.Box.make()
        box.run()
        box._private()
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["a.Box.make"][0] == 1 and totals["a.Box.run"][0] == 1
    assert totals["b.g"][0] == 2  # once under run, once under the untraced _private
    before = tracer.totals()
    toy.f()  # uninstalled: no spans
    assert delta(tracer.totals(), before) == {}
    assert not hasattr(a.f, "__wrapped__")


def test_worker_thread_spans_count_as_covered_time_of_the_main_span(toy):
    from tracetoy import b, timebase

    tracer = make_tracer(toy)

    def fan_out():
        timebase.now[0] += 1.0
        worker = threading.Thread(target=b.h)  # runs 4 s of h while the caller waits
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        timebase.now[0] += 1.0

    with tracer.installed():
        tracer._wrap(fan_out, "a.fan_out")()
    totals = tracer.totals()
    assert totals["a.fan_out"] == (1, 6.0, 2.0)
    assert totals["b.h"] == (1, 4.0, 4.0)


def test_capture_keeps_individual_spans(toy):
    tracer = make_tracer(toy)
    with tracer.installed(), tracer.capture(["b.h"]) as spans:
        toy.f()
        toy.f()
    assert [(name, end - start) for name, start, end in spans] == [("b.h", 4.0), ("b.h", 4.0)]
