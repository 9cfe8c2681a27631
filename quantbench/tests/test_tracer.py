import sys
import types

import pytest

from tracer import Tracer, self_times


def span(start, end, parent, op=0):
    return (0, start, end, parent, op)


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, 100, -1),   # 0: root
        span(10, 40, 0),    # 1: child of root
        span(20, 30, 1),    # 2: grandchild
        span(50, 70, 0),    # 3: second child of root
    ]
    assert self_times(spans) == [100 - 30 - 20, 30 - 10, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 100, -1), span(10, 50, 0), span(40, 60, 0), span(45, 55, 0)]
    assert self_times(spans)[0] == 100 - 50


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("__all__ = ['inner', 'outer']\n"
         "def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", a.__dict__)
    b.inner = a.inner
    exec("__all__ = ['use']\n"
         "def use(x):\n    return inner(x) + 1\n", b.__dict__)
    pkg.outer = a.outer
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield pkg, a, b
    for name in mods:
        sys.modules.pop(name, None)


def test_tracer_wraps_every_namespace_and_links_parents(fake_package):
    pkg, a, b = fake_package
    original_inner = a.inner
    tracer = Tracer("fakepkg")
    tracer.install()
    try:
        assert b.inner is a.inner is not original_inner
        tracer.active = True
        tracer.op_id = 7
        assert pkg.outer(1) == 4   # package re-export -> a.outer -> a.inner
        assert b.use(1) == 3       # b's imported copy of inner
        tracer.active = False
        assert b.use(1) == 3       # inactive: no span
    finally:
        tracer.uninstall()
    assert a.inner is original_inner and b.inner is original_inner
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["a.outer", "a.inner", "b.use", "a.inner"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, -1, 2]
    assert {s[4] for s in tracer.spans} == {7}
    own = self_times(tracer.spans)
    outer = tracer.spans[0]
    assert own[0] == (outer[2] - outer[1]) - (tracer.spans[1][2] - tracer.spans[1][1])
