import sys
import types

import layers


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _nested(tracer, clock):
    def leaf():
        clock.advance(1.0)

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.advance(0.5)
        wrapped_leaf()
        wrapped_leaf()
        clock.advance(0.25)

    wrapped_middle = tracer.wrap("middle", middle)

    def top():
        clock.advance(2.0)
        wrapped_middle()

    return tracer.wrap("top", top)


def test_self_time_excludes_children_and_never_exceeds_the_parent():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)
    _nested(tracer, clock)()
    assert tracer.self_s["leaf"] == 2.0
    assert tracer.self_s["middle"] == 0.75
    assert tracer.self_s["top"] == 2.0
    assert tracer.total_s["top"] == 4.75
    for (parent, child), inclusive in tracer.nested_s.items():
        assert tracer.self_s[child] <= tracer.total_s[parent]
        assert inclusive <= tracer.total_s[parent]
    assert tracer.covered_s() == tracer.total_s["top"]


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.calls["boom"] == 1 and tracer.self_s["boom"] == 1.0
    assert not tracer._stack


def test_install_rebinds_every_import_and_uninstall_restores():
    source = types.ModuleType("repro_perfbench_fake_a")

    def work(x):
        return x * 2

    source.work = work
    user = types.ModuleType("repro_perfbench_fake_b")
    user.work = work                  # as after ``from a import work``
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    try:
        tracer = layers.LayerTracer()
        undo = layers.install(tracer, ((source.__name__, "work", "fake"),))
        assert user.work(3) == 6 and source.work(4) == 8
        assert tracer.calls["fake"] == 2
        undo()
        assert source.work is work and user.work is work
    finally:
        del sys.modules[source.__name__], sys.modules[user.__name__]


def test_program_layers_nest_inside_their_callers():
    from repro.filters.engine import EngineSnapshot
    from repro.filters.filterlist import parse_filter_list
    from repro.filters.options import ContentType

    tracer = layers.LayerTracer()
    undo = layers.install(tracer)
    try:
        snapshot = EngineSnapshot.build([parse_filter_list(
            "||ads.example^\n@@||ads.example/ok^", name="demo")])
        session = snapshot.session()
        for path in ("x.js", "ok/y.js", "z.js"):
            session.check_request(f"http://ads.example/{path}",
                                  ContentType.SCRIPT, "news.example",
                                  "ads.example")
    finally:
        undo()
    assert tracer.calls["engine.check_request"] == 3
    assert tracer.counts["index.probes"] == 6
    assert tracer.counts["index.matched"] == 4
    assert tracer.counts["filters.parse_lines"] == 2
    for (parent, child), inclusive in tracer.nested_s.items():
        assert tracer.self_s[child] <= tracer.total_s[parent]
    assert tracer.self_s["index.match_loop"] <= tracer.total_s[
        "engine.check_request"]
