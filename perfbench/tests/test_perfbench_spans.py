"""Self-time arithmetic, the tracer, and wrappers that restore what they replace."""

import multiprocessing as mp
import sys
import types

import pytest

import spans
from spans import Hook, Span, Total, Tracer, Wrappers, covered_length, self_times


def span(sid, start, end, parent=0, hot_child_s=0.0, name="x"):
    return Span(sid, name, start, end, parent, 1, 0, hot_child_s)


class TestCoveredLength:
    def test_disjoint_and_overlapping_intervals_count_once(self):
        assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5

    def test_clipped_to_the_window(self):
        assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3

    def test_outside_the_window_counts_nothing(self):
        assert covered_length([(11, 12), (-3, -1)], 0, 10) == 0

    def test_empty(self):
        assert covered_length([], 0, 10) == 0


class TestSelfTimes:
    def test_sequential_children(self):
        tree = [span(1, 0, 10), span(2, 1, 3, 1), span(3, 4, 8, 1)]
        assert self_times(tree) == {1: 4, 2: 2, 3: 4}

    def test_grandchildren_are_not_subtracted_from_the_grandparent(self):
        tree = [span(1, 0, 10), span(2, 1, 9, 1), span(3, 2, 6, 2)]
        assert self_times(tree) == {1: 2, 2: 4, 3: 4}

    def test_parallel_children_subtract_their_union(self):
        # Two forked workers overlapping inside the parent.
        tree = [span(1, 0, 10), span(2, 1, 6, 1), span(3, 4, 8, 1)]
        assert self_times(tree)[1] == pytest.approx(3)

    def test_children_outliving_the_parent_are_clipped(self):
        tree = [span(1, 0, 4), span(2, 3, 12, 1)]
        assert self_times(tree)[1] == pytest.approx(3)

    def test_hot_child_time_is_subtracted(self):
        tree = [span(1, 0, 10, hot_child_s=2.5), span(2, 1, 3, 1)]
        assert self_times(tree)[1] == pytest.approx(5.5)

    def test_totals_by_name_adds_hot_totals(self):
        tree = [span(1, 0, 10, name="a"), span(2, 1, 3, 1, name="b"), span(3, 5, 6, 1, name="b")]
        totals = spans.totals_by_name(tree, {"b": Total(4, 1.0, 0.5, 0)})
        assert totals["a"] == Total(1, 10, 7, 0)
        assert totals["b"] == Total(6, 4.0, 3.5, 0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "_clock", fake)
    return fake


class TestTracer:
    def test_online_totals_match_the_offline_arithmetic(self, clock):
        tracer = Tracer()

        def work(seconds):
            clock.now += seconds

        def leaf():
            work(1.0)

        def middle():
            work(0.5)
            tracer.call("leaf", True, None, leaf, (), {})
            tracer.call("leaf", True, None, leaf, (), {})
            work(0.25)

        def top():
            work(2.0)
            tracer.call("middle", False, None, middle, (), {})
            tracer.call("middle", False, None, middle, (), {})

        tracer.call("top", False, None, top, (), {})
        totals = tracer.totals()
        assert totals["leaf"] == Total(4, 4.0, 4.0, 0)
        assert totals["middle"].calls == 2
        assert totals["middle"].total_s == pytest.approx(5.5)
        assert totals["middle"].self_s == pytest.approx(1.5)
        assert totals["top"].self_s == pytest.approx(2.0)
        # The kept spans alone, with hot time folded in, give the same answer.
        by_id = self_times(tracer.spans)
        assert sum(by_id.values()) == pytest.approx(3.5)

    def test_counts_and_exceptions_close_the_span(self, clock):
        tracer = Tracer()

        def boom():
            clock.now += 1.0
            raise ValueError("x")

        assert tracer.call("count", False, len, lambda: [1, 2, 3], (), {}) == [1, 2, 3]
        with pytest.raises(ValueError):
            tracer.call("boom", False, None, boom, (), {})
        totals = tracer.totals()
        assert totals["count"].n == 3
        assert totals["boom"].total_s == pytest.approx(1.0)
        assert tracer._stack == []

    def test_timed_iter_makes_one_span_per_item(self):
        tracer = Tracer()
        assert list(tracer.timed_iter("gen", iter("abc"))) == ["a", "b", "c"]
        assert tracer.totals()["gen"].calls == 4  # three items and the end


def _module(name, **attrs):
    module = types.ModuleType(name)
    module.__dict__.update(attrs)
    return module


@pytest.fixture
def fake_package(monkeypatch):
    def compute(x):
        return x * 2

    def numbers(n):
        yield from range(n)

    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    defining = _module("fakepkg.core", compute=compute, numbers=numbers, Base=Base, Child=Child)
    importer = _module("fakepkg.user", compute=compute)
    outsider = _module("elsewhere", compute=compute)
    for module in (defining, importer, outsider):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return types.SimpleNamespace(
        compute=compute, numbers=numbers, Base=Base, Child=Child,
        defining=defining, importer=importer, outsider=outsider,
    )


class TestWrappers:
    HOOKS = [
        Hook("fakepkg.core:compute", "compute"),
        Hook("fakepkg.core:numbers", "numbers", iterator=True),
        Hook("fakepkg.core:Child.method", lambda args: f"method.{type(args[0]).__name__}"),
    ]

    def test_install_wraps_every_package_binding_and_restore_undoes_it(self, fake_package):
        tracer = Tracer()
        wrappers = Wrappers(tracer, package="fakepkg")
        wrappers.install(self.HOOKS)
        assert fake_package.defining.compute is not fake_package.compute
        assert fake_package.importer.compute is fake_package.defining.compute
        assert fake_package.outsider.compute is fake_package.compute  # not our package
        assert fake_package.importer.compute(4) == 8
        assert list(fake_package.defining.numbers(2)) == [0, 1]
        assert fake_package.Child().method() == "base"
        totals = tracer.totals()
        assert totals["compute"].calls == 1
        assert totals["numbers"].calls == 3
        assert totals["method.Child"].calls == 1

        wrappers.restore()
        assert fake_package.defining.compute is fake_package.compute
        assert fake_package.importer.compute is fake_package.compute
        assert fake_package.defining.numbers is fake_package.numbers
        assert "method" not in fake_package.Child.__dict__  # inherited again
        assert fake_package.Child.method is fake_package.Base.method

    def test_context_manager_restores_on_error(self, fake_package):
        with pytest.raises(RuntimeError):
            with Wrappers(Tracer(), package="fakepkg") as wrappers:
                wrappers.install(self.HOOKS)
                raise RuntimeError("boom")
        assert fake_package.defining.compute is fake_package.compute


def _worker(tracer, fn):
    tracer.call("child", False, None, fn, (), {})


class TestForkedWorkers:
    def test_worker_spans_are_spilled_and_folded_back(self, tmp_path):
        tracer = Tracer(str(tmp_path))
        ctx = mp.get_context("fork")

        def parent():
            proc = ctx.Process(target=_worker, args=(tracer, lambda: None))
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 0

        tracer.call("parent", False, None, parent, (), {})
        tracer.collect_spills()
        by_name = {s.name: s for s in tracer.spans}
        assert set(by_name) == {"parent", "child"}
        assert by_name["child"].parent == by_name["parent"].id
        assert by_name["child"].pid != by_name["parent"].pid
        assert list(tmp_path.iterdir()) == []  # spill files consumed
