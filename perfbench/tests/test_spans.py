"""The outside-in span recorder: self-time arithmetic and restoring."""

import sys
import types

import pytest

from spans import SpanRecorder, Target


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def nested_fakes(clock):
    """``outer`` calls ``inner`` twice; ``inner`` calls ``leaf`` once."""

    class Fake:
        def leaf(self):
            clock.tick(1)

        def inner(self):
            clock.tick(2)
            self.leaf()
            return None

        def outer(self):
            clock.tick(10)
            self.inner()
            clock.tick(20)
            self.inner()
            clock.tick(30)
            return [None, 1, None]

    return Fake


def install_fakes(recorder, Fake, observe=None):
    return recorder.installed([
        Target(Fake, "outer", "outer", observe),
        Target(Fake, "inner", "inner"),
        Target(Fake, "leaf", "leaf"),
    ])


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    Fake = nested_fakes(clock)
    with install_fakes(recorder, Fake), recorder.phase() as record:
        Fake().outer()
        clock.tick(5)  # loop time outside every span
    spans = record.spans
    assert (spans["leaf"].n, spans["leaf"].total_ns, spans["leaf"].self_ns) == (2, 2, 2)
    assert (spans["inner"].n, spans["inner"].total_ns, spans["inner"].self_ns) == (2, 6, 4)
    assert (spans["outer"].n, spans["outer"].total_ns, spans["outer"].self_ns) == (1, 66, 60)
    # Self times add up to the covered time: nothing counted twice.
    assert sum(t.self_ns for t in spans.values()) == record.covered_ns == 66
    assert record.wall_ns == 71


def test_same_name_calls_fold_into_one_span():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    Fake = nested_fakes(clock)
    with recorder.installed([
        Target(Fake, "outer", "layer"),
        Target(Fake, "inner", "layer"),
        Target(Fake, "leaf", "leaf"),
    ]), recorder.phase() as record:
        Fake().outer()
    assert (record.spans["layer"].n, record.spans["layer"].self_ns) == (1, 64)
    assert record.spans["leaf"].n == 2


def test_observer_counts_outcomes():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    Fake = nested_fakes(clock)

    def observe(rec, args, kwargs, result):
        rec.count("requests", len(result))
        rec.count("invalid", result.count(None))

    with install_fakes(recorder, Fake, observe), recorder.phase() as record:
        Fake().outer()
    assert record.counts == {"requests": 3, "invalid": 2}


def test_nothing_is_recorded_outside_a_phase():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    Fake = nested_fakes(clock)
    with install_fakes(recorder, Fake):
        Fake().outer()
        with recorder.phase() as record:
            pass
    assert record.spans == {} and record.covered_ns == 0


def test_exceptions_still_close_the_span():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    class Fake:
        def boom(self):
            clock.tick(7)
            raise ValueError("boom")

    with recorder.installed([Target(Fake, "boom", "boom")]):
        with recorder.phase() as record:
            with pytest.raises(ValueError):
                Fake().boom()
    assert (record.spans["boom"].n, record.spans["boom"].self_ns) == (1, 7)
    assert record.covered_ns == 7


def test_originals_are_restored_after_the_block_even_on_error():
    recorder = SpanRecorder()
    Fake = nested_fakes(FakeClock())
    originals = {name: vars(Fake)[name] for name in ("outer", "inner", "leaf")}
    with pytest.raises(RuntimeError):
        with install_fakes(recorder, Fake):
            assert all(vars(Fake)[n] is not f for n, f in originals.items())
            raise RuntimeError("leave the block")
    assert all(vars(Fake)[n] is f for n, f in originals.items())


def test_module_functions_are_wrapped_where_they_were_imported():
    def price():
        return 42

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    home.price = price
    user.price = price  # as ``from fakepkg.home import price`` binds it
    sys.modules.update({"fakepkg.home": home, "fakepkg.user": user})
    try:
        recorder = SpanRecorder()
        with recorder.installed([Target(home, "price", "price")]):
            assert home.price is not price and user.price is home.price
            with recorder.phase() as record:
                assert user.price() == 42
        assert home.price is price and user.price is price
        assert record.spans["price"].n == 1
    finally:
        del sys.modules["fakepkg.home"], sys.modules["fakepkg.user"]


def test_phases_do_not_nest():
    recorder = SpanRecorder()
    with recorder.phase():
        with pytest.raises(RuntimeError):
            with recorder.phase():
                pass
