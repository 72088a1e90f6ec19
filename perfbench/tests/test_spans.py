import types

import pytest

from spans import Tracer, layer_self, patched, self_times, summarise


def test_self_time_subtracts_children():
    spans = [("a.root", 0.0, 10.0, -1), ("b.x", 1.0, 3.0, 0), ("b.y", 5.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_only_direct_children():
    spans = [("a.root", 0.0, 10.0, -1), ("b.mid", 1.0, 9.0, 0), ("c.leaf", 2.0, 4.0, 1)]
    assert self_times(spans) == pytest.approx([2.0, 6.0, 2.0])


def test_overlapping_children_are_merged_and_clipped():
    spans = [("a.root", 0.0, 10.0, -1), ("b.x", 1.0, 5.0, 0), ("b.y", 3.0, 7.0, 0), ("b.z", 8.0, 12.0, 0)]
    # covered: [1, 7] and [8, 10] -> 8 of 10
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_layer_self_partitions_the_root():
    spans = [("harness.entry", 0.0, 10.0, -1), ("solver.run", 1.0, 9.0, 0),
             ("kernels.rhs", 2.0, 4.0, 1), ("kernels.rhs", 5.0, 6.0, 1)]
    table = summarise(spans)
    assert table["kernels.rhs"]["calls"] == 2
    assert table["kernels.rhs"]["total_s"] == pytest.approx(3.0)
    layers = layer_self(table)
    assert layers == pytest.approx({"harness": 2.0, "solver": 5.0, "kernels": 3.0})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_patched_traces_module_attribute_calls_and_restores():
    inner = types.SimpleNamespace()
    inner.leaf = lambda x: x + 1
    outer = types.SimpleNamespace()
    outer.run = lambda x: types.SimpleNamespace(steps=inner.leaf(x) + inner.leaf(x))
    originals = (inner.leaf, outer.run)
    targets = (("inner", "leaf", "kernels.leaf"), ("outer", "run", "solver.run"),
               ("inner", "gone", "kernels.gone"))
    tracer = Tracer()
    with patched(tracer, {"inner": inner, "outer": outer}, targets):
        assert outer.run(1).steps == 4
    assert (inner.leaf, outer.run) == originals
    assert not hasattr(inner, "gone")
    assert [(name, parent) for name, _, _, parent in tracer.spans()] == [
        ("solver.run", -1), ("kernels.leaf", 0), ("kernels.leaf", 0)]
    assert tracer.steps_taken == 4


def test_patched_restores_after_an_exception():
    mod = types.SimpleNamespace(fn=lambda: 1 / 0)
    original = mod.fn
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with patched(tracer, {"m": mod}, (("m", "fn", "x.fn"),)):
            mod.fn()
    assert mod.fn is original
    (_, start, end, _), = tracer.spans()
    assert end >= start
