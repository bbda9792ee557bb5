"""Span recording and self/busy time, including recursion and threads."""

import sys
import threading
import types

import pytest

from benchmarks.suite import layout, spans
from benchmarks.suite.spans import EntryPoint, Tracer, layer_totals


def test_self_time_subtracts_direct_children_only():
    recorded = [
        # (span_id, parent_id, name, start_ns, end_ns, chars)
        (1, 0, "script", 0, 100, 0),
        (2, 1, "parse", 10, 40, 5),
        (3, 2, "lex", 12, 20, 5),
        (4, 1, "lex", 50, 60, 7),
    ]
    totals = layer_totals(recorded)
    assert totals["script"].self_ns == 100 - 30 - 10
    assert totals["parse"].self_ns == 30 - 8
    assert totals["lex"].self_ns == 8 + 10
    assert totals["lex"].calls == 2
    assert totals["lex"].chars == 12
    assert sum(t.self_ns for t in totals.values()) == 100


def test_recursive_spans_of_one_name_count_busy_time_once():
    recorded = [
        (1, 0, "eval", 0, 100, 0),
        (2, 1, "eval", 10, 60, 0),
        (3, 2, "parse", 20, 30, 0),
        (4, 2, "eval", 30, 50, 0),
        (5, 0, "eval", 200, 210, 0),
    ]
    totals = layer_totals(recorded)
    assert totals["eval"].calls == 4
    assert totals["eval"].busy_ns == 100 + 10
    assert totals["eval"].self_ns == (100 - 50) + (50 - 10 - 20) + 20 + 10
    assert totals["eval"].self_ns + totals["parse"].self_ns == 110


def test_busy_time_of_a_layer_nested_under_another_layer():
    # techniques -> parse -> techniques: the inner call is inside an
    # outer techniques span, so only the outer one adds busy time.
    recorded = [
        (1, 0, "techniques", 0, 50, 0),
        (2, 1, "parse", 5, 30, 0),
        (3, 2, "techniques", 10, 20, 0),
    ]
    totals = layer_totals(recorded)
    assert totals["techniques"].busy_ns == 50
    assert totals["parse"].busy_ns == 25


def test_a_span_whose_parent_was_not_kept_is_a_root():
    totals = layer_totals([(7, 3, "lex", 0, 10, 0)])
    assert totals["lex"].self_ns == 10 and totals["lex"].busy_ns == 10


@pytest.fixture
def toy_module():
    module = types.ModuleType("suite_toy_module")

    class Lexer:
        def __init__(self, source):
            self.source = source

        def tokenize(self):
            return list(self.source)

    def evaluate(depth):
        if depth:
            evaluate_ref(depth - 1)
        return Lexer("ab").tokenize()

    def evaluate_ref(depth):
        # Resolve through the module so recursion hits the wrapper.
        return module.evaluate(depth)

    module.Lexer = Lexer
    module.evaluate = evaluate
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_tracer_wraps_functions_and_methods_and_restores_them(toy_module):
    original = toy_module.evaluate
    tracer = Tracer()
    tracer.install([
        EntryPoint(toy_module.__name__, "Lexer.tokenize", "lex",
                   chars=spans._lexed_chars),
        EntryPoint(toy_module.__name__, "evaluate", "eval"),
        EntryPoint(toy_module.__name__, "Gone.method", "gone"),
    ])
    try:
        tracer.call("script", toy_module.evaluate, 2)
    finally:
        tracer.uninstall()
    assert toy_module.evaluate is original
    assert tracer.missing == ["gone"]
    totals = layer_totals(tracer.spans)
    assert totals["eval"].calls == 3
    assert totals["lex"].calls == 3 and totals["lex"].chars == 6
    script = totals["script"]
    assert script.calls == 1
    assert sum(t.self_ns for t in totals.values()) == script.busy_ns
    assert totals["eval"].busy_ns <= script.busy_ns


def test_threads_keep_separate_parent_stacks(toy_module):
    tracer = Tracer()
    tracer.install([EntryPoint(toy_module.__name__, "Lexer.tokenize", "lex")])
    barrier = threading.Barrier(2)

    def work():
        def inner():
            barrier.wait(timeout=10)
            return toy_module.Lexer("x").tokenize()

        tracer.call("script", inner)

    try:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        tracer.uninstall()
    by_id = {span[0]: span for span in tracer.spans}
    for span_id, parent, name, *_ in tracer.spans:
        if name == "lex":
            assert by_id[parent][2] == "script"
    script_ids = [s[0] for s in tracer.spans if s[2] == "script"]
    lex_parents = sorted(s[1] for s in tracer.spans if s[2] == "lex")
    assert lex_parents == sorted(script_ids)


def test_take_removes_only_later_spans():
    tracer = Tracer()
    tracer.call("a", lambda: None)
    mark = len(tracer.spans)
    tracer.call("b", lambda: None)
    taken = tracer.take(mark)
    assert [s[2] for s in taken] == ["b"]
    assert [s[2] for s in tracer.spans] == ["a"]


def test_every_program_entry_point_exists():
    # A renamed entry point would only report null; catch it here.
    layout.use_checkout_source()
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
