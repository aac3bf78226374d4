"""Self-time arithmetic and wrapping coverage of the layer tracer."""

import sys
import textwrap

import pytest

import tracer
from tracer import LAYERS, Layer, Tracer, package_modules

FAKE_PACKAGE = {
    "__init__.py": "from .a import leaf\n",
    "clock.py": "now = 0.0\n\n\ndef advance(dt):\n    global now\n    now += dt\n",
    "a.py": textwrap.dedent("""
        from . import clock


        def leaf():
            clock.advance(5)


        def inner(depth=0):
            clock.advance(4)
            leaf()
            if depth:
                inner(depth - 1)


        def outer():
            clock.advance(1)
            inner()
            clock.advance(2)


        def boom():
            clock.advance(7)
            raise ValueError("boom")


        class Report:
            def __init__(self, trials):
                self.trials = trials


        def check():
            return Report(3)


        def passthrough():
            return check()


        def summary():
            check()
            return Report(0)
    """),
    "b.py": textwrap.dedent("""
        from .a import inner, leaf


        def via_alias():
            leaf()
            inner()
    """),
}

FAKE_LAYERS = [Layer("outer", ["a:outer"]),
               Layer("inner", ["a:inner"], count=lambda a, k, r: {"n": 1}),
               Layer("leaf", ["a:leaf"]),
               Layer("boom", ["a:boom"]),
               Layer("drv", ["a:check", "a:passthrough", "a:summary"],
                     record=lambda a, k, r: {"trials": r.trials})]


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    root = tmp_path / "fakepkg"
    root.mkdir()
    for name, text in FAKE_PACKAGE.items():
        (root / name).write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield
    for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def fake_tracer():
    from fakepkg import clock
    return Tracer(FAKE_LAYERS, package="fakepkg", clock=lambda: clock.now)


def test_self_time_of_nested_spans(fakepkg):
    from fakepkg import a
    with fake_tracer() as tr:
        a.outer()
    m = tr.metrics()
    assert m["outer.self_s"] == 3       # 1 + 2 around inner
    assert m["inner.self_s"] == 4       # leaf's 5 is not inner's
    assert m["leaf.self_s"] == 5
    assert m["outer.calls"] == m["inner.calls"] == m["leaf.calls"] == 1


def test_recursive_layer_counts_outermost_calls_only(fakepkg):
    from fakepkg import a
    with fake_tracer() as tr:
        a.inner(depth=2)
    m = tr.metrics()
    assert m["inner.self_s"] == 3 * 4
    assert m["leaf.self_s"] == 3 * 5
    assert m["inner.calls"] == 1 and m["n"] == 1
    assert m["leaf.calls"] == 3


def test_failing_span_keeps_its_time(fakepkg):
    from fakepkg import a
    with fake_tracer() as tr:
        with pytest.raises(ValueError):
            a.boom()
        a.leaf()
    m = tr.metrics()
    assert m["boom.self_s"] == 7 and m["boom.calls"] == 0
    assert m["leaf.self_s"] == 5 and tr._stack == []


def test_verification_records_every_distinct_result(fakepkg):
    from fakepkg import a
    with fake_tracer() as tr:
        a.passthrough()
        a.summary()
    assert [(r["function"], r["trials"]) for r in tr.records] == [
        ("check", 3), ("check", 3), ("summary", 0)]
    assert tr.metrics()["drv.trials"] == 6
    assert tr.metrics()["drv.calls"] == 2


def test_aliases_are_wrapped_and_restored(fakepkg):
    import fakepkg as pkg
    from fakepkg import a, b
    originals = (a.leaf, a.inner)
    with fake_tracer() as tr:
        assert pkg.leaf is a.leaf is b.leaf
        assert b.inner is a.inner
        assert a.leaf is not originals[0]
        b.via_alias()
    assert tr.metrics()["leaf.calls"] == 2
    assert (a.leaf, a.inner) == originals
    assert pkg.leaf is b.leaf is originals[0] and b.inner is originals[1]


def _snapshot(mods):
    snap = {}
    for mod in mods:
        snap[mod.__name__] = dict(vars(mod))
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                snap[f"{mod.__name__}.{value.__name__}"] = dict(vars(value))
    return snap


def _targets():
    for layer in LAYERS:
        for target in layer.targets:
            modname, _, qual = target.partition(":")
            yield f"splitcasimir.{modname}", qual.split(".")


def test_every_splitcasimir_alias_is_wrapped_then_restored():
    mods = package_modules("splitcasimir")
    before = _snapshot(mods)
    by_name = {m.__name__: m for m in mods}
    functions = [vars(by_name[mod])[path[0]]
                 for mod, path in _targets() if len(path) == 1]
    with Tracer():
        aliases = 0
        for mod in mods:
            for name, value in before[mod.__name__].items():
                if any(value is f for f in functions):
                    now = getattr(mod, name)
                    assert now is not value, f"{mod.__name__}.{name}"
                    assert now.__wrapped__ is value
                    aliases += 1
        for mod, path in _targets():
            if len(path) == 2:
                cls = getattr(by_name[mod], path[0])
                assert vars(cls)[path[1]].__wrapped__ is \
                    before[f"{mod}.{path[0]}"][path[1]]
        assert aliases > len(functions)  # the from-imports were reached
    after = _snapshot(mods)
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for name, value in attrs.items():
            assert after[key][name] is value, f"{key}.{name}"


def test_real_layers_count_kernel_work():
    from splitcasimir.kernel import SparseOp, Vec
    with Tracer() as tr:
        a = SparseOp.identity(4)
        (a @ a).matvec(Vec.zeros(4))
    m = tr.metrics()
    assert m["kernel.spmm.calls"] == 1 and m["kernel.spmm.products"] == 4
    assert m["kernel.matvec.calls"] == 1 and m["kernel.matvec.nnz"] == 4
    assert m["kernel.promotions"] == 0
    assert m["kernel.self_s"] >= m["kernel.spmm.self_s"] > 0
    assert tracer.catalog_cache_counts().keys() == {"catalog.hits",
                                                     "catalog.misses"}
