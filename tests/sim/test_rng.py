"""Unit tests for deterministic random streams."""

from repro.sim import RandomStreams


def test_same_seed_same_stream():
    a = RandomStreams(7).stream("ldp/sw1")
    b = RandomStreams(7).stream("ldp/sw1")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RandomStreams(7)
    a = streams.stream("a")
    b = streams.stream("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")


def test_creation_order_does_not_matter():
    s1 = RandomStreams(3)
    s1.stream("first").random()
    v1 = s1.stream("second").random()

    s2 = RandomStreams(3)
    v2 = s2.stream("second").random()  # created without touching "first"
    assert v1 == v2


def test_different_seeds_differ():
    a = RandomStreams(1).stream("x")
    b = RandomStreams(2).stream("x")
    assert a.random() != b.random()


def test_spawn_derives_stable_child():
    parent = RandomStreams(9)
    c1 = parent.spawn("rep-0")
    c2 = RandomStreams(9).spawn("rep-0")
    assert c1.stream("x").random() == c2.stream("x").random()
    assert c1.master_seed != parent.master_seed

