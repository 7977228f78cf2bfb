"""Unit tests for the trace bus."""

from repro.sim.trace import TraceBus


def test_publish_reaches_subscriber():
    bus = TraceBus()
    seen = []
    bus.subscribe("topic", lambda **kw: seen.append(kw))
    bus.publish("topic", value=1)
    assert seen == [{"value": 1}]


def test_publish_without_subscribers_is_noop():
    bus = TraceBus()
    bus.publish("nobody", value=1)  # must not raise


def test_multiple_subscribers_all_called():
    bus = TraceBus()
    seen = []
    bus.subscribe("t", lambda **kw: seen.append("a"))
    bus.subscribe("t", lambda **kw: seen.append("b"))
    bus.publish("t")
    assert seen == ["a", "b"]


def test_unsubscribe_stops_delivery():
    bus = TraceBus()
    seen = []
    callback = lambda **kw: seen.append(1)  # noqa: E731
    bus.subscribe("t", callback)
    bus.unsubscribe("t", callback)
    bus.publish("t")
    assert seen == []


def test_unsubscribe_unknown_is_noop():
    bus = TraceBus()
    bus.unsubscribe("t", lambda **kw: None)  # must not raise


def test_has_subscribers():
    bus = TraceBus()
    assert not bus.has_subscribers("t")
    bus.subscribe("t", lambda **kw: None)
    assert bus.has_subscribers("t")


def test_topics_are_isolated():
    bus = TraceBus()
    seen = []
    bus.subscribe("a", lambda **kw: seen.append("a"))
    bus.publish("b")
    assert seen == []


def test_positional_payload_supported():
    bus = TraceBus()
    seen = []
    bus.subscribe("t", lambda x, y: seen.append(x + y))
    bus.publish("t", 2, 3)
    assert seen == [5]


def test_unsubscribe_during_publish_still_delivers_snapshot():
    # Publish iterates a snapshot: a callback that unsubscribes its
    # sibling mid-delivery must not starve that sibling for the current
    # publish (it does stop future ones).
    bus = TraceBus()
    seen = []

    def second(**kw):
        seen.append("second")

    def first(**kw):
        seen.append("first")
        bus.unsubscribe("t", second)

    bus.subscribe("t", first)
    bus.subscribe("t", second)
    bus.publish("t")
    assert seen == ["first", "second"]
    bus.publish("t")
    assert seen == ["first", "second", "first"]


def test_subscribe_during_publish_waits_for_the_next_event():
    # The mirror case: a subscriber added mid-delivery (through publish
    # or emit) is not called for the event in flight, only from the next
    # one on — the bus iterates the tuple the topic had when delivery
    # began and (un)subscribing rebinds the topic to a new one.
    bus = TraceBus()
    seen = []

    def late(**kw):
        seen.append("late")

    def first(**kw):
        seen.append("first")
        if seen == ["first"]:
            bus.subscribe("t", late)

    bus.subscribe("t", first)
    bus.publish("t")
    assert seen == ["first"]
    bus.emit("t", dict)
    assert seen == ["first", "first", "late"]


def test_self_unsubscribe_during_publish():
    bus = TraceBus()
    seen = []

    def once(**kw):
        seen.append(1)
        bus.unsubscribe("t", once)

    bus.subscribe("t", once)
    bus.publish("t")
    bus.publish("t")
    assert seen == [1]


def test_duplicate_subscribe_delivers_twice():
    bus = TraceBus()
    seen = []
    callback = lambda **kw: seen.append(1)  # noqa: E731
    bus.subscribe("t", callback)
    bus.subscribe("t", callback)
    bus.publish("t")
    assert seen == [1, 1]
    # One unsubscribe removes one registration, not both.
    bus.unsubscribe("t", callback)
    bus.publish("t")
    assert seen == [1, 1, 1]


def test_emit_skips_payload_without_subscribers():
    bus = TraceBus()
    built = []

    def payload():
        built.append(1)
        return {"value": 7}

    bus.emit("t", payload)
    assert built == []  # factory never invoked: zero-cost when untraced

    seen = []
    bus.subscribe("t", lambda **kw: seen.append(kw))
    bus.emit("t", payload)
    assert built == [1]
    assert seen == [{"value": 7}]
