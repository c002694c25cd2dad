"""The event wire/size fast paths and the ``__slots__`` hot-path diet.

``Event.size_kb`` and ``Event.to_wire`` carry arithmetic fast paths
that bypass ``json.dumps`` for common payload shapes.  Their contract
is *exactness*: any payload the fast path prices must be priced
identically to the encoder (sizes feed transmission times and thus the
deterministic reports), and any payload it vouches for must genuinely
serialize.  Hypothesis drives arbitrary JSON-ish payloads through both.
"""

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SerializationError
from repro.middleware.bricks import (
    Architecture, CallbackComponent, Component, Connector,
)
from repro.middleware.events import EVENT_OVERHEAD_KB, Event, _json_size_fast

#: JSON-ish values, deliberately including escapes, unicode, huge ints,
#: odd floats, deep nesting — everything that must fall back exactly.
JSON_VALUES = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-10 ** 30, max_value=10 ** 30)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=10), children,
                                        max_size=4)),
    max_leaves=25)

#: Payload parts the size walk cannot price, so ``to_wire`` must hand
#: them to the encoder: escaped and non-ASCII strings, NaN and the
#: infinities, tuples, and the non-string keys the encoder accepts.
ODD_STRINGS = st.sampled_from(['say "hi"', "back\\slash", "tab\there",
                               "na\u00efve", "\u96ea", "\x00", "\u2028"])
ENCODABLE_LEAVES = (st.none() | st.booleans()
                    | st.integers(-10 ** 6, 10 ** 6) | st.floats()
                    | st.text(max_size=8) | ODD_STRINGS)
ENCODABLE_KEYS = (st.text(max_size=6) | ODD_STRINGS | st.integers(-5, 5)
                  | st.booleans() | st.none() | st.floats())


def payloads(leaves, keys):
    values = st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=3)
                          | st.tuples(children, children)
                          | st.dictionaries(keys, children, max_size=3)),
        max_leaves=20)
    return st.dictionaries(keys, values, max_size=4)


ENCODABLE_PAYLOADS = payloads(ENCODABLE_LEAVES, ENCODABLE_KEYS)
#: The same plus what the encoder rejects: unencodable objects, sets,
#: and tuple keys.
ANY_PAYLOADS = payloads(
    ENCODABLE_LEAVES | st.builds(object)
    | st.frozensets(st.integers(), max_size=2),
    ENCODABLE_KEYS | st.tuples(st.integers(0, 3)))

ODD_PAYLOADS = [
    {"s": 'say "hi"'}, {"s": "back\\slash"}, {"s": "tab\there"},
    {"s": "na\u00efve"}, {"s": "\u96ea"}, {"say \"hi\"": 1},
    {"x": float("nan")}, {"x": float("inf")}, {"x": [float("-inf")]},
    {"t": (1, "a")}, {"t": [(), (1.5,)]},
    {1: "int key"}, {2.5: "float key"}, {True: "bool key"},
    {None: "null key"}, {("a",): "tuple key"},
    {"o": object()}, {"s": {1, 2}}, {"n": [1, {"deep": object()}]},
]


def encoder_accepts(payload):
    try:
        json.dumps(payload)
    except (TypeError, ValueError):
        return False
    return True


def wire_accepts(payload):
    """Whether ``to_wire`` accepts *payload*; when it does, the size it
    kept for the event must be the encoder's."""
    event = Event("app.msg")
    event.payload = payload
    try:
        event.to_wire()
    except SerializationError:
        return False
    assert event.size_kb == \
        EVENT_OVERHEAD_KB + len(json.dumps(payload)) / 1024.0
    return True


def nested(depth, leaf, as_dict):
    value = leaf
    for level in range(depth):
        value = {f"k{level}": value} if as_dict else [value]
    return value


def best_of_interleaved(repeats, first, second):
    """Best wall time of each of two callables, timed alternately within
    every round so a burst of machine load hits both sides alike."""
    best_first = best_second = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        first()
        best_first = min(best_first, time.perf_counter() - started)
        started = time.perf_counter()
        second()
        best_second = min(best_second, time.perf_counter() - started)
    return best_first, best_second


class TestSizeFastPath:
    @settings(max_examples=300, deadline=None)
    @given(value=JSON_VALUES)
    def test_fast_size_exact_or_fallback(self, value):
        fast = _json_size_fast(value)
        encoded = len(json.dumps(value))
        assert fast == -1 or fast == encoded

    @settings(max_examples=300, deadline=None)
    @given(value=JSON_VALUES)
    def test_fast_jsonable_never_lies(self, value):
        if _json_size_fast(value) >= 0:
            json.dumps(value)  # must not raise

    @settings(max_examples=100, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=10), JSON_VALUES,
                                   max_size=4))
    def test_event_size_matches_encoder(self, payload):
        event = Event("app.msg", payload)
        expected = EVENT_OVERHEAD_KB + len(json.dumps(payload)) / 1024.0
        assert event.size_kb == expected

    def test_size_cache_memoizes(self):
        event = Event("app.msg", {"k": 1})
        first = event.size_kb
        event.payload["k"] = 2  # mutation after first pricing is ignored
        assert event.size_kb == first

    def test_explicit_size_wins(self):
        assert Event("app.msg", {"k": 1}, size_kb=7.5).size_kb == 7.5

    def test_non_serializable_payload_still_rejected(self):
        event = Event("app.msg")
        event.payload = {"bad": object()}
        with pytest.raises(SerializationError):
            event.to_wire()

    def test_exotic_payload_conservative_estimate(self):
        event = Event("app.msg")
        event.payload = {"bad": object()}
        assert event.size_kb == EVENT_OVERHEAD_KB + 256 / 1024.0


class TestWireValidation:
    """``to_wire`` accepts exactly the payloads ``json.dumps`` accepts."""

    @settings(max_examples=200, deadline=None)
    @given(payload=ENCODABLE_PAYLOADS)
    def test_encodable_payloads_are_accepted_and_priced(self, payload):
        assert wire_accepts(payload)

    @settings(max_examples=200, deadline=None)
    @given(payload=ANY_PAYLOADS)
    def test_accepts_exactly_what_the_encoder_accepts(self, payload):
        assert wire_accepts(payload) == encoder_accepts(payload)

    @pytest.mark.parametrize("payload", ODD_PAYLOADS)
    def test_odd_payloads(self, payload):
        assert wire_accepts(payload) == encoder_accepts(payload)

    @pytest.mark.parametrize("leaf", [1, "\u96ea", float("nan"), (1, 2),
                                      object()])
    @pytest.mark.parametrize("as_dict", [False, True])
    @pytest.mark.parametrize("depth", [15, 16, 17, 40])
    def test_deep_nesting(self, depth, leaf, as_dict):
        payload = {"root": nested(depth, leaf, as_dict)}
        assert wire_accepts(payload) == encoder_accepts(payload)

    def test_circular_payload_rejected(self):
        loop = []
        loop.append(loop)
        assert not wire_accepts({"loop": loop})

    def test_declared_size_still_wins_after_to_wire(self):
        event = Event("app.msg", {"k": 1}, size_kb=7.5)
        event.to_wire()
        assert event.size_kb == 7.5


class TestSlots:
    def test_hot_path_classes_have_no_dict(self):
        """The slots diet holds: none of the hot-path instances carry a
        per-instance ``__dict__`` (a regression silently re-adds ~100
        bytes and a dict allocation per event/brick)."""
        event = Event("app.msg", {"k": 1})
        bricks = [Component("c"), Connector("x"),
                  CallbackComponent("cb"), Architecture("arch")]
        for instance in [event, *bricks]:
            assert not hasattr(instance, "__dict__"), type(instance)

    def test_unslotted_subclasses_regain_dict(self):
        class Custom(Component):
            pass

        instance = Custom("c")
        instance.anything = 1  # open subclasses stay open
        assert instance.anything == 1

    def test_event_creation_microbenchmark(self):
        """Guard for the slotted Event: building + pricing events must
        not be slower than a dict-backed equivalent.  (In practice the
        slotted class is ~10-30% faster; assert merely 'not slower'
        with margin so CI noise cannot flake the guard.)"""

        class DictEvent:
            # The pre-slots shape: same fields, instance __dict__.

            def __init__(self, name, payload):
                self.name = name
                self.payload = payload
                self.event_type = "request"
                self.source = None
                self.target = "t"
                self._size_kb = None
                self._size_cache = None
                self.headers = {}
                self.event_id = 1
                self._admin = name.startswith("admin.")

        payload = {"seq": 1}

        def slotted():
            for __ in range(4000):
                Event("app.msg", payload, target="t")

        def dict_backed():
            for __ in range(4000):
                DictEvent("app.msg", dict(payload))

        slotted_time, dict_time = best_of_interleaved(5, slotted,
                                                      dict_backed)
        assert slotted_time < dict_time * 2.0, \
            f"slotted {slotted_time:.6f}s vs dict {dict_time:.6f}s"

    def test_size_fast_path_microbenchmark(self):
        """The arithmetic size fast path must beat running the encoder
        for the common small-payload case it was built for."""
        payloads = [{"seq": i, "component": f"comp-{i}", "size": 1.5}
                    for i in range(50)]

        def fast():
            for payload in payloads * 20:
                _json_size_fast(payload)

        def encoder():
            for payload in payloads * 20:
                len(json.dumps(payload))

        fast_time, encoder_time = best_of_interleaved(5, fast, encoder)
        assert fast_time < encoder_time * 1.2, \
            f"fast {fast_time:.6f}s vs encoder {encoder_time:.6f}s"
