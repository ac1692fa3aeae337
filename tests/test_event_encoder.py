"""``InteractionEvent.to_bytes`` against the ``dataclasses.asdict`` form.

The encoder builds the RF record from per-class cached field names
instead of ``asdict``'s recursive deep copy.  For every event class it
must produce the bytes the ``asdict`` + ``json.dumps`` encoder produced,
including ``EntryActivated.path`` tuples, ``action=None`` and labels
outside ASCII, and :func:`decode_event` must round-trip them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import events
from repro.core.events import InteractionEvent, decode_event

_text = st.text(max_size=24)
#: Strategies per annotated field type (annotations are strings here).
_BY_TYPE = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(-(2**40), 2**40),
    "str": _text,
    "bool": st.booleans(),
    "Optional[str]": st.none() | _text,
    "tuple[str, ...]": st.lists(_text, max_size=5).map(tuple),
}
EVENT_CLASSES = [getattr(events, name) for name in events.__all__
                 if name not in ("InteractionEvent", "decode_event")]


def _asdict_bytes(event: InteractionEvent) -> bytes:
    """The encoder as it was: ``kind`` then ``asdict``, compact JSON."""
    record = {"kind": event.kind}
    record.update(dataclasses.asdict(event))
    return json.dumps(record, separators=(",", ":")).encode()


def _instances(cls: type) -> st.SearchStrategy:
    return st.builds(cls, **{
        field.name: _BY_TYPE[str(field.type)]
        for field in dataclasses.fields(cls)
    })


any_event = st.one_of([_instances(cls) for cls in EVENT_CLASSES])


def test_every_event_class_is_covered():
    assert len(EVENT_CLASSES) == 8
    assert all(issubclass(cls, InteractionEvent) for cls in EVENT_CLASSES)


@given(event=any_event)
@settings(max_examples=200, deadline=None)
def test_bytes_equal_the_asdict_form_and_round_trip(event):
    payload = event.to_bytes()
    assert payload == _asdict_bytes(event)
    assert decode_event(payload) == event


@given(
    path=st.lists(st.text(min_size=1, max_size=8), max_size=4).map(tuple),
    label=st.text(
        alphabet=st.characters(min_codepoint=0x80, max_codepoint=0x2FFF),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=100, deadline=None)
def test_path_tuples_none_action_and_non_ascii_labels(path, label):
    event = events.EntryActivated(
        time=1.25, label=label, action=None, path=path
    )
    payload = event.to_bytes()
    assert payload == _asdict_bytes(event)
    assert b'"action":null' in payload
    assert decode_event(payload) == event


def test_a_subclass_defined_later_encodes_its_own_fields():
    @dataclass(frozen=True)
    class Tilted(events.ButtonEvent):
        angle: float

    event = Tilted(time=0.5, name="aux", pressed=False, angle=-3.0)
    assert event.to_bytes() == _asdict_bytes(event)
    assert json.loads(event.to_bytes())["angle"] == -3.0
