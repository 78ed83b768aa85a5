"""Property tests for super-frames.

A super-frame changes *framing only*: it packs many envelopes into one
frame, and the envelope bytes inside must be exactly the bytes a sequential
sender would have framed individually.  These properties pin that
equivalence for every message type crossing the wire.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.codec import decode_envelope, decode_envelopes, encode_envelope
from repro.runtime.framing import (
    SUPER_FRAME_MAGIC,
    FrameError,
    encode_super_frame,
    is_super_frame,
    split_super_frame,
)
from test_wire_codec import all_messages, assert_deep_equal, small_ints

@settings(max_examples=100, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(small_ints, all_messages),
        min_size=1,
        max_size=8,
    )
)
def test_super_frame_split_returns_the_packed_bytes(jobs):
    """Packing then splitting yields the sequential envelopes verbatim."""
    envelopes = [encode_envelope(sender, message) for sender, message in jobs]
    payload = encode_super_frame(envelopes)
    assert is_super_frame(payload)
    assert split_super_frame(payload) == envelopes


@settings(max_examples=100, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(small_ints, all_messages),
        min_size=1,
        max_size=8,
    )
)
def test_batched_decode_matches_sequential_decode(jobs):
    """decode_envelopes over a super-frame == decode_envelope per frame."""
    envelopes = [encode_envelope(sender, message) for sender, message in jobs]
    batched = decode_envelopes(encode_super_frame(envelopes))
    sequential = [decode_envelope(envelope) for envelope in envelopes]
    assert len(batched) == len(sequential) == len(jobs)
    for (b_sender, b_message), (s_sender, s_message), (sender, message) in zip(
        batched, sequential, jobs
    ):
        assert b_sender == s_sender == sender
        assert_deep_equal(b_message, s_message)
        assert_deep_equal(b_message, message)


@settings(max_examples=100, deadline=None)
@given(sender=small_ints, message=all_messages)
def test_singleton_super_frame_decodes_like_the_bare_envelope(sender, message):
    envelope = encode_envelope(sender, message)
    [(batched_sender, batched_message)] = decode_envelopes(
        encode_super_frame([envelope])
    )
    bare_sender, bare_message = decode_envelope(envelope)
    assert batched_sender == bare_sender == sender
    assert_deep_equal(batched_message, bare_message)


@settings(max_examples=100, deadline=None)
@given(sender=small_ints, message=all_messages)
def test_plain_envelopes_are_never_sniffed_as_super_frames(sender, message):
    """Envelopes start with 0xB2 — the 0xB3 sniff cannot collide, so
    ``decode_envelopes`` passes bare envelopes through untouched."""
    envelope = encode_envelope(sender, message)
    assert not is_super_frame(envelope)
    [(decoded_sender, decoded)] = decode_envelopes(envelope)
    assert decoded_sender == sender
    assert_deep_equal(decoded, message)


class TestMalformedSuperFrames:
    def _envelope(self) -> bytes:
        from repro.runtime.control import StatusRequest

        return encode_envelope(1, StatusRequest(nonce=7))

    def test_count_beyond_payload_is_an_error(self):
        payload = bytes([SUPER_FRAME_MAGIC]) + (1000).to_bytes(4, "big")
        with pytest.raises(FrameError, match="exceeds its payload"):
            split_super_frame(payload)

    def test_truncated_envelope_is_an_error(self):
        payload = encode_super_frame([self._envelope()])[:-3]
        with pytest.raises(FrameError, match="truncated"):
            split_super_frame(payload)

    def test_trailing_bytes_are_an_error(self):
        payload = encode_super_frame([self._envelope()]) + b"xx"
        with pytest.raises(FrameError, match="trailing"):
            split_super_frame(payload)

    def test_non_super_frame_payload_is_an_error(self):
        with pytest.raises(FrameError, match="not a super-frame"):
            split_super_frame(self._envelope())

    def test_empty_payload_is_not_a_super_frame(self):
        assert not is_super_frame(b"")
