"""Unit tests of the line protocol: canonical framing and strict parsing."""

import json

import pytest

from repro.service import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_message,
)


class TestEncode:
    def test_one_canonical_line(self):
        framed = encode_message({"b": 1, "a": {"z": True, "y": None}})
        assert framed == b'{"a":{"y":null,"z":true},"b":1}\n'

    def test_roundtrip(self):
        document = {"op": "submit", "spec": {"name": "x"}, "seeds": [0, 1, 2]}
        assert decode_line(encode_message(document)) == document

    def test_canonical_means_byte_equal(self):
        # Two dicts with different insertion order frame identically — the
        # property the determinism suite's byte comparisons rest on.
        assert encode_message({"a": 1, "b": 2}) == encode_message({"b": 2, "a": 1})


class TestDecode:
    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_line(b"{not json}\n")

    def test_rejects_invalid_utf8(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_line(b"\xff\xfe\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="must be a JSON object, got list"):
            decode_line(b"[1,2]\n")

    def test_accepts_trailing_newline_and_whitespace(self):
        assert decode_line(b' {"op": "status"} \n') == {"op": "status"}


class TestConstants:
    def test_protocol_version_is_five(self):
        """5: the submit spec lost its ``config``; the seed is the spec's
        own, group count and key width are a session's (4: the submit spec
        lost a session's ``misbehaving`` and ``attack_start_s`` and the
        config's ``duration_s``; 3: the two store-inspection ops are gone;
        2: the submit spec lost its dumbbell-only keys and refuses unknown
        ones)."""
        assert PROTOCOL_VERSION == 5

    def test_message_bound_fits_large_result_documents(self):
        # A recorded-series result document is ~1 MiB; the bound leaves a
        # wide margin without letting a newline-less peer balloon memory.
        assert MAX_MESSAGE_BYTES == 64 * 1024 * 1024
        document = {"metrics": {"series": [[0.1, 1.0]] * 10_000}}
        assert len(encode_message(document)) < MAX_MESSAGE_BYTES

    def test_encoded_form_is_json_parseable(self):
        framed = encode_message({"event": "hello", "protocol": PROTOCOL_VERSION})
        assert json.loads(framed.decode()) == {
            "event": "hello",
            "protocol": PROTOCOL_VERSION,
        }
