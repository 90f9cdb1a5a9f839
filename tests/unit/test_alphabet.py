"""Unit tests for the Sigma* codec (repro.core.alphabet)."""

import pytest

from repro.core import alphabet
from repro.core.errors import EncodingError


class TestEncodeDecode:
    def test_none_roundtrip(self):
        assert alphabet.decode(alphabet.encode(None)) is None

    def test_bool_roundtrip(self):
        assert alphabet.decode(alphabet.encode(True)) is True
        assert alphabet.decode(alphabet.encode(False)) is False

    def test_bool_is_not_int(self):
        # bool subclasses int; the codec must keep them distinct.
        assert alphabet.decode(alphabet.encode(1)) == 1
        assert alphabet.decode(alphabet.encode(1)) is not True
        assert isinstance(alphabet.decode(alphabet.encode(True)), bool)

    def test_int_roundtrip(self):
        for value in (0, 1, -1, 42, -9999999999999, 2**80):
            assert alphabet.decode(alphabet.encode(value)) == value

    def test_str_roundtrip(self):
        for value in ("", "hello", "with;semicolon", "with#hash", "100%@x", "a:b"):
            assert alphabet.decode(alphabet.encode(value)) == value

    def test_nested_sequences(self):
        value = (1, ("two", (True, None)), (), (-3, "x#y"))
        assert alphabet.decode(alphabet.encode(value)) == value

    def test_lists_decode_as_tuples(self):
        assert alphabet.decode(alphabet.encode([1, [2, 3]])) == (1, (2, 3))

    def test_encoding_is_deterministic(self):
        value = (1, "a", (None, False))
        assert alphabet.encode(value) == alphabet.encode(value)

    def test_unsupported_type_raises(self):
        with pytest.raises(EncodingError):
            alphabet.encode(object())
        with pytest.raises(EncodingError):
            alphabet.encode(3.14)


class TestDelimiters:
    def test_encoded_strings_never_contain_hash(self):
        tricky = ("a#b", ("##", -1), "#")
        assert alphabet.PAIR_DELIMITER not in alphabet.encode(tricky)

    def test_encoded_strings_never_contain_at(self):
        assert alphabet.PADDING_DELIMITER not in alphabet.encode(("a@b", "@@"))

    def test_pair_roundtrip(self):
        data, query = ("D", (1, 2)), ("Q", "a#b")
        text = alphabet.encode_pair(data, query)
        assert text.count(alphabet.PAIR_DELIMITER) == 1
        assert alphabet.decode_pair(text) == (data, query)

    def test_pair_without_delimiter_raises(self):
        with pytest.raises(EncodingError):
            alphabet.decode_pair(alphabet.encode("lonely"))


class TestMalformedInput:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x;",
            "i;",
            "iabc;",
            "b2;",
            "n",
            "l2:i1;",  # declared two children, provided one
            "i1;i2;",  # trailing data
            "l-1:",
            "sunterminated",
        ],
    )
    def test_decode_rejects_garbage(self, text):
        with pytest.raises(EncodingError):
            alphabet.decode(text)
