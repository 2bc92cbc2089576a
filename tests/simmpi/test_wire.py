"""Tests for the wire codec: typed frames, round trips, limits."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import WireFormatError
from repro.simmpi import wire
from repro.simmpi.message import Message


def assert_roundtrip(value):
    """Encode/decode and compare exactly (dtype, shape, type, value)."""
    back = wire.decode_payload(wire.encode_payload(value))
    _assert_equal(value, back)
    return back


def _assert_equal(a, b):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert (a == b).all() or (a != a).any()  # NaNs compare unequal
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_equal(x, y)
    elif isinstance(a, np.generic):
        assert type(a) is type(b)
        assert a == b or a != a
    else:
        assert type(a) is type(b)
        assert a == b or a != a


class TestScalarRoundTrips:
    @pytest.mark.parametrize("value", [
        None, True, False,
        0, 1, -1, 2**62, -(2**62), 2**100, -(2**100),
        0.0, -2.5, float("inf"),
        "", "hello", "ünïcode ✓",
        b"", b"raw\x00bytes",
    ])
    def test_roundtrip(self, value):
        assert_roundtrip(value)

    def test_bool_stays_bool(self):
        """bool is an int subclass; the codec must not flatten it."""
        assert wire.decode_payload(wire.encode_payload(True)) is True
        assert wire.decode_payload(wire.encode_payload(False)) is False

    @pytest.mark.parametrize("value", [
        np.uint64(2**63 + 1), np.uint32(7), np.int64(-9), np.float64(0.25),
        np.int8(-3), np.bool_(True),
    ])
    def test_numpy_scalars_keep_their_type(self, value):
        back = assert_roundtrip(value)
        assert back.dtype == np.asarray(value).dtype


class TestArrayRoundTrips:
    @pytest.mark.parametrize("dtype", [
        np.uint64, np.uint32, np.int64, np.int8, np.float64, np.float32,
        np.bool_, np.complex128,
    ])
    def test_dtypes(self, dtype):
        assert_roundtrip(np.arange(17).astype(dtype))

    @pytest.mark.parametrize("shape", [(0,), (0, 4), (3, 0, 2)])
    def test_zero_length_arrays(self, shape):
        assert_roundtrip(np.zeros(shape, dtype=np.uint64))

    def test_multidimensional(self):
        assert_roundtrip(np.arange(24, dtype=np.int64).reshape(2, 3, 4))

    def test_noncontiguous_input(self):
        arr = np.arange(20, dtype=np.uint32)[::2]
        assert not arr.flags["C_CONTIGUOUS"] or arr.base is not None
        assert_roundtrip(arr)

    def test_fixed_width_strings(self):
        assert_roundtrip(np.array([b"ac", b"gt"], dtype="S2"))

    def test_decoded_array_is_writable_and_independent(self):
        frame = wire.encode_frame(0, 1, np.arange(4, dtype=np.int64))
        a = wire.decode_frame(frame).payload
        b = wire.decode_frame(frame).payload
        a[:] = -1  # must not raise (frombuffer views are read-only)
        assert b.tolist() == [0, 1, 2, 3]


class TestControlRecords:
    def test_nested_control_tuples(self):
        """The shape of real protocol payloads (e.g. dynamic balancing's
        WORK_ASSIGN chunks: a tuple of parallel arrays plus scalars)."""
        payload = (
            np.arange(5, dtype=np.uint64),           # ids
            np.zeros((5, 8), dtype=np.uint8),        # codes
            np.full(5, 8, dtype=np.int32),           # lengths
            ("done", 3, None, (True, 2.5)),          # nested control
        )
        assert_roundtrip(payload)

    def test_lists_stay_lists(self):
        back = assert_roundtrip([1, [2, 3], (4, 5)])
        assert isinstance(back, list)
        assert isinstance(back[1], list)
        assert isinstance(back[2], tuple)


class TestFallback:
    @pytest.mark.parametrize("value", [
        {"a": 1}, {1, 2, 3}, {"nested": {"x": [1, 2]}},
    ])
    def test_pickle_fallback_roundtrips(self, value):
        assert not wire.is_wire_codable(value)
        assert wire.decode_payload(wire.encode_payload(value)) == value

    def test_object_dtype_array_falls_back(self):
        arr = np.array([{"a": 1}, None], dtype=object)
        assert not wire.is_wire_codable(arr)
        back = wire.decode_payload(wire.encode_payload(arr))
        assert back.dtype == object and back[0] == {"a": 1}

    @pytest.mark.parametrize("value", [
        None, 3, np.zeros(2), (np.zeros(2), 1), [b"x"], "s",
    ])
    def test_typed_payloads_are_codable(self, value):
        assert wire.is_wire_codable(value)

    def test_container_with_dict_is_not_codable(self):
        assert not wire.is_wire_codable((np.zeros(2), {"a": 1}))


class TestFrames:
    def test_header_fields(self):
        frame = wire.encode_frame(3, 17, None)
        assert frame[0] == wire.MAGIC
        assert frame[1] == wire.VERSION
        assert wire.frame_header(frame) == (3, 17)

    def test_decode_frame_is_a_message(self):
        msg = wire.decode_frame(wire.encode_frame(2, 5, "payload"))
        assert isinstance(msg, Message)
        assert (msg.source, msg.tag, msg.payload) == (2, 5, "payload")

    def test_bad_magic(self):
        frame = bytearray(wire.encode_frame(0, 0, None))
        frame[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            wire.frame_header(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(wire.encode_frame(0, 0, None))
        frame[1] = wire.VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            wire.frame_header(bytes(frame))

    def test_short_frame(self):
        with pytest.raises(WireFormatError, match="header"):
            wire.frame_header(b"\xc5\x01")

    def test_truncated_payload(self):
        frame = wire.encode_frame(0, 1, np.arange(10, dtype=np.int64))
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_frame(frame[:-3])

    def test_trailing_bytes(self):
        frame = wire.encode_frame(0, 1, 7)
        with pytest.raises(WireFormatError, match="trailing"):
            wire.decode_frame(frame + b"\x00")

    def test_unknown_type_code(self):
        bad = struct.pack("<BBiq", wire.MAGIC, wire.VERSION, 0, 0) + b"\x42"
        with pytest.raises(WireFormatError, match="type code"):
            wire.decode_frame(bad)

    def test_frame_size_limit(self, monkeypatch):
        """Payloads above the frame limit are refused at encode time
        (patched down so the test does not allocate gigabytes)."""
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(WireFormatError, match="frame limit"):
            wire.encode_payload(np.zeros(100, dtype=np.uint64))
        wire.encode_payload(np.zeros(2, dtype=np.uint64))  # under the limit

    def test_large_frame_roundtrips(self):
        """A multi-megabyte array (the scale of a real tile exchange)."""
        arr = np.arange(1 << 20, dtype=np.uint64)
        frame = wire.encode_frame(1, 2, arr)
        assert len(frame) > arr.nbytes
        _assert_equal(arr, wire.decode_frame(frame).payload)


def _generic_frame(source, tag, payload):
    """The frame the generic encoder produces (no array fast path)."""
    header = struct.pack("<BBiq", wire.MAGIC, wire.VERSION, source, tag)
    return header + wire.encode_payload(payload)


def _generic_decode(frame):
    """A frame's payload through the generic reader only."""
    return wire.decode_payload(frame[wire.HEADER_BYTES:])


INT_DTYPES = [
    order + kind + width
    for order in "<>"
    for kind in "ui"
    for width in "1248"
]


class TestIntVectorFastPath:
    """1-D C-contiguous integer arrays skip the generic walk in both
    directions; the frames, the decoded arrays and the errors are the
    generic codec's."""

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_frames_are_byte_identical(self, dtype, n):
        arr = (np.arange(n) * 37).astype(dtype)
        frame = wire.encode_frame(3, 11, arr)
        assert frame == _generic_frame(3, 11, arr)
        msg = wire.decode_frame(frame)
        assert (msg.source, msg.tag) == (3, 11)
        _assert_equal(arr, msg.payload)
        _assert_equal(_generic_decode(frame), msg.payload)

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40),
           st.integers(0, 2**31 - 1), st.integers(0, 2**62))
    @settings(max_examples=50, deadline=None)
    def test_uint64_frames_match_generic(self, values, source, tag):
        arr = np.array(values, dtype=np.uint64)
        frame = wire.encode_frame(source, tag, arr)
        assert frame == _generic_frame(source, tag, arr)
        _assert_equal(arr, wire.decode_frame(frame).payload)

    @pytest.mark.parametrize("arr", [
        np.arange(12, dtype=np.uint64)[::2],               # strided
        np.arange(12, dtype=np.uint32).reshape(3, 4),      # 2-D
        np.arange(12, dtype=np.int64).reshape(3, 4).T,     # 2-D, Fortran
        np.zeros((0, 3), dtype=np.uint8),                  # empty, 2-D
        np.array(5, dtype=np.int64),                       # 0-D
        np.linspace(0, 1, 5),                              # float
        np.array([True, False]),                           # bool
    ], ids=["strided", "2d", "2d-fortran", "2d-empty", "0d", "float", "bool"])
    def test_other_arrays_fall_back(self, arr):
        frame = wire.encode_frame(1, 2, arr)
        assert frame == _generic_frame(1, 2, arr)
        _assert_equal(arr, wire.decode_frame(frame).payload)

    def test_decoded_array_owns_its_memory(self):
        frame = wire.encode_frame(0, 1, np.arange(4, dtype=np.uint64))
        out = wire.decode_frame(frame).payload
        assert out.flags.writeable and out.flags.owndata
        out[:] = 9
        assert wire.decode_frame(frame).payload.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("cut", [1, 6, 7, 14, 15, 18, 19, 20])
    def test_truncated_frames_raise_as_generic(self, cut):
        frame = wire.encode_frame(0, 1, np.arange(3, dtype=np.uint16))
        with pytest.raises(WireFormatError, match="truncated") as fast:
            wire.decode_frame(frame[:-cut])
        with pytest.raises(WireFormatError, match="truncated") as generic:
            _generic_decode(frame[:-cut])
        # Same diagnosis; the generic reader counts offsets from the
        # payload's start, decode_frame from the frame's.
        assert str(fast.value).split(" at ")[0] == \
            str(generic.value).split(" at ")[0]

    def test_trailing_bytes_raise_as_generic(self):
        frame = wire.encode_frame(0, 1, np.arange(3, dtype=np.int32))
        with pytest.raises(WireFormatError, match="trailing") as fast:
            wire.decode_frame(frame + b"\x00\x00")
        with pytest.raises(WireFormatError, match="trailing") as generic:
            _generic_decode(frame + b"\x00\x00")
        assert str(fast.value) == str(generic.value)

    def test_bad_magic_and_version_still_checked(self):
        frame = bytearray(wire.encode_frame(0, 1, np.arange(3, dtype=np.uint64)))
        frame[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            wire.decode_frame(bytes(frame))
        frame[0] ^= 0xFF
        frame[1] = wire.VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            wire.decode_frame(bytes(frame))

    def test_frame_size_limit(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        big = np.zeros(100, dtype=np.uint64)
        with pytest.raises(WireFormatError, match="frame limit") as fast:
            wire.encode_frame(0, 1, big)
        with pytest.raises(WireFormatError, match="frame limit") as generic:
            wire.encode_payload(big)
        assert str(fast.value) == str(generic.value)
        # The limit is on the encoded payload, exactly as in the generic
        # encoder: 6 + 8 + 6 * 8 = 62 bytes pass, one element more does not.
        wire.encode_frame(0, 1, np.zeros(6, dtype=np.uint64))
        with pytest.raises(WireFormatError, match="frame limit"):
            wire.encode_frame(0, 1, np.zeros(7, dtype=np.uint64))

    def test_array_subclass_is_not_fast_pathed(self):
        class Tagged(np.ndarray):
            pass

        arr = np.arange(4, dtype=np.uint64).view(Tagged)
        assert wire.encode_frame(0, 1, arr) == _generic_frame(0, 1, arr)


class TestClone:
    def test_clone_is_deep(self):
        payload = (np.arange(3, dtype=np.int64), [np.ones(2)])
        copy = wire.clone(payload)
        copy[0][:] = 9
        copy[1][0][:] = 9
        assert payload[0].tolist() == [0, 1, 2]
        assert payload[1][0].tolist() == [1.0, 1.0]


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

_arrays = st.tuples(
    st.sampled_from([np.uint64, np.uint32, np.int64, np.float64]),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=2**32),
).map(lambda t: (np.arange(t[1]).astype(t[0]) + t[0](t[2] % 7)))

_payloads = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
    ),
    max_leaves=8,
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(_payloads)
    def test_roundtrip_exact(self, payload):
        assert_roundtrip(payload)

    @settings(max_examples=100, deadline=None)
    @given(_payloads, st.integers(0, 2**31 - 1),
           st.integers(-(2**31), 2**31 - 1))
    def test_frame_roundtrip(self, payload, tag, source):
        frame = wire.encode_frame(source, tag, payload)
        assert wire.frame_header(frame) == (source, tag)
        msg = wire.decode_frame(frame)
        assert (msg.source, msg.tag) == (source, tag)
        _assert_equal(payload, msg.payload)


# ----------------------------------------------------------------------
# frame_copy: the frame's length and the decoded payload, without bytes
# ----------------------------------------------------------------------
def _exactly(copy, decoded):
    """``copy`` is ``decoded``, bit for bit: type, dtype, shape, bytes."""
    assert type(copy) is type(decoded)
    if isinstance(decoded, np.ndarray):
        assert copy.dtype == decoded.dtype
        assert copy.dtype.type is decoded.dtype.type
        assert copy.shape == decoded.shape
        assert copy.flags.c_contiguous and copy.flags.writeable
        assert copy.tobytes() == decoded.tobytes()
    elif isinstance(decoded, np.generic):
        assert copy.dtype == decoded.dtype
        assert np.asarray(copy).tobytes() == np.asarray(decoded).tobytes()
    elif isinstance(decoded, float):
        assert struct.pack("<d", copy) == struct.pack("<d", decoded)
    elif isinstance(decoded, (tuple, list)):
        assert len(copy) == len(decoded)
        for a, b in zip(copy, decoded):
            _exactly(a, b)
    else:
        assert copy == decoded


def _shares_nothing(copy, original):
    """No mutable part of ``copy`` is, or views, a part of ``original``."""
    if isinstance(original, np.ndarray):
        assert not np.shares_memory(copy, original)
    elif isinstance(original, (list, bytearray)):
        assert copy is not original
    if isinstance(original, (tuple, list)):
        for a, b in zip(copy, original):
            _shares_nothing(a, b)


def _check_frame_copy(payload):
    """frame_copy against a real encode + decode of the same payload."""
    sized = wire.frame_copy(payload)
    if not wire.is_wire_codable(payload):
        assert sized is None
        return
    frame = wire.encode_frame(5, 9, payload)
    nbytes, copy = sized
    assert nbytes == len(frame)
    _exactly(copy, wire.decode_frame(frame).payload)
    _shares_nothing(copy, payload)


_ENDIAN = "?"
_typed_dtypes = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(endianness=_ENDIAN),
    hnp.unsigned_integer_dtypes(endianness=_ENDIAN),
    hnp.floating_dtypes(endianness=_ENDIAN),
    hnp.complex_number_dtypes(endianness=_ENDIAN),
    hnp.byte_string_dtypes(endianness=_ENDIAN, min_len=1, max_len=4),
    hnp.unicode_string_dtypes(endianness=_ENDIAN, min_len=1, max_len=4),
)


@st.composite
def _typed_arrays(draw):
    """Every typed kind, 0-d to 3-d, as drawn or made non-contiguous."""
    arr = draw(hnp.arrays(
        draw(_typed_dtypes),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    ))
    layout = draw(st.sampled_from(["c", "strided", "transposed"]))
    if layout == "strided" and arr.ndim:
        arr = arr[::2]
    elif layout == "transposed":
        arr = arr.T
    return arr


_wide_ints = st.one_of(
    st.sampled_from([
        0, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64, -(2**64),
    ]),
    st.integers(),
)

_typed_leaves = st.one_of(
    st.none(),
    st.booleans(),
    _wide_ints,
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    _typed_arrays(),
    _typed_arrays().map(lambda arr: arr.reshape(-1)[:1]).filter(len).map(
        lambda arr: arr[0]
    ),
)

_untyped_leaves = st.one_of(
    st.dictionaries(st.integers(0, 9), st.integers(), max_size=3),
    st.sets(st.integers(), max_size=3),
    st.builds(object),
    st.just(np.array([{"a": 1}, None], dtype=object)),
    st.just(np.array(["2020-01-01"], dtype="datetime64[D]")),
    st.just(np.datetime64("2020-01-01")),
)


def _nested(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
        ),
        max_leaves=10,
    )


class TestFrameCopy:
    """``frame_copy`` is the frame's length and the decoded payload,
    without encoding: checked against ``encode_frame`` / ``decode_frame``
    on every typed kind, and declining what only PICKLE can carry."""

    @settings(max_examples=300, deadline=None)
    @given(_nested(_typed_leaves))
    def test_typed_payloads(self, payload):
        assert wire.frame_copy(payload) is not None
        _check_frame_copy(payload)

    @settings(max_examples=100, deadline=None)
    @given(_nested(st.one_of(_typed_leaves, _untyped_leaves)))
    def test_any_payload(self, payload):
        _check_frame_copy(payload)

    @settings(max_examples=50, deadline=None)
    @given(_untyped_leaves, _nested(_typed_leaves))
    def test_untyped_part_declines_the_whole(self, untyped, typed):
        assert wire.frame_copy(untyped) is None
        assert wire.frame_copy((typed, [untyped])) is None

    @pytest.mark.parametrize("payload", [
        np.array([3, 1, 7, 8, 9], dtype=np.uint64),        # count request
        np.array([3, 1, 2, 2, 5], dtype=np.uint32),        # count answer
        np.array([3, 1], dtype=np.uint64),                 # empty request
        (                                                  # delta chunk
            np.array([4, 9], dtype=np.uint32),
            np.array([2, 65535], dtype=np.uint16),
            np.array([2**40], dtype=np.uint64),
            np.array([1], dtype=np.uint16),
        ),
        (),                                                # own empty chunk
        (2, 1),                                            # split's allgather
        None,                                              # barrier
    ], ids=["request", "answer", "empty-request", "delta-chunk",
            "empty-chunk", "split", "barrier"])
    def test_protocol_payloads(self, payload):
        assert wire.frame_copy(payload) is not None
        _check_frame_copy(payload)

    def test_subclasses_decode_to_their_base(self):
        class Tagged(np.ndarray):
            pass

        class Number(int):
            pass

        payload = (np.arange(3, dtype=np.longlong).view(Tagged), Number(4),
                   np.longlong(5), [np.arange(3)])
        _check_frame_copy(payload)
        copy = wire.frame_copy(payload)[1]
        assert type(copy[0]) is np.ndarray and type(copy[1]) is int

    def test_frame_size_limit(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        for payload in (np.zeros(7, dtype=np.uint64),
                        (np.zeros(3, dtype=np.uint64),) * 2):
            with pytest.raises(WireFormatError, match="frame limit") as walk:
                wire.frame_copy(payload)
            with pytest.raises(WireFormatError, match="frame limit") as encode:
                wire.encode_payload(payload)
            assert str(walk.value) == str(encode.value)
        # Six elements encode to 62 payload bytes, under the limit.
        under = np.zeros(6, dtype=np.uint64)
        assert wire.frame_copy(under)[0] == len(wire.encode_frame(0, 1, under))
