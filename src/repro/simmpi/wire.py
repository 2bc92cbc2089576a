"""The wire format: typed binary codecs for every protocol payload.

Real MPI moves serialized buffers across shared-nothing address spaces;
this module gives the simulated runtime the same discipline.  Every send
crosses the communicator boundary *by value*, as a self-describing
binary **frame** or as exactly what decoding that frame would deliver:

* the process engine ships the frame bytes over a pipe/queue unchanged;
* a frame is also encoded, and decoded on deposit, wherever something
  reads it: an armed :class:`~repro.faults.FaultPlan` (its verdicts hash
  the frame's bytes) and an engine that overrides ``deposit`` to observe
  frames;
* otherwise the in-memory engines skip the bytes: :func:`frame_copy`
  walks a typed payload once and returns the frame's exact length and a
  deep copy equal to the decoded payload, so a receiver can never alias
  (and mutate) a sender's arrays; a payload that needs the PICKLE
  fallback is still encoded;
* either way :class:`~repro.simmpi.instrument.CommStats` records the
  frame's exact length, making the performance model's "measured
  traffic" ledger exact instead of the old 8-bytes-per-object estimate.

Frame layout (all integers little-endian)::

    offset  size  field
    0       1     magic (0xC5)
    1       1     wire-format version (1)
    2       4     source rank (int32)
    6       8     tag (int64)
    14      ...   payload encoding (see below)

The payload encoding is a one-byte type code followed by type-specific
data, applied recursively for containers:

    ======== ===========================================================
    code     encoding
    ======== ===========================================================
    NONE     nothing
    TRUE     nothing
    FALSE    nothing
    INT64    8-byte signed integer
    BIGINT   u32 length + two's-complement little-endian bytes
    FLOAT64  8-byte IEEE double
    STR      u32 length + UTF-8 bytes
    BYTES    u32 length + raw bytes
    NDARRAY  u8 dtype-string length + dtype string (``numpy.dtype.str``)
             + u8 ndim + ndim x u64 shape + C-order raw bytes
    SCALAR   u8 dtype-string length + dtype string + raw item bytes
             (a numpy scalar, e.g. ``np.uint64(7)``)
    TUPLE    u32 count + encoded items
    LIST     u32 count + encoded items
    PICKLE   u32 length + pickle bytes (fallback for payloads with no
             typed encoding; exact in length, flagged by lint MPI006)
    ======== ===========================================================

Numpy arrays round-trip exactly: dtype, shape and values are preserved
(C order; memory layout flags are not).  Tuples stay tuples and lists
stay lists.  Dicts, sets and arbitrary objects have no typed encoding
and travel as PICKLE frames — legal, exactly accounted, but flagged by
the MPI006 lint rule because a production MPI port would have to design
a real encoding for them.
"""

from __future__ import annotations

import pickle
import struct
from functools import lru_cache
from typing import Any

import numpy as np

from repro.errors import WireFormatError
from repro.simmpi.message import Message

#: First byte of every frame; catches accidental non-frame deposits.
MAGIC = 0xC5
#: Wire-format version (bumped on any layout change).
VERSION = 1

#: Frames larger than this are refused at encode time — a guard against
#: runaway payloads, far above anything the protocol legitimately sends.
MAX_FRAME_BYTES = 1 << 31

_HEADER = struct.Struct("<BBiq")
#: Encoded size of the frame header (magic, version, source, tag).
HEADER_BYTES = _HEADER.size

# Payload type codes.
_NONE = 0x00
_TRUE = 0x01
_FALSE = 0x02
_INT64 = 0x03
_BIGINT = 0x04
_FLOAT64 = 0x05
_STR = 0x06
_BYTES = 0x07
_NDARRAY = 0x08
_SCALAR = 0x09
_TUPLE = 0x0A
_LIST = 0x0B
_PICKLE = 0x7F

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: numpy dtype kinds with a typed array encoding (bool, int, uint,
#: float, complex, fixed bytes, fixed unicode).  Object/void/datetime
#: arrays fall back to PICKLE.
_ARRAY_KINDS = frozenset("biufcSU")


class _NotWireCodable(Exception):
    """Internal: the value needs the PICKLE fallback."""


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _encode_value(obj: Any, out: bytearray) -> None:
    if obj is None:
        out.append(_NONE)
    elif obj is True:
        out.append(_TRUE)
    elif obj is False:
        out.append(_FALSE)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind not in _ARRAY_KINDS:
            raise _NotWireCodable(f"ndarray dtype {obj.dtype}")
        dt = obj.dtype.str.encode("ascii")
        out.append(_NDARRAY)
        out.append(len(dt))
        out += dt
        out.append(obj.ndim)
        for dim in obj.shape:
            out += _U64.pack(dim)
        out += np.ascontiguousarray(obj).tobytes()
    elif isinstance(obj, np.generic):
        # Checked before the builtin branches: np.float64 subclasses
        # float (and np.complex128 subclasses complex), but must keep
        # its numpy type across the wire.
        arr = np.asarray(obj)
        if arr.dtype.kind not in _ARRAY_KINDS:
            raise _NotWireCodable(f"numpy scalar dtype {arr.dtype}")
        dt = arr.dtype.str.encode("ascii")
        out.append(_SCALAR)
        out.append(len(dt))
        out += dt
        out += arr.tobytes()
    elif isinstance(obj, int) and not isinstance(obj, bool):
        if _INT64_MIN <= obj <= _INT64_MAX:
            out.append(_INT64)
            out += _I64.pack(obj)
        else:
            raw = obj.to_bytes(
                (obj.bit_length() + 8) // 8, "little", signed=True
            )
            out.append(_BIGINT)
            out += _U32.pack(len(raw))
            out += raw
    elif isinstance(obj, float):
        out.append(_FLOAT64)
        out += _F64.pack(obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray)):
        out.append(_BYTES)
        out += _U32.pack(len(obj))
        out += obj
    elif isinstance(obj, (tuple, list)):
        out.append(_TUPLE if isinstance(obj, tuple) else _LIST)
        out += _U32.pack(len(obj))
        for item in obj:
            _encode_value(item, out)
    else:
        raise _NotWireCodable(type(obj).__name__)


def _check_size(nbytes: int) -> None:
    """Refuse a payload that encodes to more than the frame limit."""
    if nbytes > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"payload encodes to {nbytes} bytes, above the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )


def encode_payload(payload: Any) -> bytes:
    """Encode one payload; typed when possible, PICKLE fallback otherwise.

    The fallback keeps every payload sendable (and its byte accounting
    exact) while the MPI006 lint rule steers call-sites toward typed
    payloads.
    """
    out = bytearray()
    try:
        _encode_value(payload, out)
    except _NotWireCodable:
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        out = bytearray()
        out.append(_PICKLE)
        out += _U32.pack(len(raw))
        out += raw
    _check_size(len(out))
    return bytes(out)


def is_wire_codable(payload: Any) -> bool:
    """True when the payload has a typed encoding (no PICKLE fallback)."""
    try:
        _encode_value(payload, bytearray())
    except _NotWireCodable:
        return False
    return True


#: dtype -> (packer, prefix) of a 1-D array frame's head: the frame
#: header, the NDARRAY encoding up to the shape, and the length, in one
#: pack; None for a dtype with no integer-vector fast path.
_VECTOR_HEADS: dict[np.dtype, tuple[struct.Struct, bytes] | None] = {}


def _vector_head(dtype: np.dtype) -> tuple[struct.Struct, bytes] | None:
    if dtype not in _VECTOR_HEADS:
        head = None
        if dtype.kind in "iu":
            dt = dtype.str.encode("ascii")
            prefix = bytes((_NDARRAY, len(dt))) + dt + b"\x01"
            head = struct.Struct(f"<BBiq{len(prefix)}sQ"), prefix
        _VECTOR_HEADS[dtype] = head
    return _VECTOR_HEADS[dtype]


def encode_frame(source: int, tag: int, payload: Any) -> bytes:
    """One complete frame: header (source, tag) plus encoded payload.

    A 1-D C-contiguous integer array — every Step IV payload — skips
    the generic encoder: its head is one pack and its data one copy;
    the bytes produced are the same.
    """
    if (
        type(payload) is np.ndarray
        and payload.ndim == 1
        and payload.flags.c_contiguous
        and (head := _vector_head(payload.dtype)) is not None
    ):
        packer, prefix = head
        _check_size(packer.size - HEADER_BYTES + payload.nbytes)
        count = payload.shape[0]
        return packer.pack(MAGIC, VERSION, source, tag, prefix, count) + (
            payload.tobytes()
        )
    return _HEADER.pack(MAGIC, VERSION, source, tag) + encode_payload(payload)


# ----------------------------------------------------------------------
# sizing and copying without encoding
# ----------------------------------------------------------------------
#: dtype -> (the dtype a decoded array or scalar has, the NDARRAY
#: encoding's size before the shape), or None for a dtype with no typed
#: encoding.  Dtypes that compare equal share one ``str``, hence one
#: entry.
_WIRE_DTYPES: dict[np.dtype, tuple[np.dtype, int] | None] = {}


def _wire_dtype(dtype: np.dtype) -> tuple[np.dtype, int]:
    if dtype not in _WIRE_DTYPES:
        entry = None
        if dtype.kind in _ARRAY_KINDS:
            # type code, dtype-string length, dtype string, ndim
            entry = np.dtype(dtype.str), 3 + len(dtype.str)
        _WIRE_DTYPES[dtype] = entry
    entry = _WIRE_DTYPES[dtype]
    if entry is None:
        raise _NotWireCodable(f"dtype {dtype}")
    return entry


def _sized_copy(obj: Any) -> tuple[int, Any]:
    """``(len(encoding), decoded value)`` of one typed value; the
    branches are :func:`_encode_value`'s, in its order."""
    if obj is None or obj is True or obj is False:
        return 1, obj
    if isinstance(obj, np.ndarray):
        dtype, head = _wire_dtype(obj.dtype)
        nbytes = head + 8 * obj.ndim + obj.nbytes
        if type(obj) is np.ndarray and obj.dtype is dtype:
            return nbytes, obj.copy()
        # A subclass, or a dtype that decodes as an equal one of another
        # scalar type (np.longlong as np.int64): copy into the decoded form.
        out = np.empty(obj.shape, dtype)
        out[...] = obj
        return nbytes, out
    if isinstance(obj, np.generic):
        arr = np.asarray(obj)
        dtype, head = _wire_dtype(arr.dtype)
        # numpy scalars are immutable: only the type may need changing
        # (np.longlong, say, decodes as np.int64).
        value = obj if type(obj) is dtype.type else arr.view(dtype)[()]
        return head - 1 + dtype.itemsize, value
    if isinstance(obj, int):
        if _INT64_MIN <= obj <= _INT64_MAX:
            nbytes = 9
        else:
            nbytes = 5 + (obj.bit_length() + 8) // 8
        return nbytes, obj if type(obj) is int else int(obj)
    if isinstance(obj, float):
        return 9, obj if type(obj) is float else float(obj)
    if isinstance(obj, str):
        raw = len(obj) if obj.isascii() else len(obj.encode("utf-8"))
        return 5 + raw, str.__str__(obj)
    if isinstance(obj, (bytes, bytearray)):
        return 5 + len(obj), bytes(obj)
    if isinstance(obj, (tuple, list)):
        nbytes = 5
        items: list[Any] = []
        for item in obj:
            size, value = _sized_copy(item)
            nbytes += size
            items.append(value)
        return nbytes, tuple(items) if isinstance(obj, tuple) else items
    raise _NotWireCodable(type(obj).__name__)


def frame_copy(payload: Any) -> tuple[int, Any] | None:
    """What sending ``payload`` delivers, without encoding it.

    Returns ``(len(encode_frame(source, tag, payload)), value)`` where
    ``value`` is what :func:`decode_frame` would deliver: the same
    types, dtypes, shapes and values, every array C-ordered, writable
    and sharing no memory with ``payload``.  None when the payload has
    no typed encoding (it would travel as PICKLE).  A payload above the
    frame limit raises :class:`WireFormatError`, as encoding it does.
    """
    try:
        nbytes, value = _sized_copy(payload)
    except _NotWireCodable:
        return None
    _check_size(nbytes)
    return HEADER_BYTES + nbytes, value


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
class _Reader:
    __slots__ = ("buf", "at")

    def __init__(self, buf: bytes, at: int = 0) -> None:
        self.buf = buf
        self.at = at

    def take(self, n: int) -> memoryview:
        end = self.at + n
        if end > len(self.buf):
            raise WireFormatError(
                f"truncated frame: wanted {n} bytes at offset {self.at}, "
                f"frame has {len(self.buf)}"
            )
        view = memoryview(self.buf)[self.at:end]
        self.at = end
        return view

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]


def _decode_value(r: _Reader) -> Any:
    code = r.u8()
    if code == _NONE:
        return None
    if code == _TRUE:
        return True
    if code == _FALSE:
        return False
    if code == _INT64:
        return _I64.unpack(r.take(8))[0]
    if code == _BIGINT:
        return int.from_bytes(r.take(r.u32()), "little", signed=True)
    if code == _FLOAT64:
        return _F64.unpack(r.take(8))[0]
    if code == _STR:
        return str(r.take(r.u32()), "utf-8")
    if code == _BYTES:
        return bytes(r.take(r.u32()))
    if code == _NDARRAY:
        dtype = np.dtype(str(r.take(r.u8()), "ascii"))
        shape = tuple(r.u64() for _ in range(r.u8()))
        count = 1
        for dim in shape:
            count *= dim
        raw = r.take(count * dtype.itemsize)
        # frombuffer gives a read-only view of the frame; copy so the
        # receiver owns a writable array with no tie to the frame bytes.
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if code == _SCALAR:
        dtype = np.dtype(str(r.take(r.u8()), "ascii"))
        return np.frombuffer(r.take(dtype.itemsize), dtype=dtype)[0]
    if code in (_TUPLE, _LIST):
        n = r.u32()
        items = [_decode_value(r) for _ in range(n)]
        return tuple(items) if code == _TUPLE else items
    if code == _PICKLE:
        return pickle.loads(r.take(r.u32()))
    raise WireFormatError(f"unknown payload type code 0x{code:02x}")


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`."""
    r = _Reader(data)
    value = _decode_value(r)
    if r.at != len(data):
        raise WireFormatError(
            f"{len(data) - r.at} trailing byte(s) after payload"
        )
    return value


def frame_header(frame: bytes) -> tuple[int, int]:
    """A frame's (source, tag) without decoding the payload."""
    if len(frame) < HEADER_BYTES:
        raise WireFormatError(
            f"frame of {len(frame)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    magic, version, source, tag = _HEADER.unpack_from(frame)
    if magic != MAGIC:
        raise WireFormatError(f"bad frame magic 0x{magic:02x}")
    if version != VERSION:
        raise WireFormatError(f"unsupported wire-format version {version}")
    return source, tag


@lru_cache(maxsize=64)
def _vector_dtype(prefix: bytes) -> np.dtype | None:
    """The dtype of a 1-D integer array whose NDARRAY encoding starts
    with ``prefix`` (type code up to the dimension count), else None."""
    try:
        dtype = np.dtype(prefix[2:-1].decode("ascii"))
    except (TypeError, ValueError):
        return None
    return dtype if dtype.kind in "iu" and prefix[-1] == 1 else None


def _decode_int_vector(frame: bytes) -> np.ndarray | None:
    """The payload of a frame holding exactly one 1-D integer array,
    or None — anything else, a truncated or an over-long frame included,
    is left to the generic decoder and its error reporting."""
    at = HEADER_BYTES
    size = len(frame)
    if size < at + 2 or frame[at] != _NDARRAY:
        return None
    shape_at = at + 2 + frame[at + 1]
    data_at = shape_at + 1 + _U64.size
    if size < data_at:
        return None
    dtype = _vector_dtype(bytes(frame[at:shape_at + 1]))
    if dtype is None:
        return None
    (count,) = _U64.unpack_from(frame, shape_at + 1)
    if size != data_at + count * dtype.itemsize:
        return None
    # Same three steps as the generic decoder (view the frame, shape it,
    # copy): the receiver owns a writable array with no tie to the frame.
    # The reshape is a no-op kept on purpose: without that short-lived
    # view static_prefetch_p8 read +10 % peak_rss_mib in 10/10 pairs —
    # glibc heap layout around the long-lived payloads, not bytes held.
    return np.frombuffer(frame, dtype, count, data_at).reshape((count,)).copy()


def decode_frame(frame: bytes) -> Message:
    """Decode one frame into a delivered :class:`Message`."""
    source, tag = frame_header(frame)
    payload = _decode_int_vector(frame)
    if payload is None:
        r = _Reader(frame, at=HEADER_BYTES)
        payload = _decode_value(r)
        if r.at != len(frame):
            raise WireFormatError(
                f"{len(frame) - r.at} trailing byte(s) after payload"
            )
    return Message(source, tag, payload)


def clone(payload: Any) -> Any:
    """A deep copy with exact send/receive semantics: what decoding the
    payload's encoding gives, by :func:`frame_copy` when it is typed.

    Used for self-deliveries (a rank's own alltoallv chunk), which never
    cross an engine but must behave as if they had.
    """
    sized = frame_copy(payload)
    if sized is not None:
        return sized[1]
    return decode_payload(encode_payload(payload))
