"""Binary weights container.

Layout: magic "SFMW", version u32, count u32, then per tensor a header of
name_len u16 / name UTF-8 / rank u8 / dims u32 each, then all payloads as
little-endian float32 concatenated in declaration order.  Loading validates
the name sequence and shapes against the parameter layout the config
implies, so a container can never be applied to the wrong architecture.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import BadMagic, ParseError, ShapeMismatch, TruncatedPayload, VersionMismatch
from .fileio import atomic_write_bytes, read_bytes
from .params import ParamStore

MAGIC = b"SFMW"
VERSION = 1


def serialize_weights(store: ParamStore) -> bytes:
    names = store.names()
    head = [MAGIC, struct.pack("<II", VERSION, len(names))]
    payloads = []
    for name in names:
        data = store.data(name)
        encoded = name.encode("utf-8")
        head.append(struct.pack("<H", len(encoded)))
        head.append(encoded)
        head.append(struct.pack("<B", data.ndim))
        head.append(struct.pack(f"<{data.ndim}I", *data.shape))
        payloads.append(np.ascontiguousarray(data, dtype="<f4").tobytes())
    return b"".join(head) + b"".join(payloads)


def save_weights(store: ParamStore, path) -> None:
    atomic_write_bytes(path, serialize_weights(store))


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise TruncatedPayload(f"file ends inside {what}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out


def parse_weights(raw: bytes) -> list[tuple[str, tuple[int, ...], np.ndarray]]:
    """Decode (name, shape, float32 payload) records."""
    reader = _Reader(raw)
    if reader.take(4, "magic") != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}")
    (version,) = struct.unpack("<I", reader.take(4, "version"))
    if version != VERSION:
        raise VersionMismatch(f"version {version} unsupported (expected {VERSION})")
    (count,) = struct.unpack("<I", reader.take(4, "count"))
    headers = []
    for record in range(1, count + 1):
        (name_len,) = struct.unpack("<H", reader.take(2, "name length"))
        try:
            name = reader.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(record, f"tensor name is not UTF-8: {exc}") from exc
        (rank,) = struct.unpack("<B", reader.take(1, "rank"))
        shape = struct.unpack(f"<{rank}I", reader.take(4 * rank, "dims"))
        headers.append((name, shape))
    records = []
    for name, shape in headers:
        payload = reader.take(4 * math.prod(shape), f"payload of {name}")
        records.append((name, shape, np.frombuffer(payload, dtype="<f4").reshape(shape)))
    if reader.pos != len(raw):
        raise TruncatedPayload(
            f"{len(raw) - reader.pos} unexpected trailing bytes"
        )
    return records


def load_weights(path, expected: ParamStore) -> ParamStore:
    """Read a container into ``expected``, validating names and shapes.

    The container must declare exactly the same tensor names in the same
    order; ``ParamStore.set_data`` checks each shape and assigns in place.
    """
    records = parse_weights(read_bytes(path))
    names = [name for name, _, _ in records]
    if names != expected.names():
        missing = [n for n in expected.names() if n not in set(names)]
        extra = [n for n in names if n not in set(expected.names())]
        raise ShapeMismatch(
            f"tensor names do not match the config layout "
            f"(missing {missing[:3]}, unexpected {extra[:3]})"
        )
    for name, _, payload in records:
        expected.set_data(name, payload)
    return expected
