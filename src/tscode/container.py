"""Bit-exact container file for encoded sequences.

Layout (big-endian):
  magic ``TSZ1`` | 32-byte family-spec hash | mode byte (0 quantized,
  1 point, 2 markov) | s as IEEE-754 double | anchor length u16 | anchor
  doubles | x0 u16 (markov only) | n u32 | codeword bit length u64 |
  codeword bits packed MSB-first, zero-padded to a byte boundary.
A codeword arrives as its index k; the k-th string of {empty, 0, 1, 00, ...}
has w = floor(log2(k+1)) bits and value k + 1 - 2^w, and only the file holds them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .codec import Codeword
from .errors import ContainerError

MAGIC = b"TSZ1"
MODE_BYTES = {"quantized": 0, "point": 1, "markov": 2}
MODE_NAMES = {v: k for k, v in MODE_BYTES.items()}


@dataclass(frozen=True)
class Container:
    spec_hash: bytes
    mode: str
    s: float
    anchor: tuple[float, ...]
    x0: int | None
    n: int
    codeword: Codeword


def pack(container: Container) -> bytes:
    if container.mode not in MODE_BYTES:
        raise ContainerError(f"unknown mode {container.mode!r}")
    if len(container.spec_hash) != 32:
        raise ContainerError("spec hash must be 32 bytes")
    out = bytearray()
    out += MAGIC
    out += container.spec_hash
    out.append(MODE_BYTES[container.mode])
    out += struct.pack(">d", container.s)
    out += struct.pack(">H", len(container.anchor))
    for a in container.anchor:
        out += struct.pack(">d", a)
    if container.mode == "markov":
        if container.x0 is None:
            raise ContainerError("markov containers require x0")
        out += struct.pack(">H", container.x0)
    out += struct.pack(">I", container.n)
    width = container.codeword.length
    value = container.codeword.index + 1 - (1 << width)
    out += struct.pack(">Q", width)
    out += (value << (-width % 8)).to_bytes((width + 7) // 8, "big")
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise ContainerError(f"truncated container while reading {what}")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk


def unpack(data: bytes) -> Container:
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise ContainerError("bad magic; not a TSZ1 container")
    spec_hash = r.take(32, "spec hash")
    mode_byte = r.take(1, "mode")[0]
    if mode_byte not in MODE_NAMES:
        raise ContainerError(f"unknown mode byte {mode_byte}")
    mode = MODE_NAMES[mode_byte]
    s = struct.unpack(">d", r.take(8, "grid scale"))[0]
    alen = struct.unpack(">H", r.take(2, "anchor length"))[0]
    anchor = tuple(struct.unpack(">d", r.take(8, "anchor"))[0] for _ in range(alen))
    x0 = None
    if mode == "markov":
        x0 = struct.unpack(">H", r.take(2, "x0"))[0]
    n = struct.unpack(">I", r.take(4, "blocklength"))[0]
    bitlen = struct.unpack(">Q", r.take(8, "bit length"))[0]
    nbytes = (bitlen + 7) // 8
    raw = r.take(nbytes, "codeword bits")
    if r.pos != len(data):
        raise ContainerError(f"{len(data) - r.pos} trailing bytes after codeword")
    pad = -bitlen % 8
    value = int.from_bytes(raw, "big")
    if value & ((1 << pad) - 1):
        raise ContainerError("nonzero padding bits in final byte")
    return Container(spec_hash=spec_hash, mode=mode, s=s, anchor=anchor,
                     x0=x0, n=n, codeword=Codeword((1 << bitlen) - 1 + (value >> pad)))
