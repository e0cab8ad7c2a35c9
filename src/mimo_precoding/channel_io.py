"""Binary channel-set files, for exchanging externally generated channels.

Layout, all little-endian:

    bytes 0..7    magic "MIMOCH01"
    u32           K (user count)
    u32           T (transmit antennas)
    K x u32       R_k
    K x u32       L_k
    per user      R_k * T complex entries, row-major, each an (re, im) f64 pair

write followed by read reproduces the stored matrices bit for bit.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ChannelFileError
from .model import ChannelSet, build_channel_set

MAGIC = b"MIMOCH01"

_MAX_SIDE = 1 << 20        # sanity cap on K and T
_MAX_ELEMENTS = 1 << 28    # sanity cap on total complex entries


def write_channels(channel: ChannelSet, path) -> None:
    dims = channel.dims
    parts = [MAGIC, struct.pack("<II", dims.K, dims.T)]
    parts.append(struct.pack(f"<{dims.K}I", *dims.R_k))
    parts.append(struct.pack(f"<{dims.K}I", *dims.L_k))
    for user in channel.users:
        parts.append(np.ascontiguousarray(user.H, dtype="<c16").tobytes())
    Path(path).write_bytes(b"".join(parts))


def _read_u32s(data: bytes, offset: int, count: int, what: str) -> tuple[tuple[int, ...], int]:
    need = 4 * count
    if len(data) - offset < need:
        raise ChannelFileError(
            f"truncated file: expected {need} bytes of {what}", offset=len(data)
        )
    return struct.unpack_from(f"<{count}I", data, offset), offset + need


def read_channels(path) -> ChannelSet:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC):
        raise ChannelFileError("truncated file: missing magic", offset=len(data))
    if data[: len(MAGIC)] != MAGIC:
        raise ChannelFileError(f"bad magic {data[:len(MAGIC)]!r}", offset=0)
    offset = len(MAGIC)

    (K, T), offset = _read_u32s(data, offset, 2, "header")
    if not (1 <= K <= _MAX_SIDE and 1 <= T <= _MAX_SIDE):
        raise ChannelFileError(f"dimension overflow: K={K}, T={T}", offset=len(MAGIC))

    header_offset = offset
    R_k, offset = _read_u32s(data, offset, K, "receive antenna counts")
    L_k, offset = _read_u32s(data, offset, K, "stream counts")
    for k in range(K):
        if not 1 <= L_k[k] <= R_k[k] <= T:
            raise ChannelFileError(
                f"user {k}: invalid dimensions L_k={L_k[k]}, R_k={R_k[k]}, T={T}",
                offset=header_offset + 4 * k,
            )
    total = sum(r * T for r in R_k)
    if total > _MAX_ELEMENTS:
        raise ChannelFileError(f"dimension overflow: {total} matrix entries",
                               offset=header_offset)

    need, found = 16 * total, len(data) - offset
    if found != need:  # the offset where the data ends, or should have ended
        raise ChannelFileError(
            f"{'truncated file' if found < need else 'trailing bytes'}: expected {need} "
            f"bytes of matrix data, found {found}", offset=min(len(data), offset + need))

    channels = []
    for k in range(K):
        count = R_k[k] * T
        H = np.frombuffer(data, dtype="<c16", count=count, offset=offset)
        bad = np.flatnonzero(~np.isfinite(H))
        if bad.size:
            row, col = divmod(int(bad[0]), T)
            raise ChannelFileError(f"user {k}: entry ({row}, {col}) is {H[bad[0]]}, not finite",
                                   offset=offset + 16 * int(bad[0]))
        channels.append(H.reshape(R_k[k], T).copy())
        offset += 16 * count
    return build_channel_set(channels, L_k)


def file_size(dims) -> int:
    """Exact size in bytes of a channel file with these dimensions."""
    return len(MAGIC) + 8 + 8 * dims.K + 16 * sum(r * dims.T for r in dims.R_k)
