import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_precoding import (
    ChannelFileError,
    SystemDims,
    file_size,
    generate_channels,
    read_channels,
    write_channels,
)
from mimo_precoding.channel_io import MAGIC

from conftest import stacked


class TestRoundTrip:
    def test_matrices_bitwise_equal(self, tmp_path):
        ch = generate_channels(SystemDims.uniform(K=3, T=8, R=2, L=1), seed=0)
        path = tmp_path / "ch.bin"
        write_channels(ch, path)
        back = read_channels(path)
        assert back.dims == ch.dims
        for a, b in zip(ch.users, back.users):
            np.testing.assert_array_equal(a.H, b.H)

    def test_file_bytes_stable_under_rewrite(self, tmp_path):
        ch = generate_channels(SystemDims.uniform(K=2, T=4, R=2, L=2), seed=1)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        write_channels(ch, p1)
        write_channels(read_channels(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=20, deadline=None)
    @given(K=st.integers(1, 4), R=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, tmp_path_factory, K, R, seed):
        T = R + 2
        ch = generate_channels(SystemDims.uniform(K=K, T=T, R=R, L=1), seed=seed)
        path = tmp_path_factory.mktemp("io") / "ch.bin"
        write_channels(ch, path)
        back = read_channels(path)
        np.testing.assert_array_equal(stacked(back), stacked(ch))


class TestLayout:
    def test_default_dims_file_size(self, tmp_path):
        dims = SystemDims.uniform(K=8, T=64, R=4, L=2)
        ch = generate_channels(dims, seed=0)
        path = tmp_path / "ch.bin"
        write_channels(ch, path)
        # 8 magic + 4 + 4 + 32 + 32 + 8*4*64*16 data bytes.
        assert path.stat().st_size == 32848
        assert file_size(dims) == 32848

    def test_layout_is_little_endian_interleaved(self, tmp_path):
        ch = generate_channels(SystemDims.uniform(K=1, T=2, R=1, L=1), seed=2)
        path = tmp_path / "ch.bin"
        write_channels(ch, path)
        data = path.read_bytes()
        assert data[:8] == MAGIC
        K, T = struct.unpack_from("<II", data, 8)
        assert (K, T) == (1, 2)
        assert struct.unpack_from("<I", data, 16) == (1,)  # R_1
        assert struct.unpack_from("<I", data, 20) == (1,)  # L_1
        entries = np.frombuffer(data, dtype="<f8", offset=24)
        H = stacked(ch)
        expected = np.column_stack([H.real.ravel(), H.imag.ravel()]).ravel()
        np.testing.assert_array_equal(entries, expected)


class TestErrors:
    def test_bad_magic_at_offset_zero(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 32)
        with pytest.raises(ChannelFileError, match="offset 0") as err:
            read_channels(path)
        assert err.value.offset == 0

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(MAGIC + struct.pack("<I", 1))
        with pytest.raises(ChannelFileError, match="truncated"):
            read_channels(path)

    def test_truncated_data_reports_offset(self, tmp_path):
        ch = generate_channels(SystemDims.uniform(K=1, T=4, R=2, L=1), seed=0)
        path = tmp_path / "cut.bin"
        write_channels(ch, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ChannelFileError, match="truncated") as err:
            read_channels(path)
        assert err.value.offset == len(data) - 8

    def test_trailing_bytes_report_where_the_data_should_end(self, tmp_path):
        ch = generate_channels(SystemDims.uniform(K=1, T=4, R=2, L=1), seed=0)
        path = tmp_path / "long.bin"
        write_channels(ch, path)
        data = path.read_bytes()
        path.write_bytes(data + b"\x00" * 24)
        with pytest.raises(ChannelFileError, match="trailing bytes.*found 152") as err:
            read_channels(path)
        assert err.value.offset == len(data)

    def test_invalid_per_user_dims(self, tmp_path):
        # L_k > R_k in the header.
        path = tmp_path / "dims.bin"
        payload = MAGIC + struct.pack("<II", 1, 4) + struct.pack("<I", 2) + struct.pack("<I", 3)
        path.write_bytes(payload + b"\x00" * (16 * 8))
        with pytest.raises(ChannelFileError, match="invalid dimensions"):
            read_channels(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("part", [0, 1], ids=["real", "imag"])
    def test_non_finite_entry_reports_its_offset(self, tmp_path, value, part):
        dims = SystemDims(K=2, T=4, R_k=(2, 3), L_k=(1, 2))
        path = tmp_path / "nan.bin"
        write_channels(generate_channels(dims, seed=0), path)
        data = bytearray(path.read_bytes())
        # User 1's entry (1, 2): after the 32 header bytes, user 0's 2 x 4
        # entries and 6 entries of user 1, 16 bytes each.
        entry = 32 + 16 * (8 + 6)
        data[entry + 8 * part:entry + 8 * part + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ChannelFileError, match=r"user 1: entry \(1, 2\)") as err:
            read_channels(path)
        assert err.value.offset == entry
        assert f"(byte offset {entry})" in str(err.value)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 2**25, 2**25))
        with pytest.raises(ChannelFileError, match="overflow"):
            read_channels(path)
