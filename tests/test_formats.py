import errno
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from windec import (
    BatchTensor,
    Dataset,
    DomainError,
    FormatError,
    GridPde,
    InitialCondition,
    LearnedStencil,
    RankError,
    Shape,
    WindowSpec,
    fit_global_linear,
    fit_stencil,
    generate_dataset,
    read_dataset,
    read_stencil,
    write_dataset,
    write_generated,
    write_stencil,
)


def small_dataset():
    grid = Shape(1, (2, 3), 1)
    pde = GridPde(dx=0.25, dt=0.5, c=(1.0, -2.0), alpha=0.125)
    frames = (
        BatchTensor(np.arange(6, dtype=np.float64).reshape(1, 2, 3, 1)),
        BatchTensor(np.arange(6, 12, dtype=np.float64).reshape(1, 2, 3, 1)),
    )
    return Dataset("advection", frames, pde, seed=7, meta={"ic": "sine"})


# --- dataset container ----------------------------------------------------------


def test_dataset_round_trip_bit_exact(tmp_path):
    grid = Shape(2, (12, 10), 2)
    pde = GridPde(dx=1 / 12, dt=0.1, nu=0.01)
    ds = generate_dataset("burgers", grid, pde, InitialCondition("bumps", n_bumps=2), 4, seed=3)
    path = tmp_path / "ds.ddld"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.equals(ds)
    assert back.pde.c is None  # unset speed survives the round trip


def test_read_dataset_holds_each_frame_once(tmp_path):
    # a frame read to bytes and then copied would hold a whole frame twice
    rng = np.random.default_rng(4)
    frames = tuple(BatchTensor(rng.standard_normal((2, 64, 64, 1))) for _ in range(4))
    path = tmp_path / "ds.ddld"
    write_dataset(path, Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(a.equals(b) for a, b in zip(back.frames, frames))
    payload = sum(f.data.nbytes for f in back.frames)
    assert peak - payload < 0.5 * frames[0].data.nbytes


def test_write_dataset_writes_frames_without_a_copy(tmp_path):
    # the payload is each frame's float64 values, little-endian as declared,
    # which is what tobytes() gives on a little-endian host; a copy of a
    # frame on the way would take a whole frame
    rng = np.random.default_rng(5)
    frames = tuple(BatchTensor(rng.standard_normal((2, 64, 64, 1))) for _ in range(3))
    path = tmp_path / "ds.ddld"
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_dataset(path, ds)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < frames[0].data.nbytes
    payload = path.read_bytes()[-3 * frames[0].data.nbytes:]
    assert payload == b"".join(f.data.astype("<f8").tobytes() for f in frames)
    if np.little_endian:
        assert payload == b"".join(f.data.tobytes() for f in frames)


@pytest.mark.parametrize("n_frames", [2, 4, 12])
def test_read_dataset_holds_one_frame_whatever_the_frame_count(tmp_path, n_frames):
    # every frame is read and checked, one at a time, in the one-frame
    # buffer that later reads reuse; none is kept, and the walks' second
    # buffer is not allocated yet
    rng = np.random.default_rng(4)
    frames = tuple(BatchTensor(rng.standard_normal((2, 128, 128, 1)))
                   for _ in range(n_frames))
    path = tmp_path / "ds.ddld"
    write_dataset(path, Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert back.n_steps == n_frames - 1
    # the buffer, plus the finiteness check's one-byte-per-value mask, the
    # file's 8 KiB read buffer and a few small objects
    assert peak < 1.2 * frames[0].data.nbytes


def test_dataset_rewrite_is_byte_identical(tmp_path):
    ds = small_dataset()
    a, b = tmp_path / "a.ddld", tmp_path / "b.ddld"
    write_dataset(a, ds)
    write_dataset(b, ds)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind, grid, ic", [
    ("heat", Shape(1, (5,), 1), InitialCondition("sine", freq=1.0)),  # 1-D
    ("advection", Shape(1, (2, 3), 1), InitialCondition("bumps", n_bumps=2)),  # no c
    ("heat", Shape(1, (4, 5, 6), 1), InitialCondition("harmonics")),  # no bandwidth
])
def test_write_generated_refuses_a_request_before_it_writes(tmp_path, kind, grid, ic):
    with pytest.raises((RankError, DomainError)):
        write_generated(tmp_path / "ds.ddld", kind, grid, GridPde(dx=0.5, dt=0.1), ic, 3, 0)
    assert os.listdir(tmp_path) == []


def three_frame_file(tmp_path, name="ds.ddld", seed=8):
    rng = np.random.default_rng(seed)
    frames = tuple(BatchTensor(rng.standard_normal((2, 8, 6, 1))) for _ in range(3))
    path = tmp_path / name
    write_dataset(path, Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0))
    return path, frames


def test_dataset_read_from_a_file_rewrites_it_byte_identically(tmp_path):
    path, _ = three_frame_file(tmp_path)
    raw = path.read_bytes()
    write_dataset(path, read_dataset(path))
    assert path.read_bytes() == raw
    assert os.listdir(tmp_path) == ["ds.ddld"]  # no temporary file left behind


def test_write_failing_partway_through_the_payload_leaves_the_old_file(tmp_path):
    path = tmp_path / "old.ddld"
    write_dataset(path, small_dataset())
    raw = path.read_bytes()
    source, _ = three_frame_file(tmp_path, "source.ddld")
    ds = read_dataset(source)
    os.truncate(source, source.stat().st_size - 8)  # the last frame's read fails
    with pytest.raises(FormatError):
        write_dataset(path, ds)
    assert path.read_bytes() == raw
    assert sorted(os.listdir(tmp_path)) == ["old.ddld", "source.ddld"]


def test_file_renamed_over_a_read_dataset_is_not_read(tmp_path):
    path, frames = three_frame_file(tmp_path)
    ds = read_dataset(path)
    other, _ = three_frame_file(tmp_path, "other.ddld", seed=9)
    os.replace(other, path)
    for t, now, after in ds.pairs(range(ds.n_steps)):
        assert np.array_equal(now, frames[t].data)
        assert np.array_equal(after, frames[t + 1].data)
    assert ds.frames[2].equals(frames[2])


def test_file_truncated_in_place_after_the_read_is_refused(tmp_path):
    path, _ = three_frame_file(tmp_path)
    ds = read_dataset(path)
    os.truncate(path, path.stat().st_size - 8)
    with pytest.raises(FormatError):
        list(ds.pairs(range(ds.n_steps)))
    with pytest.raises(FormatError):
        ds.frames[2]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_value_written_into_a_frame_after_the_read_is_refused(tmp_path, value):
    path, frames = three_frame_file(tmp_path)
    ds = read_dataset(path)
    frame_bytes = frames[0].data.nbytes
    with open(path, "r+b") as fh:
        fh.seek(-frame_bytes - 8 * 17, os.SEEK_END)  # inside frame 1, in every pair
        fh.write(struct.pack("<d", value))
    with pytest.raises(FormatError):
        list(ds.pairs([1]))
    with pytest.raises(FormatError):
        ds.frames[1]
    # the fits read the frame through a walk: no NaN or Inf reaches them
    with pytest.raises(FormatError):
        fit_stencil(ds, WindowSpec((3, 3)), sample_budget=64)
    with pytest.raises(FormatError):
        fit_global_linear(ds)


def test_dataset_header_matches_documented_layout(tmp_path):
    path = tmp_path / "ds.ddld"
    write_dataset(path, small_dataset())
    raw = path.read_bytes()
    magic, version, kind, d, reserved = struct.unpack_from("<4sIBBH", raw, 0)
    assert (magic, version, kind, d, reserved) == (b"DDLD", 1, 0, 2, 0)
    nb, n1, n2, nc, steps = struct.unpack_from("<5I", raw, 12)
    assert (nb, n1, n2, nc, steps) == (1, 2, 3, 1, 1)
    dt, dx, c1, c2, nu, alpha = struct.unpack_from("<6d", raw, 32)
    assert (dt, dx, c1, c2, nu, alpha) == (0.5, 0.25, 1.0, -2.0, 0.0, 0.125)
    (seed,) = struct.unpack_from("<Q", raw, 80)
    assert seed == 7
    (meta_len,) = struct.unpack_from("<I", raw, 88)
    meta = raw[92 : 92 + meta_len].decode("utf-8")
    assert meta == "boundary=periodic\nic=sine"
    frames = np.frombuffer(raw[92 + meta_len :], dtype="<f8")
    assert frames.tolist() == list(range(12))


def test_hand_built_bytes_decode_to_expected_dataset(tmp_path):
    meta = b"boundary=periodic\nic=sine"
    blob = struct.pack("<4sIBBH", b"DDLD", 1, 0, 2, 0)
    blob += struct.pack("<5I", 1, 2, 3, 1, 1)
    blob += struct.pack("<6d", 0.5, 0.25, 1.0, -2.0, 0.0, 0.125)
    blob += struct.pack("<Q", 7)
    blob += struct.pack("<I", len(meta)) + meta
    blob += np.arange(12, dtype="<f8").tobytes()
    path = tmp_path / "hand.ddld"
    path.write_bytes(blob)
    assert read_dataset(path).equals(small_dataset())


def test_truncated_dataset_rejected_everywhere(tmp_path):
    path = tmp_path / "ds.ddld"
    write_dataset(path, small_dataset())
    raw = path.read_bytes()
    for cut in (0, 3, 11, 20, 40, 90, len(raw) - 5):
        (tmp_path / "cut.ddld").write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "cut.ddld")


def test_bad_magic_and_version_rejected(tmp_path):
    path = tmp_path / "ds.ddld"
    write_dataset(path, small_dataset())
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.ddld"

    flipped = bytearray(raw)
    flipped[0] = ord("X")
    bad.write_bytes(bytes(flipped))
    with pytest.raises(FormatError):
        read_dataset(bad)

    versioned = bytearray(raw)
    versioned[4] = 2
    bad.write_bytes(bytes(versioned))
    with pytest.raises(FormatError):
        read_dataset(bad)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "ds.ddld"
    write_dataset(path, small_dataset())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        read_dataset(path)


def huge_dataset_header(meta_len=0):
    """A rank-3 .ddld header claiming 65535^3 cells per frame, then 64 bytes."""
    blob = struct.pack("<4sIBBH", b"DDLD", 1, 0, 3, 0)
    blob += struct.pack("<6I", 1, 65535, 65535, 65535, 1, 0)
    blob += struct.pack("<7d", 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    blob += struct.pack("<Q", 0) + struct.pack("<I", meta_len)
    return blob + bytes(64)


def test_header_claiming_more_than_the_file_holds_rejected(tmp_path):
    path = tmp_path / "huge.ddld"
    for meta_len in (0, 0xFFFFFFFF):
        path.write_bytes(huge_dataset_header(meta_len))
        with pytest.raises(FormatError):
            read_dataset(path)


def test_non_utf8_meta_rejected(tmp_path):
    path = tmp_path / "ds.ddld"
    write_dataset(path, small_dataset())
    raw = bytearray(path.read_bytes())
    raw[92] = 0xFF  # first meta byte
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_dataset(path)


# dt, dx and c[0] of small_dataset's header, then its last frame value
@pytest.mark.parametrize("offset", [32, 40, 48, -8])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_dataset_values_rejected(tmp_path, offset, value):
    path = tmp_path / "ds.ddld"
    write_dataset(path, small_dataset())
    raw = bytearray(path.read_bytes())
    start = offset % len(raw)
    raw[start : start + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_dataset(path)


# --- stencil container ----------------------------------------------------------


def small_stencil():
    rng = np.random.default_rng(5)
    w = WindowSpec((3, 5))
    weights = rng.standard_normal((15 * 2, 2))
    bias = rng.standard_normal(2)
    return LearnedStencil(w, weights, bias, 1e-6)


def test_stencil_round_trip_bit_exact(tmp_path):
    st = small_stencil()
    path = tmp_path / "st.ddst"
    write_stencil(path, st)
    back = read_stencil(path)
    assert back.window == st.window
    assert back.ridge_lambda == st.ridge_lambda
    assert np.array_equal(back.weights, st.weights)
    assert np.array_equal(back.bias, st.bias)


def test_stencil_write_failing_partway_through_leaves_the_old_file(tmp_path):
    path = tmp_path / "old.ddst"
    write_stencil(path, small_stencil())
    raw = path.read_bytes()
    st = small_stencil()

    class FailsAtTheBiases:
        window, channels, ridge_lambda, weights = st.window, st.channels, st.ridge_lambda, st.weights

        @property
        def bias(self):  # read once the header and the weights are written
            raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError):
        write_stencil(path, FailsAtTheBiases())
    assert path.read_bytes() == raw
    assert os.listdir(tmp_path) == ["old.ddst"]


def test_stencil_header_matches_documented_layout(tmp_path):
    rng = np.random.default_rng(6)
    st = LearnedStencil(WindowSpec((3,)), rng.standard_normal((3, 1)), rng.standard_normal(1), 0.5)
    path = tmp_path / "st.ddst"
    write_stencil(path, st)
    raw = path.read_bytes()
    magic, version, d = struct.unpack_from("<4sIB", raw, 0)
    assert (magic, version, d) == (b"DDST", 1, 1)
    (w1,) = struct.unpack_from("<I", raw, 9)
    nc, lam = struct.unpack_from("<Id", raw, 13)
    assert (w1, nc, lam) == (3, 1, 0.5)
    coefs = np.frombuffer(raw[25:], dtype="<f8")
    assert np.array_equal(coefs[:3], st.weights[:, 0])
    assert coefs[3] == st.bias[0]
    assert len(raw) == 25 + 4 * 8


def test_stencil_truncation_and_magic(tmp_path):
    st = small_stencil()
    path = tmp_path / "st.ddst"
    write_stencil(path, st)
    raw = path.read_bytes()
    bad = tmp_path / "bad.ddst"
    bad.write_bytes(raw[: len(raw) - 3])
    with pytest.raises(FormatError):
        read_stencil(bad)
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        read_stencil(bad)


def test_stencil_header_claiming_more_than_the_file_holds_rejected(tmp_path):
    blob = struct.pack("<4sIB", b"DDST", 1, 3) + struct.pack("<3I", 65535, 65535, 65535)
    blob += struct.pack("<Id", 1, 0.0) + bytes(64)
    path = tmp_path / "huge.ddst"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        read_stencil(path)


# lambda, the first weight and the last bias of small_stencil (d = 2)
@pytest.mark.parametrize("offset", [21, 29, -8])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_stencil_values_rejected(tmp_path, offset, value):
    path = tmp_path / "st.ddst"
    write_stencil(path, small_stencil())
    raw = bytearray(path.read_bytes())
    start = offset % len(raw)
    raw[start : start + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_stencil(path)


# --- fuzzing both containers ----------------------------------------------------

CONTAINERS = {
    "ddld": (write_dataset, read_dataset, small_dataset),
    "ddst": (write_stencil, read_stencil, small_stencil),
}


@pytest.fixture(scope="module")
def clean_containers(tmp_path_factory):
    """Directory and bytes of one valid file of each container."""
    directory = tmp_path_factory.mktemp("containers")
    raw = {}
    for kind, (write, _, build) in CONTAINERS.items():
        path = directory / f"clean.{kind}"
        write(path, build())
        raw[kind] = path.read_bytes()
    return directory, raw


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
@settings(max_examples=200)
@given(data=st.data())
def test_truncated_container_raises_format_error(clean_containers, kind, data):
    directory, raw = clean_containers
    cut = data.draw(st.integers(0, len(raw[kind]) - 1), label="cut")
    path = directory / f"cut.{kind}"
    path.write_bytes(raw[kind][:cut])
    _, read, _ = CONTAINERS[kind]
    with pytest.raises(FormatError):
        read(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
@settings(max_examples=400)
@given(data=st.data())
def test_bit_flipped_container_reads_back_or_raises_format_error(clean_containers, kind,
                                                                 data):
    directory, raw = clean_containers
    bit = data.draw(st.integers(0, 8 * len(raw[kind]) - 1), label="bit")
    flipped = bytearray(raw[kind])
    flipped[bit // 8] ^= 1 << (bit % 8)
    path = directory / f"flipped.{kind}"
    path.write_bytes(bytes(flipped))
    _, read, _ = CONTAINERS[kind]
    try:
        read(path)
    except FormatError:
        pass
