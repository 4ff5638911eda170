"""``Dataset.pairs``, the walk over frame pairs, and ``Dataset.frame``, the one-frame
read, on in-memory and file-backed datasets."""

import os
import tracemalloc

import numpy as np
import pytest

from windec import BatchTensor, Dataset, DomainError, GridPde, read_dataset, write_dataset

GRIDS = [(2, 9, 1), (1, 5, 4, 2), (2, 3, 4, 2, 1), (1, 3, 3, 3, 2)]  # 1-D to 3-D, 1-2 channels
# sorted pair indices of an 8-frame dataset: adjacent runs, gaps, one pair, none
INDEX_SETS = [[0, 1, 2], [0, 2, 5], [1, 2, 4, 5, 6], [6], []]


def make_frames(dims, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(BatchTensor(rng.standard_normal(dims)) for _ in range(n))


def make_dataset(tmp_path, frames, source):
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    if source == "memory":
        return ds
    path = tmp_path / "ds.ddld"
    write_dataset(path, ds)
    return read_dataset(path)


@pytest.mark.parametrize("source", ["memory", "file"])
@pytest.mark.parametrize("indices", INDEX_SETS, ids=str)
@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_walk_yields_each_pair(tmp_path, dims, indices, source):
    frames = make_frames(dims)
    ds = make_dataset(tmp_path, frames, source)
    seen = []
    for t, now, after in ds.pairs(indices):
        assert not now.flags.writeable and not after.flags.writeable
        assert np.array_equal(now, frames[t].data)
        assert np.array_equal(after, frames[t + 1].data)
        seen.append(t)
    assert seen == indices


@pytest.mark.parametrize("indices", INDEX_SETS, ids=str)
def test_file_walk_reads_each_frame_at_most_once(tmp_path, monkeypatch, indices):
    ds = make_dataset(tmp_path, make_frames((2, 6, 5, 1)), "file")
    reads = []
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: reads.append(offset)
                        or preadv(fd, buffers, offset))
    list(ds.pairs(indices))
    assert len(reads) == len(set(reads)) == len({f for t in indices for f in (t, t + 1)})


@pytest.mark.parametrize("source", ["memory", "file"])
def test_second_walk_never_aliases_the_first(tmp_path, source):
    frames = make_frames((2, 6, 5, 1))
    ds = make_dataset(tmp_path, frames, source)
    first, second = ds.pairs([0, 1, 2, 3]), ds.pairs([4, 5])
    for _ in range(2):
        (t, a0, a1), (s, b0, b1) = next(first), next(second)
        for a in (a0, a1):
            assert not any(np.shares_memory(a, b) for b in (b0, b1))
        for i, x in ((t, a0), (t + 1, a1), (s, b0), (s + 1, b1)):
            assert np.array_equal(x, frames[i].data)
    # the first walk goes on correctly once the second has ended
    assert [t for t, now, _ in first if np.array_equal(now, frames[t].data)] == [2, 3]


def test_file_walks_one_after_another_share_one_workspace(tmp_path):
    ds = make_dataset(tmp_path, make_frames((2, 6, 5, 1)), "file")
    first = [now for _, now, _ in ds.pairs([0, 1])]
    second = [now for _, now, _ in ds.pairs([0, 1])]
    assert np.shares_memory(first[0], second[0])


@pytest.mark.parametrize("source", ["memory", "file"])
@pytest.mark.parametrize("t", [-1, 7])
def test_walk_refuses_a_pair_outside_the_dataset(tmp_path, source, t):
    ds = make_dataset(tmp_path, make_frames((1, 4, 1)), source)
    with pytest.raises(DomainError):
        list(ds.pairs([0, t]))


def test_walking_every_pair_of_a_12_frame_file_holds_under_3_frames(tmp_path):
    frames = make_frames((2, 64, 64, 1), n=12)
    path = tmp_path / "ds.ddld"
    write_dataset(path, Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = read_dataset(path)
        for _ in ds.pairs(range(ds.n_steps)):
            pass
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * frames[0].data.nbytes


def test_file_frames_are_fresh_reads(tmp_path):
    frames = make_frames((2, 6, 5, 1), n=3)
    ds = make_dataset(tmp_path, frames, "file")
    a, b = ds.frames[1], ds.frames[1]
    assert a.equals(frames[1]) and b.equals(frames[1])
    assert not np.shares_memory(a.data, b.data)
    assert ds.frames[-1].equals(frames[2])
    with pytest.raises(IndexError):
        ds.frames[3]


@pytest.mark.parametrize("source", ["memory", "file"])
@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_frame_reads_each_frame(tmp_path, dims, source):
    frames = make_frames(dims)
    ds = make_dataset(tmp_path, frames, source)
    for t in (0, 3, 7, 2, 2):
        now = ds.frame(t)
        assert not now.flags.writeable
        assert np.array_equal(now, frames[t].data)


@pytest.mark.parametrize("source", ["memory", "file"])
@pytest.mark.parametrize("t", [-1, 8])
def test_frame_refuses_an_index_outside_the_dataset(tmp_path, source, t):
    ds = make_dataset(tmp_path, make_frames((1, 4, 1)), source)
    with pytest.raises(DomainError):
        ds.frame(t)


def test_file_frame_reads_share_one_buffer_with_the_walks(tmp_path):
    frames = make_frames((2, 6, 5, 1))
    ds = make_dataset(tmp_path, frames, "file")
    first, second = ds.frame(1), ds.frame(2)
    assert np.shares_memory(first, second)
    assert np.array_equal(second, frames[2].data)
    [(_, now, after)] = ds.pairs([4])  # frame 4 goes to slot 0, frame 5 to slot 1
    assert np.shares_memory(now, first) and not np.shares_memory(after, first)


@pytest.mark.parametrize("source", ["memory", "file"])
def test_frame_read_during_a_walk_never_aliases_it(tmp_path, source):
    frames = make_frames((2, 6, 5, 1))
    ds = make_dataset(tmp_path, frames, source)
    walk = ds.pairs([0, 1, 2])
    t, now, after = next(walk)
    read = ds.frame(5)
    assert not np.shares_memory(read, now) and not np.shares_memory(read, after)
    assert np.array_equal(read, frames[5].data)
    assert np.array_equal(now, frames[0].data) and np.array_equal(after, frames[1].data)
    assert [t for t, now, _ in walk if np.array_equal(now, frames[t].data)] == [1, 2]


def test_one_frame_reads_hold_one_frame_until_the_first_walk(tmp_path):
    # the walks' second buffer is allocated at the first walk, not before
    frames = make_frames((2, 128, 128, 1), n=12)
    path = tmp_path / "ds.ddld"
    write_dataset(path, Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0))
    frame = frames[0].data.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = read_dataset(path)
        for t in range(len(frames)):
            ds.frame(t)
        read_peak = tracemalloc.get_traced_memory()[1] - before
        for _ in ds.pairs([0]):
            pass
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert read_peak < 1.2 * frame
    assert 2 * frame <= held < 2.2 * frame
