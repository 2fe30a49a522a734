import copy
import itertools
import pickle
import random

import numpy as np
import pytest

import snoise  # noqa: F401  (imported before the entropy source is patched)
from snoise import rng
from snoise.rng import make_stream

SEEDS = [0, 2**63 + 5, 2**64 - 7]
PATH_INDICES = [0, 2**32 - 1]
TAGS = [0, 2**32 - 1]
KEYS = list(itertools.product(SEEDS, PATH_INDICES, TAGS))


def reference_stream(seed, path_index, tag):
    """The stream as ``Philox(key=...)`` builds it from the same key."""
    key = np.array([seed, (path_index << 32) | tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def assert_same_state(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    assert sa.keys() == sb.keys()
    for k in sa:
        if k == "state":
            for part in ("counter", "key"):
                np.testing.assert_array_equal(sa[k][part], sb[k][part])
        elif isinstance(sa[k], np.ndarray):
            np.testing.assert_array_equal(sa[k], sb[k])
        else:
            assert sa[k] == sb[k]


def draws(g):
    return [g.random(7), g.exponential(2.0, 5), g.poisson(3.0, 5),
            g.normal(size=5), g.integers(0, 2**40, size=5)]


@pytest.mark.parametrize("seed,path_index,tag", KEYS)
def test_same_state_and_draws_as_philox_key(seed, path_index, tag):
    got, ref = make_stream(seed, path_index, tag), reference_stream(seed, path_index, tag)
    assert_same_state(got, ref)
    for a, b in zip(draws(got), draws(ref)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert_same_state(got, ref)


@pytest.mark.parametrize("path_index,tag", [(np.int64(5), np.int64(3)),
                                            (np.uint32(2**32 - 1), np.uint8(7))])
def test_numpy_integer_keys(path_index, tag):
    got = make_stream(np.uint64(2**64 - 7), path_index, tag)
    ref = reference_stream(2**64 - 7, int(path_index), int(tag))
    assert_same_state(got, ref)
    assert got.random() == ref.random()


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_copies_continue_the_stream(clone):
    g = make_stream(11, 3, 1)
    g.random(3)
    c = clone(g)
    for a, b in zip(draws(c), draws(g)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("path_index,tag,message", [
    (-1, 0, "path_index must fit in 32 bits"),
    (2**32, 0, "path_index must fit in 32 bits"),
    (0, -1, "tag must fit in 32 bits"),
    (0, 2**32, "tag must fit in 32 bits"),
])
def test_range_errors(path_index, tag, message):
    with pytest.raises(ValueError, match=message):
        make_stream(1, path_index, tag)


@pytest.mark.parametrize("seed,error", [
    (-1, ValueError), (np.int64(-7), ValueError), (2**64, ValueError),
    (1.5, TypeError), (1.0, TypeError), (np.float64(3.0), TypeError),
    ("1", TypeError), (None, TypeError),
])
def test_seed_outside_64_bits_is_refused(seed, error):
    # -1 used to draw what 2^64 - 1 draws, and 1.5 what 1 draws
    with pytest.raises(error):
        make_stream(seed)


@pytest.mark.parametrize("path_index,tag", [
    (1.5, 0), (1.0, 0), (np.float64(2.0), 0),
    (0, 2.7), (0, 2.0), (0, np.float32(1.0)),
])
def test_non_integer_path_index_or_tag_is_refused(path_index, tag):
    # make_stream(1, 1.5, 0) used to draw what make_stream(1, 1, 0) draws
    with pytest.raises(TypeError):
        make_stream(1, path_index, tag)


def test_key_is_the_only_state():
    seed_seq = make_stream(5, 2, 3).bit_generator.seed_seq
    np.testing.assert_array_equal(seed_seq.generate_state(2, np.uint64),
                                  np.array([5, (2 << 32) | 3], dtype=np.uint64))
    for n_words, dtype in [(1, np.uint64), (3, np.uint64), (2, np.uint32),
                           (4, np.uint32), (4, None)]:
        with pytest.raises(ValueError, match="2 uint64 words"):
            seed_seq.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="2 uint64 words"):
        seed_seq.generate_state(2)


def test_spawn_is_unsupported():
    with pytest.raises(TypeError, match="does not implement spawning"):
        make_stream(1, 2, 3).spawn(1)


def test_reads_no_os_entropy(monkeypatch):
    def no_entropy(n):
        raise RuntimeError("os entropy read")

    expected = reference_stream(1, 2, 3).random()
    monkeypatch.setattr(random, "_urandom", no_entropy)
    with pytest.raises(RuntimeError, match="os entropy read"):
        reference_stream(1, 2, 3)
    assert make_stream(1, 2, 3).random() == expected


def test_zero_counter_is_shared_read_only_and_copied():
    assert not rng._ZERO_COUNTER.flags.writeable
    with pytest.raises(ValueError):
        rng._ZERO_COUNTER[0] = 1
    a, b = make_stream(4, 1, 2), make_stream(4, 1, 2)
    a.random(1000)
    a.integers(0, 10, size=333)
    # Philox holds its own counter: drawing from one stream moves neither
    # the constant nor a twin stream
    assert rng._ZERO_COUNTER.tolist() == [0, 0, 0, 0]
    assert b.bit_generator.state["state"]["counter"].tolist() == [0, 0, 0, 0]
    ref = reference_stream(4, 1, 2)
    assert_same_state(b, ref)
    assert b.random(7).tobytes() == ref.random(7).tobytes()
