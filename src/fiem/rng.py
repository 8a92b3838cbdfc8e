"""Seeded random-number substreams.

Every source of randomness in the package flows from a single integer seed
through a :class:`SeedTree`.  A tree node hands out *named* streams
("indices-I", "indices-J", "termination", "data"), each backed by its own
counter-based Philox generator, so that two algorithms run from the same node
consume identical index streams even when they make a different number of
draws overall: the oracle draws of Online EM come from the same "indices-J"
stream positions as the second draws of FIEM.

Child nodes (``tree.child(r)``) derive per-replica trees deterministically.

:meth:`SeedTree.stream` keys one generator through ``np.random.SeedSequence``.
:func:`raw_outputs` reads the first 64-bit outputs of the same named stream
of a range of one tree's children at once: it builds their entropy words as
one (R, w) uint32 array, runs SeedSequence's pool mixing on it as vectorized
uint32 arithmetic and re-keys one Philox per child.  :func:`index_draws`
turns those outputs into ``integers(0, n, size)`` of each child's stream,
bit for bit, with numpy's Lemire rejection written as array arithmetic.
"""
from __future__ import annotations

import hashlib

import numpy as np

STREAM_INDICES_I = "indices-I"
STREAM_INDICES_J = "indices-J"
STREAM_TERMINATION = "termination"
STREAM_DATA = "data"

_MASK = 0xFFFFFFFF
# SeedSequence's pool size and hash constants (numpy.random.bit_generator)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _name_key(name: str) -> tuple[int, int]:
    # stable 64-bit tag for a stream name, split into two uint32 words
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[0:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


class SeedTree:
    """Deterministic hierarchy of named random streams under one seed."""

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)

    def stream(self, name: str) -> np.random.Generator:
        """Independent generator for the named stream of this node."""
        key = np.random.SeedSequence(self.seed, spawn_key=self.path + _name_key(name))
        return np.random.Generator(np.random.Philox(key))

    def child(self, index: int) -> "SeedTree":
        """Sub-tree for replica ``index``; disjoint from every sibling."""
        if index < 0:
            raise ValueError("child index must be non-negative")
        return SeedTree(self.seed, self.path + (int(index),))


def _words(value: int) -> tuple[int, ...]:
    # little-endian uint32 words of a non-negative integer, at least one,
    # as SeedSequence splits its entropy and spawn key
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK]
    while value > _MASK:
        value >>= 32
        words.append(value & _MASK)
    return tuple(words)


def _hashmix(const: int, mult: int):
    """SeedSequence's hash of successive uint32 words, on arrays of words:
    the constant it mixes in steps by ``mult`` at every call."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hashmix


def _keys(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(...).generate_state(2, np.uint64)`` of each row of an
    (R, w) uint32 array of assembled entropy, as an (R, 2) uint64 array."""
    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ (value >> 16)

    hashmix = _hashmix(_INIT_A, _MULT_A)
    words = entropy.T
    pool = [hashmix(word) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    generate = _hashmix(_INIT_B, _MULT_B)
    state = [generate(word).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


def raw_outputs(tree: SeedTree, children: range, name: str, count: int) -> np.ndarray:
    """``tree.child(r).stream(name).bit_generator.random_raw(count)`` for each
    r of ``children``, bit for bit, as the rows of an (R, count) uint64
    array; the keys of all children are computed together.  Each child
    index must fit one uint32 word."""
    for r in (children[0], children[-1]) if children else ():
        if not 0 <= r <= _MASK:
            raise ValueError(f"child index {r} does not fit one 32-bit word")
    # SeedSequence zero-pads the seed's words to the pool size under a spawn key
    seed = _words(tree.seed)
    head = seed + (0,) * (_POOL - len(seed)) + sum(map(_words, tree.path), ())
    entropy = np.empty((len(children), len(head) + 3), dtype=np.uint32)
    entropy[:, :len(head)] = head
    entropy[:, len(head)] = np.arange(children.start, children.stop, children.step)
    entropy[:, len(head) + 1:] = _name_key(name)
    out = np.empty((len(children), count), dtype=np.uint64)
    if not children:
        return out
    keys = _keys(entropy)
    philox = np.random.Philox(key=keys[0])
    # a fresh Philox: counter 0 and an empty buffer, in the plain ints that
    # the state setter reads fastest
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, key in zip(out, keys.tolist()):
        state["state"]["key"] = key
        philox.state = state
        row[:] = philox.random_raw(count)
    return out


def index_draws(tree: SeedTree, children: range, name: str, n: int, size: int) -> np.ndarray:
    """``tree.child(r).stream(name).integers(0, n, size=size)`` for each r of
    ``children``, bit for bit, as the rows of an (R, size) int64 array.

    ``integers`` draws below 2**32 from 32-bit halves of the raw outputs,
    low half first, as ``m = u32 * n`` with the value ``m >> 32`` (Lemire);
    it rejects a half whose ``m mod 2**32`` falls below ``(2**32 - n) % n``
    and draws the next.  Rows with a rejection, and every row when n passes
    2**32, are drawn again through the child's own stream."""
    draws = np.zeros((len(children), size), dtype=np.int64)
    if n == 1:
        return draws
    redrawn = range(len(children))
    if n <= 2**32:
        m = draws.view(np.uint64)
        raw = raw_outputs(tree, children, name, -(-size // 2))
        m[:, 0::2] = raw & _MASK
        m[:, 1::2] = raw[:, :size // 2] >> 32
        m *= np.uint64(n)
        threshold = (2**32 - n) % n
        redrawn = np.flatnonzero(((m & _MASK) < threshold).any(axis=1)) if threshold else ()
        m >>= 32
    for r in redrawn:
        draws[r] = tree.child(children[r]).stream(name).integers(0, n, size=size)
    return draws


def as_seed_tree(seed) -> SeedTree:
    """Accept either an integer seed or an existing tree."""
    if isinstance(seed, SeedTree):
        return seed
    return SeedTree(int(seed))
