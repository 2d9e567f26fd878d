"""Counter-based random substreams for reproducible parallel experiments.

Every stochastic routine in the package receives an explicit generator.
Substreams are derived from a user seed plus a path of small integers
(role, repetition, step, ...) hashed into a Philox key, so the same
(seed, path) always yields the same stream regardless of how many other
streams were consumed, in which order, or on how many workers.

:func:`substream` is the definition of a stream.  Philox is counter-based,
so a stream is nothing but its key and counter: :class:`SubstreamRows`
holds one generator per row of lockstep runs and re-keys each in place to
the state ``substream(seed, *prefix, last)`` starts in, which gives the
same draws, bit for bit, without building a generator per row and step.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
# absorbed into the stream key to give the second key word
_KEY_SALT = 0x2545F4914F6CDD1D


def _mix(h, v):
    # splitmix64 finalizer, one absorption step
    h = (h + (v & _MASK64)) & _MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return h


def derive_key(seed, *path):
    """Collapse (seed, *path) into a 64-bit stream key."""
    h = _mix(0x9E3779B97F4A7C15, seed)
    for p in path:
        h = _mix(h, p)
    return h


def substream(seed, *path):
    """Independent ``numpy.random.Generator`` keyed by (seed, *path).

    Philox is counter-based: streams with distinct keys are statistically
    independent and a stream's output never depends on other streams.
    """
    k0 = derive_key(seed, *path)
    k1 = _mix(k0, _KEY_SALT)
    key = np.array([k0, k1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class SubstreamRows:
    """One Philox generator per seed, re-keyed in place to a substream.

    ``at(last)`` puts row r's generator in the full state that
    ``substream(seeds[r], *prefix, last)`` starts in: that stream's key,
    counter 0 and an empty buffer.  Whatever the generator drew before,
    its draws from there on are the substream's, bit for bit.  The
    (seed, *prefix) part of the key is folded once per row.  The
    generators are rewound by the next ``at``, so a helper serves one
    caller at a time; each batch of lockstep runs builds its own.
    """

    def __init__(self, seeds, *prefix):
        self._heads = [derive_key(seed, *prefix) for seed in seeds]
        self._generators = [np.random.Generator(np.random.Philox(key=0))
                            for _ in self._heads]

    def at(self, last):
        """The row generators, row r at the start of its (seed, *prefix, last) stream."""
        for head, gen in zip(self._heads, self._generators):
            k0 = _mix(head, last)
            gen.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": [0, 0, 0, 0], "key": [k0, _mix(k0, _KEY_SALT)]},
                "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return self._generators
