"""The stream definition and the re-keyed row generators that replay it."""

import numpy as np
import pytest

from levymv.rng import SubstreamRows, derive_key, substream


class TestStreamDefinition:
    # every byte-identical output rests on these values: a change to the key
    # hash or to the generator behind a stream shows here first
    def test_derive_key_is_pinned(self):
        assert derive_key(0) == 16294208416658607535
        assert derive_key(20240801) == 4991187100607486500
        assert derive_key(7, 1, 0) == 2631293214824878248
        assert derive_key(7, 1, 49) == 13174557296268804929
        assert derive_key(2 ** 63 + 5, 0xFEED) == 5567489299752752150

    @pytest.mark.parametrize("path, raw, first_double", [
        ((7,), [1743298242124401859, 15485174602516367375], 0.0945043870700718),
        ((7, 1, 0), [11212969562394647379, 9844521136508017950], 0.6078562979781056),
        ((20240801, 1, 49), [13804080105286493954, 15042183416498335825],
         0.7483206819657773),
        ((123456789, 3, 2, 1), [13770400993848992372, 8602925800299050527],
         0.7464949336763813),
    ])
    def test_first_draws_are_pinned(self, path, raw, first_double):
        assert substream(*path).bit_generator.random_raw(2).tolist() == raw
        assert substream(*path).random() == first_double


def _draws(gen):
    # one of each kind the samplers use: doubles, bounded 32-bit integers,
    # normals and Poisson counts
    return [gen.random(3), gen.integers(0, 1000, 3, dtype=np.int32),
            gen.standard_normal(3), gen.poisson(2.5, 3)]


# ways to leave a stream part-way through its buffered output
_LEAVE = {
    "odd-length random": lambda g: g.random(5),
    "32-bit integers": lambda g: g.integers(0, 1000, 1, dtype=np.int32),
    "standard_normal": lambda g: g.standard_normal(7),
    "poisson": lambda g: g.poisson(40.0, 3),
}


class TestSubstreamRows:
    def test_rekeyed_rows_equal_substreams(self):
        seeds = [0, 1, 20240801, 2 ** 64 - 1] + [derive_key(11, r) for r in range(16)]
        role = 1
        rows = SubstreamRows(seeds, role)
        leaves = list(_LEAVE.values())
        for k in range(15):
            gens = rows.at(k)
            assert len(gens) == len(seeds)
            for r, (seed, gen) in enumerate(zip(seeds, gens)):
                want = substream(seed, role, k)
                for got, expected in zip(_draws(gen), _draws(want)):
                    assert np.array_equal(got, expected)
                leaves[(r + k) % len(leaves)](gen)

    @pytest.mark.parametrize("leave", list(_LEAVE))
    def test_a_stream_left_mid_buffer_is_reset(self, leave):
        seeds = [5, 6]
        rows = SubstreamRows(seeds, 3, 9)
        for gen in rows.at(0):
            _LEAVE[leave](gen)
        for seed, gen in zip(seeds, rows.at(1)):
            got, want = gen.bit_generator.state, substream(seed, 3, 9, 1).bit_generator.state
            assert got.keys() == want.keys()
            for key in ("buffer_pos", "has_uint32", "uinteger"):
                assert got[key] == want[key]
            assert np.array_equal(got["buffer"], want["buffer"])
            assert np.array_equal(got["state"]["key"], want["state"]["key"])
            assert np.array_equal(got["state"]["counter"], want["state"]["counter"])
            for got_draw, want_draw in zip(_draws(gen), _draws(substream(seed, 3, 9, 1))):
                assert np.array_equal(got_draw, want_draw)

    def test_leaving_actually_leaves_buffered_output(self):
        # the cases above are only mid-buffer if these draws leave state behind
        gen = substream(1, 2)
        _LEAVE["odd-length random"](gen)
        assert gen.bit_generator.state["buffer_pos"] != 4
        gen = substream(1, 2)
        _LEAVE["32-bit integers"](gen)
        assert gen.bit_generator.state["has_uint32"] == 1
