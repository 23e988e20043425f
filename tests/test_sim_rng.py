"""``ScalarDraws`` against numpy on twin generators.

The primitive must give every value the numpy call it replaces gives
and leave the bit generator in the same state, 32-bit buffer included,
however its draws interleave with numpy's own scalar and array draws on
the same stream.  The crafted-draw test sets the buffered 32-bit value
so the Lemire rejection test meets its boundaries exactly, which random
draws reach with probability about 2**-32.
"""

import gc

import numpy as np
import pytest

from repro.sim import RngStreams, ScalarDraws

#: 3 * 2**30 rejects a quarter of its raw draws; 2**31 + 5 and
#: 2**32 - 1 sit at the top of the 32-bit domain.
WIDTHS = (1, 2, 3, 4, 7, 8, 32, 100, 3 * 2**30, 2**31 + 5, 2**32 - 1)
SEEDS = range(200)
STEPS = 120


def _numpy_draws(gen, op, w):
    """numpy's own draws, scalar and array, that share the stream."""
    if op == 2:
        return int(gen.integers(w))
    if op == 3:
        return gen.integers(w, size=3).tolist()           # buffered uint32
    if op == 4:
        return gen.integers(w, size=2, dtype=np.uint32).tolist()
    if op == 5:
        return gen.lognormal(0.0, 1.0, size=2).tolist()   # uint64 draws
    return gen.random(2).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_numpy_on_twin_generators(seed):
    ref = np.random.default_rng(seed)
    gen = np.random.default_rng(seed)
    draws = ScalarDraws(gen)
    script = np.random.default_rng(10_000 + seed)
    ops = script.integers(7, size=STEPS).tolist()
    widths = script.integers(len(WIDTHS), size=STEPS).tolist()
    for op, wi in zip(ops, widths):
        w = WIDTHS[wi]
        if op == 0:
            got, want = draws.below(w), int(ref.integers(w))
            assert type(got) is int
        elif op == 1:
            got, want = draws.random(), ref.random()
            assert type(got) is float
        else:
            got, want = _numpy_draws(gen, op, w), _numpy_draws(ref, op, w)
        assert got == want
    assert gen.bit_generator.state == ref.bit_generator.state


def _crafted(n, leftover):
    """A uint32 ``x`` with ``(x * n) mod 2**32 == leftover``, or None."""
    low = n & -n                        # largest power of two dividing n
    if leftover % low:
        return None
    mod = 2**32 // low
    return (leftover // low) * pow(n // low, -1, mod) % mod


@pytest.mark.parametrize("n", [w for w in WIDTHS if w > 1])
def test_rejection_boundaries_match_numpy(n):
    """Set the buffered uint32 so the first raw draw's low word lands on
    each side of ``n`` and of numpy's threshold ``(2**32 - n) % n``."""
    threshold = (2**32 - n) % n
    leftovers = {0, 1, n - 1, n, n + 1, 2 * n, threshold - 1, threshold,
                 threshold + 1}
    tried = 0
    for leftover in sorted(x for x in leftovers if 0 <= x < 2**32):
        x = _crafted(n, leftover)
        if x is None:
            continue
        ref = np.random.default_rng(n % 1000)
        gen = np.random.default_rng(n % 1000)
        state = ref.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, x
        ref.bit_generator.state = state
        gen.bit_generator.state = state
        assert ScalarDraws(gen).below(n) == int(ref.integers(n))
        assert gen.bit_generator.state == ref.bit_generator.state
        tried += 1
    assert tried >= 3


def test_width_one_draws_nothing_and_bad_widths_raise():
    gen = np.random.default_rng(3)
    draws = ScalarDraws(gen)
    before = gen.bit_generator.state
    assert draws.below(1) == 0
    for bad in (0, -1, 2**32, 2**40):
        with pytest.raises(ValueError, match="below"):
            draws.below(bad)
    assert gen.bit_generator.state == before


def test_holds_its_generator():
    """The ctypes state pointer does not keep the generator alive; the
    instance does, so a draw built from a temporary stays valid."""
    draws = ScalarDraws(np.random.default_rng(21))
    gc.collect()
    junk = [np.random.default_rng(i) for i in range(50)]
    twin = np.random.default_rng(21)
    assert [draws.below(1000) for __ in range(100)] == \
        [int(twin.integers(1000)) for __ in range(100)]
    assert draws.generator.bit_generator.state == twin.bit_generator.state
    del junk


def test_shares_a_named_stream():
    """Draws through a stream's ``ScalarDraws`` advance that stream."""
    streams, twins = RngStreams(seed=5), RngStreams(seed=5)
    draws = ScalarDraws(streams.stream("server0"))
    assert draws.random() == twins.stream("server0").random()
    assert (streams.stream("server0").integers(9, size=4)
            == twins.stream("server0").integers(9, size=4)).all()
