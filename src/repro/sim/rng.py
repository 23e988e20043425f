"""Reproducible named random streams.

Every stochastic component draws from its own named stream so that adding
a new component (or reordering draws in one component) does not perturb
the randomness seen by the others.  Streams are derived from a root seed
plus the stream name, so a simulation is fully determined by its seed.

Array draws (arrivals, segment lognormals, permutations) go through the
stream's ``numpy.random.Generator``.  Per-message scalar draws go through
:class:`ScalarDraws`, which calls the same stream's bit generator directly
and so skips numpy's per-call overhead while consuming exactly the state
the ``Generator`` would.
"""

from __future__ import annotations

import ctypes
import zlib
from functools import partial
from typing import Dict

import numpy as np

_UINT32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_DOUBLE = ctypes.PYFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
_2_32 = 1 << 32


def _direct(fn, proto):
    """The C function behind a ctypes pointer, re-typed so a call keeps
    the GIL (the bit generator's ``next_*`` functions never block)."""
    return proto(ctypes.cast(fn, ctypes.c_void_p).value)


class ScalarDraws:
    """Scalar draws on a ``Generator``'s own bit-generator state.

    Built from a ``numpy.random.Generator``; each call advances that
    generator exactly as the numpy call it replaces would, 32-bit buffer
    included, so scalar and array draws can interleave on one stream:

    * :meth:`random` is ``Generator.random()`` (the bit generator's
      ``next_double``);
    * :meth:`below` is ``int(Generator.integers(n))`` for
      ``1 <= n < 2**32`` (numpy's 32-bit Lemire rejection on
      ``next_uint32``).

    The C functions come from numpy's documented ``BitGenerator.ctypes``
    interface.  Its state pointer does not keep the generator alive, so
    the instance holds the generator.
    """

    __slots__ = ("generator", "random", "_next32")

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        iface = generator.bit_generator.ctypes
        #: ``Generator.random()``: one uniform double in [0, 1).
        self.random = partial(_direct(iface.next_double, _DOUBLE),
                              iface.state)
        self._next32 = partial(_direct(iface.next_uint32, _UINT32),
                               iface.state)

    def below(self, n: int) -> int:
        """A uniform integer in ``[0, n)``; ``n == 1`` draws nothing."""
        if n == 1:
            return 0
        if not 1 < n < _2_32:
            raise ValueError(f"below(n) needs 1 <= n < 2**32, got {n!r}")
        m = self._next32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (_2_32 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * n
        return m >> 32


class RngStreams:
    """Factory of named, independent ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, key]))
            self._streams[name] = gen
        return gen
