"""Reproducible random number streams served through per-site draw handles.

Every stochastic component of the simulation (arrival processes, latency
jitter, scheduler placement noise, ...) draws from its own named stream so
that changing one component's consumption of randomness does not perturb
the others.  Streams are derived from a single experiment seed with
``numpy``'s ``SeedSequence.spawn``-style child seeding, keyed by name.

Variate sources and site handles
--------------------------------
Scalar draws through ``numpy.random.Generator`` pay ~1.4 us of ufunc
dispatch each, and a simulated request makes 4-7 of them.  So each
(stream, family) pair owns one *variate source*: a lazily refilled
iterator over blocks of *standard* variates (standard normal / standard
exponential / unit uniform / bounded integers).  Hot call sites bind a
*handle* once, when their platform is built (``lognormal_draw``,
``lognormal_sum_draw``, ``uniform_draw``, ``choice_draw``): it validates
and parameterises the distribution up front, draws nothing at bind
time, and costs one closure call per draw.  The convenience methods
(``lognormal_around``, ``uniform``, ...) serve the cold sites from the
same sources, so handle and method draws may interleave on one stream.

The served sequence is **bit-identical to scalar draws** at any block
size, because ``numpy`` fills arrays with the same per-element samplers
it uses for scalar calls and the scaling ops (``low + (high-low)*u``,
``mean*e``, ``exp(mu + sigma*z)``) are exactly the ones ``Generator``
applies internally.  Two caveats keep that guarantee:

* a named stream must be used with a single draw family (which is how
  every call site in the simulator behaves — e.g. ``"storage"`` only
  ever draws lognormals, ``"request-pick"`` only bounded integers);
* ``choice`` sources are keyed by the bound ``n``; drawing one stream
  with two bounds interleaves two blocks on its generator (no current
  call site does).

Accessing :meth:`stream` directly bypasses the sources; mixing raw
access and convenience draws on the *same* name forfeits the
scalar-equivalence (the underlying generator runs ahead of the source).
"""

from __future__ import annotations

import math
import zlib
from itertools import chain, islice
from typing import Callable, Dict, Iterator, Tuple, Union

import numpy as np

__all__ = ["RandomStreams", "DEFAULT_BLOCK_SIZE"]

#: Default number of standard variates pre-drawn per stream and family.
DEFAULT_BLOCK_SIZE = 1024


def _lognormal_mu_sigma(mean: float, cv: float) -> Tuple[float, float]:
    """Validated ``(mu, sigma)`` of a lognormal with this mean and CV."""
    if mean <= 0:
        raise ValueError("lognormal mean must be positive")
    if cv < 0:
        raise ValueError("coefficient of variation must be >= 0")
    sigma2 = math.log(1.0 + cv * cv)
    return math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2)


class RandomStreams:
    """A family of named, independently seeded ``numpy`` generators."""

    def __init__(self, seed: int = 0, block_size: int | None = None):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        self._block = max(1, int(block_size))
        #: Variate sources: (name, family or choice bound) -> iterator.
        self._sources: Dict[Tuple[str, Union[str, int]], Iterator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        if name not in self._streams:
            key = zlib.crc32(name.encode("utf-8"))
            self._streams[name] = np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed, spawn_key=(key,)))
        return self._streams[name]

    def _source(self, name: str, family: Union[str, int]) -> Iterator:
        """The stream's source of standard variates for one family.

        ``family`` is the ``Generator`` method producing the variate
        ("standard_normal" / "standard_exponential" / "random"), or the
        bound ``n`` of bounded integers.  The next block is drawn only
        when the previous one is used up.
        """
        source = self._sources.get((name, family))
        if source is None:
            generator, block = self.stream(name), self._block
            if isinstance(family, int):
                def refill():
                    return generator.integers(0, family, size=block).tolist()
            else:
                method = getattr(generator, family)

                def refill():
                    return method(block).tolist()
            source = chain.from_iterable(iter(refill, None))
            self._sources[(name, family)] = source
        return source

    # Site handles (validated and parameterised once; no draw at bind) --------
    def lognormal_draw(self, name: str, mean: float,
                       cv: float) -> Callable[[], float]:
        """Handle drawing lognormals with this mean and CV from ``name``.

        Latency jitter in the simulator is modelled as lognormal noise
        around a calibrated mean, which matches the heavy right tail seen
        in cloud measurements without producing negative values.
        """
        mu, sigma = _lognormal_mu_sigma(mean, cv)
        if cv == 0:
            value = float(mean)

            def lognormal_around():
                return value
            return lognormal_around
        normal, exp = self._source(name, "standard_normal").__next__, math.exp

        def lognormal_around():
            return exp(mu + sigma * normal())
        return lognormal_around

    def lognormal_sum_draw(self, name: str, mean: float,
                           cv: float) -> Callable[[int], float]:
        """Handle summing ``count`` lognormal draws (batched jitter).

        ``handle(count)`` equals ``count`` calls of the
        :meth:`lognormal_draw` handle summed — same stream, same
        sequence, same sequential float additions.  Used for
        multi-inference invocations (client-side batching, Figure 12d).
        """
        mu, sigma = _lognormal_mu_sigma(mean, cv)
        normals, exp = self._source(name, "standard_normal"), math.exp
        value = float(mean)

        def lognormal_sum(count: int) -> float:
            if count <= 0:
                raise ValueError("count must be >= 1")
            if cv == 0:
                return value * count
            total = 0.0
            for z in islice(normals, count):
                total += exp(mu + sigma * z)
            return total
        return lognormal_sum

    def uniform_draw(self, name: str, low: float,
                     high: float) -> Callable[[], float]:
        """Handle drawing uniforms in ``[low, high)`` from ``name``."""
        if high < low:
            raise ValueError("uniform bounds must satisfy low <= high")
        unit, span = self._source(name, "random").__next__, high - low

        def uniform():
            return low + span * unit()
        return uniform

    def choice_draw(self, name: str, n: int) -> Callable[[], int]:
        """Handle drawing uniform integers in ``[0, n)`` from ``name``."""
        if n <= 0:
            raise ValueError("choice requires n >= 1")
        integer = self._source(name, int(n)).__next__

        def choice():
            return integer()
        return choice

    # Convenience draws for cold sites (same sources as the handles) ----------
    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return mean * next(self._source(name, "standard_exponential"))

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw in ``[low, high)`` from stream ``name``."""
        return self.uniform_draw(name, low, high)()

    def lognormal_around(self, name: str, mean: float, cv: float) -> float:
        """One draw of the :meth:`lognormal_draw` handle."""
        return self.lognormal_draw(name, mean, cv)()

    def lognormal_sum(self, name: str, mean: float, cv: float,
                      count: int) -> float:
        """One call of the :meth:`lognormal_sum_draw` handle."""
        return self.lognormal_sum_draw(name, mean, cv)(count)

    def choice(self, name: str, n: int) -> int:
        """A uniform integer in ``[0, n)`` from stream ``name``."""
        return self.choice_draw(name, n)()

    def fork(self, offset: int) -> "RandomStreams":
        """A new family with a seed derived from this one (for replicas)."""
        return RandomStreams(self._seed * 1_000_003 + int(offset),
                             block_size=self._block)
