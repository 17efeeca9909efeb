"""Simulated container image registry.

Serverless cold starts occasionally take much longer than usual because
the physical host running the new instance has to pull the container
image from the registry first (Section 5.1: "9 out of 738 cold-start
requests consume more than 20s"); subsequent instances on the same host
reuse the cached image.  The registry model captures this: a small
fraction of instance launches pay an image-pull penalty proportional to
the image size, all others find the image cached.

This is also why Figure 12a finds container *size* to have little effect
on the typical cold start: the image is normally already on the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim import RandomStreams

__all__ = ["ContainerRegistry"]


@dataclass(frozen=True)
class ContainerRegistry:
    """Image pulls with host-level caching."""

    #: Probability that a new instance lands on a host without the image.
    first_pull_probability: float
    #: Registry download throughput, MB/s.
    pull_bandwidth_mbps: float
    #: Fixed image-unpack / runtime-setup overhead on a pull, seconds.
    unpack_overhead_s: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.first_pull_probability <= 1.0:
            raise ValueError("first_pull_probability must be in [0, 1]")
        if self.pull_bandwidth_mbps <= 0:
            raise ValueError("pull_bandwidth_mbps must be positive")

    def pull_time(self, image_size_mb: float, rng: RandomStreams,
                  stream: str = "registry") -> float:
        """Image-pull delay for one instance launch (usually zero).

        Returns 0 when the host already caches the image, otherwise the
        time to pull and unpack the image.
        """
        return self.pull_draw(image_size_mb, rng, stream)()

    def pull_draw(self, image_size_mb: float, rng: RandomStreams,
                  stream: str = "registry") -> Callable[[], float]:
        """:meth:`pull_time` bound to one image size: one uniform per call."""
        if image_size_mb < 0:
            raise ValueError("image_size_mb must be non-negative")
        draw = rng.uniform_draw(stream, 0.0, 1.0)
        probability = self.first_pull_probability
        penalty = self.unpack_overhead_s + image_size_mb / self.pull_bandwidth_mbps

        def pull_time() -> float:
            return 0.0 if draw() >= probability else penalty
        return pull_time
