"""Failure processes and MTBF arithmetic.

The paper's motivating arithmetic (Section 1): "because of the
extraordinarily large component count of such machines -- for instance,
the IBM BlueGene/L supercomputer currently under construction will have
65,536 nodes -- their mean time between failures (MTBF) may be orders of
magnitude shorter than the execution times of the applications they are
intended to run."  Experiment E12 reproduces exactly that scaling.

Failures are *fail-stop* [33]: a failed node halts detectably and takes
its processes (and local disk availability) with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..errors import ClusterError
from ..simkernel.costs import NS_PER_S

__all__ = [
    "FailureModel",
    "ExponentialFailures",
    "WeibullFailures",
    "system_mtbf_s",
    "p_survive",
]


def system_mtbf_s(node_mtbf_s: float, n_nodes: int) -> float:
    """System MTBF when any of ``n_nodes`` failing is fatal.

    With independent exponential node lifetimes the system failure
    process is Poisson with rate ``n / node_mtbf``.
    """
    if n_nodes < 1:
        raise ClusterError("need at least one node")
    return node_mtbf_s / n_nodes


def p_survive(duration_s: float, node_mtbf_s: float, n_nodes: int) -> float:
    """Probability an ``n_nodes`` job runs ``duration_s`` with no failure."""
    lam = n_nodes / node_mtbf_s
    return math.exp(-lam * duration_s)


#: Splitmix64 constants for the counter-based per-node streams.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_NODE_SALT = np.uint64(0xD1B54A32D192ED03)
_DRAW_SALT = np.uint64(0x8CB92BA72F3D8DD7)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finisher (full avalanche on uint64)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def indexed_uniforms(
    stream_seed: int, node_ids: np.ndarray, draw_index: np.ndarray
) -> np.ndarray:
    """Counter-based uniforms: draw ``i`` of node ``j`` is a pure
    function of ``(stream_seed, j, i)``.

    This is the per-node RNG substream discipline the sharded fleet
    runs on: because a node's stream never depends on *which other
    nodes share its generator*, any partitioning of the cohort across
    shards reproduces the single-shard draws exactly -- no stream
    jumping, no draw-order coupling.  Values are in ``[0, 1)`` with 53
    bits of precision.
    """
    with np.errstate(over="ignore"):
        x = (
            np.uint64(stream_seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN
            ^ node_ids.astype(np.uint64) * _NODE_SALT
            ^ draw_index.astype(np.uint64) * _DRAW_SALT
        )
    return (_mix64(x) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


class FailureModel:
    """Base class: draws per-node times-to-failure (seconds).

    Two draw entry points, one per consumer:

    * :meth:`draw_ttf_s` takes the next value of the sequential ``rng``
      stream -- per-node scheduling
      (:meth:`~repro.cluster.Cluster.schedule_failures`) and
      storage-server failures;
    * :meth:`draw_ttf_indexed` reads the *indexed* (counter-based)
      per-node streams that ``stream_seed`` opts into -- every
      :class:`~repro.cluster.ShardFleet` cohort and distributional
      trial.

    Indexed draws leave the sequential stream untouched, so the two
    disciplines never perturb each other.
    """

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        stream_seed: Optional[int] = None,
    ) -> None:
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stream_seed = stream_seed

    def draw_ttf_s(self) -> float:
        """Sample one time-to-failure, in seconds."""
        raise NotImplementedError

    def _indexed_u(self, node_ids: np.ndarray, draw_index: np.ndarray) -> np.ndarray:
        if self.stream_seed is None:
            raise ClusterError(
                "indexed draws need a model built with stream_seed="
            )
        ids = np.asarray(node_ids, dtype=np.int64)
        idx = np.asarray(draw_index, dtype=np.int64)
        if idx.shape != ids.shape:
            idx = np.broadcast_to(idx, ids.shape)
        return indexed_uniforms(self.stream_seed, ids, idx)

    def draw_ttf_indexed(
        self, node_ids: np.ndarray, draw_index: np.ndarray
    ) -> np.ndarray:
        """Times-to-failure from the counter-based per-node streams.

        ``draw_index[k]`` selects which draw of node ``node_ids[k]``'s
        private stream to take (0 for the initial arming, 1 after the
        first repair, ...).  Shard-partitioning the ids in any way
        reproduces the exact same values, which is the property the
        1-vs-N-shard byte-identity gate rests on.
        """
        raise NotImplementedError

    def draws(self, n: int) -> Iterator[float]:
        """Sample ``n`` independent times-to-failure."""
        for _ in range(n):
            yield self.draw_ttf_s()


class ExponentialFailures(FailureModel):
    """Memoryless node failures with the given MTBF."""

    def __init__(
        self,
        mtbf_s: float,
        rng: Optional[np.random.Generator] = None,
        stream_seed: Optional[int] = None,
    ) -> None:
        super().__init__(rng, stream_seed=stream_seed)
        if mtbf_s <= 0:
            raise ClusterError("MTBF must be positive")
        self.mtbf_s = mtbf_s

    def draw_ttf_s(self) -> float:
        return float(self.rng.exponential(self.mtbf_s))

    def draw_ttf_indexed(
        self, node_ids: np.ndarray, draw_index: np.ndarray
    ) -> np.ndarray:
        """Inverse-CDF exponential on the per-node uniform streams."""
        u = self._indexed_u(node_ids, draw_index)
        # -log1p(-u): exact for u in [0, 1), never log(0).
        return -self.mtbf_s * np.log1p(-u)


class WeibullFailures(FailureModel):
    """Weibull node failures (shape < 1: infant mortality, the empirically
    observed regime on large clusters)."""

    def __init__(
        self,
        mtbf_s: float,
        shape: float = 0.7,
        rng: Optional[np.random.Generator] = None,
        stream_seed: Optional[int] = None,
    ) -> None:
        super().__init__(rng, stream_seed=stream_seed)
        if mtbf_s <= 0 or shape <= 0:
            raise ClusterError("MTBF and shape must be positive")
        self.shape = shape
        # Scale chosen so the mean equals mtbf_s.
        self.scale = mtbf_s / math.gamma(1.0 + 1.0 / shape)
        self.mtbf_s = mtbf_s

    def draw_ttf_s(self) -> float:
        return float(self.scale * self.rng.weibull(self.shape))

    def draw_ttf_indexed(
        self, node_ids: np.ndarray, draw_index: np.ndarray
    ) -> np.ndarray:
        """Inverse-CDF Weibull on the per-node uniform streams."""
        u = self._indexed_u(node_ids, draw_index)
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)
