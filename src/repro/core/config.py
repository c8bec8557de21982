"""Configuration for the DBTF decomposition."""

from __future__ import annotations

from dataclasses import dataclass

from ..distengine import DEFAULT_CLUSTER, ClusterConfig
from ..resilience import CheckpointConfig

__all__ = ["DbtfConfig"]

# slice_bits-based cache keys must fit one signed 64-bit word.
_MAX_GROUP_SIZE = 62


@dataclass(frozen=True)
class DbtfConfig:
    """Hyper-parameters of DBTF (paper Algorithms 2-5).

    Attributes
    ----------
    rank:
        Number of components R.
    max_iterations:
        Maximum outer iterations T (paper default 10).
    n_initial_sets:
        Number of random factor-matrix sets L tried in the first iteration
        (paper default 1); the best-scoring set is kept.
    n_partitions:
        Vertical partitions N per unfolded tensor.  ``None`` uses the total
        slot count of the cluster that executes the run, matching Spark's
        default parallelism.
    cache_group_size:
        The threshold V limiting a single cache table to ``2**V`` row
        summations (paper default 15).  Ranks above V are split into
        ``ceil(R / V)`` groups (Lemma 2).
    tolerance:
        Relative convergence threshold: iteration stops when the error
        improves by no more than ``tolerance * |X|`` (0 means "stop when
        the error stops decreasing", the paper's criterion).
    initialization:
        ``"sample"`` (default) seeds each component from the fibers through
        a random nonzero of the tensor, so initial components overlap the
        data's support; ``"random"`` uses i.i.d. Bernoulli factors as the
        paper's text states.  Greedy Boolean updates from i.i.d. random
        factors collapse to the all-zero local optimum on sparse tensors
        (any random block covers more zeros than ones), so "sample" is what
        makes the reconstruction-error experiments reproducible — see
        DESIGN.md §5.
    init_density:
        Density of the random initial factors (only used with
        ``initialization="random"``).  ``None`` picks
        ``(density(X) / R) ** (1/3)``, which makes the expected density of
        the initial reconstruction match the data.
    seed:
        Seed for all randomness; runs are bit-for-bit reproducible.
    cluster:
        The simulated cluster the decomposition is metered against, and
        how it executes on the host: backend, worker count, tracing and
        memory budget all live on
        :class:`~repro.distengine.ClusterConfig`.
    checkpoint:
        Iteration-level checkpointing
        (:class:`~repro.resilience.CheckpointConfig`): snapshot the
        decomposition state every ``every`` iterations into ``directory``
        and, with ``resume=True``, continue a killed run bit-identically
        from its newest intact snapshot.  ``None`` (default) disables
        checkpointing entirely — the iteration loop pays a single ``None``
        check.
    """

    rank: int
    max_iterations: int = 10
    n_initial_sets: int = 1
    n_partitions: int | None = None
    cache_group_size: int = 15
    tolerance: float = 0.0
    initialization: str = "sample"
    init_density: float | None = None
    seed: int = 0
    cluster: ClusterConfig = DEFAULT_CLUSTER
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self) -> None:
        if self.rank <= 0:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if self.max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.n_initial_sets <= 0:
            raise ValueError(
                f"n_initial_sets must be positive, got {self.n_initial_sets}"
            )
        if self.n_partitions is not None and self.n_partitions <= 0:
            raise ValueError(
                f"n_partitions must be positive, got {self.n_partitions}"
            )
        if not 1 <= self.cache_group_size <= _MAX_GROUP_SIZE:
            raise ValueError(
                f"cache_group_size must be in [1, {_MAX_GROUP_SIZE}], "
                f"got {self.cache_group_size}"
            )
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tolerance}")
        if self.initialization not in ("sample", "random"):
            raise ValueError(
                f"initialization must be 'sample' or 'random', "
                f"got {self.initialization!r}"
            )
        if self.init_density is not None and not 0.0 < self.init_density <= 1.0:
            raise ValueError(
                f"init_density must be in (0, 1], got {self.init_density}"
            )

    def resolved_partitions(self, cluster: ClusterConfig) -> int:
        """The effective partition count N on the executing ``cluster``.

        Pass the runtime's cluster, not :attr:`cluster`: a caller-supplied
        runtime may run on a different one.
        """
        if self.n_partitions is not None:
            return self.n_partitions
        return cluster.total_slots
