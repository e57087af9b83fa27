"""Host-side scale-out: path fleets sharded across worker processes."""

from .partition import chunk_evenly
from .shard import ShardedFleetRunner, ShardPlan, partition_paths

__all__ = [
    "chunk_evenly",
    "ShardPlan",
    "ShardedFleetRunner",
    "partition_paths",
]
