"""Sharded parallel counting (`repro.parallel`).

The scaling subsystem for the counting layer: row-shard a basket
database, count per-shard contingency cells across worker processes,
and merge by the shard-sum identity.  :class:`ParallelCountingEngine`
is the entry point; the chi-squared-support miner reaches it through
``counting="parallel"``.  :class:`TableCache` is a bounded LRU of
point-query tables; the streaming service no longer uses it, and it
stays until the benchmark that patches it drops that wrapper.
"""

from repro.parallel.cache import TableCache
from repro.parallel.engine import CountingError, ParallelCountingEngine
from repro.parallel.sharding import Shard, merge_shard_counts, shard_database

__all__ = [
    "CountingError",
    "ParallelCountingEngine",
    "Shard",
    "TableCache",
    "merge_shard_counts",
    "shard_database",
]
