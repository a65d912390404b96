"""The long-lived correlation mining service.

The streaming answer to the paper's batch algorithm: an in-memory
:class:`MiningService` accepts basket appends and serves correlation /
top-K queries from incrementally-maintained state
(:class:`~repro.core.mining.IncrementalMiner`, published once per
generation as an immutable snapshot that reads answer from without
waiting on an append), and :mod:`repro.service.http` exposes it over a
stdlib HTTP server (``python -m repro serve``).

Every response is deterministic canonical JSON, so the wire format is
golden-tested byte for byte, and the incremental state behind it is
provably bit-identical to a cold batch re-mine at every generation.
"""

from repro.service.core import MiningService
from repro.service.http import ServiceServer, serve

__all__ = ["MiningService", "ServiceServer", "serve"]
