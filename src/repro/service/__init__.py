"""Off-target query service: resident site index, batching, serving.

The paper's two-kernel split has a serving-shaped property: the finder
kernel's candidate sites depend only on the genome and the PAM pattern,
never on the guide query.  This package exploits that once-per-genome /
many-per-query asymmetry:

* :mod:`repro.service.index` — :class:`~repro.service.index.
  GenomeSiteIndex` runs the finder once per chunk and keeps the
  candidate-site arrays memory-resident (with versioned, fingerprinted
  save/load so a server can warm-start without rescanning);
* :mod:`repro.service.scheduler` — a bounded request queue with
  micro-batching that stacks concurrent requests' guides into a single
  batched comparer launch over the resident index (the
  continuous-batching pattern of production inference servers);
* :mod:`repro.service.frontend` — the JSON-lines connection loop,
  serve/drain lifecycle, op-table dispatch and error-code mapping
  that the server and the router share;
* :mod:`repro.service.server` / :mod:`repro.service.client` — an
  asyncio JSON-lines TCP server (stdlib only) exposing ``query``,
  ``design``, ``enumerate``, ``variant``, ``enzymes``, ``stats``,
  ``health`` and ``reload`` ops, plus a blocking client and a load
  generator;
* :mod:`repro.service.shards` — :class:`~repro.service.shards.
  ShardedSiteIndex` partitions the resident index by chunk into N
  shared-memory shards served by one comparer worker process each,
  with scatter/gather batching, crash-respawn failover and a
  deterministic merge that keeps responses byte-identical to the
  single-process path;
* :mod:`repro.service.router` — :class:`~repro.service.router.
  OffTargetRouter` partitions the genome by *chromosome* across N
  backend servers (the horizontal step after in-host shards), with
  health probing and ejection, hedged reads, bounded retry against
  replicas, zero-downtime index rollover, and the same byte-identity
  guarantee via a stable merge by chromosome rank.

The serving layer is backend-agnostic over the OpenCL/SYCL runtimes:
the index takes the same ``api``/``device`` selectors as
:func:`repro.core.pipeline.make_pipeline`, and responses are
byte-identical to an offline CLI search for the same genome, pattern
and queries (pinned by ``tests/test_service.py``).
"""

from .index import (GenomeSiteIndex, SiteIndexError,
                    SiteIndexMismatchError, SiteIndexVersionError)
from .scheduler import (BatchScheduler, DeadlineExceeded,
                        SchedulerClosed, ServiceOverloaded)
from .server import OffTargetServer
from .client import (ServiceClient, ServiceDeadlineError, ServiceError,
                     ServiceOverloadedError, run_load)

#: Re-exported lazily: importing .shards/.router here would make their
#: ``python -m repro.service.<mod>`` maintenance/smoke entry points
#: warn about the module being imported twice (runpy sees it in
#: sys.modules before executing it as __main__).
_SHARD_EXPORTS = ("ShardedSiteIndex", "ShardWorkerError",
                  "cleanup_leaked_segments")
_ROUTER_EXPORTS = ("OffTargetRouter", "RouterError",
                   "partition_chromosomes", "replica_plan")


def __getattr__(name):
    if name in _SHARD_EXPORTS:
        from . import shards
        return getattr(shards, name)
    if name in _ROUTER_EXPORTS:
        from . import router
        return getattr(router, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "GenomeSiteIndex", "SiteIndexError", "SiteIndexMismatchError",
    "SiteIndexVersionError", "BatchScheduler", "DeadlineExceeded", "SchedulerClosed",
    "ServiceOverloaded", "OffTargetServer", "ServiceClient",
    "ServiceError", "ServiceOverloadedError", "ServiceDeadlineError",
    "run_load", "ShardedSiteIndex", "ShardWorkerError",
    "cleanup_leaked_segments", "OffTargetRouter", "RouterError",
    "partition_chromosomes", "replica_plan",
]
