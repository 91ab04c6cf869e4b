"""repro.fleet: sharded streaming monitoring for many concurrent jobs.

One FlowPulse monitor watches one job.  A cluster runs hundreds, and the
detection math is per-job and coordination-free — so fleet-scale
monitoring is a routing problem, not an algorithm problem.  This package
supplies the serving layer:

- :mod:`~repro.fleet.codec` — versioned wire format for
  :class:`~repro.simnet.counters.IterationRecord` batches; also the
  ``.fprec`` record/replay file format.
- :mod:`~repro.fleet.shard` — consistent-hash job routing and the
  worker-process loop owning each shard's monitors.
- :mod:`~repro.fleet.service` — the bounded-queue multiprocessing
  service with explicit backpressure (``block`` / ``shed-oldest``) and
  merged fleet metrics.
- :mod:`~repro.fleet.aggregate` — alarm dedup into per-``(job, link)``
  incidents with a JSONL lifecycle log.
- :mod:`~repro.fleet.loadgen` — fastsim-backed workload generator with
  ground truth for end-to-end validation.

The load-bearing guarantee is golden parity: a job streamed through the
service (block policy) yields bit-identical
:class:`~repro.core.monitor.IterationVerdict` sequences to feeding its
records directly into a single monitor (:func:`~repro.fleet.service.reference_verdicts`),
for any shard count or interleaving.
"""

from . import ha
from .aggregate import FleetAggregator, Incident, incident_from_event
from .codec import (
    BINARY_MAGIC,
    FPREC_VERSION,
    FPREC_VERSION_BINARY,
    FPREC_VERSIONS,
    CodecError,
    FprecContent,
    JobConfig,
    RecordBatch,
    StreamDecoder,
    UnsupportedVersionError,
    decode_batch,
    decode_batch_segment,
    decode_job,
    decode_line,
    encode_batch,
    encode_job,
    encode_segment,
    iter_fprec,
    peek_batch,
    peek_batch_tag,
    read_fprec,
    write_fprec,
)
from .loadgen import LoadGenConfig, generate_jobs, generate_workload, write_workload
from .service import (
    FleetConfig,
    FleetResult,
    FleetService,
    FleetValidation,
    reference_verdicts,
    serve_fprec,
    serve_workload,
    validate_detection,
)
from .shard import FleetError, ShardRouter, build_monitor, describe_assignment

__all__ = [
    "BINARY_MAGIC",
    "CodecError",
    "FPREC_VERSION",
    "FPREC_VERSION_BINARY",
    "FPREC_VERSIONS",
    "FleetAggregator",
    "FleetConfig",
    "FleetError",
    "FleetResult",
    "FleetService",
    "FleetValidation",
    "FprecContent",
    "Incident",
    "incident_from_event",
    "JobConfig",
    "LoadGenConfig",
    "RecordBatch",
    "ShardRouter",
    "StreamDecoder",
    "UnsupportedVersionError",
    "build_monitor",
    "decode_batch",
    "decode_batch_segment",
    "decode_job",
    "decode_line",
    "describe_assignment",
    "encode_batch",
    "encode_job",
    "encode_segment",
    "generate_jobs",
    "generate_workload",
    "ha",
    "iter_fprec",
    "peek_batch",
    "peek_batch_tag",
    "read_fprec",
    "reference_verdicts",
    "serve_fprec",
    "serve_workload",
    "validate_detection",
    "write_fprec",
    "write_workload",
]
