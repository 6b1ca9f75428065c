"""Checkpoint-and-resume for pipeline phases.

Spark truncates lineage by checkpointing RDDs to reliable storage; the
analog here persists a phase's materialized partitions through
:class:`~repro.stio.StDataset` (raw-pickle codec, so arbitrary phase
outputs — replica-flagged instances, partial collective instances —
round-trip exactly) and marks the phase complete.  A resumed pipeline
loads the last completed phase from disk instead of recomputing the
phases before it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext
    from repro.engine.rdd import RDD

#: Marker file (per phase directory) whose presence means "every block of
#: this phase landed".  Written last, so a crash mid-checkpoint leaves no
#: marker and the phase recomputes — never resumes from a torn write.
COMPLETE_MARKER = "_COMPLETE"


class PipelineCheckpoint:
    """Phase-level checkpoint store under one directory.

    Layout: ``<directory>/<phase>/part-*.stb`` + ``metadata.json`` +
    ``_COMPLETE``.  ``save`` returns a lineage-truncated RDD over the
    same in-memory partitions (the caller keeps computing without a
    read-back); ``load`` returns a lazy RDD over the on-disk blocks.
    """

    def __init__(self, directory: "str | Path", ctx: "EngineContext"):
        self.directory = Path(directory)
        self.ctx = ctx

    def phase_dir(self, phase: str) -> Path:
        """The directory holding one phase's blocks."""
        return self.directory / phase

    def has(self, phase: str) -> bool:
        """True when ``phase`` completed a checkpoint (marker present)."""
        return (self.phase_dir(phase) / COMPLETE_MARKER).exists()

    def save(self, phase: str, rdd: "RDD") -> "RDD":
        """Persist ``rdd``'s partitions as the ``phase`` checkpoint.

        Materializes the lineage (checkpointing *is* an action), writes
        every block, then drops the marker.  Returns a source RDD over
        the materialized partitions: downstream phases run against
        truncated lineage, so a later failure recomputes from the
        checkpoint, not from the original source.
        """
        from repro.stio.dataset import StDataset

        tracer = self.ctx.tracer
        started = time.time()
        partitions = rdd._collect_partitions()
        target = self.phase_dir(phase)
        marker = target / COMPLETE_MARKER
        if marker.exists():  # re-run over an old checkpoint dir: replace it
            marker.unlink()
        StDataset.write(target, partitions, instance_type="checkpoint", codec="pickle")
        marker.write_text(
            json.dumps({"phase": phase, "partitions": len(partitions)})
        )
        if tracer is not None:
            tracer.counter("checkpoint_saves", 1)
            tracer.add_span(
                f"checkpoint-save:{phase}",
                "checkpoint",
                started,
                time.time(),
                partitions=len(partitions),
                path=str(target),
            )
        return self.ctx.from_partitions(partitions)

    def load(self, phase: str) -> "RDD":
        """A lazy RDD over the ``phase`` checkpoint's blocks."""
        from repro.stio.dataset import StDataset

        tracer = self.ctx.tracer
        started = time.time()
        rdd, _stats = StDataset(self.phase_dir(phase)).read(
            self.ctx, use_metadata=False
        )
        if tracer is not None:
            tracer.counter("checkpoint_resumes", 1)
            tracer.add_span(
                f"checkpoint-resume:{phase}",
                "checkpoint",
                started,
                time.time(),
                partitions=rdd.num_partitions,
                path=str(self.phase_dir(phase)),
            )
        return rdd
