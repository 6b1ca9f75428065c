"""Extractor base classes."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.engine.rdd import RDD
from repro.geometry.base import Geometry
from repro.instances.collective import CollectiveInstance
from repro.obs.tracer import phase as _phase_span
from repro.temporal.duration import Duration


def _scalar_partial(spec: Any, tagged: tuple) -> CollectiveInstance:
    """A tagged extraction partial in the scalar domain (tables demoted)."""
    kind, payload = tagged
    if kind == "scalar":
        return payload
    skeleton, table = payload
    return skeleton.with_cell_values(spec.partials(table))


class CustomExtractor:
    """Wrap a user RDD function as an extractor — the ``Extractor(f)``
    pattern of Section 3.3.

    Example::

        f = lambda rdd: InstanceRDD(rdd).map_value_plus(extract_stay_point).rdd
        extractor = CustomExtractor(f)
        result = extractor.extract(converted_rdd)
    """

    def __init__(self, f: Callable[[RDD], RDD]):
        self.f = f

    def extract(self, rdd: RDD) -> RDD:
        """Run this extraction on the RDD (see class docstring).

        Under an active tracer the extraction runs inside an "Extraction"
        phase span, materialized eagerly when ``f`` returns an RDD so the
        work is billed to this phase.
        """
        with _phase_span("Extraction", rdd.ctx.tracer) as span:
            result = self.f(rdd)
            if span is not None and isinstance(result, RDD):
                result = rdd.ctx.from_partitions(result._collect_partitions())
        return result


class CellAggExtractor(ABC):
    """Template for collective-instance extractors.

    Subclasses define a three-phase aggregation over cell values:

    * :meth:`local` — per-cell partial aggregate, computed on each
      partition's partial collective instance (cell values there are the
      arrays the converter allocated locally);
    * :meth:`merge` — combine two partials of the same cell (commutative
      and associative);
    * :meth:`finalize` — partial → extracted feature.

    ``extract`` returns a single collective instance whose cell values are
    the extracted features; the only cross-partition traffic is the tree
    reduce over per-partition partials, never the raw data.

    Each partition premerges into one partial, then the partials meet in
    the balanced adjacent pairing of
    :meth:`~repro.engine.rdd.RDD.tree_reduce`.  A partition's partial is a
    :class:`~repro.columnar.aggregate.CellTable` built by the subclass's
    :meth:`agg_spec` kernels.  It falls back to a scalar partial — per-cell
    ``local``/``merge`` in Python — only where no kernel covers the
    semantics exactly:

    * the extractor declares no :meth:`agg_spec`;
    * a trajectory entry spans a time interval rather than an instant
      (the speed kernels model entry times as points);
    * a transit cell is not an :class:`~repro.geometry.Envelope`.

    A table meeting a scalar partial is demoted through
    :meth:`~repro.columnar.aggregate.AggSpec.partials` (bit-exact), so the
    features never depend on which partitions fell back.

    ``reduce_depth`` is the tree-stage knob of ``tree_reduce`` — it moves
    merge rounds between workers and the driver without changing the
    pairing, so features never depend on it.
    """

    reduce_depth: int = 2

    @abstractmethod
    def local(self, values: list, spatial: Geometry, temporal: Duration) -> Any:
        """Partial aggregate of one cell's locally-allocated array."""

    @abstractmethod
    def merge(self, a: Any, b: Any) -> Any:
        """Combine two partial aggregates."""

    def finalize(self, partial: Any) -> Any:
        """Partial aggregate → final feature (identity by default)."""
        return partial

    def agg_spec(self) -> Any | None:
        """Columnar compilation of this extractor's local/merge/finalize.

        Subclasses return an :class:`~repro.columnar.aggregate.AggSpec`
        to enable the vectorized partials; ``None`` (the default) keeps
        every partial scalar.
        """
        return None

    def extract(self, rdd: RDD) -> CollectiveInstance:
        """Run this extraction on the RDD (see class docstring)."""
        spec = self.agg_spec()
        # ``tree_reduce`` is an action, so the phase span brackets real
        # work (plus any still-lazy upstream lineage) without extra
        # forcing.
        with _phase_span("Extraction", rdd.ctx.tracer) as span:
            tracer = rdd.ctx.tracer
            oob_before = (
                tracer.counters.get("stage_oob_bytes", 0) if tracer is not None else 0
            )
            stats: dict = {}
            result = self._reduce(rdd, spec, stats)
            if tracer is not None:
                oob = tracer.counters.get("stage_oob_bytes", 0) - oob_before
                partials = stats.get("partials", 0)
                cells = result.n_cells * partials
                rounds = stats.get("rounds", 0)
                tracer.counter("extract_cells_aggregated", cells)
                tracer.counter("extract_partials_merged", partials)
                tracer.counter("extract_tree_depth", rounds)
                tracer.counter("extract_reduce_oob_bytes", oob)
                if span is not None:
                    span.args.update(
                        columnar=spec is not None,
                        cells_aggregated=cells,
                        partials_merged=partials,
                        tree_depth=rounds,
                        reduce_oob_bytes=oob,
                    )
            return result

    def _premerge(self, spec: Any, strip: bool) -> Callable[[list], list]:
        """The per-partition premerge shared by ``extract`` and
        ``extract_partials``: one tagged partial per non-empty partition.

        Partials are ``("table", (skeleton, CellTable))`` or
        ``("scalar", partial_instance)``, where the skeleton carries the
        cell structure needed to rebuild (or demote to) a collective
        instance.  With ``strip`` (backends that serialize tasks) the
        skeleton is stripped of its cell arrays first; otherwise it is
        the partition's first instance by reference, which costs nothing.
        """
        local = self.local
        merge = self.merge

        def premerge(instances: list) -> list:
            if not instances:
                return []
            if spec is not None:
                table = None
                for inst in instances:
                    built = spec.build(inst)
                    if built is None:
                        break  # not vectorizable: scalar partial below
                    table = built if table is None else table.merge(built)
                else:
                    skeleton = instances[0]
                    if strip:
                        skeleton = skeleton.with_cell_values([None] * skeleton.n_cells)
                    return [("table", (skeleton, table))]
            acc = instances[0].map_value_plus(local)
            for inst in instances[1:]:
                acc = acc.merge_with(inst.map_value_plus(local), merge)
            return [("scalar", acc)]

        return premerge

    def _reduce(self, rdd: RDD, spec: Any, stats: dict) -> CollectiveInstance:
        """Premerge per partition, then ``tree_reduce`` the partials."""
        merge = self.merge
        premerge = self._premerge(spec, rdd.ctx.backend.requires_serializable_tasks)

        def pair_merge(a: tuple, b: tuple) -> tuple:
            if a[0] == "table" and b[0] == "table":
                (skeleton, ta), (_, tb) = a[1], b[1]
                return ("table", (skeleton, ta.merge(tb)))
            merged = _scalar_partial(spec, a).merge_with(_scalar_partial(spec, b), merge)
            return ("scalar", merged)

        kind, payload = rdd.map_partitions(premerge).tree_reduce(
            pair_merge, depth=self.reduce_depth, stats=stats
        )
        if kind == "table":
            skeleton, table = payload
            return skeleton.with_cell_values(spec.finalize(table))
        return payload.map_value(self.finalize)

    def extract_values(self, rdd: RDD) -> list:
        """Convenience: just the per-cell features, in cell order."""
        return self.extract(rdd).cell_values()

    # -- incremental extraction (the streaming API) --------------------------------

    def extract_partials(self, rdd: RDD) -> list[CollectiveInstance]:
        """Per-partition *unfinalized* partials, in partition order.

        The streaming half of :meth:`extract`: the same per-partition
        premerge, with table partials demoted to the scalar partial
        domain through ``spec.partials`` (bit-exact by the mixed-partial
        contract) — but instead of tree-reducing to one value, the
        partials come back as a list the caller can bank.
        :meth:`merge_partials` over partials accumulated across any
        number of incremental runs replays :meth:`~repro.engine.rdd.RDD.tree_reduce`'s
        exact pairing, so the final features are bit-identical to one
        batch :meth:`extract` over the union — the incremental-parity
        guarantee of :meth:`~repro.core.pipeline.Pipeline.run_incremental`.

        Empty partitions contribute no partial (matching ``tree_reduce``,
        which drops them).
        """
        spec = self.agg_spec()
        premerge = self._premerge(spec, rdd.ctx.backend.requires_serializable_tasks)
        return [
            _scalar_partial(spec, p[0])
            for p in rdd.map_partitions(premerge)._collect_partitions()
            if p
        ]

    def merge_partials(self, partials: list) -> CollectiveInstance:
        """Partial list → finalized features, via ``tree_reduce``'s pairing.

        Driver-side adjacent pairing ``(0, 1), (2, 3), …`` with an odd
        leftover passed through — the same rounds
        :meth:`~repro.engine.rdd.RDD._pairwise_rounds` runs, which is
        what makes incremental results bit-identical to batch ones.
        Raises on an empty list (nothing was ever selected).
        """
        if not partials:
            raise ValueError("cannot merge an empty partial list")
        merge = self.merge
        parts = list(partials)
        while len(parts) > 1:
            paired = [
                (parts[i], parts[i + 1]) for i in range(0, len(parts) - 1, 2)
            ]
            leftover = [parts[-1]] if len(parts) % 2 else []
            parts = [a.merge_with(b, merge) for a, b in paired] + leftover
        return parts[0].map_value(self.finalize)
