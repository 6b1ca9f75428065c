"""The six singular→collective converters.

Each is a thin, explicitly-named wrapper over
:class:`~repro.core.converters.base.ToCollectiveConverter`, matching the
paper's API surface (``Event2SmConverter(polygonArr)`` etc.) and giving
each conversion a natural constructor for its structure kind.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.converters.base import ToCollectiveConverter
from repro.core.structures import (
    RasterStructure,
    SpatialMapStructure,
    TimeSeriesStructure,
)
from repro.geometry.base import Geometry
from repro.temporal.duration import Duration


class Event2TsConverter(ToCollectiveConverter):
    """Events → time series (e.g. hourly flow extraction)."""

    def __init__(
        self,
        slots: Sequence[Duration] | TimeSeriesStructure,
        method: str = "auto",
    ):
        structure = (
            slots
            if isinstance(slots, TimeSeriesStructure)
            else TimeSeriesStructure(list(slots))
        )
        super().__init__(structure, method)


class Event2SmConverter(ToCollectiveConverter):
    """Events → spatial map (e.g. POI counts per postal area)."""

    def __init__(
        self,
        geometries: Sequence[Geometry] | SpatialMapStructure,
        method: str = "auto",
    ):
        structure = (
            geometries
            if isinstance(geometries, SpatialMapStructure)
            else SpatialMapStructure(list(geometries))
        )
        super().__init__(structure, method)


class Event2RasterConverter(ToCollectiveConverter):
    """Events → raster (e.g. air quality over road segments per day)."""

    def __init__(
        self,
        cells: Sequence[tuple[Geometry, Duration]] | RasterStructure,
        method: str = "auto",
    ):
        structure = (
            cells if isinstance(cells, RasterStructure) else RasterStructure(list(cells))
        )
        super().__init__(structure, method)


class Traj2TsConverter(ToCollectiveConverter):
    """Trajectories → time series."""

    def __init__(
        self,
        slots: Sequence[Duration] | TimeSeriesStructure,
        method: str = "auto",
    ):
        structure = (
            slots
            if isinstance(slots, TimeSeriesStructure)
            else TimeSeriesStructure(list(slots))
        )
        super().__init__(structure, method)


class Traj2SmConverter(ToCollectiveConverter):
    """Trajectories → spatial map (e.g. grid speed extraction)."""

    def __init__(
        self,
        geometries: Sequence[Geometry] | SpatialMapStructure,
        method: str = "auto",
    ):
        structure = (
            geometries
            if isinstance(geometries, SpatialMapStructure)
            else SpatialMapStructure(list(geometries))
        )
        super().__init__(structure, method)


class Traj2RasterConverter(ToCollectiveConverter):
    """Trajectories → raster (the running example of Section 3.4)."""

    def __init__(
        self,
        cells: Sequence[tuple[Geometry, Duration]] | RasterStructure,
        method: str = "auto",
    ):
        structure = (
            cells if isinstance(cells, RasterStructure) else RasterStructure(list(cells))
        )
        super().__init__(structure, method)
