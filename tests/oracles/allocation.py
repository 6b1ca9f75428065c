"""Reference allocation: one ``candidate_cells`` call per instance."""

from __future__ import annotations

from repro.core.converters.base import _cell_bounds, _matches_cell, _needs_exact


def allocate(instances, structure, method: str = "auto", stats=None) -> list[list]:
    """Assign each instance to every structure cell it intersects.

    Same contract as :func:`repro.core.converters.base.allocate`: cell
    contents in instance order, identical ``AllocationStats`` counters.
    """
    cells: list[list] = [[] for _ in range(structure.n_cells)]
    total_candidates = 0
    total_exact = 0
    total_alloc = 0
    for inst in instances:
        candidates = structure.candidate_cells(
            inst.spatial_extent, inst.temporal_extent, method
        )
        if method == "naive":
            total_candidates += structure.n_cells
        else:
            total_candidates += len(candidates)
        if _needs_exact(inst, structure):
            for cell in candidates:
                total_exact += 1
                geom, dur = _cell_bounds(structure, cell)
                if _matches_cell(inst, geom, dur):
                    cells[cell].append(inst)
                    total_alloc += 1
        else:
            for cell in candidates:
                cells[cell].append(inst)
            total_alloc += len(candidates)
    if stats is not None:
        stats.add(len(instances), total_candidates, total_exact, total_alloc)
    return cells
