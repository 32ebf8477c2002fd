"""Plain-text table rendering for experiment reports.

The experiment drivers print the same rows/series the paper's figures
show; this module provides the shared fixed-width formatting.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render a fixed-width table.

    Floats are formatted with ``float_format``; everything else with
    ``str``. Columns are sized to their widest cell.
    """
    rendered: List[List[str]] = [list(map(str, headers))]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(float_format.format(cell))
            else:
                cells.append(str(cell))
        rendered.append(cells)
    widths = [
        max(len(line[column]) for line in rendered)
        for column in range(len(rendered[0]))
    ]
    lines = []
    for line_index, line in enumerate(rendered):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
        if line_index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
