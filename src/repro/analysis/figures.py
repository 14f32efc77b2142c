"""Plain-text rendering for experiment output.

The benchmark harnesses print the paper's tables and figures as text —
no plotting dependencies, diff-able output, works everywhere.  Two
primitives plus the Figure 1 renderer:

- :func:`format_table` — aligned ASCII table from rows of cells;
- :func:`log_bar` — a log-scale bar for spanning-many-decades values
  (endurance spans 1e3..1e16);
- :func:`render_figure1` — the endurance comparison as log bars.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Sequence[object]],
    headers: Optional[Sequence[str]] = None,
) -> str:
    """Render rows as an aligned ASCII table.

    Floats print to 3 significant digits.
    """

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3g}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    if headers is not None:
        text_rows.insert(0, [str(h) for h in headers])
    if not text_rows:
        return ""
    widths = [
        max(len(row[i]) for row in text_rows if i < len(row))
        for i in range(max(len(r) for r in text_rows))
    ]
    lines = []
    for index, row in enumerate(text_rows):
        line = "  ".join(
            row[i].ljust(widths[i]) for i in range(len(row))
        ).rstrip()
        lines.append(line)
        if headers is not None and index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


#: The value a full-width :func:`log_bar` stands for.
LOG_BAR_HI = 1e17


def log_bar(value: float, lo: float = 1.0, width: int = 50) -> str:
    """A log-scale bar of up to ``width`` ``#`` characters.

    ``lo`` maps to the empty end and :data:`LOG_BAR_HI` to the full one.
    """
    if value <= 0:
        return ""
    if lo <= 0 or LOG_BAR_HI <= lo:
        raise ValueError("need 0 < lo < hi")
    frac = (math.log10(value) - math.log10(lo)) / (
        math.log10(LOG_BAR_HI) - math.log10(lo)
    )
    frac = min(1.0, max(0.0, frac))
    return "#" * max(1, round(frac * width))


def render_figure1(data: Mapping[str, object]) -> str:
    """Render Figure 1 (requirements vs endurance) as log-scale bars."""
    lines: List[str] = []
    lines.append("Writes per cell over the deployment lifetime (log scale)")
    lines.append("")
    lines.append("Workload requirements:")
    for req in data["requirements"]:
        bar = log_bar(req.writes_per_cell)
        lines.append(f"  {req.name:<28} {bar} {req.writes_per_cell:.2e}")
    kv_low, kv_high = data["kv_range"]
    lines.append(
        f"  {'KV cache range':<28} "
        f"[{kv_low.writes_per_cell:.2e} .. {kv_high.writes_per_cell:.2e}]"
    )
    lines.append("")
    lines.append("Product endurance:")
    for name, value in sorted(
        data["products"].items(), key=lambda kv: kv[1]
    ):
        lines.append(f"  {name:<28} {log_bar(value)} {value:.1e}")
    lines.append("")
    lines.append("Technology-potential endurance:")
    for name, value in sorted(
        data["potentials"].items(), key=lambda kv: kv[1]
    ):
        lines.append(f"  {name:<28} {log_bar(value)} {value:.1e}")
    return "\n".join(lines)
