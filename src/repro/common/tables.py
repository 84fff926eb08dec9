"""Plain-text table rendering for figure/benchmark output.

The paper's evaluation is presented as bar charts; the harness reproduces each
panel as a table of the same series (one row per combining scheme, one column
per transfer size).  :class:`Table` renders those aligned for terminal output
and can also emit CSV so results are easy to diff across runs.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence, Union

Cell = Union[int, float, str, None]


class Table:
    """A small column-ordered table with aligned text rendering."""

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns: List[str] = list(columns)
        self.rows: List[List[Cell]] = []

    def add_row(self, *values: Cell) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_mapping(self, mapping: Dict[str, Cell]) -> None:
        """Add a row from a column-name -> value mapping (missing keys blank)."""
        self.rows.append([mapping.get(col) for col in self.columns])

    def column(self, name: str) -> List[Cell]:
        """Return all values in the named column, in row order."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    @staticmethod
    def _format(value: Cell, precision: int) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    def render(self, precision: int = 2) -> str:
        """Render an aligned plain-text table."""
        cells = [self.columns] + [
            [self._format(v, precision) for v in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        out = io.StringIO()
        if self.title:
            out.write(self.title + "\n")
        header = "  ".join(name.rjust(w) for name, w in zip(cells[0], widths))
        out.write(header + "\n")
        out.write("  ".join("-" * w for w in widths) + "\n")
        for row in cells[1:]:
            out.write("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            out.write("\n")
        return out.getvalue()

    def to_csv(self, precision: int = 4) -> str:
        """Render the table as CSV (no quoting; cells never contain commas)."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(self._format(v, precision) for v in row))
        return "\n".join(lines) + "\n"

    def to_markdown(self, precision: int = 2) -> str:
        """Render as a GitHub-flavoured markdown table (title as a bold
        caption line when present)."""
        lines = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            cells = [self._format(v, precision) for v in row]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"

    def lookup(self, key_column: str, key: Cell, value_column: str) -> Optional[Cell]:
        """Return the ``value_column`` cell of the first row whose
        ``key_column`` equals ``key`` (None if absent)."""
        key_index = self.columns.index(key_column)
        value_index = self.columns.index(value_column)
        for row in self.rows:
            if row[key_index] == key:
                return row[value_index]
        return None

    def __str__(self) -> str:
        return self.render()
