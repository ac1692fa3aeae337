"""Common experiment-result plumbing.

Every experiment module produces an :class:`ExperimentResult`: an id
(matching the DESIGN.md index), a set of named columns and data rows, and
free-form notes.  Benchmarks print them with :meth:`ExperimentResult.table`
— the "same rows/series the paper reports" — and tests assert on the raw
``rows``.

Results are *mergeable*: the parallel runner (:mod:`repro.runner`) splits
an experiment into independent shards, each producing a partial
``ExperimentResult``, and :meth:`ExperimentResult.merge` reassembles them
in shard order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """A tabular experiment outcome.

    Attributes
    ----------
    experiment_id:
        DESIGN.md identifier, e.g. ``"FIG4"``.
    title:
        One-line description of what the table shows.
    columns:
        Column names.
    rows:
        Data rows (same arity as ``columns``).
    notes:
        Free-form findings appended under the table.
    obs:
        Optional observability payload (metrics snapshot + spans, see
        :mod:`repro.obs`) attached when the run was observed.  Never
        part of the CSV bytes.
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    obs: dict[str, Any] | None = None

    def add_row(self, *values: Any) -> None:
        """Append one data row (checked against the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def note(self, text: str) -> None:
        """Append a finding note."""
        self.notes.append(text)

    def column(self, name: str) -> list:
        """Extract one column by name."""
        try:
            index = list(self.columns).index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in {self.experiment_id}") from None
        return [row[index] for row in self.rows]

    def table(self) -> str:
        """Render a fixed-width text table (what the benches print)."""
        headers = [str(c) for c in self.columns]
        str_rows = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in str_rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def csv_bytes(self) -> bytes:
        """The exact bytes :meth:`to_csv` writes (header + rows).

        The parallel runner's determinism tests compare these bytes
        between ``--jobs 1`` and ``--jobs N`` runs.
        """
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buffer.getvalue().encode("utf-8")

    def to_csv(self, path: str | Path) -> None:
        """Persist the rows as CSV."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.csv_bytes())

    # ------------------------------------------------------------------
    # sharding support (repro.runner)
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, parts: Sequence["ExperimentResult"]) -> "ExperimentResult":
        """Reassemble shard partials into one result.

        Rows are concatenated in the given (shard) order.  Notes that
        every shard agrees on are kept once — shard-local notes (for
        example a summary computed over a single shard's rows) would be
        misleading on the merged table and are dropped.
        """
        if not parts:
            raise ValueError("cannot merge zero experiment results")
        first = parts[0]
        merged = cls(
            experiment_id=first.experiment_id,
            title=first.title,
            columns=tuple(first.columns),
        )
        for part in parts:
            if part.experiment_id != first.experiment_id:
                raise ValueError(
                    f"cannot merge {part.experiment_id!r} into "
                    f"{first.experiment_id!r}"
                )
            if tuple(part.columns) != tuple(first.columns):
                raise ValueError(
                    f"{part.experiment_id}: shard column layouts differ"
                )
            merged.rows.extend(part.rows)
        for note in first.notes:
            if all(note in part.notes for part in parts):
                merged.notes.append(note)
        return merged

    def normalized(self) -> "ExperimentResult":
        """A copy with every cell coerced to a plain Python scalar.

        NumPy scalars render identically under ``str()`` but compare
        and serialize as NumPy types; the runner normalizes every
        merged result, so its rows hold plain scalars whatever the
        shards returned.
        """
        copy = ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            columns=tuple(self.columns),
            notes=list(self.notes),
        )
        copy.rows = [tuple(_pyify(v) for v in row) for row in self.rows]
        copy.obs = self.obs
        return copy


def _pyify(value: Any) -> Any:
    """Coerce NumPy scalars to the equivalent built-in type."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
