"""Lightweight in-memory relational store for profiling data.

The paper's Profiler records statistics "along with the commands and
configurations of running jobs ... in our relational database" (§4.2).
This module provides that substrate: typed tables with schemas, primary
keys, predicate queries and ordering — enough for the Profiler to persist
scenario metadata, job commands and metric samples when a caller passes
``database=``.  Nothing in the pipeline reads it back: the Replayer
rebuilds a scenario by round-tripping its own instances through
``format_command``/``parse_command`` (see
:meth:`repro.core.replayer.Replayer.reconstruct`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Column", "Schema", "Table", "Database"]

_TYPE_NAMES = {int: "INT", float: "REAL", str: "TEXT", bool: "BOOL"}


@dataclass(frozen=True)
class Column:
    """One typed column of a table schema."""

    name: str
    dtype: type
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.dtype not in _TYPE_NAMES:
            raise TypeError(
                f"unsupported column type {self.dtype!r}; "
                f"expected one of {sorted(t.__name__ for t in _TYPE_NAMES)}"
            )

    def validate(self, value: Any) -> Any:
        """Check/coerce *value* for this column."""
        if value is None:
            if not self.nullable:
                raise ValueError(f"column {self.name!r} is not nullable")
            return None
        # bool is a subclass of int; keep them distinct.
        if self.dtype is int and isinstance(value, bool):
            raise TypeError(f"column {self.name!r} expects int, got bool")
        if self.dtype is float and isinstance(value, int) and not isinstance(
            value, bool
        ):
            return float(value)
        if not isinstance(value, self.dtype):
            raise TypeError(
                f"column {self.name!r} expects {self.dtype.__name__}, "
                f"got {type(value).__name__}"
            )
        return value


@dataclass(frozen=True)
class Schema:
    """Ordered collection of columns with an optional primary key."""

    columns: tuple[Column, ...]
    primary_key: str | None = None

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError("duplicate column names in schema")
        if self.primary_key is not None and self.primary_key not in names:
            raise ValueError(
                f"primary key {self.primary_key!r} is not a column"
            )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"no column {name!r}")

    def validate_row(self, row: dict[str, Any]) -> dict[str, Any]:
        unknown = set(row) - set(self.column_names)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        validated = {}
        for col in self.columns:
            validated[col.name] = col.validate(row.get(col.name))
        return validated


class Table:
    """One relation: schema + rows, with insert/select/update/delete."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._rows: list[dict[str, Any]] = []
        self._pk_index: dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return (dict(row) for row in self._rows)

    # ------------------------------------------------------------------
    def insert(self, row: dict[str, Any]) -> None:
        """Insert one row; enforces schema types and PK uniqueness."""
        validated = self.schema.validate_row(row)
        pk = self.schema.primary_key
        if pk is not None:
            key = validated[pk]
            if key in self._pk_index:
                raise ValueError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            self._pk_index[key] = len(self._rows)
        self._rows.append(validated)

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> int:
        """Insert rows in order; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def get(self, key: Any) -> dict[str, Any]:
        """Primary-key lookup."""
        pk = self.schema.primary_key
        if pk is None:
            raise ValueError(f"table {self.name!r} has no primary key")
        try:
            return dict(self._rows[self._pk_index[key]])
        except KeyError:
            raise KeyError(
                f"no row with {pk}={key!r} in table {self.name!r}"
            ) from None

    def select(
        self,
        where: Callable[[dict[str, Any]], bool] | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Filtered, optionally ordered copy of matching rows."""
        rows = [dict(r) for r in self._rows if where is None or where(r)]
        if order_by is not None:
            self.schema.column(order_by)  # raises on unknown column
            rows.sort(key=lambda r: r[order_by], reverse=descending)
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be non-negative")
            rows = rows[:limit]
        return rows

    def update(
        self,
        where: Callable[[dict[str, Any]], bool],
        changes: dict[str, Any],
    ) -> int:
        """Apply *changes* to matching rows; returns the count updated."""
        if self.schema.primary_key is not None and (
            self.schema.primary_key in changes
        ):
            raise ValueError("cannot update the primary key")
        for name, value in changes.items():
            self.schema.column(name).validate(value)
        updated = 0
        for row in self._rows:
            if where(row):
                row.update(changes)
                updated += 1
        return updated

    def delete(self, where: Callable[[dict[str, Any]], bool]) -> int:
        """Delete matching rows; returns the count removed."""
        keep = [r for r in self._rows if not where(r)]
        removed = len(self._rows) - len(keep)
        self._rows = keep
        self._rebuild_pk_index()
        return removed

    def _rebuild_pk_index(self) -> None:
        pk = self.schema.primary_key
        if pk is None:
            return
        self._pk_index = {row[pk]: i for i, row in enumerate(self._rows)}


class Database:
    """Named collection of tables."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create a table; rejects duplicates."""
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table {name!r}") from None

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise KeyError(f"no table {name!r}")
        del self._tables[name]

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))
