"""CSV ingest/validation for the price and exposure panels, and result-table output.

Input schemas
-------------
prices   : header ``date,close``               dates ``YYYY-MM-DD``, positive closes
monthly  : header ``month,margin_debt,vix``    months ``YYYY-MM``, no gaps
exposure : header ``period,exposure,vol``      period labels, sorted lexicographically

All three are read by ``_read_csv`` under one rule set.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import regime as regime_mod
from . import timeseries

PRICE_HEADER = ["date", "close"]
MONTHLY_HEADER = ["month", "margin_debt", "vix"]
EXPOSURE_HEADER = ["period", "exposure", "vol"]
_KEY_FORMS = {"D": "YYYY-MM-DD", "M": "YYYY-MM", None: "a non-empty label other than NaT"}


@dataclass(frozen=True)
class PricePath:
    """Dated daily closing-price sequence."""

    dates: np.ndarray  # datetime64[D], strictly increasing
    closes: np.ndarray  # float, strictly positive

    def __post_init__(self) -> None:
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        closes = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "closes", closes)
        if dates.size != closes.size:
            raise ValueError("dates and closes must have equal length")
        if dates.size < 2:
            raise ValueError("price path must have length >= 2")
        if not np.all(np.diff(dates).astype(int) > 0):
            raise ValueError("dates must be strictly increasing with no duplicates")
        if not np.all(np.isfinite(closes)) or np.any(closes <= 0):
            raise ValueError("closes must be strictly positive and finite")

    def __len__(self) -> int:
        return int(self.closes.size)


@dataclass(frozen=True)
class MonthlyTable:
    """Raw month/exposure/volatility columns, before detrending and classification."""

    months: list[str]
    margin_debt: np.ndarray
    vol_proxy: np.ndarray


@dataclass(frozen=True)
class MonthlyPanel:
    """Month-indexed exposure panel with detrended level and stress flags."""

    months: list[str]
    margin_debt: np.ndarray
    vol_proxy: np.ndarray
    detrended: np.ndarray
    regime: np.ndarray  # int {0,1}
    threshold: float
    q: float

    def __post_init__(self) -> None:
        n = len(self.months)
        for name in ("margin_debt", "vol_proxy", "detrended", "regime"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has length != {n}")
        if any(a >= b for a, b in zip(self.months, self.months[1:])):
            raise ValueError("months must be strictly increasing")
        n_above = int(np.sum(np.asarray(self.vol_proxy) > self.threshold))
        if int(np.sum(self.regime)) != n_above:
            raise ValueError("regime flag count inconsistent with stored threshold")

    def __len__(self) -> int:
        return len(self.months)


def _read_csv(
    path: str | Path, header: list[str], unit: str | None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read a ``key,value,...`` input CSV; the one parser for every input file.

    Returns the keys (``datetime64[unit]``, or strings when ``unit`` is None)
    and one float array per value column, sorted by key. A UTF-8 BOM,
    whitespace around fields and blank lines are ignored. Each row needs one
    field per header column; a key must be non-empty, not NaT, and read back
    exactly as written; a value must be a positive finite number; keys must be
    unique. Out-of-order rows are sorted with a warning. Row errors name the
    file line, the header being line 1.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows, lines = [], []
        try:
            got = [h.strip() for h in next(reader, [])]
            if got != header:
                raise ValueError(f"{path}: expected header {','.join(header)!r}, got {','.join(got)!r}")
            for row in filter(None, reader):
                rows.append(row)
                lines.append(reader.line_num)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ValueError(f"{path}: row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:  # decoded a block at a time, so no row number
            raise ValueError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    for row, line in zip(rows, lines):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {line}: expected {len(header)} fields, got {len(row)}")

    text, cols = [], []  # column by column, to keep no rows x fields copy
    for j, dtype in enumerate([f"datetime64[{unit}]" if unit else str] + [float] * (len(header) - 1)):
        text.append([row[j].strip() for row in rows])
        try:
            cols.append(np.array(text[j], dtype=dtype))
        except ValueError:  # each field that does not parse becomes NaT/NaN, named below
            cols.append(np.full(len(rows), np.nan, dtype))
            for i, field in enumerate(text[j]):
                with contextlib.suppress(ValueError):
                    cols[j][i] = field
    del rows
    keys, values = cols[0], cols[1:]
    back = keys.astype(str)
    bad = np.column_stack(
        [(back != np.array(text[0])) | (back == "") | (back == "NaT")]
        + [~(np.isfinite(v) & (v > 0)) for v in values]
    )
    if bad.any():
        i, j = np.argwhere(bad)[0]
        want = _KEY_FORMS[unit] if j == 0 else "a positive finite number"
        raise ValueError(f"{path}: row {lines[i]}: bad {header[j]} {text[j][i]!r}, want {want}")

    n_unsorted = int(np.sum(keys[1:] < keys[:-1]))
    if n_unsorted:
        order = np.argsort(keys, kind="stable")
        keys, values, lines = keys[order], [v[order] for v in values], np.array(lines)[order]
        warnings.warn(f"{path}: {n_unsorted} out-of-order rows were sorted by {header[0]}")
    dup = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    if dup.size:
        raise ValueError(f"{path}: row {lines[dup[0]]}: duplicate {header[0]} {keys[dup[0]]}")
    return keys, values


def load_price_csv(path: str | Path) -> PricePath:
    """Load and validate a ``date,close`` daily price file (rules: _read_csv)."""
    dates, (closes,) = _read_csv(path, PRICE_HEADER, "D")
    if dates.size < 2:
        raise ValueError(f"{path}: need at least 2 price rows, got {dates.size}")
    return PricePath(dates, closes)


def load_monthly_csv(path: str | Path) -> MonthlyTable:
    """Load and validate a ``month,margin_debt,vix`` monthly file (rules: _read_csv).

    After sorting, months must also be gap-free; missing months are listed in
    the error.
    """
    months, (margin, vix) = _read_csv(path, MONTHLY_HEADER, "M")
    span = np.arange(months[0], months[-1] + 1)
    present = np.zeros(span.size, dtype=bool)
    present[(months - months[0]).astype(np.int64)] = True  # months are sorted and unique here
    missing = span[~present]
    if missing.size:
        raise ValueError(f"{path}: monthly sequence has gaps; missing: {', '.join(missing.astype(str))}")
    return MonthlyTable(months.astype(str).tolist(), margin, vix)


def load_exposure_csv(path: str | Path) -> MonthlyTable:
    """Generic ``period,exposure,vol`` loader (rules: _read_csv; no gap rule, any frequency).

    Used for the companion exposure test; periods sort lexicographically,
    so use ISO dates or YYYY-MM identifiers.
    """
    periods, (exposure, vol) = _read_csv(path, EXPOSURE_HEADER, None)
    return MonthlyTable(periods.tolist(), exposure, vol)


def build_panel(
    table: MonthlyTable,
    q: float = 0.10,
    detrend_scheme: str = "log_linear",
    detrend_param: float | None = None,
) -> MonthlyPanel:
    """Attach detrended level and stress flags to a raw monthly table."""
    detrended = timeseries.detrend(table.margin_debt, detrend_scheme, detrend_param)
    cls = regime_mod.classify(table.vol_proxy, q)
    return MonthlyPanel(
        months=list(table.months),
        margin_debt=np.asarray(table.margin_debt, dtype=float),
        vol_proxy=np.asarray(table.vol_proxy, dtype=float),
        detrended=detrended,
        regime=cls.flags,
        threshold=cls.threshold,
        q=q,
    )


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

_CELL_FORMATS = {str: str, int: str, float: "{:.10g}".format, bool: lambda v: "1" if v else "0",
                 type(None): lambda v: ""}


def _format_cell(v) -> str:
    if isinstance(v, np.generic):  # a numpy scalar is written as the Python value it holds
        v = v.item()
    return _CELL_FORMATS.get(type(v), str)(v)


def _json_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(f"{float(v):.10g}")
    return v


def write_table(table: dict | list[dict], path: str | Path, format: str = "csv") -> None:
    """Write a result table given as columns, ``{name: sequence}`` in column order, all of one length.

    Each column becomes cells in one pass (an array through one tolist()); floats are serialized with
    10 significant digits, and a numpy scalar as the Python value it holds; the JSON form mirrors the
    CSV columns exactly. A list of row dicts sharing one key order is transposed to columns first:
    benchmark/replay.py and the few-row record tables hand rows, until ROADMAP item 3 removes this adapter.
    The table is renamed into place when whole, so a failed or interrupted write leaves no partial
    table and an earlier table of that name as it was.
    """
    if isinstance(table, list):
        if not table:
            raise ValueError("no rows")
        if any(list(r) != list(table[0]) for r in table):
            raise ValueError("all rows must share the same column order")
        table = {name: [r[name] for r in table] for name in table[0]}
    lengths = {len(column) for column in table.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length {sorted(lengths)}")
    if not any(lengths):
        raise ValueError("no rows")
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    cell = _format_cell if format == "csv" else _json_cell
    cells = [list(map(cell, c.tolist() if isinstance(c, np.ndarray) else c)) for c in table.values()]
    path = Path(path)
    # beside the table, so the rename is atomic; open(), unlike mkstemp (0600), gives the usual mode
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="" if format == "csv" else None) as fh:
            if format == "csv":
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(table)
                w.writerows(zip(*cells))
            else:
                json.dump([dict(zip(table, row)) for row in zip(*cells)], fh, indent=2)
                fh.write("\n")
        tmp.replace(path)
    finally:  # gone once renamed; otherwise, Ctrl-C included, removed
        tmp.unlink(missing_ok=True)
