"""CSV tick-tape reader and writer.

Format: three comma-separated columns ``time,price,shares``, optional
header line, UTF-8, decimal points only. Time is either epoch seconds
(fractional allowed) or HH:MM:SS[.fff] resolved against an explicit date.
Rows must be nondecreasing in time; shares may be zero (such prints still
advance the time measure) but never negative; prices are strictly
positive. NaN and infinite values are rejected, and so are finite ones
whose moment terms overflow: a time step t - t_prev or a p^2 dV that is
not finite. A line that is not valid UTF-8 is rejected too. All
violations report the offending 1-based line number.
"""

from __future__ import annotations

import io
import math
from datetime import datetime, timezone
from os import PathLike
from typing import Iterable

from .errors import InputError
from .measure import Tick

__all__ = ["parse_csv", "serialize_csv"]


def _time_of_day(field: str, date: str | None, lineno: int) -> float:
    parts = field.split(":")
    if len(parts) != 3:
        raise InputError(f"line {lineno}: bad time-of-day {field!r}")
    if date is None:
        raise InputError(
            f"line {lineno}: time-of-day values need an explicit date "
            "(--date YYYY-MM-DD)")
    try:
        day = datetime.strptime(date, "%Y-%m-%d").replace(tzinfo=timezone.utc)
        h, m = int(parts[0]), int(parts[1])
        s = float(parts[2])
    except ValueError as exc:
        raise InputError(f"line {lineno}: {exc}") from None
    if not (0 <= h < 24 and 0 <= m < 60 and 0.0 <= s < 60.0):
        raise InputError(f"line {lineno}: time-of-day out of range {field!r}")
    return day.timestamp() + h * 3600 + m * 60 + s


def parse_csv(source, date: str | None = None) -> list[Tick]:
    """Read a tick tape; ``source`` is a path, or any iterable of lines."""
    if isinstance(source, (str, PathLike)):
        # undecodable bytes become lone surrogates, refused by line below
        with open(source, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            return _parse_lines(fh, date)
    return _parse_lines(source, date)


def _check_utf8(line: str, lineno: int) -> None:
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise InputError(f"line {lineno}: not valid UTF-8") from None


def _parse_lines(lines: Iterable[str], date: str | None) -> list[Tick]:
    ticks: list[Tick] = []
    prev_t = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        _check_utf8(line, lineno)
        fields = line.split(",")
        if lineno == 1 and _looks_like_header(fields):
            continue
        if len(fields) != 3:
            raise InputError(
                f"line {lineno}: expected 3 columns, got {len(fields)}")
        tf, pf, vf = (f.strip() for f in fields)
        try:
            t = _time_of_day(tf, date, lineno) if ":" in tf else float(tf)
        except InputError:
            raise
        except ValueError:
            raise InputError(f"line {lineno}: bad time {tf!r}") from None
        try:
            p = float(pf)
            dV = float(vf)
        except ValueError:
            raise InputError(f"line {lineno}: bad number in {line!r}") from None
        if not all(map(math.isfinite, (t, p, dV))):
            raise InputError(f"line {lineno}: non-finite value in {line!r}")
        if not (p > 0.0):
            raise InputError(f"line {lineno}: price must be positive, got {pf}")
        if dV < 0.0:
            raise InputError(f"line {lineno}: shares must be nonnegative, got {vf}")
        if not math.isfinite(p * p * dV):
            raise InputError(
                f"line {lineno}: non-finite price * price * shares in {line!r}")
        if prev_t is not None and t < prev_t:
            raise InputError(
                f"line {lineno}: time went backwards ({t} after {prev_t})")
        if prev_t is not None and not math.isfinite(t - prev_t):
            raise InputError(
                f"line {lineno}: non-finite time step from {prev_t} to {t}")
        prev_t = t
        ticks.append(Tick(t=t, p=p, dV=dV))
    return ticks


def _looks_like_header(fields: list[str]) -> bool:
    for f in fields:
        f = f.strip()
        if not f:
            continue
        try:
            float(f)
            return False
        except ValueError:
            if ":" in f:
                return False
    return True


def serialize_csv(ticks: Iterable[Tick], dest) -> None:
    """Write ticks as epoch-second CSV; floats use shortest round-trip form.

    ``dest`` is a path or a writable text stream. parse(serialize(x)) == x
    for any tick list this module produced.
    """
    if isinstance(dest, (str, PathLike)):
        with open(dest, "w", encoding="utf-8") as fh:
            _write(ticks, fh)
    else:
        _write(ticks, dest)


def _write(ticks: Iterable[Tick], fh: io.TextIOBase) -> None:
    fh.write("time,price,shares\n")
    for tk in ticks:
        # float() strips numpy scalar wrappers so repr stays plain
        fh.write(f"{float(tk.t)!r},{float(tk.p)!r},{float(tk.dV)!r}\n")
