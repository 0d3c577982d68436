"""CSV tick-tape reader and writer.

Format: three comma-separated columns ``time,price,shares``, optional
header on the first nonblank line, UTF-8 with or without a byte-order
mark, decimal points only. Time is either epoch seconds
(fractional allowed) or HH:MM:SS[.fff] resolved against an explicit date.
Rows must be nondecreasing in time; shares may be zero (such prints still
advance the time measure) but never negative; prices are strictly
positive. NaN and infinite values are rejected, and so are finite ones
whose moment terms overflow: a time step t - t_prev or a p^2 dV that is
not finite. A line that is not valid UTF-8 is rejected too. All
violations report the offending 1-based line number.

parse_rows is the one line parser: it yields each validated line as a
(t, p, dV) float triple and holds nothing but the previous time.
parse_csv collects those rows into Ticks; a caller that wants memory for
the numbers alone (`psima run`) collects them into float columns.
"""

from __future__ import annotations

import io
import math
from datetime import datetime, timezone
from os import PathLike
from typing import Iterable, Iterator

from .errors import InputError
from .measure import Tick

__all__ = ["parse_csv", "parse_rows", "serialize_csv"]


class _Clock:
    """HH:MM:SS[.fff] fields of one parse, resolved against one date.

    The date is parsed once, at the first time-of-day line, so a tape
    without such lines never reads it and a bad date names that line.
    """

    def __init__(self, date: str | None):
        self.date = date
        self.midnight: float | None = None   # epoch seconds, UTC

    def seconds(self, field: str, lineno: int) -> float:
        parts = field.split(":")
        if len(parts) != 3:
            raise InputError(f"line {lineno}: bad time-of-day {field!r}")
        if self.midnight is None:
            if self.date is None:
                raise InputError(
                    f"line {lineno}: time-of-day values need an explicit "
                    "date (--date YYYY-MM-DD)")
            try:
                day = datetime.strptime(self.date, "%Y-%m-%d")
            except ValueError as exc:
                raise InputError(
                    f"line {lineno}: date {self.date!r}: {exc}") from None
            self.midnight = day.replace(tzinfo=timezone.utc).timestamp()
        try:
            h, m = int(parts[0]), int(parts[1])
            s = float(parts[2])
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        if not (0 <= h < 24 and 0 <= m < 60 and 0.0 <= s < 60.0):
            raise InputError(
                f"line {lineno}: time-of-day out of range {field!r}")
        return self.midnight + h * 3600 + m * 60 + s


def parse_csv(source, date: str | None = None) -> list[Tick]:
    """Read a tick tape; ``source`` is a path, or any iterable of lines.

    A ``source`` that is neither, a line that is not text, and a ``date``
    that is not a string are refused with InputError, as a bad line is.
    """
    return [Tick(*row) for row in parse_rows(source, date)]


def parse_rows(source, date: str | None = None
               ) -> Iterator[tuple[float, float, float]]:
    """Yield a tick tape's (t, p, dV) rows as each line is validated.

    ``source`` is as for parse_csv, and a bad line raises the same
    InputError when iteration reaches it.
    """
    if not (date is None or isinstance(date, str)):
        raise InputError(f"date must be a YYYY-MM-DD string, got {date!r}")
    if isinstance(source, (str, PathLike)):
        # undecodable bytes become lone surrogates, refused by line below
        with open(source, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            yield from _parse_lines(fh, date)
        return
    try:
        lines = iter(source)
    except TypeError:
        raise InputError(f"source must be a path or an iterable of lines, "
                         f"got {source!r}") from None
    yield from _parse_lines(lines, date)


def _check_utf8(line: str, lineno: int) -> None:
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise InputError(f"line {lineno}: not valid UTF-8") from None


def _parse_lines(lines: Iterable[str], date: str | None
                 ) -> Iterator[tuple[float, float, float]]:
    prev_t = None
    clock = _Clock(date)
    first = True  # no nonblank line read yet: it may be a header
    for lineno, raw in enumerate(lines, start=1):
        try:
            if lineno == 1:
                # the byte-order mark of spreadsheet "CSV UTF-8" exports
                raw = raw.removeprefix("\ufeff")
            line = raw.strip()
            fields = line.split(",")
        except (AttributeError, TypeError):
            raise InputError(f"line {lineno}: source must give lines of "
                             f"text, got {raw!r}") from None
        if not line:
            continue
        _check_utf8(line, lineno)
        if first:
            first = False
            if _looks_like_header(fields):
                continue
        if len(fields) != 3:
            raise InputError(
                f"line {lineno}: expected 3 columns, got {len(fields)}")
        tf, pf, vf = (f.strip() for f in fields)
        try:
            t = clock.seconds(tf, lineno) if ":" in tf else float(tf)
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
        yield t, p, dV


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
    for any tick list this module produced. A ``dest`` that is neither is
    refused with InputError before anything is written, and so is a tick
    without real t, p and dV fields once the rows before it are written.
    """
    if not isinstance(dest, (str, PathLike)) and not callable(
            getattr(dest, "write", None)):
        raise InputError(f"dest must be a path or a writable text stream, "
                         f"got {dest!r}")
    try:
        rows = iter(ticks)
    except TypeError:
        raise InputError(f"ticks must be an iterable of Ticks, got "
                         f"{ticks!r}") from None
    if isinstance(dest, (str, PathLike)):
        with open(dest, "w", encoding="utf-8") as fh:
            _write(rows, fh)
    else:
        _write(rows, dest)


def _write(ticks: Iterator[Tick], fh: io.TextIOBase) -> None:
    fh.write("time,price,shares\n")
    for tk in ticks:
        try:
            # float() strips numpy scalar wrappers so repr stays plain
            t, p, dV = float(tk.t), float(tk.p), float(tk.dV)
        except (AttributeError, TypeError, ValueError):
            raise InputError(f"ticks must be Ticks (t, p, dV), got "
                             f"{tk!r}") from None
        fh.write(f"{t!r},{p!r},{dV!r}\n")
