import io
from datetime import datetime, timezone

import pytest

from psima import InputError, Tick, parse_csv, serialize_csv
from psima.synth import steady


def test_two_row_literal():
    ticks = parse_csv(io.StringIO("0,100.0,50\n1,101.0,30"))
    assert ticks == [Tick(t=0.0, p=100.0, dV=50.0),
                     Tick(t=1.0, p=101.0, dV=30.0)]


def test_header_line_is_skipped():
    body = "time,price,shares\n0,100.0,50\n1,101.0,30\n"
    assert len(parse_csv(io.StringIO(body))) == 2


def test_headerless_numeric_first_row_is_data():
    ticks = parse_csv(io.StringIO("3.5,99.25,0\n"))
    assert ticks == [Tick(t=3.5, p=99.25, dV=0.0)]


def test_blank_lines_ignored():
    body = "\n0,100,1\n\n2,101,2\n\n"
    assert len(parse_csv(io.StringIO(body))) == 2


@pytest.mark.parametrize("body", [
    "\ufeff0,100.0,50\n1,101.0,30\n",                     # headerless
    "\ufefftime,price,shares\n0,100.0,50\n1,101.0,30\n",  # with header
    "\ntime,price,shares\n0,100.0,50\n1,101.0,30\n",      # blank first
    " \n\n time,price,shares\n0,100.0,50\n1,101.0,30\n",
    "\ufeff\n\ntime,price,shares\n0,100.0,50\n1,101.0,30\n",
])
def test_byte_order_mark_and_leading_blank_lines(tmp_path, body):
    # spreadsheets' "CSV UTF-8" begins with a byte-order mark, and the
    # header is the first nonblank line wherever it falls
    plain = [Tick(0.0, 100.0, 50.0), Tick(1.0, 101.0, 30.0)]
    assert parse_csv(io.StringIO(body)) == plain
    path = tmp_path / "tape.csv"
    path.write_text(body, encoding="utf-8")
    assert parse_csv(path) == plain


@pytest.mark.parametrize("body", ["0,100.0,50\ntime,price,shares\n",
                                  "0,100.0,50\n\ufeff1,101.0,30\n"])
def test_a_header_or_byte_order_mark_after_the_first_row_is_refused(body):
    with pytest.raises(InputError, match="line 2: bad time"):
        parse_csv(io.StringIO(body))


def test_time_of_day_with_date():
    body = "09:30:00.250,100.0,10\n09:30:01,101.0,20\n"
    ticks = parse_csv(io.StringIO(body), date="2024-03-05")
    assert ticks[1].t - ticks[0].t == pytest.approx(0.75, abs=1e-9)
    # 2024-03-05T09:30:00.25Z as epoch seconds
    assert ticks[0].t == pytest.approx(1709631000.25, abs=1e-6)


@pytest.mark.parametrize("row", ["nan,100.0,10", "2,inf,10", "2,100.0,nan",
                                 "2,100.0,-inf", "2,100.0,inf",
                                 "2,1e200,1e200"])    # p * p * dV overflows
def test_non_finite_values_name_the_line(row):
    message = ("price \\* price \\* shares of a tick" if "e200" in row
               else "tick times, prices and shares")
    with pytest.raises(InputError, match=f"^line 2: {message} must be finite$"):
        parse_csv(io.StringIO(f"1,100.0,5\n{row}\n3,101.0,5\n"))


def test_overflowing_time_step_names_the_line():
    with pytest.raises(InputError, match="^line 2: the time step from one "
                                         "tick to the next must be finite$"):
        parse_csv(io.StringIO("-1e308,100.0,5\n1e308,100.0,5\n"))


def test_time_of_day_without_date_errors():
    with pytest.raises(InputError, match="--date"):
        parse_csv(io.StringIO("09:30:00,100.0,10\n"))


def test_time_of_day_out_of_range():
    with pytest.raises(InputError, match="line 1"):
        parse_csv(io.StringIO("25:00:00,100.0,10\n"), date="2024-03-05")


def test_bad_date_string():
    with pytest.raises(InputError):
        parse_csv(io.StringIO("09:30:00,100.0,10\n"), date="not-a-date")


def test_bad_date_names_the_first_time_of_day_line():
    # epoch lines never read the date; the first time-of-day line does
    body = "time,price,shares\n1709631000,100.0,10\n09:30:01,100.0,10\n"
    with pytest.raises(InputError, match="^line 3: .*not-a-date"):
        parse_csv(io.StringIO(body), date="not-a-date")
    with pytest.raises(InputError, match="^line 3: .*--date"):
        parse_csv(io.StringIO(body))
    assert len(parse_csv(io.StringIO(body.rsplit("\n", 2)[0]),
                         date="not-a-date")) == 1


def test_time_of_day_bits_match_the_datetime_sum():
    body = "".join(f"{h:02d}:{m:02d}:{s:06.3f},100.0,10\n"
                   for h, m, s in ((0, 0, 0.0), (9, 30, 0.25), (9, 30, 59.999),
                                   (23, 59, 59.5)))
    got = [tk.t for tk in parse_csv(io.StringIO(body), date="2024-03-05")]
    day = datetime(2024, 3, 5, tzinfo=timezone.utc)
    want = [day.timestamp() + h * 3600 + m * 60 + s
            for h, m, s in ((0, 0, 0.0), (9, 30, 0.25), (9, 30, 59.999),
                            (23, 59, 59.5))]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_out_of_order_rows_name_the_line():
    body = "0,100,1\n5,100,1\n3,100,1\n"
    with pytest.raises(InputError,
                       match="^line 3: tick times must be nondecreasing$"):
        parse_csv(io.StringIO(body))


def test_equal_times_are_allowed():
    body = "1,100,1\n1,101,2\n1,99,3\n"
    assert len(parse_csv(io.StringIO(body))) == 3


SIGN = "tick prices must be positive and shares nonnegative$"


def test_negative_price_names_the_line():
    with pytest.raises(InputError, match=f"^line 2: {SIGN}"):
        parse_csv(io.StringIO("0,100,1\n1,-4,1\n"))


def test_zero_price_rejected():
    with pytest.raises(InputError, match=f"^line 1: {SIGN}"):
        parse_csv(io.StringIO("0,0.0,1\n"))


def test_negative_shares_names_the_line():
    with pytest.raises(InputError, match=f"^line 1: {SIGN}"):
        parse_csv(io.StringIO("0,100,-5\n"))


def test_zero_shares_rows_are_kept():
    ticks = parse_csv(io.StringIO("0,100,0\n1,100,0\n"))
    assert [tk.dV for tk in ticks] == [0.0, 0.0]


def test_malformed_row_wrong_column_count():
    with pytest.raises(InputError, match="line 2"):
        parse_csv(io.StringIO("0,100,1\n1,100\n"))


def test_malformed_row_bad_number():
    with pytest.raises(InputError, match="line 2"):
        parse_csv(io.StringIO("0,100,1\n1,abc,1\n"))


def test_malformed_time_field():
    with pytest.raises(InputError, match="line 1"):
        parse_csv(io.StringIO("zzz,100,1\n"))


def test_parse_from_path(tmp_path):
    path = tmp_path / "tape.csv"
    path.write_text("time,price,shares\n0,100.0,50\n", encoding="utf-8")
    assert parse_csv(path) == [Tick(t=0.0, p=100.0, dV=50.0)]


def test_serialize_writes_header_and_roundtrips(tmp_path):
    ticks = [Tick(t=0.125, p=100.0625, dV=50.0), Tick(t=1.5, p=99.5, dV=0.0)]
    path = tmp_path / "out.csv"
    serialize_csv(ticks, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "time,price,shares"
    assert parse_csv(path) == ticks


def test_roundtrip_million_rows(tmp_path):
    # one long synthetic day; shortest-repr floats must survive both hops
    ticks = steady(rate=1.0, flow=80.0, price=101.01, duration=1e6, seed=3)
    assert len(ticks) > 9 * 10**5
    path = tmp_path / "big.csv"
    serialize_csv(ticks, path)
    once = parse_csv(path)
    assert once == ticks
    buf = io.StringIO()
    serialize_csv(once, buf)
    again = parse_csv(io.StringIO(buf.getvalue()))
    assert again == once
