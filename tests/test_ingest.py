import io

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
    with pytest.raises(InputError, match="line 2: non-finite"):
        parse_csv(io.StringIO(f"1,100.0,5\n{row}\n3,101.0,5\n"))


def test_overflowing_time_step_names_the_line():
    with pytest.raises(InputError, match="line 2: non-finite time step"):
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


def test_out_of_order_rows_name_the_line():
    body = "0,100,1\n5,100,1\n3,100,1\n"
    with pytest.raises(InputError, match="line 3"):
        parse_csv(io.StringIO(body))


def test_equal_times_are_allowed():
    body = "1,100,1\n1,101,2\n1,99,3\n"
    assert len(parse_csv(io.StringIO(body))) == 3


def test_negative_price_names_the_line():
    with pytest.raises(InputError, match="line 2"):
        parse_csv(io.StringIO("0,100,1\n1,-4,1\n"))


def test_zero_price_rejected():
    with pytest.raises(InputError, match="price"):
        parse_csv(io.StringIO("0,0.0,1\n"))


def test_negative_shares_names_the_line():
    with pytest.raises(InputError, match="line 1"):
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
