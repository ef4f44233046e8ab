import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regimelab.dataio import (
    MonthlyPanel,
    build_panel,
    load_exposure_csv,
    load_monthly_csv,
    load_price_csv,
    write_table,
)

from conftest import read_table


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadPriceCsv:
    def test_minimal_two_row_file(self, tmp_path):
        f = write_lines(tmp_path / "p.csv", ["date,close", "2020-01-02,100.0", "2020-01-03,101.0"])
        path = load_price_csv(f)
        assert len(path) == 2
        assert path.closes[1] == 101.0
        assert str(path.dates[0]) == "2020-01-02"

    def test_zero_close_names_row(self, tmp_path):
        rows = ["date,close"] + [f"2020-01-{d:02d},100" for d in range(2, 5)] + ["2020-01-06,0.0"]
        f = write_lines(tmp_path / "p.csv", rows)
        with pytest.raises(ValueError, match="row 5"):
            load_price_csv(f)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_price_csv(tmp_path / "nope.csv")

    def test_unsorted_rows_sorted_with_warning(self, tmp_path):
        f = write_lines(
            tmp_path / "p.csv",
            ["date,close", "2020-01-03,101.0", "2020-01-02,100.0", "2020-01-06,102.0"],
        )
        with pytest.warns(UserWarning, match="out-of-order"):
            path = load_price_csv(f)
        assert list(path.closes) == [100.0, 101.0, 102.0]

    def test_shuffled_rows_give_identical_path(self, tmp_path):
        rng = np.random.default_rng(3)
        dates = np.datetime64("2019-05-01") + np.arange(40)
        closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, 40)))
        rows = [f"{d},{float(c)!r}" for d, c in zip(dates, closes)]
        f1 = write_lines(tmp_path / "a.csv", ["date,close"] + rows)
        perm = rng.permutation(40)
        f2 = write_lines(tmp_path / "b.csv", ["date,close"] + [rows[i] for i in perm])
        a = load_price_csv(f1)
        with pytest.warns(UserWarning):
            b = load_price_csv(f2)
        assert np.array_equal(a.dates, b.dates)
        assert np.array_equal(a.closes, b.closes)

    def test_duplicate_date_rejected(self, tmp_path):
        f = write_lines(
            tmp_path / "p.csv", ["date,close", "2020-01-02,100", "2020-01-02,101", "2020-01-03,102"]
        )
        with pytest.raises(ValueError, match="duplicate date"):
            load_price_csv(f)

    def test_bad_header_rejected(self, tmp_path):
        f = write_lines(tmp_path / "p.csv", ["day,px", "2020-01-02,100", "2020-01-03,101"])
        with pytest.raises(ValueError, match="header"):
            load_price_csv(f)


class TestLoadMonthlyCsv:
    def test_three_consecutive_months(self, tmp_path):
        f = write_lines(
            tmp_path / "m.csv",
            ["month,margin_debt,vix", "2020-03,500,30.0", "2020-04,510,28.1", "2020-05,520,25.5"],
        )
        table = load_monthly_csv(f)
        assert len(table.months) == 3
        assert table.margin_debt[2] == 520.0

    def test_gap_lists_missing_month(self, tmp_path):
        f = write_lines(
            tmp_path / "m.csv",
            ["month,margin_debt,vix", "2020-03,500,30.0", "2020-04,510,28.1", "2020-06,520,25.5"],
        )
        with pytest.raises(ValueError, match="2020-05"):
            load_monthly_csv(f)

    def test_gap_across_year_boundary(self, tmp_path):
        f = write_lines(
            tmp_path / "m.csv",
            ["month,margin_debt,vix", "2019-11,500,30.0", "2020-02,510,28.1"],
        )
        with pytest.raises(ValueError) as err:
            load_monthly_csv(f)
        assert "2019-12" in str(err.value) and "2020-01" in str(err.value)

    def test_duplicate_month_rejected(self, tmp_path):
        f = write_lines(
            tmp_path / "m.csv",
            ["month,margin_debt,vix", "2020-03,500,30.0", "2020-03,501,29.0"],
        )
        with pytest.raises(ValueError, match="duplicate month"):
            load_monthly_csv(f)

    def test_nonpositive_value_names_row(self, tmp_path):
        f = write_lines(
            tmp_path / "m.csv",
            ["month,margin_debt,vix", "2020-03,500,30.0", "2020-04,-1,28.0"],
        )
        with pytest.raises(ValueError, match="row 3"):
            load_monthly_csv(f)


class TestLoadExposureCsv:
    def test_weekly_periods_no_gap_rule(self, tmp_path):
        f = write_lines(
            tmp_path / "c.csv",
            ["period,exposure,vol", "2020-01-03,50,20.0", "2020-01-17,52,19.0", "2020-01-10,51,18.0"],
        )
        with pytest.warns(UserWarning, match="sorted by period"):
            table = load_exposure_csv(f)
        assert table.months == ["2020-01-03", "2020-01-10", "2020-01-17"]
        assert list(table.margin_debt) == [50.0, 51.0, 52.0]


class TestWriteTable:
    def test_round_trip_byte_identical(self, tmp_path):
        rows = [{"name": "x", "value": 1.2345678912345, "count": 7, "flag": True, "miss": None}]
        p1 = tmp_path / "t1.csv"
        p2 = tmp_path / "t2.csv"
        write_table(rows, p1)
        write_table(read_table(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rows_error(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            write_table([], tmp_path / "t.csv")

    def test_ten_significant_digits(self, tmp_path):
        p = tmp_path / "t.csv"
        write_table([{"v": 0.123456789123456789}], p)
        assert p.read_text().splitlines()[1] == "0.1234567891"

    def test_unwritable_path_fatal(self, tmp_path):
        with pytest.raises(OSError):
            write_table([{"a": 1}], tmp_path / "no" / "such" / "dir" / "t.csv")

    def test_mismatched_row_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="same column order"):
            write_table([{"a": 1}, {"b": 2}], tmp_path / "t.csv")

    def test_json_mirrors_csv_columns(self, tmp_path):
        rows = [{"a": 1.5, "b": "x"}, {"a": 2.0, "b": "y"}]
        pj = tmp_path / "t.json"
        write_table(rows, pj, format="json")
        back = read_table(pj)
        assert back == [{"a": 1.5, "b": "x"}, {"a": 2.0, "b": "y"}]

    @pytest.mark.parametrize("earlier", [True, False], ids=["over-a-table", "new"])
    def test_failed_json_write_leaves_no_partial_table(self, tmp_path, earlier):
        # json.dump has written the first rows when it meets the object() cell
        p = tmp_path / "t.json"
        if earlier:
            write_table([{"a": 1.5}], p, format="json")
            before = p.read_bytes()
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_table([{"a": float(i)} for i in range(500)] + [{"a": object()}], p, format="json")
        assert [f.name for f in tmp_path.iterdir()] == (["t.json"] if earlier else [])
        if earlier:
            assert p.read_bytes() == before

    def test_interrupted_csv_write_leaves_the_earlier_table(self, tmp_path):
        class Interrupting:
            def __str__(self):
                raise KeyboardInterrupt

        p = tmp_path / "t.csv"
        write_table([{"a": 1}], p)
        with pytest.raises(KeyboardInterrupt):
            write_table([{"a": 2}, {"a": Interrupting()}], p)
        assert [f.name for f in tmp_path.iterdir()] == ["t.csv"]
        assert p.read_text() == "a\n1\n"

    def test_table_mode_as_a_file_opened_for_writing(self, tmp_path):
        p, ref = tmp_path / "t.csv", tmp_path / "ref"
        write_table([{"a": 1}], p)
        with open(ref, "w"):
            pass
        assert p.stat().st_mode == ref.stat().st_mode

    def test_unequal_column_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unequal length"):
            write_table({"month": ["2001-01"], "level": np.array([1.5, 2.0])}, tmp_path / "t.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("table", [{"a": [], "b": np.array([])}, {}], ids=["empty-columns", "no-columns"])
    def test_column_table_with_no_rows_rejected(self, tmp_path, table):
        with pytest.raises(ValueError, match="no rows"):
            write_table(table, tmp_path / "t.csv")
        assert list(tmp_path.iterdir()) == []

    def test_columns_written_in_key_order(self, tmp_path):
        table = {"month": ["2001-01", "2001-02"], "level": np.array([1.5, 2.0]), "flag": np.array([0, 1])}
        write_table(table, tmp_path / "t.csv")
        write_table(table, tmp_path / "t.json", format="json")
        assert (tmp_path / "t.csv").read_text() == "month,level,flag\n2001-01,1.5,0\n2001-02,2,1\n"
        objects = json.loads((tmp_path / "t.json").read_text())
        assert [list(o) for o in objects] == [["month", "level", "flag"]] * 2
        assert objects[1] == {"month": "2001-02", "level": 2.0, "flag": 1}

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_array_list_and_numpy_scalar_rows_write_the_same_bytes(self, tmp_path, format):
        x, n, flag = [1.5, 1 / 3, -2e-12], [3, -2, 0], [True, False, True]
        tables = {
            "arrays": {"x": np.array(x), "n": np.array(n), "flag": np.array(flag)},
            "lists": {"x": x, "n": n, "flag": flag},
            "numpy-scalar-rows": [{"x": np.float64(a), "n": np.int64(b), "flag": np.bool_(c)}
                                  for a, b, c in zip(x, n, flag)],
        }
        written = {}
        for name, table in tables.items():
            write_table(table, tmp_path / f"{name}.{format}", format=format)
            written[name] = (tmp_path / f"{name}.{format}").read_bytes()
        assert len(set(written.values())) == 1, written
        if format == "csv":
            assert written["lists"] == b"x,n,flag\n1.5,3,1\n0.3333333333,-2,0\n-2e-12,0,1\n"
        else:
            assert json.loads(written["lists"]) == [{"x": 1.5, "n": 3, "flag": True},
                                                    {"x": 0.3333333333, "n": -2, "flag": False},
                                                    {"x": -2e-12, "n": 0, "flag": True}]

    def test_headline_schema_golden(self, tmp_path):
        # fixed column schema for the headline result table
        from regimelab.dataio import build_panel
        from regimelab.econometrics import headline_regression
        from regimelab.intermediary import IntermediaryConfig, simulate, to_monthly_table

        sim = simulate(IntermediaryConfig(seed=7))
        fit = headline_regression(build_panel(to_monthly_table(sim)), lags=6)
        p = tmp_path / "headline.csv"
        write_table(fit.rows(), p)
        header = p.read_text().splitlines()[0]
        assert header == "coef,estimate,hac_se,t,p"
        names = [r["coef"] for r in read_table(p)]
        assert names == ["a", "a_S", "b", "b_S", "b_plus_bS"]


class TestPanel:
    def test_build_panel_flags_consistent(self):
        rng = np.random.default_rng(0)
        months = [f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(60)]
        margin = 100 * np.exp(0.01 * np.arange(60)) * (1 + 0.02 * rng.standard_normal(60))
        vol = 15 + 10 * rng.random(60)
        panel = build_panel(
            __import__("regimelab.dataio", fromlist=["MonthlyTable"]).MonthlyTable(months, margin, vol)
        )
        assert int(np.sum(panel.regime)) == int(np.sum(panel.vol_proxy > panel.threshold))

    def test_inconsistent_flags_rejected(self):
        months = ["2020-01", "2020-02", "2020-03"]
        with pytest.raises(ValueError, match="regime flag count"):
            MonthlyPanel(
                months=months,
                margin_debt=np.ones(3),
                vol_proxy=np.array([1.0, 2.0, 3.0]),
                detrended=np.ones(3),
                regime=np.array([1, 1, 1]),
                threshold=2.5,
                q=0.10,
            )


# kind -> (loader, header, first key, key step); keys are consecutive, so every
# generated file also passes the monthly gap rule
SCHEMAS = {
    "price": (load_price_csv, "date,close", np.datetime64("2020-01-02"), 1),
    "monthly": (load_monthly_csv, "month,margin_debt,vix", np.datetime64("2019-11"), 1),
    "exposure": (load_exposure_csv, "period,exposure,vol", np.datetime64("2020-01-03"), 7),
}


def good_lines(kind, values=None, n=5):
    """Header plus one valid row per tuple of values (default: n rows)."""
    _, header, start, step = SCHEMAS[kind]
    width = header.count(",")
    if values is None:
        values = [tuple(100.0 + i + j for j in range(width)) for i in range(n)]
    return [header] + [",".join([str(start + step * i), *map(repr, row)]) for i, row in enumerate(values)]


def loaded(kind, path):
    """The loader's result as plain lists, for equality checks."""
    return [np.asarray(f).tolist() for f in dataclasses.astuple(SCHEMAS[kind][0](path))]


def replace_field(line, j, text):
    fields = line.split(",")
    fields[j] = text
    return ",".join(fields)


class TestOneRuleSet:
    """The three loaders share one reader and so one set of rules."""

    @pytest.mark.parametrize("kind", SCHEMAS)
    def test_utf8_bom_accepted(self, tmp_path, kind):
        lines = good_lines(kind)
        plain = write_lines(tmp_path / "a.csv", lines)
        bom = tmp_path / "b.csv"
        bom.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
        assert loaded(kind, bom) == loaded(kind, plain)

    @pytest.mark.parametrize("kind", SCHEMAS)
    @pytest.mark.parametrize("change", ["short", "long"])
    def test_wrong_field_count_names_row(self, tmp_path, kind, change):
        lines = good_lines(kind)
        width = lines[0].count(",") + 1
        lines[2] = lines[2].rsplit(",", 1)[0] if change == "short" else lines[2] + ",1"
        got = width - 1 if change == "short" else width + 1
        f = write_lines(tmp_path / "f.csv", lines)
        with pytest.raises(ValueError, match=rf"row 3: expected {width} fields, got {got}"):
            SCHEMAS[kind][0](f)

    @pytest.mark.parametrize("kind", SCHEMAS)
    @pytest.mark.parametrize("key", ["", "NaT", "  "])
    def test_missing_key_names_row(self, tmp_path, kind, key):
        lines = good_lines(kind)
        lines[3] = replace_field(lines[3], 0, key)
        f = write_lines(tmp_path / "f.csv", lines)
        with pytest.raises(ValueError, match="row 4: bad"):
            SCHEMAS[kind][0](f)

    @pytest.mark.parametrize("kind", SCHEMAS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "", "0", "-2.5", "x"])
    def test_bad_value_names_row(self, tmp_path, kind, value):
        lines = good_lines(kind)
        lines[2] = replace_field(lines[2], -1, value)
        f = write_lines(tmp_path / "f.csv", lines)
        with pytest.raises(ValueError, match="row 3: bad .*positive finite number"):
            SCHEMAS[kind][0](f)

    @pytest.mark.parametrize(
        "kind, key",
        [("price", "2020-01"), ("price", "20200104"), ("price", "2020-01-04T12"),
         ("monthly", "2020-1"), ("monthly", "2020-01-01"), ("monthly", "2020-13")],
    )
    def test_key_must_read_back_as_written(self, tmp_path, kind, key):
        lines = good_lines(kind)
        lines[4] = replace_field(lines[4], 0, key)
        f = write_lines(tmp_path / "f.csv", lines)
        with pytest.raises(ValueError, match="row 5: bad"):
            SCHEMAS[kind][0](f)

    def test_duplicate_period_names_row(self, tmp_path):
        lines = good_lines("exposure")
        lines[4] = replace_field(lines[4], 0, lines[1].split(",")[0])
        f = write_lines(tmp_path / "f.csv", lines)
        with pytest.warns(UserWarning, match="sorted by period"):
            with pytest.raises(ValueError, match="row 5: duplicate period 2020-01-03"):
                load_exposure_csv(f)

    @pytest.mark.parametrize("line", [0, 3])
    def test_oversized_field_names_row(self, tmp_path, line):
        lines = good_lines("price")
        lines[line] = replace_field(lines[line], 1, "1" * 200_000)
        f = write_lines(tmp_path / "f.csv", lines)
        with pytest.raises(ValueError, match=rf"f\.csv: row {line + 1}: field larger than field limit"):
            load_price_csv(f)

    def test_non_utf8_byte_names_file(self, tmp_path):
        f = write_lines(tmp_path / "f.csv", good_lines("price"))
        f.write_bytes(f.read_bytes().replace(b"2020", b"\xff020", 1))
        with pytest.raises(ValueError) as err:
            load_price_csv(f)
        assert str(f) in str(err.value) and "not UTF-8" in str(err.value)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        lines = good_lines("price")
        lines.insert(2, "")
        f = write_lines(tmp_path / "f.csv", lines)
        assert len(load_price_csv(f)) == 5
        lines[5] = replace_field(lines[5], 1, "nan")
        write_lines(f, lines)
        with pytest.raises(ValueError, match="row 6: bad close"):
            load_price_csv(f)


CLEAN = ("crlf", "bom", "space")
BREAKING = ("short", "long", "value", "key")


class TestFuzz:
    """A perturbed valid file loads as the original did, or the error names the perturbed line."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), kind=st.sampled_from(sorted(SCHEMAS)), n=st.integers(2, 8),
           change=st.sampled_from(CLEAN + BREAKING))
    def test_perturbed_file(self, tmp_path, data, kind, n, change):
        width = SCHEMAS[kind][1].count(",")
        positive = st.floats(min_value=1e-6, max_value=1e12)
        values = data.draw(st.lists(st.tuples(*[positive] * width), min_size=n, max_size=n))
        lines = good_lines(kind, values)
        f = tmp_path / "f.csv"
        write_lines(f, lines)
        expected = loaded(kind, f)

        r = data.draw(st.integers(0 if change == "space" else 1, n))
        text = "\n".join(lines) + "\n"
        if change == "crlf":
            text = text.replace("\n", "\r\n")
        elif change == "bom":
            text = "\ufeff" + text
        else:
            fields = lines[r].split(",")
            if change == "space":
                pad = st.sampled_from([" ", "\t", "  "])
                fields = [data.draw(pad) + x + data.draw(pad) for x in fields]
            elif change == "short":
                fields = fields[:-1]
            elif change == "long":
                fields.append("1.0")
            elif change == "value":
                j = data.draw(st.integers(1, width))
                fields[j] = data.draw(st.sampled_from(["nan", "inf", "", "NaN", "-1", "0"]))
            else:
                fields[0] = data.draw(st.sampled_from(["", "NaT", " "]))
            lines[r] = ",".join(fields)
            text = "\n".join(lines) + "\n"
        f.write_text(text, encoding="utf-8")

        if change in CLEAN:
            assert loaded(kind, f) == expected
        else:
            with pytest.raises(ValueError, match=rf"row {r + 1}\b"):
                SCHEMAS[kind][0](f)
