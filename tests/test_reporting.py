"""Flat-file output: CSV discipline and the SVG emitter."""

import math

import pytest

from ergokit import DomainError
from ergokit.reporting import emit_csv, format_value, svg_line_chart
from golden_outputs import parse_csv


def test_format_value_significant_digits():
    assert format_value(1.0) == "1"
    assert format_value(1 / 3) == "0.333333333333"
    assert format_value(None) == ""
    assert format_value(12) == "12"
    assert format_value(math.pi * 1e-7) == "3.14159265359e-07"


def test_format_value_rejects_separators():
    with pytest.raises(DomainError):
        format_value("a,b")


def test_csv_header_and_round_trip(tmp_path):
    columns = ("n", "value", "label")
    rows = [
        {"n": 1, "value": 0.25, "label": "ok"},
        {"n": 2, "value": 1.0 / 3.0, "label": None},
    ]
    text = emit_csv(columns, rows, tmp_path / "t.csv")
    assert text.startswith("# n,value,label")
    parsed_cols, parsed_rows = parse_csv(tmp_path / "t.csv")
    assert parsed_cols == list(columns)
    assert parsed_rows[0]["n"] == 1
    assert parsed_rows[1]["label"] is None
    # re-emission is byte-identical and values agree at the emitted precision
    again = emit_csv(columns, parsed_rows)
    assert again == text
    assert parsed_rows[1]["value"] == pytest.approx(rows[1]["value"], rel=1e-11)
    assert parsed_rows[0]["value"] == rows[0]["value"]


def test_parse_requires_header():
    with pytest.raises(ValueError):
        parse_csv("a,b\n1,2\n")


def test_parse_rejects_ragged_rows():
    with pytest.raises(ValueError):
        parse_csv("# a,b\n1,2,3\n")


def test_svg_chart_contains_polylines(tmp_path):
    path = tmp_path / "chart.svg"
    text = svg_line_chart(
        [("one", [1, 2, 3], [0.1, 0.5, 0.9]), ("two", [1, 2, 3], [0.9, 0.5, 0.1])],
        path=path, title="demo", x_label="n", y_label="ratio",
    )
    assert path.exists()
    assert text.count("<polyline") == 2
    assert text.startswith("<svg")
    assert "demo" in text


def test_svg_rejects_empty_series():
    with pytest.raises(DomainError):
        svg_line_chart([("empty", [], [])])
