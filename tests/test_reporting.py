"""Report emitters."""

import csv
import io
import json
from dataclasses import asdict, dataclass, is_dataclass

import pytest

from repro.experiments.reporting import rows_to_csv, rows_to_json
from repro.experiments.table2 import Table2Row


@dataclass
class Row:
    name: str
    value: float


class TestCsv:
    def test_dataclass_rows(self):
        text = rows_to_csv([Row("a", 1.5), Row("b", 2.0)])
        lines = text.strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "a,1.5"

    def test_mapping_rows(self):
        text = rows_to_csv([{"x": 1, "y": 2}])
        assert "x,y" in text

    def test_empty(self):
        assert rows_to_csv([]) == ""

    def test_writes_file(self, tmp_path):
        path = tmp_path / "out.csv"
        rows_to_csv([Row("a", 1.0)], path=str(path))
        assert path.read_text().startswith("name,value")

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            rows_to_csv([object()])


def dictwriter_csv(rows) -> str:
    """The CSV ``rows_to_csv`` wrote before it moved to ``csv.writer``:
    ``asdict`` per row through ``csv.DictWriter``."""
    dicts = [asdict(row) if is_dataclass(row) else dict(row) for row in rows]
    buffer = io.StringIO()
    if dicts:
        writer = csv.DictWriter(buffer, fieldnames=list(dicts[0]))
        writer.writeheader()
        writer.writerows(dicts)
    return buffer.getvalue()


@dataclass
class Quoted:
    label: str
    note: str | None
    count: int
    ratio: float
    flag: bool
    nodes: tuple


def table2_rows():
    return [
        Table2Row("s27", 10, 0.12, 1.5, 3.25, 0.5, 12.0, 3.0),
        Table2Row("c17", 6, 1e-3, 2e-7, -0.0, 1.0 / 3.0, 1e300, float("inf"),
                  n_accuracy_sites=6, mean_abs_dif=0.1, sim_vectors=300),
    ]


class TestCsvMatchesDictWriter:
    @pytest.mark.parametrize("rows", [
        pytest.param([Row("a", 1.5), Row("b", 2.0), Row("c", -0.0)], id="dataclass"),
        pytest.param(
            [{"x": 1, "y": "two"}, {"x": 3.5, "y": None}, {"y": "only y"}],
            id="mapping",
        ),
        pytest.param(table2_rows(), id="table2"),
        pytest.param([
            Quoted('comma, inside', 'say "hi"', 3, 0.1, True, ("a", "b")),
            Quoted("line\nbreak", None, -1, float("nan"), False, ()),
            Quoted(" padded ", "semi;colon", 0, 1e-300, True, ("x,y",)),
        ], id="quoting"),
        pytest.param([Row("a", 1.0), {"name": "b", "value": 2}], id="mixed"),
    ])
    def test_byte_identical(self, rows):
        assert rows_to_csv(rows) == dictwriter_csv(rows)

    def test_node_ser_rows(self):
        from repro.core.analysis import SERAnalyzer
        from repro.netlist.library import s27

        rows = SERAnalyzer(s27()).analyze().ranked()
        assert rows_to_csv(rows) == dictwriter_csv(rows)

    def test_extra_field_raises_like_dictwriter(self):
        rows = [{"x": 1}, {"x": 2, "z": 3}]
        with pytest.raises(ValueError, match="fields not in fieldnames: 'z'"):
            dictwriter_csv(rows)
        with pytest.raises(ValueError, match="fields not in fieldnames: 'z'"):
            rows_to_csv(rows)

    def test_accepts_any_iterable(self):
        rows = [Row("a", 1.5), Row("b", 2.0)]
        assert rows_to_csv(iter(rows)) == dictwriter_csv(rows)


class TestJson:
    def test_round_trips(self):
        rows = [Row("a", 1.5)]
        decoded = json.loads(rows_to_json(rows))
        assert decoded == [{"name": "a", "value": 1.5}]

    def test_writes_file(self, tmp_path):
        path = tmp_path / "out.json"
        rows_to_json([{"k": "v"}], path=str(path))
        assert json.loads(path.read_text()) == [{"k": "v"}]

