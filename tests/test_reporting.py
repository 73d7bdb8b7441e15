import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from relu_bandits import (
    AggregateResult,
    TrialTrace,
    aggregate,
    emit_svg,
    export_csv,
    write_summary,
)
from relu_bandits import reporting

from oracles import export_csv_reference, points_reference


def trace(tag="alg", seed=0, vals=(0.25, 1.5)):
    n = len(vals)
    inst = np.asarray(vals, dtype=float)
    return TrialTrace(
        algorithm=tag,
        seed=seed,
        t=np.arange(1, n + 1),
        chosen=np.zeros(n, dtype=np.int64),
        rewards=inst * 0.125 + 1.0 / 3.0,
        inst_regret=inst,
        cum_regret=np.cumsum(inst),
    )


def agg_pair():
    a = aggregate([trace("a", 0, (1.0, 2.0)), trace("a", 1, (2.0, 1.0))])
    b = aggregate([trace("b", 0, (0.5, 0.5)), trace("b", 1, (1.5, 0.5))])
    return [a, b]


class TestExportCsvTraces:
    def test_schema_and_rows(self, tmp_path):
        p = tmp_path / "traces.csv"
        export_csv([trace(seed=3), trace(seed=4)], p)
        rows = list(csv.reader(p.open()))
        assert rows[0] == ["algorithm", "seed", "t", "chosen_index", "reward", "inst_regret", "cum_regret"]
        assert len(rows) == 1 + 4  # two traces, two rounds each
        assert rows[1][0] == "alg" and rows[1][1] == "3" and rows[1][2] == "1"

    def test_round_trip_precision(self, tmp_path):
        p = tmp_path / "traces.csv"
        tr = trace(vals=(1.0 / 3.0, np.pi, 1e-7))
        export_csv([tr], p)
        rows = list(csv.reader(p.open()))[1:]
        got = np.array([float(r[6]) for r in rows])
        np.testing.assert_allclose(got, tr.cum_regret, atol=1e-9)
        got_r = np.array([float(r[4]) for r in rows])
        np.testing.assert_allclose(got_r, tr.rewards, atol=1e-9)

    def test_empty_list_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        export_csv([], p)
        rows = list(csv.reader(p.open()))
        assert rows == [["algorithm", "seed", "t", "chosen_index", "reward", "inst_regret", "cum_regret"]]

    def test_mixed_payload_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            export_csv([trace()] + agg_pair()[:1], tmp_path / "bad.csv")

    def test_io_error_names_path(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            export_csv([trace()], missing)


class TestExportCsvAggregates:
    def test_schema(self, tmp_path):
        p = tmp_path / "agg.csv"
        export_csv(agg_pair(), p)
        rows = list(csv.reader(p.open()))
        assert rows[0] == ["algorithm", "t", "mean_cum_regret", "ci_half"]
        assert len(rows) == 1 + 4
        assert {r[0] for r in rows[1:]} == {"a", "b"}

    def test_single_aggregate_accepted(self, tmp_path):
        p = tmp_path / "one.csv"
        export_csv(agg_pair()[:1], p)
        rows = list(csv.reader(p.open()))
        assert rows[1][0] == "a"
        assert float(rows[2][2]) == pytest.approx(3.0)  # mean of cum regrets 3 and 3


class TestEmitSvg:
    def test_structure(self, tmp_path):
        p = tmp_path / "plot.svg"
        emit_svg(agg_pair(), p)
        text = p.read_text()
        assert text.count('class="curve"') == 2
        assert text.count('class="band"') == 2
        assert "cumulative regret" in text and ">round<" in text
        assert text.startswith("<svg")

    def test_legend_names_algorithms(self, tmp_path):
        p = tmp_path / "plot.svg"
        emit_svg(agg_pair(), p)
        text = p.read_text()
        assert ">a</text>" in text and ">b</text>" in text

    def test_markup_in_a_label_is_escaped(self, tmp_path):
        label = "oful λ<0.1 & S"
        p = tmp_path / "plot.svg"
        emit_svg([agg_pair()[0], aggregate([trace(label, 0), trace(label, 1)])], p)
        root = ET.parse(p).getroot()  # a raw '<' or '&' would not parse
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-2:] == ["a", label]

    def test_byte_identical_reemission(self, tmp_path):
        aggs = agg_pair()
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(aggs, p1)
        emit_svg(aggs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], tmp_path / "x.svg")

    def test_io_error_names_path(self, tmp_path):
        with pytest.raises(OSError, match="plot.svg"):
            emit_svg(agg_pair(), tmp_path / "nope" / "plot.svg")


# labels csv must quote, and one the row format must not read as a format
ODD_LABELS = ["a,b", 'say "hi"', "two\nlines", "50% off", "plain"]
ODD_VALUES = np.array([-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1 + 0.2, -1.0 / 3.0])


def odd_trace(tag, seed):
    n = len(ODD_VALUES)
    return TrialTrace(
        algorithm=tag,
        seed=seed,
        t=np.arange(1, n + 1),
        chosen=np.arange(n)[::-1].copy(),
        rewards=ODD_VALUES.copy(),
        inst_regret=ODD_VALUES[::-1].copy(),
        cum_regret=ODD_VALUES * 3.0,
    )


def odd_aggregate(tag, values=ODD_VALUES):
    n = len(values)
    return AggregateResult(
        algorithm=tag, t=np.arange(1, n + 1), mean_cum_regret=values.copy(), ci_half=values[::-1].copy(), n_trials=2
    )


class TestWritersMatchReference:
    """The column-formatting writers write the bytes of the row-by-row ones in ``oracles``."""

    def assert_same_csv(self, data, tmp_path):
        export_csv(data, tmp_path / "got.csv")
        export_csv_reference(data, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_traces(self, tmp_path):
        self.assert_same_csv([odd_trace(tag, seed) for seed, tag in enumerate(ODD_LABELS)] + [trace()], tmp_path)

    def test_aggregates(self, tmp_path):
        self.assert_same_csv([odd_aggregate(tag) for tag in ODD_LABELS] + agg_pair(), tmp_path)

    def test_single_aggregate(self, tmp_path):
        self.assert_same_csv([odd_aggregate('say "hi"')], tmp_path)

    def test_empty_trace_list(self, tmp_path):
        self.assert_same_csv([], tmp_path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the bands of the non-finite set
    def test_svg(self, tmp_path, monkeypatch):
        aggs = [odd_aggregate(tag) for tag in ODD_LABELS] + agg_pair()
        finite = [odd_aggregate(tag, ODD_VALUES[np.isfinite(ODD_VALUES)]) for tag in ODD_LABELS] + agg_pair()
        for name, data in (("odd", aggs), ("finite", finite)):
            emit_svg(data, tmp_path / f"got-{name}.svg")
        monkeypatch.setattr(reporting, "_points", points_reference)
        for name, data in (("odd", aggs), ("finite", finite)):
            emit_svg(data, tmp_path / f"want-{name}.svg")
            assert (tmp_path / f"got-{name}.svg").read_bytes() == (tmp_path / f"want-{name}.svg").read_bytes()


class TestWriteSummary:
    def test_records(self, tmp_path):
        p = tmp_path / "summary.json"
        write_summary(agg_pair(), {"k": 3, "seed": 1}, p)
        data = json.loads(p.read_text())
        assert [rec["algorithm"] for rec in data] == ["a", "b"]
        rec = data[0]
        assert rec["T"] == 2 and rec["trials"] == 2
        assert rec["final_mean"] == pytest.approx(3.0)
        assert rec["final_ci_half"] >= 0.0
        assert rec["config_echo"] == {"k": 3, "seed": 1}

    def test_deterministic_bytes(self, tmp_path):
        aggs = agg_pair()
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        write_summary(aggs, {"b": 2, "a": 1}, p1)
        write_summary(aggs, {"a": 1, "b": 2}, p2)
        assert p1.read_bytes() == p2.read_bytes()
