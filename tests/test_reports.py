from __future__ import annotations

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geodetic import (
    ReportError,
    dump_report,
    iter_findings,
    load_report,
    make_report,
    read_findings,
    write_findings,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)


class TestReportObjects:
    def test_make_report_stamps_schema(self):
        report = make_report("classify", {"k": 1})
        assert report == {"schema": "geodetic-report/1", "command": "classify", "k": 1}

    def test_round_trip(self):
        report = make_report("sweep", {"total": 6, "findings": [{"spec": "x"}]})
        assert load_report(dump_report(report)) == report

    @given(st.dictionaries(st.text(min_size=1, max_size=6), json_values, max_size=4))
    def test_round_trip_arbitrary_payload(self, payload):
        payload.pop("schema", None)
        payload.pop("command", None)
        report = make_report("probe", payload)
        assert load_report(dump_report(report)) == report

    def test_rejects_invalid_json(self):
        with pytest.raises(ReportError, match="not valid JSON"):
            load_report("{nope")

    def test_rejects_non_object(self):
        with pytest.raises(ReportError, match="must be a JSON object"):
            load_report("[1, 2]")

    def test_rejects_wrong_schema(self):
        with pytest.raises(ReportError, match="unsupported schema 'other/9'"):
            load_report(json.dumps({"schema": "other/9", "command": "x"}))

    def test_rejects_missing_command(self):
        with pytest.raises(ReportError, match="missing its command"):
            load_report(json.dumps({"schema": "geodetic-report/1"}))


class TestFindingsFiles:
    def test_round_trip(self, tmp_path):
        records = [{"spec": "a", "consistent": True}, {"spec": "b", "consistent": False}]
        path = tmp_path / "findings.json"
        with open(path, "w") as out:
            written = write_findings(out, {"L_max": 3}, iter(records))
        assert written == 2
        header, back = read_findings(path)
        assert header["schema"] == "geodetic-report/1"
        assert header["command"] == "sweep-findings"
        assert header["L_max"] == 3
        assert back == records

    def test_header_line_comes_first(self):
        out = io.StringIO()
        write_findings(out, {"L_max": 2}, [{"spec": "x"}])
        first, second = out.getvalue().splitlines()
        assert json.loads(first)["command"] == "sweep-findings"
        assert json.loads(second) == {"spec": "x"}

    def test_empty_records_still_has_header(self, tmp_path):
        path = tmp_path / "empty.json"
        with open(path, "w") as out:
            assert write_findings(out, {"L_max": 2}, []) == 0
        header, records = read_findings(path)
        assert header["L_max"] == 2 and records == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gappy.json"
        header = json.dumps(make_report("sweep-findings", {}))
        path.write_text(header + "\n\n" + json.dumps({"spec": "x"}) + "\n\n")
        _, records = read_findings(path)
        assert records == [{"spec": "x"}]

    def test_bad_record_reports_line_number(self, tmp_path):
        path = tmp_path / "broken.json"
        header = json.dumps(make_report("sweep-findings", {}))
        path.write_text(header + "\n{}\n{oops\n")
        with pytest.raises(ReportError, match="line 3: not valid JSON"):
            read_findings(path)

    def test_bad_header_is_rejected(self, tmp_path):
        path = tmp_path / "noheader.json"
        path.write_text(json.dumps({"spec": "x"}) + "\n")
        with pytest.raises(ReportError, match="unsupported schema"):
            read_findings(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "void.json"
        path.write_text("")
        with pytest.raises(ReportError, match="no header line"):
            read_findings(path)

    def test_file_that_is_not_utf8_is_rejected(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(make_report("sweep-findings", {})).encode())
        with pytest.raises(ReportError, match="line 1: not UTF-8 text"):
            read_findings(path)

    def test_iter_findings_streams_up_to_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "garbled.json"
        header = json.dumps(make_report("sweep-findings", {}))
        path.write_bytes(f'{header}\n{{"spec": "a"}}\n'.encode() + b'{"spec": "\xff"}\n')
        records = iter_findings(path)
        assert next(records) == {"spec": "a"}
        with pytest.raises(ReportError, match="line 3: not UTF-8 text"):
            next(records)

    def test_iter_findings(self, tmp_path):
        path = tmp_path / "findings.json"
        with open(path, "w") as out:
            write_findings(out, {"L_max": 2}, [{"spec": "a"}, {"spec": "b"}])
        assert [r["spec"] for r in iter_findings(path)] == ["a", "b"]

    def test_iter_findings_streams_up_to_a_cut_off_line(self, tmp_path):
        path = tmp_path / "cut.json"
        header = json.dumps(make_report("sweep-findings", {}))
        path.write_text(header + "\n" + json.dumps({"spec": "a"}) + '\n{"spec": "b", "cons')
        records = iter_findings(path)
        assert next(records) == {"spec": "a"}
        with pytest.raises(ReportError, match="line 3: not valid JSON"):
            next(records)
