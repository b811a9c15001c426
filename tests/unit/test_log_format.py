"""Tests for the Table II log format (render + parse round trip)."""

import pickle

import numpy as np
import pytest

from repro.apilog.behavior_profiles import default_profile_library
from repro.apilog.log_format import ApiLog, LogRecord, format_line, parse_line
from repro.apilog.sandbox import Sandbox
from repro.apilog.source_sample import SourceSample
from repro.exceptions import SandboxError
from repro.features.extraction import CountExtractor


class TestFormatLine:
    def test_matches_table2_shape(self):
        record = LogRecord(api="GetFileType", address=0x7FEFDD39D0C, args=(),
                           thread_id=61468)
        assert format_line(record) == 'GetFileType:7FEFDD39D0C ()"61468"'

    def test_arguments_are_comma_joined(self):
        record = LogRecord(api="GetProcAddress", address=0x13FBC34D6,
                           args=("76D30000", '"FlsAlloc"'), thread_id=61484)
        assert format_line(record) == 'GetProcAddress:13FBC34D6 (76D30000,"FlsAlloc")"61484"'


class TestParseLine:
    def test_parses_table2_examples(self):
        record = parse_line('GetStartupInfoW:7FEFDD39C37 ()"61468"')
        assert record.api == "GetStartupInfoW"
        assert record.address == 0x7FEFDD39C37
        assert record.args == ()
        assert record.thread_id == 61468

    def test_parses_arguments(self):
        record = parse_line('GetProcAddress:13FBC34D6 (76D30000,"FlsAlloc")"61484"')
        assert record.args == ("76D30000", '"FlsAlloc"')

    def test_round_trip(self):
        original = LogRecord(api="WriteFile", address=0x13FBC4707,
                             args=("3C",), thread_id=1234)
        assert parse_line(format_line(original)) == original

    def test_leading_whitespace_tolerated(self):
        assert parse_line('  GetCPInfo:13FBC263D ()"61484"').api == "GetCPInfo"

    @pytest.mark.parametrize("line", [
        "", "garbage", "NoAddress ()\"1\"", "Api:XYZ ()\"1\"", "Api:1F (unclosed\"1\"",
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(SandboxError):
            parse_line(line)

    def test_canonical_api_lowercases(self):
        assert parse_line('WriteFile:1F ()"1"').canonical_api() == "writefile"


class TestApiLog:
    def _make_log(self):
        log = ApiLog(sample_id="s1", os_version="win7", label=1)
        log.append(LogRecord("GetFileType", 0x10, (), 1))
        log.append(LogRecord("WriteFile", 0x20, (), 1))
        log.append(LogRecord("writefile", 0x30, (), 2))
        return log

    def test_len_and_iteration(self):
        log = self._make_log()
        assert len(log) == 3
        assert len(list(log)) == 3

    def test_api_counts_are_case_insensitive(self):
        counts = self._make_log().api_counts()
        assert counts["writefile"] == 2
        assert counts["getfiletype"] == 1

    def test_api_names_in_call_order(self):
        assert self._make_log().api_names() == ["getfiletype", "writefile", "writefile"]

    def test_text_round_trip(self):
        log = self._make_log()
        restored = ApiLog.from_text(log.to_text(), sample_id="s1",
                                    os_version="win7", label=1)
        assert restored.api_counts() == log.api_counts()
        assert len(restored) == len(log)

    def test_from_text_skips_blank_lines(self):
        text = 'WriteFile:1F ()"1"\n\n\nReadFile:2F ()"1"\n'
        assert len(ApiLog.from_text(text)) == 2

    def test_head_returns_prefix_copy(self):
        log = self._make_log()
        head = log.head(2)
        assert len(head) == 2
        assert head.sample_id == log.sample_id
        head.append(LogRecord("ReadFile", 0x40, (), 1))
        assert len(log) == 3

    def test_records_are_a_read_only_snapshot(self):
        log = self._make_log()
        records = log.records
        assert isinstance(records, tuple)
        assert records[1] == LogRecord("WriteFile", 0x20, (), 1)
        log.append(LogRecord("ReadFile", 0x40, (), 1))
        assert len(records) == 3 and len(log.records) == 4

    def test_equality_compares_metadata_and_records(self):
        assert self._make_log() == self._make_log()
        other = self._make_log()
        other.label = 0
        assert other != self._make_log()
        assert self._make_log().head(2) != self._make_log()

    def test_addresses_beyond_64_bits_round_trip(self):
        text = 'WriteFile:1FFFFFFFFFFFFFFFFF ()"99999999999999999999"\nReadFile:2F ()"1"'
        log = ApiLog.from_text(text)
        assert log.records[0].address == 0x1FFFFFFFFFFFFFFFFF
        assert log.to_text() == text
        log.append(LogRecord("ReadFile", 0x3F, (), 2))
        assert log.to_text() == text + '\nReadFile:3F ()"2"'


def _sandbox_log(record_args):
    profile = default_profile_library().by_name("malware_trojan_injector")
    sample = SourceSample.from_profile(profile, "pickle-001", random_state=3)
    return Sandbox(os_version="win10", random_state=5,
                   record_args=record_args).execute(sample).log


class TestColumns:
    def test_spellings_are_in_first_call_order(self):
        log = ApiLog(sample_id="s", os_version="win7", records=[
            LogRecord("B", 1), LogRecord("a", 2), LogRecord("B", 3), LogRecord("A", 4)])
        assert log.spellings == ("B", "a", "A")
        assert log.codes.tolist() == [0, 1, 0, 2]
        assert log.codes.dtype == np.int32
        log.append(LogRecord("a", 5))
        log.append(LogRecord("c", 6))
        assert log.spellings == ("B", "a", "A", "c")
        assert log.codes.tolist() == [0, 1, 0, 2, 1, 3]

    def test_from_columns_equals_the_record_built_log(self):
        built = ApiLog.from_columns("s", "win7", 1, ["unused", "ReadFile", "WriteFile"],
                                    [2, 1, 2], [0x10, 0x20, 0x30], [1, 1, 2],
                                    [(), ('"x"',), ()])
        expected = ApiLog(sample_id="s", os_version="win7", label=1, records=[
            LogRecord("WriteFile", 0x10, (), 1), LogRecord("ReadFile", 0x20, ('"x"',), 1),
            LogRecord("WriteFile", 0x30, (), 2)])
        assert built == expected
        assert built.spellings == ("WriteFile", "ReadFile")
        assert built.codes.tolist() == [0, 1, 0]

    def test_columns_are_copied_and_read_only(self):
        codes = np.array([0, 1], dtype=np.int32)
        log = ApiLog.from_columns("s", "win7", None, ["a", "b"], codes, [1, 2], [3, 3])
        codes[0] = 1
        assert log.codes.tolist() == [0, 1]
        with pytest.raises(ValueError):
            log.codes[0] = 1

    @pytest.mark.parametrize("spellings, codes, addresses, thread_ids, args", [
        (["a"], [0, 0], [1], [1, 1], None),
        (["a"], [0, 0], [1, 2], [1], None),
        (["a"], [0, 0], [1, 2], [1, 1], [()]),
        (["a"], [0, 1], [1, 2], [1, 1], None),
        (["a"], [0, -1], [1, 2], [1, 1], None),
        ([], [0], [1], [1], None),
        (["a"], [0.0, 0.0], [1, 2], [1, 1], None),
        (["a"], [[0], [0]], [[1], [2]], [[1], [1]], None),
        (["a"], [0], 1, [1], None),
        (["a", "a"], [0, 1], [1, 2], [1, 1], None),
    ], ids=["short-addresses", "short-threads", "short-args", "code-past-end",
            "negative-code", "no-spellings", "float-codes", "2-d", "scalar-addresses",
            "repeated-spelling"])
    def test_from_columns_rejects_bad_columns(self, spellings, codes, addresses,
                                              thread_ids, args):
        with pytest.raises(SandboxError):
            ApiLog.from_columns("s", "win7", None, spellings, codes, addresses,
                                thread_ids, args)

    @pytest.mark.parametrize("record_args", [False, True], ids=["columns", "args"])
    def test_pickle_round_trip(self, record_args):
        log = _sandbox_log(record_args)
        restored = pickle.loads(pickle.dumps(log))
        assert restored == log
        assert restored.to_text() == log.to_text()
        assert restored.spellings == log.spellings
        with pytest.raises(ValueError):
            restored.codes[0] = 0
        extractor = CountExtractor()
        assert extractor.extract(restored).tobytes() == extractor.extract(log).tobytes()
