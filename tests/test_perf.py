"""Tests for the perf gates' budgets (``repro.perf.check_report``).

Every report here is a plain dict; nothing is timed.
"""

import pytest

from repro.perf import (
    INGEST_MIN_RECORDS_PER_S,
    TELEMETRY_DISABLED_BUDGET,
    TELEMETRY_ENABLED_BUDGET,
    check_report,
)


def _report(disabled=0.001, enabled=0.05, csv_rate=400_000.0):
    """A report shaped like ``repro.cli perf``'s, with three knobs."""
    return {
        "telemetry": {
            "benchmark": "soplex",
            "disabled_s": 0.025,
            "enabled_s": 0.026,
            "enabled_overhead": enabled,
            "null_span_ns": 300.0,
            "spans_per_replay": 3,
            "disabled_overhead": disabled,
        },
        "ingest": {
            "records": 50_000,
            "formats": {
                fmt: {"decode_s": 50_000 / rate, "records_per_s": rate,
                      "file_bytes": 1_000_000}
                for fmt, rate in (("champsim", 3_000_000.0),
                                  ("csv", csv_rate),
                                  ("text", 350_000.0))
            },
        },
    }


# (report knob, value at the limit, value just past it, words the
# failure message must contain)
GATES = [
    pytest.param("disabled", TELEMETRY_DISABLED_BUDGET,
                 TELEMETRY_DISABLED_BUDGET + 1e-4,
                 ("telemetry: disabled-path", "budget 2%"),
                 id="telemetry-disabled"),
    pytest.param("enabled", TELEMETRY_ENABLED_BUDGET,
                 TELEMETRY_ENABLED_BUDGET + 1e-4,
                 ("telemetry: enabled-path", "budget 15%"),
                 id="telemetry-enabled"),
    pytest.param("csv_rate", INGEST_MIN_RECORDS_PER_S,
                 INGEST_MIN_RECORDS_PER_S - 0.1,
                 ("ingest: csv", "20,000 floor"),
                 id="ingest-floor"),
]


def test_clean_report_passes():
    assert check_report(_report()) == []


def test_budgets_keep_their_values():
    assert TELEMETRY_DISABLED_BUDGET == 0.02
    assert TELEMETRY_ENABLED_BUDGET == 0.15
    assert INGEST_MIN_RECORDS_PER_S == 20_000


@pytest.mark.parametrize("knob,limit,past,words", GATES)
def test_passes_at_its_limit(knob, limit, past, words):
    assert check_report(_report(**{knob: limit})) == []


@pytest.mark.parametrize("knob,limit,past,words", GATES)
def test_fails_just_past_its_limit(knob, limit, past, words):
    failures = check_report(_report(**{knob: past}))
    assert len(failures) == 1
    for word in words:
        assert word in failures[0]
