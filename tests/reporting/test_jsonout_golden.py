"""Golden-file tests locking the JSON output schemas.

The documents under ``tests/reporting/golden/`` are the published
contract: the service's responses and the CLI's ``--json`` output must
stay field-compatible release over release.  A failure here means a
consumer-visible schema change — either fix the regression or bump the
schema version string AND regenerate the golden deliberately.  Purely
*additive* optional fields keep the version string (consumers ignore
unknown keys) but still require a deliberate golden regeneration.
"""

import contextlib
import io
import json
import os

import pytest

from repro.pipeline.trace import PipelineTrace
from repro.reporting.jsonout import (COMPARE_SCHEMA, LOADGEN_SCHEMA,
                                     RUN_SCHEMA, SERVICE_ERROR_SCHEMA,
                                     TABLES_SCHEMA, run_to_dict)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_SOURCE = """\
program golden
  input integer :: n = 12
  integer :: i
  real :: a(40)
  do i = 1, n
    a(i) = real(i) * 2.0
  end do
  print a(n)
end program
"""


TRAPPING_SOURCE = """\
program trapping
  integer :: i
  real :: a(8)
  do i = 1, 9
    a(i) = real(i)
    print i
  end do
end program
"""


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        return json.load(handle)


def normalize_run(doc):
    """Zero the wall-clock fields; everything else is deterministic."""
    doc = dict(doc)
    if doc.get("phases"):
        doc["phases"] = {key: 0.0 for key in doc["phases"]}
    doc["frontend_cached"] = False  # depends on shared-cache warmth
    if doc.get("backend_cached") is not None:
        doc["backend_cached"] = False  # likewise (compiled engines only)
    return doc


class TestRunGolden:
    def test_cli_run_json_matches_golden(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "golden.f"
        path.write_text(GOLDEN_SOURCE)
        assert main(["run", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert normalize_run(doc) == load_golden("run.v1.json")

    def test_service_run_body_matches_golden(self):
        from repro.service.jobs import execute_request

        status, body = execute_request(
            {"action": "run", "source": GOLDEN_SOURCE})
        assert status == 200
        assert normalize_run(body) == load_golden("run.v1.json")

    @pytest.mark.parametrize("engine", ["interp", "compiled",
                                        "specialized"])
    def test_cli_run_json_matches_service_body(self, tmp_path, capsys,
                                               engine):
        # one execute helper behind both: a trap keeps its pre-trap
        # counters and output, and every engine times its execution
        from repro.cli import main
        from repro.service.jobs import execute_request

        path = tmp_path / "trapping.f"
        path.write_text(TRAPPING_SOURCE)
        assert main(["run", str(path), "--json", "--scheme", "NI",
                     "--engine", engine]) == 1
        doc = json.loads(capsys.readouterr().out)
        status, body = execute_request(
            {"action": "run", "source": TRAPPING_SOURCE, "scheme": "NI",
             "engine": engine})
        assert status == 200
        assert normalize_run(doc) == normalize_run(body)
        assert doc["output"] == list(range(1, 9))
        assert doc["counters"]["checks"] == 18
        assert doc["phases"]["execute"] > 0
        assert (doc["backend_cached"] is None) == (engine == "interp")

    def test_parse_phase_includes_every_frontend_pass(self):
        trace = PipelineTrace()
        for name in ("parse", "lower", "inline", "rotate", "ssa"):
            trace.record(name, 0.5)
        trace.record("check-optimize", 2.0)
        trace.record("execute", 4.0)
        doc = run_to_dict("PRX-LLS+inl", None, [], trace=trace)
        assert doc["phases"] == {"parse": 2.5, "optimize": 2.0,
                                 "execute": 4.0}

    def test_schema_constants_are_stable(self):
        # renaming a published schema string is a breaking change
        assert RUN_SCHEMA == "repro.run.v1"
        assert TABLES_SCHEMA == "repro.tables.v1"
        assert COMPARE_SCHEMA == "repro.compare.v1"
        assert LOADGEN_SCHEMA == "repro.loadgen.v1"
        assert SERVICE_ERROR_SCHEMA == "repro.service.error.v1"


class TestCompareFieldSet:
    def test_compare_json_fields_match_golden(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "golden.f"
        path.write_text(GOLDEN_SOURCE)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["compare", str(path), "--json"]) == 0
        doc = json.loads(buffer.getvalue())
        golden = load_golden("compare.v1.fields.json")
        assert sorted(doc) == golden["top"]
        assert sorted(doc["baseline"]) == golden["baseline"]
        for cell in doc["schemes"]:
            assert sorted(cell) == golden["scheme_cell"]


class TestTablesFieldSet:
    def test_tables_json_fields_match_golden(self):
        import unittest.mock as mock

        from repro.benchsuite import all_programs
        import repro.benchsuite.parallel as parallel
        from repro.reporting import TABLE3_LABELS, table2_labels
        from repro.reporting.jsonout import tables_to_dict

        suite = parallel.run_suite(all_programs()[:1], small=True, jobs=1)
        doc = tables_to_dict(suite, True, table2_labels(), TABLE3_LABELS)
        golden = load_golden("tables.v1.fields.json")
        assert sorted(doc) == golden["top"]
        assert sorted(doc["table1"][0]) == golden["table1_row"]
        assert sorted(doc["table2"][0]) == golden["table_cell"]
        assert sorted(doc["table3"][0]) == golden["table_cell"]
        cache_stats = next(iter(doc["cache"].values()))
        assert sorted(cache_stats) == golden["cache_stats"]


class TestLoadgenFieldSet:
    def test_loadgen_report_fields_match_golden(self):
        from repro.service.client import LoadgenReport

        report = LoadgenReport("http://127.0.0.1:0", 4)
        report.results.append({"sequence": 0, "tag": "bench:x",
                               "status": 200, "trapped": False,
                               "seconds": 0.01})
        report.wall_seconds = 0.5
        doc = report.as_dict()
        golden = load_golden("loadgen.v1.fields.json")
        assert sorted(doc) == golden["top"]
        assert sorted(doc["latency_seconds"]) == golden["latency"]
        assert sorted(doc["cache"]) == golden["cache"]


class TestServiceErrorGolden:
    def test_error_body_fields(self):
        from repro.service.jobs import ServiceError

        body = ServiceError(400, "nope").body()
        assert sorted(body) == ["error", "schema"]
        assert body["schema"] == SERVICE_ERROR_SCHEMA
