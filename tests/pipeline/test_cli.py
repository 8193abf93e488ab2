"""Tests for the command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
program demo
  input integer :: n = 20
  integer :: i
  real :: a(50)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(n)
end program
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "demo.f"
    path.write_text(SOURCE)
    return str(path)


class TestRun:
    def test_run_prints_output(self, source_file, capsys):
        code = main(["run", source_file, "--input", "n=10"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "10.0"
        assert "range checks executed" in captured.err

    def test_run_uses_defaults(self, source_file, capsys):
        code = main(["run", source_file])
        assert code == 0
        assert capsys.readouterr().out.strip() == "20.0"

    def test_run_unoptimized(self, source_file, capsys):
        main(["run", source_file, "--no-optimize"])
        err = capsys.readouterr().err
        assert "42 range checks" in err  # 2 per iteration + 2 post-loop

    def test_trap_exit_code(self, source_file, capsys):
        code = main(["run", source_file, "--input", "n=60"])
        assert code == 1
        assert "TRAP" in capsys.readouterr().err

    def test_scheme_selection(self, source_file, capsys):
        main(["run", source_file, "--scheme", "NI"])
        err1 = capsys.readouterr().err
        main(["run", source_file, "--scheme", "LLS"])
        err2 = capsys.readouterr().err
        assert err1 != err2

    def test_rotate_flag(self, source_file, capsys):
        code = main(["run", source_file, "--scheme", "SE",
                     "--rotate-loops"])
        assert code == 0

    def test_bad_input_format(self, source_file):
        with pytest.raises(SystemExit) as info:
            main(["run", source_file, "--input", "n"])
        assert info.value.code == 2

    def test_non_numeric_input_is_clean_exit(self, source_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", source_file, "--input", "n=abc"])
        assert info.value.code == 2
        assert "not a decimal number" in capsys.readouterr().err

    def test_hex_input_is_clean_exit(self, source_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", source_file, "--input", "n=0x10"])
        assert info.value.code == 2
        assert "0x10" in capsys.readouterr().err

    def test_missing_name_is_clean_exit(self, source_file):
        with pytest.raises(SystemExit) as info:
            main(["run", source_file, "--input", "=5"])
        assert info.value.code == 2

    def test_missing_file(self, capsys):
        code = main(["run", "/nonexistent/path.f"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.f"
        bad.write_text("program p\nif then\nend program")
        code = main(["run", str(bad)])
        assert code == 2


class TestDumpAndCompare:
    def test_dump_shows_ir(self, source_file, capsys):
        code = main(["dump", source_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "program demo" in out
        assert "cond-check" in out  # LLS hoisted something

    def test_dump_unoptimized_has_plain_checks(self, source_file, capsys):
        main(["dump", source_file, "--no-optimize"])
        out = capsys.readouterr().out
        assert "check (" in out

    def test_compare_lists_all_schemes(self, source_file, capsys):
        code = main(["compare", source_file, "--input", "n=15"])
        out = capsys.readouterr().out
        assert code == 0
        for scheme in ("NI", "CS", "LNI", "SE", "LI", "LLS", "ALL", "MCM"):
            assert scheme in out


class TestErrorPaths:
    """main() must never leak a raw traceback for user-triggered
    failures — unexpected exceptions get a bounded message."""

    def test_unexpected_exception_is_bounded(self, capsys, monkeypatch):
        import repro.cli as cli

        def explode(args):
            raise KeyError("x" * 1000)

        monkeypatch.setattr(cli, "_cmd_figures", explode)
        code = cli.main(["figures"])
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error: KeyError" in err
        assert len(err) < 400
        assert "Traceback" not in err

    def test_recursion_error_has_friendly_message(self, capsys,
                                                  monkeypatch):
        import repro.cli as cli

        def explode(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "_cmd_figures", explode)
        code = cli.main(["figures"])
        err = capsys.readouterr().err
        assert code == 3
        assert "nesting too deep" in err

    def test_deeply_nested_expression_does_not_traceback(self, tmp_path,
                                                         capsys):
        depth = 4000
        source = ("program p\n  integer :: x\n  x = %s1%s\n"
                  "  print x\nend program\n"
                  % ("(" * depth, ")" * depth))
        path = tmp_path / "deep.f"
        path.write_text(source)
        code = main(["dump", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err


class TestExitCodeContract:
    """The documented contract (docs/API.md): 0 ok, 1 trap,
    2 usage/parse, 3 internal.  Locked in here; the service maps the
    same classes to 200/200+trap/400-422/500."""

    def test_ok_is_zero(self, source_file):
        assert main(["run", source_file, "--input", "n=10"]) == 0

    def test_trap_is_one(self, source_file):
        assert main(["run", source_file, "--input", "n=60"]) == 1

    def test_explain_trap_is_one(self, source_file, capsys):
        # explain runs the program too: a trap is exit 1 with run's
        # TRAP line, not a usage error
        assert main(["explain", source_file, "--input", "n=60"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("TRAP: ")
        assert err.count("\n") == 1

    def test_usage_is_two(self):
        with pytest.raises(SystemExit) as info:
            main(["run", "--not-a-flag"])
        assert info.value.code == 2

    def test_unknown_engine_is_two(self, source_file, capsys):
        # every --engine taker shares the contract: exit code 2 plus a
        # single-line message, never an argparse usage dump
        for argv in (["run", source_file, "--engine", "turbo"],
                     ["tables", "--engine", "turbo"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "unknown engine 'turbo'" in err

    def test_bench_accepts_all_engines_keyword(self):
        # "all" named every engine of the retired bench command; no
        # remaining command accepts it, and tables rejects it with the
        # same one-liner as any unknown engine
        with pytest.raises(SystemExit) as info:
            main(["tables", "--engine", "all"])
        assert info.value.code == 2

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.f"
        bad.write_text("program p\nif then\nend program")
        assert main(["run", str(bad)]) == 2

    def test_missing_file_is_two(self):
        assert main(["run", "/nonexistent/path.f"]) == 2

    def test_profile_without_lo_is_two(self, source_file, capsys):
        # --profile only makes sense for the profile-guided scheme
        with pytest.raises(SystemExit) as info:
            main(["run", source_file, "--scheme", "LLS",
                  "--profile", "auto"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--profile requires --scheme LO" in err

    @pytest.mark.parametrize("engine", ["compiled", "specialized"])
    def test_profile_out_on_backend_engine_is_two(self, source_file,
                                                  tmp_path, capsys,
                                                  engine):
        # edge profiles are recorded by the interpreter only
        out = tmp_path / "edges.json"
        with pytest.raises(SystemExit) as info:
            main(["run", source_file, "--engine", engine,
                  "--profile-out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--profile-out" in err and engine in err
        assert not out.exists()

    def test_profile_missing_file_is_two(self, source_file, capsys):
        code = main(["run", source_file, "--scheme", "LO",
                     "--profile", "/nonexistent/edges.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:")

    def test_profile_corrupt_artifact_is_two(self, source_file,
                                             tmp_path, capsys):
        bad = tmp_path / "edges.json"
        bad.write_text("{not json")
        code = main(["run", source_file, "--scheme", "LO",
                     "--profile", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err

    def test_profile_source_mismatch_is_two(self, source_file,
                                            tmp_path, capsys):
        # train on one program, replay against another: the artifact's
        # source digest no longer matches and must fail loudly
        out = tmp_path / "edges.json"
        assert main(["run", source_file, "--scheme", "LO",
                     "--profile-out", str(out)]) == 0
        capsys.readouterr()
        other = tmp_path / "other.f"
        other.write_text(SOURCE.replace("n = 20", "n = 21"))
        code = main(["run", str(other), "--scheme", "LO",
                     "--profile", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "profile" in err

    def test_profile_roundtrip_is_zero(self, source_file, tmp_path,
                                       capsys):
        out = tmp_path / "edges.json"
        assert main(["run", source_file, "--scheme", "LO",
                     "--profile-out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", source_file, "--scheme", "LO",
                     "--profile", str(out)]) == 0

    def test_internal_is_three(self, monkeypatch):
        import repro.cli as cli

        def explode(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_figures", explode)
        assert cli.main(["figures"]) == 3

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestRunJson:
    def test_run_json_document(self, source_file, capsys):
        import json

        code = main(["run", source_file, "--input", "n=10", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.run.v1"
        assert doc["ok"] is True
        assert doc["trap"] is None
        assert doc["output"] == [10.0]
        assert doc["counters"]["checks"] >= 0
        assert doc["optimizer"]["eliminated"] >= 0
        assert set(doc["phases"]) == {"parse", "optimize", "execute"}

    def test_run_json_trap(self, source_file, capsys):
        import json

        code = main(["run", source_file, "--input", "n=60", "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert "range check failed" in doc["trap"]


class TestTablesAndCompareFlags:
    def test_compare_json_document(self, source_file, capsys):
        import json

        code = main(["compare", source_file, "--input", "n=15", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "repro.compare.v1"
        assert doc["baseline"]["dynamic_checks"] > 0
        schemes = {cell["scheme"] for cell in doc["schemes"]}
        assert {"NI", "LLS", "MCM"} <= schemes

    def test_compare_jobs_flag_accepted(self, source_file, capsys):
        code = main(["compare", source_file, "--input", "n=15",
                     "--jobs", "2"])
        assert code == 0
        assert "LLS" in capsys.readouterr().out


class TestFigures:
    def test_figures_render(self, capsys):
        code = main(["figures"])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure1" in out
        assert "figure6" in out


class TestExplain:
    def test_explain_renders_report(self, source_file, capsys):
        code = main(["explain", source_file, "--scheme", "LLS"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimization report (PRX-LLS)" in out
        assert "eliminated" in out

    def test_explain_respects_kind(self, source_file, capsys):
        code = main(["explain", source_file, "--kind", "INX"])
        out = capsys.readouterr().out
        assert code == 0
        assert "INX-LLS" in out

    def test_run_compiled_engine(self, source_file, capsys):
        code = main(["run", source_file, "--input", "n=10",
                     "--engine", "compiled"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "10.0"
