"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.desi import xadl


@pytest.fixture
def architecture_file(tmp_path):
    path = str(tmp_path / "arch.xml")
    code = main(["generate", "--hosts", "3", "--components", "6",
                 "--seed", "4", "-o", path])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_loadable_xadl(self, architecture_file):
        model = xadl.load(architecture_file)
        assert len(model.host_ids) == 3
        assert len(model.component_ids) == 6
        model.validate_deployment()

    def test_stdout_mode(self, capsys):
        assert main(["generate", "--hosts", "2", "--components", "3"]) == 0
        out = capsys.readouterr().out
        assert "<deploymentArchitecture" in out

    def test_seed_reproducibility(self, tmp_path):
        a = str(tmp_path / "a.xml")
        b = str(tmp_path / "b.xml")
        main(["generate", "--seed", "9", "-o", a])
        main(["generate", "--seed", "9", "-o", b])
        assert open(a).read() == open(b).read()


class TestInspect:
    def test_tables(self, architecture_file, capsys):
        assert main(["inspect", architecture_file]) == 0
        out = capsys.readouterr().out
        assert "PARAMETERS / hosts" in out
        assert "availability of current deployment" in out

    def test_graph_and_dot(self, architecture_file, capsys):
        main(["inspect", architecture_file, "--graph"])
        assert "physical links:" in capsys.readouterr().out
        main(["inspect", architecture_file, "--dot"])
        assert capsys.readouterr().out.startswith("graph deployment {")


class TestImprove:
    def test_reports_results(self, architecture_file, capsys):
        code = main(["improve", architecture_file, "-a", "avala",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "initial availability" in out
        assert "avala:" in out

    def test_apply_writes_back(self, architecture_file, tmp_path):
        before = dict(xadl.load(architecture_file).deployment)
        output = str(tmp_path / "improved.xml")
        code = main(["improve", architecture_file, "-a", "exact",
                     "--apply", "-o", output, "--seed", "1"])
        assert code == 0
        improved = xadl.load(output)
        from repro.core import AvailabilityObjective
        objective = AvailabilityObjective()
        original = xadl.load(architecture_file)
        assert objective.evaluate(improved, improved.deployment) >= \
            objective.evaluate(original, before) - 1e-9

    def test_multiple_objectives(self, architecture_file, capsys):
        code = main(["improve", architecture_file, "-a", "hillclimb",
                     "--objective", "latency", "--seed", "1"])
        assert code == 0
        assert "latency" in capsys.readouterr().out


class TestSweep:
    def test_table_output(self, capsys):
        code = main(["sweep", "--family", "tiny:3:5", "-a", "avala",
                     "--replicates", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert "best for tiny: avala" in out

    def test_bad_family_spec(self, capsys):
        assert main(["sweep", "--family", "nonsense", "-a", "avala"]) == 2


class TestSimulate:
    def test_crisis_trajectory(self, capsys):
        code = main(["simulate", "--scenario", "crisis", "--duration",
                     "20", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "t=0" in out
        assert "availability" in out
        assert "redeploy" in out  # at least one cycle summary printed


BAD_CAPACITY = """
<deploymentArchitecture name="overloaded">
  <host id="h1"><param name="memory" value="10.0" type="float"/></host>
  <host id="h2"><param name="memory" value="10.0" type="float"/></host>
  <physicalLink hostA="h1" hostB="h2">
    <param name="reliability" value="0.9" type="float"/>
  </physicalLink>
  <component id="c1"><param name="memory" value="25.0" type="float"/></component>
  <deployment component="c1" host="h1"/>
</deploymentArchitecture>
"""

BAD_DANGLING = """
<deploymentArchitecture name="dangling">
  <host id="h1"/>
  <component id="c1"/>
  <logicalLink componentA="c1" componentB="ghost"/>
  <deployment component="c1" host="h1"/>
</deploymentArchitecture>
"""


class TestLint:
    def write(self, tmp_path, text):
        path = tmp_path / "arch.xml"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_bundled_scenarios_exit_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        for scenario in ("crisis", "sensorfield", "clientserver"):
            assert f"scenario {scenario}" in out

    def test_capacity_violation_fails(self, tmp_path, capsys):
        path = self.write(tmp_path, BAD_CAPACITY)
        assert main(["lint", path]) == 1
        assert "MV003" in capsys.readouterr().out

    def test_dangling_link_fails(self, tmp_path, capsys):
        path = self.write(tmp_path, BAD_DANGLING)
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "XD002" in out and "ghost" in out

    def test_force_reports_but_exits_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, BAD_CAPACITY)
        assert main(["lint", path, "--force"]) == 0
        assert "MV003" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        import json
        path = self.write(tmp_path, BAD_CAPACITY)
        assert main(["lint", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] == 1
        assert payload["findings"][0]["rule"] == "MV003"

    def test_fail_on_threshold(self, capsys):
        # sensorfield has info-level findings (isolated components) only.
        assert main(["lint", "sensorfield"]) == 0
        capsys.readouterr()
        assert main(["lint", "sensorfield", "--fail-on", "info"]) == 1

    def test_unknown_target_is_usage_error(self, capsys):
        assert main(["lint", "not-a-scenario-or-file"]) == 2

    def test_code_analyzer_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("def f(x):\n    return x\n", encoding="utf-8")
        assert main(["lint", "--code", str(clean)]) == 0

    def test_code_analyzer_flags_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        assert main(["lint", "--code", str(bad)]) == 1
        assert "CD006" in capsys.readouterr().out

    def test_generated_architecture_lints_clean(self, architecture_file):
        assert main(["lint", architecture_file]) == 0


class TestLintExitCodeMatrix:
    """The --fail-on × severity contract, --force, output modes, and
    empty input, exercised end-to-end through main()."""

    ERROR_SRC = "def f(x=[]):\n    return x\n"          # CD006 (error)
    WARNING_SRC = ("def f():\n"
                   "    try:\n"
                   "        g()\n"
                   "    except ValueError:\n"
                   "        pass\n")                     # CD005 (warning)
    CLEAN_SRC = "def f(x):\n    return x\n"

    def write(self, tmp_path, source, name="mod.py"):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        return str(path)

    def test_error_finding_across_thresholds(self, tmp_path, capsys):
        path = self.write(tmp_path, self.ERROR_SRC)
        for fail_on in ("error", "warning", "info"):
            capsys.readouterr()
            assert main(["lint", "--code", path,
                         "--fail-on", fail_on]) == 1

    def test_warning_finding_across_thresholds(self, tmp_path, capsys):
        path = self.write(tmp_path, self.WARNING_SRC)
        assert main(["lint", "--code", path, "--fail-on", "error"]) == 0
        capsys.readouterr()
        assert main(["lint", "--code", path, "--fail-on", "warning"]) == 1
        capsys.readouterr()
        assert main(["lint", "--code", path, "--fail-on", "info"]) == 1

    def test_clean_file_across_thresholds(self, tmp_path, capsys):
        path = self.write(tmp_path, self.CLEAN_SRC)
        for fail_on in ("error", "warning", "info"):
            capsys.readouterr()
            assert main(["lint", "--code", path,
                         "--fail-on", fail_on]) == 0

    def test_force_wins_at_every_threshold(self, tmp_path, capsys):
        path = self.write(tmp_path, self.ERROR_SRC)
        for fail_on in ("error", "warning", "info"):
            capsys.readouterr()
            assert main(["lint", "--code", path, "--fail-on", fail_on,
                         "--force"]) == 0
            assert "ignored (--force)" in capsys.readouterr().err

    def test_json_mode_keeps_exit_code(self, tmp_path, capsys):
        import json
        path = self.write(tmp_path, self.ERROR_SRC)
        assert main(["lint", "--code", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "CD006"

    def test_quiet_mode_keeps_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, self.ERROR_SRC)
        assert main(["lint", "--code", path, "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "error" in out and "CD006" not in out

    def test_quiet_on_clean_input(self, tmp_path, capsys):
        path = self.write(tmp_path, self.CLEAN_SRC)
        assert main(["lint", "--code", path, "--quiet"]) == 0
        assert capsys.readouterr().out.strip() == "clean"

    def test_empty_directory_is_clean(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["lint", "--code", str(empty)]) == 0

    def test_missing_target_is_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.py")
        assert main(["lint", "--code", missing]) != 0


class TestLintPlumbingCli:
    def test_sarif_output_to_file(self, tmp_path, capsys):
        import json
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        out = str(tmp_path / "report.sarif")
        assert main(["lint", "--code", str(bad), "--sarif",
                     "-o", out]) == 1
        with open(out, "r", encoding="utf-8") as handle:
            log = json.load(handle)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "CD006"

    def test_baseline_suppresses_and_write_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", "--code", str(bad),
                     "--write-baseline", baseline]) == 0
        capsys.readouterr()
        assert main(["lint", "--code", str(bad),
                     "--baseline", baseline]) == 0
        assert main(["lint", "--code", str(bad)]) == 1

    def test_cache_and_jobs_flags_are_unknown(self, tmp_path, capsys):
        src = tmp_path / "ok.py"
        src.write_text("VALUE = 1\n", encoding="utf-8")
        for flags in (["--jobs", "2"], ["--cache"], ["--no-cache"]):
            with pytest.raises(SystemExit) as exc:
                main(["lint", "--code", str(src)] + flags)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in \
                capsys.readouterr().err


class TestObsVerb:
    @pytest.fixture
    def capture_file(self, tmp_path, capsys):
        path = str(tmp_path / "capture.jsonl")
        code = main(["obs", "record", "-o", path, "--duration", "12",
                     "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "subsystems" in out
        return path

    def test_record_then_report(self, capture_file, capsys):
        assert main(["obs", "report", capture_file]) == 0
        out = capsys.readouterr().out
        assert "spans (sim-time" in out
        assert "metrics:" in out
        # The required subsystems all show up in one rendered report.
        for subsystem in ("middleware", "sim.network", "monitoring",
                          "algorithms", "effector"):
            assert subsystem in out, subsystem

    def test_report_json_reemits_canonical_lines(self, capture_file,
                                                 capsys):
        assert main(["obs", "report", capture_file, "--json"]) == 0
        out = capsys.readouterr().out
        assert out == open(capture_file).read()

    def test_report_sections_can_be_suppressed(self, capture_file, capsys):
        main(["obs", "report", capture_file, "--metrics-only"])
        assert "spans" not in capsys.readouterr().out
        main(["obs", "report", capture_file, "--spans-only"])
        assert "metrics" not in capsys.readouterr().out

    def test_diff_of_identical_captures(self, capture_file, capsys):
        assert main(["obs", "diff", capture_file, capture_file]) == 0
        out = capsys.readouterr().out
        assert "metrics: identical" in out
        assert "spans: identical" in out

    def test_report_on_missing_file_is_error(self, capsys):
        assert main(["obs", "report", "/nonexistent/capture.jsonl"]) == 2
        assert "cannot read capture" in capsys.readouterr().err

    def test_report_on_garbage_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["obs", "report", str(path)]) == 2
        assert "cannot read capture" in capsys.readouterr().err


class TestUnifiedOutputFlags:
    FAMILY = ["--family", "f:3:5", "-a", "avala", "--replicates", "1"]

    def test_sweep_json(self, capsys):
        assert main(["sweep", *self.FAMILY, "--json"]) == 0
        import json as _json
        data = _json.loads(capsys.readouterr().out)
        assert data["objective"] == "availability"
        assert data["cells"][0]["algorithm"] == "avala"
        assert "engine_counters" in data["cells"][0]

    def test_sweep_quiet(self, capsys):
        assert main(["sweep", *self.FAMILY, "--quiet"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.count("\n") == 0
        assert "sweep" in out

    def test_improve_json(self, architecture_file, capsys):
        assert main(["improve", architecture_file, "-a", "avala",
                     "--json"]) == 0
        import json as _json
        data = _json.loads(capsys.readouterr().out)
        assert data[0]["algorithm"] == "avala"
        assert "deployment" in data[0]

    def test_improve_quiet(self, architecture_file, capsys):
        assert main(["improve", architecture_file, "-a", "avala",
                     "--quiet"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.count("\n") == 0
        assert "avala" in out

    def test_json_and_quiet_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", *self.FAMILY, "--json", "--quiet"])

    def test_lint_quiet(self, capsys):
        assert main(["lint", "crisis", "--quiet"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "clean" or "error" not in out

    def test_faults_run_quiet_and_capture(self, tmp_path, capsys):
        capture = str(tmp_path / "faults.jsonl")
        assert main(["faults", "run", "--scenario", "clientserver",
                     "--duration", "10", "--quiet",
                     "--capture", capture]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().count("\n") == 0
        assert "delivered" in captured.out
        assert "observability capture" in captured.err
        from repro.obs.capture import Capture
        loaded = Capture.load(capture)
        assert "faults" in loaded.subsystems()

    def test_faults_run_json(self, capsys):
        assert main(["faults", "run", "--scenario", "clientserver",
                     "--duration", "10", "--json"]) == 0
        import json as _json
        data = _json.loads(capsys.readouterr().out)
        assert "availability" in data


class TestPlan:
    def build(self, architecture_file, tmp_path, *extra):
        path = str(tmp_path / "schedule.json")
        code = main(["plan", "build", architecture_file, "--seed", "3",
                     "-o", path, *extra])
        assert code == 0
        return path

    def test_build_writes_loadable_schedule(self, architecture_file,
                                            tmp_path, capsys):
        path = self.build(architecture_file, tmp_path)
        from repro.plan import schedule_from_json
        schedule = schedule_from_json(open(path).read())
        assert schedule.final_state() == schedule.target
        assert "wrote schedule to" in capsys.readouterr().out

    def test_build_stdout_render(self, architecture_file, capsys):
        assert main(["plan", "build", architecture_file,
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "waves" in out

    def test_show_round_trip(self, architecture_file, tmp_path, capsys):
        path = self.build(architecture_file, tmp_path)
        capsys.readouterr()
        assert main(["plan", "show", path]) == 0
        assert "waves" in capsys.readouterr().out

    def test_lint_clean_schedule_exits_zero(self, architecture_file,
                                            tmp_path, capsys):
        path = self.build(architecture_file, tmp_path)
        assert main(["plan", "lint", path, "--model",
                     architecture_file]) == 0
        out = capsys.readouterr().out
        assert "PL" not in out or "0 findings" in out

    def test_lint_drifted_model_reports_pl003(self, architecture_file,
                                              tmp_path, capsys):
        path = self.build(architecture_file, tmp_path)
        other = str(tmp_path / "drifted.xml")
        main(["generate", "--hosts", "3", "--components", "6",
              "--seed", "5", "-o", other])
        capsys.readouterr()
        code = main(["plan", "lint", path, "--model", other])
        out = capsys.readouterr().out
        # Either the drifted world happens to satisfy the schedule, or
        # the verifier must say why it does not.
        assert code in (0, 1)
        if code:
            assert "PL" in out

    def test_diff_naive_vs_packed(self, architecture_file, tmp_path,
                                  capsys):
        packed = self.build(architecture_file, tmp_path)
        naive = str(tmp_path / "naive.json")
        assert main(["plan", "build", architecture_file, "--seed", "3",
                     "--naive", "-o", naive]) == 0
        capsys.readouterr()
        assert main(["plan", "diff", packed, naive]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_show_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["plan", "show", str(tmp_path / "nope.json")]) == 2
        assert "cannot read schedule" in capsys.readouterr().err
