"""Tests for the pka command-line interface."""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.cli import EXIT_INTERRUPTED, EXIT_PARTIAL, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_flags(self):
        args = build_parser().parse_args(
            ["simulate", "histo", "--no-pkp", "--gpu", "turing"]
        )
        assert args.workload == "histo"
        assert args.no_pkp
        assert args.gpu == "turing"

    def test_fault_flags(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--suite", "parboil",
                "--methods", "silicon",
                "--gpus", "volta,turing",
                "--retries", "1",
                "--task-timeout", "2.5",
                "--strict",
                "--inject-faults", "exception@3,crash@7xP",
            ]
        )
        assert args.retries == 1
        assert args.task_timeout == 2.5
        assert args.strict
        assert args.inject_faults == "exception@3,crash@7xP"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gramschmidt" in out
        assert "mlperf_ssd_training" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "histo"]) == 0
        out = capsys.readouterr().out
        assert "groups (K):" in out
        assert "selected kernel ids:" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "gauss_208"]) == 0
        out = capsys.readouterr().out
        assert "cycle error" in out
        assert "speedup vs full sim" in out

    def test_simulate_pks_only(self, capsys):
        assert main(["simulate", "gauss_208", "--no-pkp"]) == 0
        assert "PKS only" in capsys.readouterr().out

    def test_simulate_quirked_workload_fails_cleanly(self, capsys):
        assert main(["simulate", "db_conv_train_fp32_0"]) == 1

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "gauss_208" in out
        assert "fdtd2d" in out

    def test_unknown_workload(self, capsys):
        assert main(["characterize", "not_a_workload"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_figure5(self, capsys):
        assert main(["figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "atax" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "2"]) == 1

    def test_compare(self, capsys):
        assert main(["compare", "gauss_208"]) == 0
        out = capsys.readouterr().out
        for label in ("full simulation", "PKS", "PKA", "first-1B", "TBPoint"):
            assert label in out

    def test_sweep_k(self, capsys):
        assert main(["sweep-k", "fdtd2d"]) == 0
        out = capsys.readouterr().out
        assert "K= 1" in out
        assert "<- chosen" in out


SWEEP = ["sweep", "--suite", "parboil", "--methods", "silicon", "--gpus", "volta"]


class TestSweepCommand:
    def test_clean_sweep(self, capsys):
        assert main(SWEEP) == 0
        out = capsys.readouterr().out
        assert "sweep: 8 cells" in out
        assert "0 failed" in out
        assert "sweep id:" in out

    def test_injected_fault_yields_partial_exit(self, capsys):
        code = main(SWEEP + ["--inject-faults", "exception@1xP", "--retries", "1"])
        assert code == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "FaultInjectedError" in out
        assert "2 attempts" in out
        assert "1 failed" in out
        assert "tip: pass --cache-dir" in out  # no cache: resume not possible

    def test_faulted_sweep_resumes_from_cache(self, tmp_path, capsys):
        code = main(
            SWEEP
            + [
                "--cache-dir", str(tmp_path),
                "--inject-faults", "crash@0xP",
                "--retries", "0",
            ]
        )
        assert code == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "resume: re-run this command with the same --cache-dir" in out
        assert "manifest:" in out
        assert len(list(tmp_path.glob("manifests/*.json"))) == 1
        # Second invocation, no faults: loads the 7 completed cells from
        # cache, recomputes only the quarantined one, exits clean.
        assert main(SWEEP + ["--cache-dir", str(tmp_path)]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_strict_fails_fast_with_clean_exit(self, capsys):
        code = main(
            SWEEP + ["--strict", "--inject-faults", "exception@0xP", "--retries", "0"]
        )
        assert code == 1
        assert "sweep failed (strict)" in capsys.readouterr().err


class TestInterrupt:
    def test_interrupt_exits_130_with_tip(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "_cmd_list", lambda args: (_ for _ in ()).throw(KeyboardInterrupt())
        )
        assert main(["list"]) == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "tip: pass --cache-dir" in err

    def test_interrupt_prints_resume_hint_when_cached(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            cli, "_cmd_list", lambda args: (_ for _ in ()).throw(KeyboardInterrupt())
        )
        assert main(["list", "--cache-dir", str(tmp_path)]) == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert f"--cache-dir {tmp_path}" in err

    def test_trace_plan(self, capsys):
        assert main(["trace-plan", "gauss_208"]) == 0
        out = capsys.readouterr().out
        assert "kernels to trace" in out
        assert "reduction" in out

    def test_report(self, capsys, tmp_path, monkeypatch):
        output = tmp_path / "report.md"
        assert main(["report", "--output", str(output)]) == 0
        assert output.exists()
        assert "## Table 4" in output.read_text(encoding="utf-8")

    def test_report_applies_harness_flags(self, capsys, tmp_path, monkeypatch):
        import repro.analysis

        received = {}

        def fake_write_report(path, harness=None):
            received["harness"] = harness
            return path

        monkeypatch.setattr(repro.analysis, "write_report", fake_write_report)
        argv = [
            "report", "--output", str(tmp_path / "report.md"),
            "--cache-dir", str(tmp_path / "cache"),
            "--semcache", "--transfer-threshold", "0.1",
            "--predict", "--predict-max-bound", "0.2",
        ]
        assert main(argv) == 0
        harness = received["harness"]
        assert harness.run_cache.root == tmp_path / "cache"
        assert harness.semcache.config.transfer_threshold == 0.1
        assert harness.predict.config.max_error_bound == 0.2

    def test_inspect(self, capsys):
        assert main(["inspect", "histo"]) == 0
        out = capsys.readouterr().out
        assert "cycle share by bottleneck" in out
        assert "dynamic instruction mix" in out

    def test_validate(self, capsys):
        assert main(["validate", "--suite", "cutlass"]) == 0
        out = capsys.readouterr().out
        assert "corpus OK" in out

    def test_phases(self, capsys):
        assert main(["phases", "db_conv_train_fp32_0"]) == 0
        out = capsys.readouterr().out
        assert "phases:" in out
        assert "representativeness" in out

    def test_project(self, capsys):
        assert main(["project", "histo"]) == 0
        out = capsys.readouterr().out
        for gpu in ("V100", "RTX2060", "RTX3070", "A100"):
            assert gpu in out

    def test_characterize_save(self, capsys, tmp_path):
        output = tmp_path / "selection.json"
        assert main(["characterize", "histo", "--save", str(output)]) == 0
        assert output.exists()
        from repro.analysis.persistence import read_selection

        assert read_selection(output).workload == "histo"


class TestTracing:
    def test_trace_prints_summary_and_resets(self, capsys):
        from repro.obs import get_tracer

        assert main(["characterize", "histo", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "span" in out
        assert "pks.cluster" in out
        assert "counter" in out
        # main() must not leak an enabled tracer into the caller.
        assert not get_tracer().enabled

    def test_no_trace_flag_records_nothing(self, capsys):
        from repro.obs import get_tracer

        assert main(["characterize", "histo"]) == 0
        assert get_tracer().events == []
        assert get_tracer().counters == {}

    def test_sweep_trace_out_artifacts_reconcile(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        cache_dir = tmp_path / "cache"
        code = main(
            SWEEP
            + ["--cache-dir", str(cache_dir), "--trace-out", str(trace_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace_path}" in out
        assert "run summary written to" in out

        # Chrome trace: well-formed complete events on one timeline.
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ts", "dur", "pid", "tid"}
        names = {event["name"] for event in events}
        assert "harness.evaluate_cells" in names
        assert "harness.cell" in names
        assert "silicon.run" in names

        # Run summary: counters reconcile with the sweep manifest.
        summary_path = tmp_path / "trace.summary.json"
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        counters = summary["counters"]
        sweep = summary["sweep"]
        assert sweep["total_cells"] == 8
        assert counters["harness.cells"] == sweep["total_cells"]
        assert counters["harness.cells_completed"] == sweep["completed"]
        assert counters.get("harness.cell_failures", 0) == sweep["quarantined"]
        assert counters["silicon.kernels"] > 0
        assert counters["cache.writes"] >= 8

        manifest_path = (
            cache_dir / "manifests" / f"{sweep['sweep_id']}.json"
        )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["kind"] == "sweep_manifest"
        manifest = manifest["payload"]
        assert manifest["total_cells"] == sweep["total_cells"]
        embedded = manifest["observability"]["counters"]
        assert embedded["harness.cells"] == counters["harness.cells"]

    def test_trace_out_implies_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        assert main(["simulate", "gauss_208", "--trace-out", str(trace_path)]) == 0
        assert trace_path.exists()
        out = capsys.readouterr().out
        assert "pka.simulate" in out  # summary table was printed


class TestExitCodeContract:
    """Every verb maps outcomes to the same exit codes: 0 success,
    1 error, 3 partial results, 130 interrupted (see the module
    docstring in repro.cli).  Service verbs against an unreachable or
    unbindable endpoint must fail with 1 like any other error — not
    tracebacks, not bespoke codes."""

    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            pytest.param(["list"], 0, id="list-ok"),
            pytest.param(["figure", "2"], 1, id="figure-unknown"),
            pytest.param(
                ["characterize", "not_a_workload"], 1, id="unknown-workload"
            ),
            pytest.param(
                ["simulate", "not_a_workload"], 1, id="simulate-unknown"
            ),
            pytest.param(
                ["submit", "histo", "silicon", "--port", "1", "--timeout", "2"],
                1,
                id="submit-unreachable",
            ),
            pytest.param(
                ["loadgen", "--port", "1", "--jobs", "1"],
                1,
                id="loadgen-unreachable",
            ),
            pytest.param(
                ["serve", "--host", "203.0.113.1", "--port", "0"],
                1,
                id="serve-unbindable",
            ),
            pytest.param(
                ["serve", "--port", "0", "--workers", "-1"],
                1,
                id="serve-negative-workers",
            ),
            pytest.param(
                ["serve", "--port", "0", "--workers", "lots"],
                1,
                id="serve-garbage-workers",
            ),
            pytest.param(
                ["serve", "--port", "0", "--min-workers", "3",
                 "--max-workers", "2"],
                1,
                id="serve-inverted-band",
            ),
            pytest.param(
                ["loadgen", "--port", "1", "--jobs", "1",
                 "--shape", "burst:oops"],
                1,
                id="loadgen-bad-shape",
            ),
            pytest.param(
                SWEEP + ["--inject-faults", "exception@1xP", "--retries", "0"],
                EXIT_PARTIAL,
                id="sweep-partial",
            ),
        ],
    )
    def test_exit_codes(self, argv, expected, capsys):
        assert main(argv) == expected
        if expected == 1:
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("handler", ["_cmd_list", "_cmd_table3"])
    def test_interrupt_is_130_for_every_verb(self, monkeypatch, handler):
        verb = {"_cmd_list": "list", "_cmd_table3": "table3"}[handler]
        monkeypatch.setattr(
            cli, handler, lambda args: (_ for _ in ()).throw(KeyboardInterrupt())
        )
        assert main([verb]) == EXIT_INTERRUPTED


class TestServeWorkersParsing:
    """``--workers`` accepts a count or ``auto`` (elastic fleet); the
    env fallback ``PKA_SERVICE_WORKERS`` speaks the same grammar."""

    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("0", 0),
            ("4", 4),
            (" 2 ", 2),
            ("auto", "auto"),
            ("AUTO", "auto"),
            (4, 4),
        ],
    )
    def test_accepted_values(self, text, expected):
        assert cli._parse_workers(text) == expected

    @pytest.mark.parametrize("text", ["-1", "-3", "2.5", "lots", "", "auto2"])
    def test_rejected_values_carry_the_grammar(self, text):
        with pytest.raises(ValueError, match="--workers"):
            cli._parse_workers(text)

    def test_env_fallback_is_validated_too(self, monkeypatch, capsys):
        monkeypatch.setenv("PKA_SERVICE_WORKERS", "garbage")
        assert main(["serve", "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert "--workers" in err
        assert "Traceback" not in err


class TestSweepTruncationGuard:
    def test_truncated_results_raise_not_drop(self, monkeypatch):
        """A result list shorter than the cell list is a harness bug; the
        sweep tally must raise instead of silently dropping cells."""
        from repro.analysis import EvaluationHarness

        monkeypatch.setattr(
            EvaluationHarness,
            "evaluate_cells",
            lambda self, cells, **kwargs: list(cells)[:-1] and [None],
        )
        with pytest.raises(ValueError, match="shorter"):
            main(SWEEP)
