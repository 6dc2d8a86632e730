"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_dataset(self, capsys):
        assert main(["dataset", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out

    def test_table1(self, capsys, tmp_path):
        out_path = str(tmp_path / "t1.csv")
        assert (
            main(
                [
                    "table1",
                    "--scale",
                    "tiny",
                    "--processors",
                    "2",
                    "--output",
                    out_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ParSubtrees" in out
        with open(out_path) as fh:
            assert fh.readline().startswith("heuristic,")

    def test_figure6(self, capsys):
        assert main(["figure", "--which", "6", "--scale", "tiny", "--processors", "2"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_figure7(self, capsys):
        assert main(["figure", "--which", "7", "--scale", "tiny", "--processors", "2"]) == 0
        assert "ParSubtrees" in capsys.readouterr().out

    def test_theory(self, capsys):
        assert main(["theory"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "Figure 5" in out

    def test_memory_cap(self, capsys):
        assert main(["memory-cap", "--scale", "tiny", "--limit", "2", "--processors", "4"]) == 0
        assert "cap/Mseq" in capsys.readouterr().out

    def test_shapes(self, capsys):
        assert main(["shapes", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "paper range" in out
        assert "max degree" in out

    def test_pareto(self, capsys):
        assert main(["pareto", "--scale", "tiny", "--limit", "1", "--processors", "4"]) == 0
        out = capsys.readouterr().out
        assert "front of" in out
        assert "makespan" in out

    def test_report(self, tmp_path, capsys):
        out_path = str(tmp_path / "exp.md")
        assert (
            main(["report", "--scale", "tiny", "--processors", "2", "--output", out_path]) == 0
        )
        capsys.readouterr()
        text = open(out_path).read()
        assert "Table 1" in text
        assert "Figure 6" in text
        assert "(paper)" in text

    def test_records_json_output(self, tmp_path, capsys):
        out_path = str(tmp_path / "records.json")
        main(["table1", "--scale", "tiny", "--processors", "2", "--output", out_path])
        capsys.readouterr()
        from repro.analysis import load_records

        records = load_records(out_path)
        assert records

    def test_campaign(self, tmp_path, capsys):
        ckpt = str(tmp_path / "campaign.jsonl")
        argv = [
            "campaign",
            "--scale",
            "tiny",
            "--algos",
            "ParDeepestFirst,MemoryBounded",
            "--procs",
            "2,4",
            "--caps",
            "1.5,2.0",
            "--limit",
            "2",
            "--resume",
            ckpt,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "MemoryBounded@cap1.5" in out
        assert "ParDeepestFirst" in out
        blob = open(ckpt, "rb").read()
        from repro.analysis import load_records

        assert len(load_records(ckpt)) == 2 * 2 * 3  # trees x p x labels
        # re-running the same command resumes and leaves the bytes alone
        assert main(argv) == 0
        capsys.readouterr()
        assert open(ckpt, "rb").read() == blob

    def test_campaign_resume_with_separate_output(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt.jsonl")
        out = str(tmp_path / "results.jsonl")
        assert (
            main(
                [
                    "campaign",
                    "--scale",
                    "tiny",
                    "--algos",
                    "ParSubtrees",
                    "--procs",
                    "2",
                    "--limit",
                    "1",
                    "--resume",
                    ckpt,
                    "--output",
                    out,
                ]
            )
            == 0
        )
        capsys.readouterr()
        from repro.analysis import load_records

        assert load_records(out) == load_records(ckpt)

    def test_campaign_supervised_report_and_fault_plan(self, tmp_path, capsys):
        """--supervise + hidden --fault-plan: the injected compile
        failure degrades the backend, the checkpoint matches the
        unsupervised run byte-for-byte, and --report prints the
        supervised digest."""
        base = [
            "campaign",
            "--scale",
            "tiny",
            "--algos",
            "ParDeepestFirst,ParSubtrees",
            "--procs",
            "2,4",
            "--limit",
            "2",
        ]
        plain = str(tmp_path / "plain.jsonl")
        assert main(base + ["--resume", plain]) == 0
        capsys.readouterr()
        supervised = str(tmp_path / "supervised.jsonl")
        assert (
            main(
                base
                + [
                    "--resume",
                    supervised,
                    "--supervise",
                    "--report",
                    "--fault-plan",
                    '{"faults": [{"kind": "compile_failure"}]}',
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "supervised run:" in captured.out
        assert "[supervised]" in captured.err
        assert open(plain, "rb").read() == open(supervised, "rb").read()

    def test_campaign_bad_fault_plan_rejected(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--scale",
                    "tiny",
                    "--algos",
                    "ParSubtrees",
                    "--fault-plan",
                    "{broken",
                ]
            )
            == 2
        )
        assert "--fault-plan" in capsys.readouterr().err

    def test_campaign_all_algos_and_unknown(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--scale",
                    "tiny",
                    "--algos",
                    "all",
                    "--procs",
                    "2",
                    "--limit",
                    "1",
                ]
            )
            == 0
        )
        assert "MemoryAwareSubtrees" in capsys.readouterr().out
        assert main(["campaign", "--scale", "tiny", "--algos", "Nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, msg",
        [
            (["--caps", "nan"], "finite and positive"),
            (["--caps", "0"], "finite and positive"),
            (["--procs", "0"], "positive integer"),
        ],
    )
    def test_campaign_bad_grid_is_one_line_exit_2(self, flags, msg, capsys, tmp_path):
        out = tmp_path / "records.jsonl"
        argv = ["campaign", "--scale", "tiny", "--algos", "MemoryBounded", "--procs", "2"]
        assert main(argv + flags + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert msg in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, msg",
        [
            (["--workers", "0"], "workers must be >= 1"),
            (["--queue-depth", "0"], "queue_depth must be >= 1"),
            (["--job-timeout", "0"], "job_timeout must be None or > 0"),
            (["--job-timeout", "-1"], "job_timeout must be None or > 0"),
        ],
    )
    def test_serve_bad_setting_is_exit_2(self, flags, msg, capsys, tmp_path, monkeypatch):
        from http.server import ThreadingHTTPServer

        def never(self, *args, **kwargs):
            raise AssertionError("a server with a bad setting started serving")

        monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", never)
        root = tmp_path / "svc"
        assert main(["serve", str(root), "--port", "0"] + flags) == 2
        assert msg in capsys.readouterr().err
        assert not root.exists()  # rejected before the journal or the port
