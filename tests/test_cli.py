"""Smoke tests for the command-line interface."""

import hashlib

import pytest

from repro import registry
from repro.cli import main

#: one argv per grid subcommand (the seven that run a Campaign)
GRID_COMMANDS = {
    "run": ["run", "--algo", "ParDeepestFirst", "--scale", "tiny", "--limit", "1"],
    "campaign": ["campaign", "--scale", "tiny", "--algos", "ParSubtrees", "--limit", "1"],
    "table1": ["table1", "--scale", "tiny"],
    "figure": ["figure", "--which", "6", "--scale", "tiny"],
    "memory-cap": ["memory-cap", "--scale", "tiny", "--limit", "1"],
    "pareto": ["pareto", "--scale", "tiny", "--limit", "1"],
    "report": ["report", "--scale", "tiny"],
}


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

    def test_table1_jsonl_output_is_the_campaign_checkpoint(self, tmp_path, capsys):
        """A .jsonl ``--output`` of table1 is its grid's checkpoint: the
        bytes of the same grid run by ``campaign``."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        grid = ["--scale", "tiny", "--processors", "2"]
        assert main(["table1", *grid, "--output", str(a)]) == 0
        algos = "ParSubtrees,ParSubtreesOptim,ParInnerFirst,ParDeepestFirst"
        assert main(["campaign", *grid, "--algos", algos, "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() and a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--scale", "tiny", "--output", "x.json"],
            ["table1", "--records", "RECORDS", "--output", "y.jsonl"],
            ["campaign", "--scale", "tiny", "--resume", "c.jsonl", "--output", "d.jsonl"],
        ],
        ids=["campaign-json-output", "table1-records-jsonl-output", "campaign-two-files"],
    )
    def test_bad_record_output_is_one_line_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        """Records are written once, to one .jsonl file: any other
        ``--output`` is bad input, and no file is written."""
        from tests.analysis.record_files import write_jsonl

        records = tmp_path / "records"
        records.mkdir()
        write_jsonl([], records / "in.jsonl")
        monkeypatch.chdir(tmp_path)
        argv = [str(records / "in.jsonl") if a == "RECORDS" else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--output" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records"]

    def test_campaign(self, tmp_path, capsys):
        ckpt = str(tmp_path / "campaign.jsonl")
        argv = [
            "campaign",
            "--scale",
            "tiny",
            "--algos",
            "ParDeepestFirst,MemoryBounded",
            "--processors",
            "2",
            "4",
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
        from tests.analysis.record_files import read_jsonl

        assert len(read_jsonl(ckpt)) == 2 * 2 * 3  # trees x p x labels
        # re-running the same command resumes and leaves the bytes alone
        assert main(argv) == 0
        capsys.readouterr()
        assert open(ckpt, "rb").read() == blob

    def test_parity_smoke_checkpoint_bytes_are_pinned(self, tmp_path, capsys):
        """The grid of CI's runtime parity smoke writes these exact bytes,
        including the MemoryCapError message of every infeasible-cap
        (cap 0.5 x M_seq) scenario in its failed records."""
        ckpt = tmp_path / "parity.jsonl"
        argv = ["campaign", "--scale", "tiny", "--algos", "ParDeepestFirst,MemoryBounded",
                "--caps", "0.5,2.0", "--processors", "2", "4", "--resume", str(ckpt)]
        assert main(argv) == 0
        assert "\nquarantined: 120 scenario(s)" in capsys.readouterr().err
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == (
            "e2cd75b160a0b88f6968f5f24d75b7651ec00bcd26cf84768f766f5895103d27"
        )

    def test_campaign_resume_with_separate_output(self, tmp_path, capsys):
        """``--output`` may name the ``--resume`` checkpoint itself (the
        records are written once, there); another file is bad input."""
        ckpt = tmp_path / "ckpt.jsonl"
        argv = ["campaign", "--scale", "tiny", "--algos", "ParSubtrees",
                "--processors", "2", "--limit", "1", "--resume", str(ckpt)]
        assert main(argv + ["--output", str(tmp_path / "results.jsonl")]) == 2
        assert "two files" in capsys.readouterr().err
        assert not ckpt.exists()
        assert main(argv + ["--output", str(ckpt)]) == 0
        capsys.readouterr()
        from tests.analysis.record_files import read_jsonl

        assert len(read_jsonl(ckpt)) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.jsonl"]

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
            "--processors",
            "2",
            "4",
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
                    "--processors",
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
            (["--processors", "0"], "positive integer"),
        ],
    )
    def test_campaign_bad_grid_is_one_line_exit_2(self, flags, msg, capsys, tmp_path):
        out = tmp_path / "records.jsonl"
        argv = ["campaign", "--scale", "tiny", "--algos", "MemoryBounded", "--processors", "2"]
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


# ----------------------------------------------------------------------
# oracles: the hand-written scheduling loops the grid subcommands used to
# run; the records of the one grid path must print the same numbers
# ----------------------------------------------------------------------
def _tiny(limit):
    from repro.workloads import build_dataset

    return build_dataset(scale="tiny")[:limit]


def oracle_run(name, limit, processors):
    from repro.core import memory_lower_bound, simulate
    from repro.core.bounds import makespan_lower_bound

    algo = registry.get(name)
    counts = tuple(processors) if algo.kind == "parallel" else (1,)
    lines = [
        f"{'tree':<28s} {'p':>3s} {'makespan':>12s} {'Cmax/LB':>8s} "
        f"{'memory':>12s} {'mem/Mseq':>9s}"
    ]
    for inst in _tiny(limit):
        mseq = memory_lower_bound(inst.tree)
        for p in counts:
            sim = simulate(algo.run(inst.tree, p))
            cmax_lb = makespan_lower_bound(inst.tree, p)
            lines.append(
                f"{inst.name:<28s} {p:>3d} {sim.makespan:>12.5g} "
                f"{sim.makespan / cmax_lb:>8.3f} {sim.peak_memory:>12.5g} "
                f"{sim.peak_memory / mseq:>9.3f}"
            )
    return "\n".join(lines) + "\n"


def oracle_memory_cap(limit, processors):
    from repro.core import memory_lower_bound, simulate
    from repro.parallel import memory_bounded_schedule

    lines = []
    for p in processors:
        if len(processors) > 1:
            lines.append(f"p={p}")
        lines.append(f"{'tree':<28s} {'cap/Mseq':>9s} {'makespan':>12s} {'peak/Mseq':>10s}")
        for inst in _tiny(limit):
            mseq = memory_lower_bound(inst.tree)
            for factor in (1.0, 1.5, 2.0, 4.0):
                sim = simulate(memory_bounded_schedule(inst.tree, p, cap=factor * mseq))
                lines.append(
                    f"{inst.name:<28s} {factor:>9.1f} {sim.makespan:>12.5g} "
                    f"{sim.peak_memory / mseq:>10.3f}"
                )
    return "\n".join(lines) + "\n"


def oracle_pareto(limit, processors):
    from repro.analysis import ParetoPoint, hypervolume, pareto_front
    from repro.core import memory_lower_bound, simulate
    from repro.parallel import HEURISTICS, memory_bounded_schedule

    lines = []
    for p in processors:
        for inst in _tiny(limit):
            tree = inst.tree
            mseq = memory_lower_bound(tree)
            points = []
            for name, fn in HEURISTICS.items():
                r = simulate(fn(tree, p))
                points.append(ParetoPoint(r.makespan, r.peak_memory, name))
            for factor in (1.0, 1.5, 2.0, 3.0):
                r = simulate(memory_bounded_schedule(tree, p, factor * mseq))
                points.append(
                    ParetoPoint(r.makespan, r.peak_memory, f"MemoryBounded@cap{factor:g}")
                )
            ref = ParetoPoint(
                max(q.makespan for q in points) * 1.05,
                max(q.memory for q in points) * 1.05,
            )
            lines.append(f"\n{inst.name} (p={p}): front of {len(points)} schedules, "
                         f"hypervolume {hypervolume(points, ref):.4g}")
            for q in pareto_front(points):
                lines.append(
                    f"  makespan {q.makespan:>12.5g}  memory {q.memory:>12.5g}  {q.label}"
                )
    return "\n".join(lines) + "\n"


class TestSameNumbersAsHandLoops:
    @pytest.mark.parametrize("name", registry.names())
    def test_run(self, name, capsys):
        argv = ["run", "--algo", name, "--scale", "tiny", "--limit", "2",
                "--processors", "2", "4"]
        assert main(argv) == 0
        assert capsys.readouterr().out == oracle_run(name, 2, (2, 4))

    @pytest.mark.parametrize("processors", [(2,), (2, 4)])
    def test_memory_cap(self, processors, capsys):
        argv = ["memory-cap", "--scale", "tiny", "--limit", "2",
                "--processors", *map(str, processors)]
        assert main(argv) == 0
        assert capsys.readouterr().out == oracle_memory_cap(2, processors)

    @pytest.mark.parametrize("processors", [(2,), (2, 4)])
    def test_pareto(self, processors, capsys):
        argv = ["pareto", "--scale", "tiny", "--limit", "2",
                "--processors", *map(str, processors)]
        assert main(argv) == 0
        assert capsys.readouterr().out == oracle_pareto(2, processors)


class TestOneGridPath:
    def test_campaign_reads_processors(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        argv = GRID_COMMANDS["campaign"] + ["--processors", "3", "--output", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        from tests.analysis.record_files import read_jsonl

        assert {r.p for r in read_jsonl(out)} == {3}

    @pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
    def test_bad_processors_is_one_line_exit_2(self, command, capsys):
        assert main(GRID_COMMANDS[command] + ["--processors", "0"]) == 2
        err = capsys.readouterr().err
        assert "positive integer" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, msg",
        [
            (GRID_COMMANDS["run"] + ["--limit", "-1"], "--limit must be >= 0"),
            (GRID_COMMANDS["pareto"] + ["--limit", "-2"], "--limit must be >= 0"),
            (GRID_COMMANDS["campaign"] + ["--workers", "-3"], "--workers must be >= 1"),
            (GRID_COMMANDS["table1"] + ["--workers", "0"], "--workers must be >= 1"),
            (GRID_COMMANDS["campaign"] + ["--caps", "x"], "could not convert"),
        ],
    )
    def test_bad_option_is_one_line_exit_2(self, argv, msg, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert msg in err and err.count("\n") == 1

    def test_foreign_resume_checkpoint_is_exit_2(self, tmp_path, capsys):
        """Rejected by run_campaign itself, after the one-line summary
        of the grid: the error is the last stderr line, no traceback."""
        ckpt = str(tmp_path / "a.jsonl")
        assert main(GRID_COMMANDS["campaign"] + ["--resume", ckpt]) == 0
        capsys.readouterr()
        blob = open(ckpt, "rb").read()
        other = ["campaign", "--scale", "tiny", "--algos", "ParDeepestFirst", "--limit", "1"]
        assert main(other + ["--resume", ckpt]) == 2
        err = capsys.readouterr().err
        assert "diverges from this campaign" in err.splitlines()[-1]
        assert "Traceback" not in err and err.count("\n") == 2
        assert open(ckpt, "rb").read() == blob

    def test_bad_timeout_is_exit_2(self, capsys):
        assert main(GRID_COMMANDS["campaign"] + ["--timeout", "0"]) == 2
        err = capsys.readouterr().err
        assert "timeout must be None or > 0" in err.splitlines()[-1]
        assert "Traceback" not in err and err.count("\n") == 2

    @pytest.mark.parametrize("command", ["table1", "report"])
    @pytest.mark.parametrize(
        "kind, msg",
        [
            ("missing", "No such file"),
            ("corrupt", "malformed record"),
            ("retired", "columnar record stores were removed"),
            ("empty", "holds no measured record"),
            ("all-quarantined", "holds no measured record"),
        ],
    )
    def test_bad_records_file_is_one_line_exit_2(
        self, command, kind, msg, tmp_path, capsys
    ):
        path = tmp_path / ("old.store" if kind == "retired" else "records.jsonl")
        if kind == "corrupt":
            path.write_text("{not a record}\n")
        elif kind == "retired":
            path.mkdir()
        elif kind == "empty":
            path.write_text("")
        elif kind == "all-quarantined":  # the one scenario's cap is infeasible
            argv = ["campaign", "--scale", "tiny", "--limit", "1", "--algos", "MemoryBounded",
                    "--caps", "0.5", "--processors", "2", "--resume", str(path)]
            assert main(argv) == 0
            assert "quarantined: 1 scenario(s)" in capsys.readouterr().err
        assert main([command, "--scale", "tiny", "--records", str(path)]) == 2
        err = capsys.readouterr().err
        assert msg in err and "Traceback" not in err and err.count("\n") == 1
        if kind in ("empty", "all-quarantined"):
            assert str(path) in err

    def test_report_records_without_reference_heuristic_is_exit_2(self, tmp_path, capsys):
        """The report's figures compare every heuristic with a reference
        one; a records file without it is bad input, not a traceback."""
        path = str(tmp_path / "two.jsonl")
        argv = ["campaign", "--scale", "tiny", "--limit", "1", "--processors", "2",
                "--algos", "ParSubtrees,ParDeepestFirst", "--output", path]
        assert main(argv) == 0
        assert main(["table1", "--records", path]) == 0
        capsys.readouterr()
        assert main(["report", "--scale", "tiny", "--records", path]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert path in err and "lack reference heuristic" in err

    def test_infeasible_cap_same_checkpoint_on_both_runtimes(self, tmp_path, capsys):
        """An infeasible cap is a quarantined scenario, not a crash, in
        process and on the pool alike, with the same checkpoint bytes."""
        argv = ["campaign", "--scale", "tiny", "--limit", "1", "--algos",
                "ParDeepestFirst,MemoryBounded", "--caps", "0.5,2.0", "--processors", "2"]
        paths = [tmp_path / "in-process.jsonl", tmp_path / "pool.jsonl"]
        for path, extra in zip(paths, ([], ["--workers", "2"])):
            assert main(argv + extra + ["--resume", str(path)]) == 0
            assert "quarantined: 1 scenario(s)" in capsys.readouterr().err
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["theory", "--workers", "2"],
            ["theory", "--output", "x.csv"],
            ["dataset", "--processors", "2"],
            ["memory-cap", "--output", "x.csv"],
            ["campaign", "--procs", "2"],
        ],
    )
    def test_removed_options_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
