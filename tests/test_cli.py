"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def sources(tmp_path):
    writer = tmp_path / "writer.c"
    writer.write_text(
        "struct s { int flag; int data; };\n"
        "void w(struct s *p) { p->data = 1; smp_wmb(); p->flag = 1; }\n"
    )
    reader = tmp_path / "reader.c"
    reader.write_text(
        "struct s { int flag; int data; };\n"
        "void r(struct s *p) {\n"
        "\tif (!p->flag) return;\n"
        "\tsmp_rmb();\n"
        "\tg(p->data);\n"
        "}\n"
    )
    return writer, reader


class TestAnalyzeCommand:
    def test_pairs_two_files(self, sources, capsys):
        writer, reader = sources
        assert main(["analyze", str(writer), str(reader)]) == 0
        out = capsys.readouterr().out
        assert "2 barriers, 1 pairings" in out
        assert "pairing:" in out

    def test_patches_flag_prints_patches(self, sources, capsys):
        writer, reader = sources
        buggy = reader.parent / "buggy.c"
        buggy.write_text(reader.read_text().replace(
            "if (!p->flag) return;\n\tsmp_rmb();",
            "smp_rmb();\n\tif (!p->flag) return;",
        ))
        assert main(["analyze", str(writer), str(buggy), "--patches"]) == 0
        out = capsys.readouterr().out
        assert "OFence-generated patch" in out

    def test_window_options(self, sources, capsys):
        writer, reader = sources
        assert main([
            "analyze", str(writer), str(reader),
            "--write-window", "1", "--read-window", "10",
        ]) == 0

    def test_checks_subset_runs(self, sources, capsys):
        writer, reader = sources
        assert main([
            "analyze", str(writer), str(reader),
            "--checks", "misplaced,reread",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 pairings" in out

    def test_unknown_check_error_lists_registry_names(self, sources):
        from repro.checkers import registry

        writer, reader = sources
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(writer), str(reader),
                  "--checks", "misplaced,bogus-checker"])
        message = str(excinfo.value)
        assert "bogus-checker" in message
        # The valid-name list comes from the registry, sorted.
        assert ", ".join(sorted(registry.all_names())) in message


class TestCorpusCommands:
    def test_corpus_report(self, capsys):
        assert main(["corpus", "--small", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Section 6.4" in out

    def test_report_includes_figure7(self, capsys):
        assert main(["report", "--small", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--small", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "window=5" in out


class TestPerformanceFlags:
    def test_analyze_with_workers_and_profile(self, sources, capsys):
        writer, reader = sources
        assert main([
            "analyze", str(writer), str(reader),
            "--workers", "2", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "Stage profile" in out
        assert "scan" in out and "pair" in out

    def test_analyze_cache_dir_warm_run(self, sources, tmp_path, capsys):
        writer, reader = sources
        cache = tmp_path / "scan-cache"
        for _ in range(2):
            assert main([
                "analyze", str(writer), str(reader),
                "--cache-dir", str(cache), "--profile",
            ]) == 0
        out = capsys.readouterr().out
        assert "scan.disk_hits" in out
        assert "2 barriers, 1 pairings" in out

    def test_cache_dir_pointing_at_file_is_a_clean_error(
        self, sources, tmp_path
    ):
        writer, reader = sources
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        with pytest.raises(SystemExit, match="not a directory"):
            main([
                "analyze", str(writer), str(reader),
                "--cache-dir", str(blocker),
            ])

    def test_corpus_accepts_perf_flags(self, tmp_path, capsys):
        assert main([
            "corpus", "--small", "--seed", "5",
            "--cache-dir", str(tmp_path / "c"), "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Stage profile" in out

    def test_report_accepts_perf_flags(self, capsys):
        assert main(["report", "--small", "--seed", "5", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "Stage profile" in out


class TestFuzzCommands:
    def test_fuzz_small_run_exits_zero(self, tmp_path, capsys):
        code = main([
            "fuzz", "--iterations", "3", "--seed", "0",
            "--artifacts", str(tmp_path / "artifacts"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 iterations, 0 crashes" in out

    def test_fuzz_mode_subset(self, tmp_path, capsys):
        code = main([
            "fuzz", "--iterations", "2", "--seed", "1",
            "--modes", "executor", "--no-reduce",
            "--artifacts", str(tmp_path / "artifacts"),
        ])
        assert code == 0
        assert "2 iterations" in capsys.readouterr().out

    def test_eval_prints_per_checker_table(self, capsys):
        assert main(["eval", "--cases", "9", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out and "recall" in out
        for checker in ("misplaced", "reread", "wrong-type", "unneeded"):
            assert checker in out


class TestArgumentErrors:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
