"""Tests for the hdvb-bench command line."""

import pytest

from repro.bench.cli import main


class TestStaticTables:
    @pytest.mark.parametrize("command, marker", [
        ("table1", "Mediabench"),
        ("table2", "x264"),
        ("table3", "riverbed"),
        ("table4", "hdvb-mencoder"),
    ])
    def test_descriptive_tables(self, command, marker, capsys):
        assert main([command]) == 0
        assert marker in capsys.readouterr().out


class TestCampaigns:
    COMMON = ["--frames", "3", "--runs", "1",
              "--sequences", "rush_hour", "--tiers", "576p25"]

    def test_table5(self, capsys):
        assert main(["table5"] + self.COMMON) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "Compression gains" in out
        assert "mpeg2 PSNR" in out

    def test_figure1_single_part(self, capsys):
        assert main(["figure1", "--part", "b"] + self.COMMON) == 0
        out = capsys.readouterr().out
        assert "Figure 1(b)" in out
        assert "decode performance, simd backend" in out

    def test_speedups(self, capsys):
        assert main(["speedups"] + self.COMMON) == 0
        out = capsys.readouterr().out
        assert "decode SIMD speed-ups" in out
        assert "mpeg2" in out

    def test_scale_argument(self, capsys):
        assert main(["table5", "--scale", "1/16", "--frames", "2", "--runs", "1",
                     "--sequences", "rush_hour", "--tiers", "576p25"]) == 0
        assert "rush_hour" in capsys.readouterr().out

    def test_unknown_sequence_fails_cleanly(self, capsys):
        assert main(["table5", "--sequences", "bbb", "--tiers", "576p25",
                     "--frames", "2"]) == 1
        assert "hdvb-bench:" in capsys.readouterr().err

    def test_unknown_tier_fails_cleanly(self, capsys):
        assert main(["figure1", "--part", "a", "--tiers", "480i60",
                     "--frames", "2"]) == 1
        assert "hdvb-bench:" in capsys.readouterr().err

    def test_characterize(self, capsys):
        assert main(["characterize", "--codec", "mpeg2", "--frames", "2",
                     "--sequences", "rush_hour", "--tiers", "576p25"]) == 0
        out = capsys.readouterr().out
        assert "Kernel mix: mpeg2 encode" in out
        assert "Kernel mix: mpeg2 decode" in out

    def test_table5_with_extension_codecs(self, capsys):
        assert main(["table5", "--frames", "2", "--sequences", "rush_hour",
                     "--tiers", "576p25", "--codecs", "mpeg2,vc1"]) == 0
        out = capsys.readouterr().out
        assert "vc1 PSNR" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestStreaming:
    def test_streaming_sweep(self, capsys):
        assert main(["streaming", "--codecs", "mpeg2", "--loss", "0.05",
                     "--burst", "3", "--fec", "0,4", "--trials", "1",
                     "--frames", "4"]) == 0
        out = capsys.readouterr().out
        assert "Streaming: seeded loss sweep" in out
        assert "graceful" in out
        assert "fec rec" in out
        assert "mpeg2" in out

    def test_streaming_rejects_bad_loss(self, capsys):
        assert main(["streaming", "--codecs", "mpeg2", "--loss", "1.5",
                     "--trials", "1", "--frames", "3"]) == 1
        assert "hdvb-bench:" in capsys.readouterr().err

    def test_streaming_rejects_negative_fec_and_records_nothing(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["streaming", "--codecs", "mpeg2", "--loss", "0.05",
                     "--burst", "3", "--fec", "-4", "--trials", "1",
                     "--frames", "3", "--record", "--store", str(store)]) == 1
        assert "hdvb-bench: FEC group size must be >= 0" in capsys.readouterr().err
        assert not (store / "history.jsonl").exists()

    @pytest.mark.parametrize("command", ["streaming", "robustness"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_sweeps_reject_trials_below_one(self, command, trials, capsys):
        assert main([command, "--codecs", "mpeg2", "--trials", trials,
                     "--frames", "3"]) == 1
        assert "hdvb-bench: trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["streaming", "--loss", "abc"],
        ["streaming", "--burst", "x"],
        ["streaming", "--fec", "x"],
        ["serve", "--seeds", "0,x"],
        ["bdrate", "--qscales", "2,x"],
    ])
    def test_non_numeric_list_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
