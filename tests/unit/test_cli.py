"""Tests for the operator console (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_and_command_options(self):
        args = build_parser().parse_args(
            ["--hosts", "6", "--host-mem-mb", "4096", "replay-ec2",
             "--window", "30", "--multiplier", "2", "--compression", "10"])
        assert args.hosts == 6
        assert args.host_mem_mb == 4096
        assert args.command == "replay-ec2"
        assert args.multiplier == 2
        assert args.compression == 10.0

    def test_cross_shard_pin_is_refused(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--cross-shard", "pin", "table1"])

    def test_multiplier_range_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay-ec2", "--multiplier", "9"])


class TestCommands:
    def test_table1_prints_the_execution_log(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "cloneImage" in out and "startVM" in out
        assert "committed" in out

    def test_lifecycle_walkthrough(self, capsys):
        assert main(["lifecycle"]) == 0
        out = capsys.readouterr().out
        assert "spawn:    committed" in out
        assert "aborted" in out  # the oversized spawn
        assert "VMs left: 0" in out

    def test_inventory_reports_utilisation(self, capsys):
        assert main(["inventory", "--operations", "2"]) == 0
        out = capsys.readouterr().out
        assert "fleet utilisation" in out
        assert "/vmRoot/vmHost0" in out

    def test_twopc_gc_reports_retained_records(self, capsys):
        assert main(["--hosts", "8", "--shards", "2", "2pc-gc"]) == 0
        out = capsys.readouterr().out
        assert "retained decision records" in out
        assert "shard-0" in out

    def test_twopc_gc_retired_shard_sweeps(self, capsys):
        assert main(["--hosts", "8", "--shards", "2", "2pc-gc",
                     "--retired-shard", "0"]) == 0
        out = capsys.readouterr().out
        assert "retired shard 0" in out
        assert "record(s) swept" in out

    def test_repair_drill_reconverges(self, capsys):
        assert main(["repair-drill"]) == 0
        out = capsys.readouterr().out
        assert "layers back in sync: True" in out

    def test_replay_hosting(self, capsys):
        assert main(["replay-hosting", "--operations", "15", "--window", "30"]) == 0
        out = capsys.readouterr().out
        assert "hosting-workload replay" in out
        assert "committed" in out

    def test_replay_ec2_small_window(self, capsys):
        assert main(["--hosts", "8", "replay-ec2", "--window", "10",
                     "--compression", "10"]) == 0
        out = capsys.readouterr().out
        assert "EC2 replay" in out
        assert "median latency" in out

    def test_failover_drill_loses_no_transactions(self, capsys):
        assert main(["failover", "--operations", "3"]) == 0
        out = capsys.readouterr().out
        assert "killed lead controller" in out
        assert "5/5" in out
