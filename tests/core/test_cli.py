"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


FAST = ("--fast",)


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "growth", "scope", "table2", "survey",
                        "parking", "exploit", "perception", "afilters",
                        "hygiene", "transparency", "blockable"):
            args = parser.parse_args(
                [command] + (["reddit.com"]
                             if command == "blockable" else []))
            assert args.command == command

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flags_accepted_after_subcommand(self):
        args = build_parser().parse_args(["table1", "--fast",
                                          "--seed", "7"])
        assert args.fast and args.seed == 7

    @pytest.mark.parametrize("flag,value,attr,expected", [
        ("--seed", "1", "seed", 1),
        ("--checkpoint", "run.ckpt", "checkpoint", "run.ckpt"),
        ("--fast", None, "fast", True),
    ])
    def test_common_flag_honoured_before_or_after_subcommand(
            self, flag, value, attr, expected):
        given = [flag] if value is None else [flag, value]
        before = build_parser().parse_args(given + ["survey"])
        after = build_parser().parse_args(["survey"] + given)
        assert getattr(before, attr) == expected
        assert getattr(after, attr) == expected

    def test_common_flag_defaults_without_the_flag(self):
        args = build_parser().parse_args(["survey"])
        assert (args.seed, args.checkpoint, args.fast) == (2015, None, False)


class TestCommands:
    def test_table1(self):
        text = run_cli("table1", *FAST)
        assert "2011" in text and "5152" in text
        assert "2,011" not in text  # years render as years

    def test_growth(self):
        text = run_cli("growth", *FAST)
        assert "5,936" in text
        assert "jump: Rev 200" in text

    def test_scope(self):
        text = run_cli("scope", *FAST)
        assert "unrestricted: 156" in text
        assert "4 keys" in text

    def test_table2(self):
        text = run_cli("table2", *FAST)
        assert "Top 100" in text
        assert "33" in text

    def test_hygiene(self):
        text = run_cli("hygiene", *FAST)
        assert "duplicates: 35" in text

    def test_afilters(self):
        text = run_cli("afilters", *FAST)
        assert "61 added" in text
        assert "A7 re-added as A28" in text

    def test_transparency(self):
        text = run_cli("transparency", *FAST)
        assert "TRANSPARENCY REPORT" in text

    def test_exploit(self):
        text = run_cli("exploit", "--bits", "48", *FAST)
        assert "full bypass: True" in text

    def test_perception(self):
        text = run_cli("perception", *FAST)
        assert "Figure 9(d)" in text
        assert "disagreeing" in text

    def test_blockable_known_publisher(self):
        text = run_cli("blockable", "reddit.com", *FAST)
        assert "Blockable items" in text
        assert "allowed" in text

    def test_seed_changes_output(self):
        a = run_cli("growth", *FAST)
        b = run_cli("growth", "--seed", "7", *FAST)
        assert "jump: Rev 200" in a and "jump: Rev 200" in b
