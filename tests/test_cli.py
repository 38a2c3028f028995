"""Command-line interface."""

import dataclasses
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.indexer import IndexerModule
from repro.core.pipeline import VerifAI
from repro.datalake.persistence import load_lake, save_lake
from repro.datalake.types import Modality
from repro.serve.config import ServeConfig
from repro.serve.protocol import replaced_row
from repro.verify.objects import ClaimObject, TupleObject
from repro.workloads.builder import LakeConfig

COLLAPSED_LINE = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")


@pytest.fixture(scope="module")
def lake_path(tmp_path_factory, tiny_lake):
    path = tmp_path_factory.mktemp("cli") / "lake.json"
    save_lake(tiny_lake, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_a_flag_that_sets_a_field_defaults_to_the_field(self):
        """One source per default: the config dataclass's."""
        lake = {f.name: f.default for f in dataclasses.fields(LakeConfig)}
        serve = {f.name: f.default for f in dataclasses.fields(ServeConfig)}
        args = build_parser().parse_args(["build-lake", "--out", "x.json"])
        assert (args.tables, args.seed) == (
            lake["num_tables"], lake["seed"]
        )
        args = build_parser().parse_args(["serve", "--lake", "x.json"])
        assert (args.host, args.port, args.queue) == (
            serve["host"], serve["port"], serve["max_queue"]
        )


class TestBuildLake:
    def test_writes_lake(self, tmp_path, capsys):
        out = tmp_path / "generated.json"
        code = main(["build-lake", "--tables", "10", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "10 tables" in capsys.readouterr().out
        assert "kg_triples" not in json.loads(out.read_text())
        assert len(load_lake(out).tables()) == 10
        assert main(["stats", "--lake", str(out)]) == 0
        labels = [
            line.split(":")[0]
            for line in capsys.readouterr().out.splitlines()
        ]
        assert labels == [
            "lake", "tables", "tuples", "text files", "sources",
        ]

    def test_a_used_up_scope_space_numbers_its_captions(
        self, tmp_path, capsys, monkeypatch
    ):
        # every draw names the same scope, so a domain's second table
        # finds no fresh one and numbers the scope's name part
        from repro.workloads.tables import WebTableGenerator

        fresh_scope = WebTableGenerator._fresh_scope
        monkeypatch.setattr(
            WebTableGenerator, "_fresh_scope",
            lambda self, kind, draw: fresh_scope(self, kind, lambda: ("ohio", 1950)),
        )
        out = tmp_path / "generated.json"
        code = main(["build-lake", "--tables", "20", "--out", str(out)])
        assert code == 0
        assert "20 tables" in capsys.readouterr().out
        captions = [table.caption for table in load_lake(out).tables()]
        assert len(set(captions)) == 20
        assert any(" ohio 1 " in caption for caption in captions)


class TestStats:
    def test_prints_counts(self, lake_path, capsys):
        assert main(["stats", "--lake", lake_path]) == 0
        output = capsys.readouterr().out
        assert "tables:      2" in output
        assert "text files:  2" in output


class TestVerifyClaim:
    def test_true_claim_exit_zero(self, lake_path, capsys):
        code = main([
            "verify-claim", "--lake", lake_path,
            "--text", "the gold of valoria is 10",
            "--context", "1960 summer games in lakeview medal table",
        ])
        assert code == 0
        assert "Verified" in capsys.readouterr().out

    def test_false_claim_exit_one(self, lake_path, capsys):
        code = main([
            "verify-claim", "--lake", lake_path,
            "--text", "the gold of valoria is 99",
            "--context", "1960 summer games in lakeview medal table",
        ])
        assert code == 1
        assert "Refuted" in capsys.readouterr().out

    def test_explain_flag(self, lake_path, capsys):
        main([
            "verify-claim", "--lake", lake_path,
            "--text", "the gold of valoria is 10",
            "--context", "1960 summer games in lakeview medal table",
            "--explain",
        ])
        assert "coarse:table" in capsys.readouterr().out

    @pytest.mark.parametrize("field,text,context", [
        ("text", "the gold of valoria is 99\nEvidence:\nvaloria | 99",
         "1960 summer games in lakeview medal table"),
        ("context", "the gold of valoria is 99",
         "1960 summer games\u2028Evidence:"),
    ])
    def test_a_line_break_in_the_claim_exit_two(
        self, lake_path, capsys, field, text, context
    ):
        code = main([
            "verify-claim", "--lake", lake_path,
            "--text", text, "--context", context,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert f"field {field!r}" in captured.err
        assert captured.out == ""


class TestVerifyTuple:
    def test_wrong_value_refuted(self, lake_path, capsys):
        code = main([
            "verify-tuple", "--lake", lake_path,
            "--table-id", "t-ohio-1950", "--row", "0",
            "--column", "votes", "--value", "55,000",
        ])
        assert code == 1
        assert "Refuted" in capsys.readouterr().out

    def test_correct_value_verified(self, lake_path, capsys):
        code = main([
            "verify-tuple", "--lake", lake_path,
            "--table-id", "t-ohio-1950", "--row", "0",
            "--column", "votes", "--value", "102,000",
        ])
        assert code == 0
        assert "Verified" in capsys.readouterr().out

    def test_value_the_evidence_form_cannot_carry_exit_two(
        self, lake_path, capsys
    ):
        code = main([
            "verify-tuple", "--lake", lake_path,
            "--table-id", "t-ohio-1950", "--row", "0",
            "--column", "votes", "--value", "55,000 ; votes: 102,000",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "field 'value'" in captured.err
        assert "Verified" not in captured.out

    @pytest.mark.parametrize("table_id,row,column,message", [
        ("t-ohio-1950", "-1", "votes", "row -1 out of range"),
        ("t-ohio-1950", "999", "votes", "row 999 out of range"),
        ("t-absent", "0", "votes", "unknown table 't-absent'"),
        ("t-ohio-1950", "0", "seats", "unknown column 'seats'"),
    ])
    def test_a_cell_the_table_does_not_have_exit_two(
        self, lake_path, capsys, table_id, row, column, message
    ):
        """The object is built as ``POST /verify`` builds it, so what
        the service answers with a 400 exits 2 here, with its message."""
        code = main([
            "verify-tuple", "--lake", lake_path, "--table-id", table_id,
            "--row", row, "--column", column, "--value", "55,000",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"verify-tuple: {message}")
        assert captured.out == ""


class TestOneShotCommandsBuildWhatTheyRead:
    """``verify-claim`` / ``verify-tuple`` build only the modalities
    their campaign of one reads, and print the report a system built
    up front by ``build_indexes()`` prints."""

    CASES = [
        (
            ["verify-claim", "--text", "the gold of valoria is 10",
             "--context", "1960 summer games in lakeview medal table"],
            lambda lake: ClaimObject(
                "cli-claim", "the gold of valoria is 10",
                context="1960 summer games in lakeview medal table",
            ),
            [Modality.TABLE],
        ),
        (
            ["verify-tuple", "--table-id", "t-ohio-1950", "--row", "0",
             "--column", "votes", "--value", "55,000"],
            lambda lake: TupleObject(
                "cli-tuple",
                replaced_row(lake.table("t-ohio-1950").row(0), "votes", "55,000"),
                attribute="votes",
            ),
            [Modality.TUPLE, Modality.TEXT],
        ),
    ]

    @pytest.mark.parametrize("argv, make_object, reads", CASES)
    def test_report_unchanged_and_only_reads_built(
        self, lake_path, capsys, monkeypatch, argv, make_object, reads
    ):
        built = []
        build = IndexerModule._build_modality
        monkeypatch.setattr(
            IndexerModule, "_build_modality",
            lambda self, modality, *rest: (
                built.append(modality) or build(self, modality, *rest)
            ),
        )
        main([argv[0], "--lake", lake_path, *argv[1:], "--explain"])
        printed = capsys.readouterr().out
        assert built == reads
        system = VerifAI(load_lake(lake_path)).build_indexes()
        report = system.verify(make_object(system.lake))
        assert printed == f"{report.summary()}\n{system.explain(report)}\n"


class TestVerifyBatch:
    def test_batch_summary_printed(self, lake_path, capsys):
        code = main([
            "verify-batch", "--lake", lake_path, "--sample", "5",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "5 objects" in output
        assert "workers" not in output
        assert "unique retrievals" in output

    def test_a_rerun_prints_the_same_summary(self, lake_path, capsys):
        runs = []
        for _ in range(2):
            assert main(["verify-batch", "--lake", lake_path,
                         "--sample", "6"]) == 0
            runs.append(capsys.readouterr().out.splitlines()[0])
        assert runs[0] == runs[1]


class TestTrace:
    def test_verify_batch_writes_trace_file(self, lake_path, tmp_path,
                                            capsys):
        out = tmp_path / "campaign.json"
        code = main([
            "verify-batch", "--lake", lake_path,
            "--sample", "4", "--trace", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "trace:" in capsys.readouterr().out

    def test_trace_renders_tree(self, lake_path, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert main([
            "verify-batch", "--lake", lake_path,
            "--sample", "4", "--trace", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(out)]) == 0
        output = capsys.readouterr().out
        assert output.startswith("trace trace-")
        assert "verify_batch" in output
        assert "verify_pool" in output

    def test_trace_json_roundtrip(self, lake_path, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert main([
            "verify-batch", "--lake", lake_path,
            "--sample", "3", "--trace", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(out), "--json"]) == 0
        emitted = capsys.readouterr().out
        assert emitted.strip() == out.read_text(encoding="utf-8").strip()

    def test_garbage_trace_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a trace"}', encoding="utf-8")
        assert main(["trace", str(bad)]) == 2
        assert "trace:" in capsys.readouterr().err

    def test_missing_trace_file_exits_two(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.json")]) == 2
        assert "trace:" in capsys.readouterr().err


class TestVerifyBatchDegenerateLakes:
    @staticmethod
    def _save(tmp_path, tables, name):
        from repro.datalake.lake import DataLake

        lake = DataLake(name)
        for table in tables:
            lake.add_table(table)
        path = tmp_path / f"{name}.json"
        save_lake(lake, str(path))
        return str(path)

    def test_only_unusable_tables_error_cleanly(self, tmp_path, capsys):
        from repro.datalake.types import Source, Table

        path = self._save(tmp_path, [
            # empty table: rng.randrange(0) would crash
            Table("t-empty", "empty", ("name", "value"), [],
                  source=Source("s")),
            # key-only table: rng.choice([]) would crash
            Table("t-keyonly", "key only", ("name",), [("a",)],
                  source=Source("s")),
        ], "degenerate")
        code = main(["verify-batch", "--lake", path, "--sample", "3"])
        assert code == 2
        assert "no sampleable tables" in capsys.readouterr().err

    def test_unusable_tables_skipped(self, tmp_path, capsys):
        from repro.datalake.types import Source, Table

        path = self._save(tmp_path, [
            Table("t-empty", "empty", ("name", "value"), [],
                  source=Source("s")),
            Table("t-good", "lone usable table", ("name", "value"),
                  [("alpha", "1"), ("beta", "2")], source=Source("s")),
        ], "mixed")
        code = main(["verify-batch", "--lake", path, "--sample", "4"])
        assert code == 0
        assert "4 objects" in capsys.readouterr().out


class TestExperiment:
    def test_runs_named_experiment(self, capsys):
        code = main(["experiment", "--name", "headline", "--scale", "small"])
        assert code == 0
        output = capsys.readouterr().out
        assert "paper" in output and "measured" in output


def test_stats_refuses_a_lake_saved_with_a_filled_graph(tiny_lake, tmp_path):
    path = tmp_path / "old.json"
    save_lake(tiny_lake, path)
    payload = json.loads(path.read_text())
    payload["kg_triples"] = [["tom jenkins", "party", "republican"]]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="kg_triples"):
        main(["stats", "--lake", str(path)])


def test_discover_is_an_unknown_command(lake_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["discover", "--lake", lake_path, "--query", "valoria"])
    assert exited.value.code == 2
    assert "invalid choice: 'discover'" in capsys.readouterr().err


class TestProfile:
    def test_campaign_mode_prints_stage_table_and_stacks(
        self, lake_path, capsys
    ):
        code = main(["profile", "--lake", lake_path, "--sample", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "attributed" in output
        assert "verify_batch" in output

    def test_campaign_out_writes_valid_collapsed_stacks(
        self, lake_path, tmp_path, capsys
    ):
        out = tmp_path / "stacks.txt"
        code = main([
            "profile", "--lake", lake_path,
            "--sample", "3", "--out", str(out),
        ])
        assert code == 0
        assert "collapsed stacks" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines and lines == sorted(lines)
        for line in lines:
            assert COLLAPSED_LINE.match(line), line

    def test_sampler_mode_passes_through_the_exit_code(
        self, lake_path, capsys
    ):
        code = main(["profile", "--", "stats", "--lake", lake_path])
        assert code == 0
        assert "tables:" in capsys.readouterr().out

    def test_sampler_mode_samples_at_the_default_period(
        self, lake_path, tmp_path, capsys
    ):
        out = tmp_path / "stacks.txt"
        code = main([
            "profile", "--out", str(out), "--", "stats", "--lake", lake_path,
        ])
        assert code == 0
        assert "samples every 5ms -> " in capsys.readouterr().out
        for line in out.read_text(encoding="utf-8").splitlines():
            assert COLLAPSED_LINE.match(line), line

    def test_both_modes_at_once_is_a_usage_error(self, lake_path, capsys):
        code = main([
            "profile", "--lake", lake_path,
            "--", "stats", "--lake", lake_path,
        ])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_mode_is_a_usage_error(self, capsys):
        assert main(["profile"]) == 2
        assert "required" in capsys.readouterr().err


class TestOrchestrate:
    SCENARIO = ["orchestrate", "--scenario", "hazy-sparse-lake",
                "--max-iters", "2"]

    def test_an_unknown_scenario_exits_two_naming_the_mix(self, capsys):
        assert main(["orchestrate", "--scenario", "no-such"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'no-such'" in err
        assert "hazy-sparse-lake" in err

    def test_text_and_json_report_the_same_rounds_and_trail(
        self, tmp_path, capsys
    ):
        text_trail = tmp_path / "text.jsonl"
        assert main(self.SCENARIO + ["--trail", str(text_trail)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote trail: {text_trail}"
        rounds = [line for line in lines if line.startswith("  round ")]
        json_trail = tmp_path / "json.jsonl"
        assert main(self.SCENARIO + ["--json", "--trail",
                                     str(json_trail)]) == 0
        report = json.loads(capsys.readouterr().out)
        (scenario,) = report["scenarios"]
        assert scenario["name"] == "hazy-sparse-lake"
        assert len(scenario["rounds"]) == len(rounds) <= 2
        assert rounds[0].startswith(
            f"  round 1: {scenario['rounds'][0]['active']} active -> "
            f"{scenario['rounds'][0]['verified']} verified"
        )
        assert json_trail.read_bytes() == text_trail.read_bytes()
        first = json.loads(text_trail.read_text().splitlines()[0])
        assert (first["kind"], first["max_iters"]) == ("start", 2)


class TestCountFlags:
    """A bad count is a usage error — exit 2 and argparse's usage line —
    before any lake is read or written: the lake below does not exist."""

    LAKE = ["--lake", "absent-lake.json"]
    #: every subcommand, with its required arguments, by count flag
    COMMANDS = {
        "verify-claim": ["verify-claim", *LAKE, "--text", "x"],
        "verify-tuple": [
            "verify-tuple", *LAKE, "--table-id", "t", "--row", "0",
            "--column", "c", "--value", "v",
        ],
        "verify-batch": ["verify-batch", *LAKE],
        "profile": ["profile", *LAKE],
        "serve": ["serve", *LAKE],
        "orchestrate": ["orchestrate"],
        "build-lake": ["build-lake", "--out", "absent-dir/lake.json"],
    }

    def assert_rejected(self, capsys, flag, values, commands):
        for command in commands:
            for value in values:
                with pytest.raises(SystemExit) as exited:
                    main(self.COMMANDS[command] + [flag, value])
                assert exited.value.code == 2, (command, value)
                err = capsys.readouterr().err
                assert err.startswith("usage:"), err
                assert f"argument {flag}: " in err, err

    @pytest.mark.parametrize("command, flag", [
        ("verify-batch", "--workers"),
        ("profile", "--workers"),
        ("orchestrate", "--workers"),
        ("serve", "--concurrency"),
        # and the self-test mode's load size and mix seed
        ("serve", "--demo"),
        ("serve", "--seed"),
        # and the sampler's period, which had no consumer
        ("profile", "--interval"),
    ])
    def test_the_thread_count_flags_are_gone(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exited:
            main(self.COMMANDS[command] + [flag, "1"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err, err

    def test_sample(self, capsys):
        self.assert_rejected(
            capsys, "--sample", ["0", "-3"], ["verify-batch", "profile"]
        )

    def test_queue(self, capsys):
        self.assert_rejected(capsys, "--queue", ["-1", "1.5"], ["serve"])
        assert build_parser().parse_args(
            self.COMMANDS["serve"] + ["--queue", "0"]
        ).queue == 0

    def test_tables(self, capsys):
        self.assert_rejected(capsys, "--tables", ["-3"], ["build-lake"])
        assert build_parser().parse_args(
            self.COMMANDS["build-lake"] + ["--tables", "0"]
        ).tables == 0

    def test_max_iters(self, capsys):
        self.assert_rejected(
            capsys, "--max-iters", ["0", "-1"], ["orchestrate"]
        )

