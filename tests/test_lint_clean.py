"""Tier-1 gate: the tree itself must satisfy repro-lint.

``src/repro`` must lint clean — an inline pragma is the one way to
suppress a finding — so any new determinism / concurrency / contract
violation fails the suite with the same report a developer sees from
``make lint``.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import Linter, render_text
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_src_repro_lints_clean():
    findings = Linter().lint_paths([SRC], root=REPO_ROOT)
    assert findings == [], "\n" + render_text(findings)


def test_benchmarks_and_examples_parse_cleanly():
    # no E001 syntax findings anywhere the linter can reach (the paper
    # tables lived under benchmarks/ when this test was named)
    for directory in (REPO_ROOT / "tests" / "paper", REPO_ROOT / "examples"):
        findings = Linter().lint_paths([directory], root=REPO_ROOT)
        assert not [f for f in findings if f.rule_id == "E001"]


def test_cli_lint_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("ordered = list(set(items))\n", encoding="utf-8")
    clean = tmp_path / "clean.py"
    clean.write_text("ordered = sorted(set(items))\n", encoding="utf-8")

    assert cli_main(["lint", str(clean)]) == 0
    assert cli_main(["lint", str(dirty)]) == 1
    assert cli_main(["lint", str(tmp_path / "absent.py")]) == 2
    capsys.readouterr()

    payload_exit = cli_main(["lint", "--json", str(dirty)])
    payload = json.loads(capsys.readouterr().out)
    assert payload_exit == 1
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "DET003"


def test_cli_lint_json_is_byte_identical_across_runs(tmp_path, capsys):
    (tmp_path / "a.py").write_text(
        "ordered = list(set(items))\n", encoding="utf-8"
    )
    (tmp_path / "b.py").write_text(
        "import time\nstamp = time.perf_counter()\n", encoding="utf-8"
    )
    outputs = []
    for _ in range(2):
        cli_main(["lint", "--json", "--root", str(tmp_path), str(tmp_path)])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["files"] == 2
    # the catalogue lists every rule, the pragma audit included
    ids = {rule["id"] for rule in payload["rules"]}
    assert ids == {"CTR002", "CTR003", "DET003", "IPC002", "META001", "OBS001"}


@pytest.mark.parametrize("option", [
    "--baseline", "--write-baseline", "--changed", "--cache", "--cache-file",
])
def test_cli_lint_has_one_way_to_suppress(tmp_path, capsys, option):
    # a pragma is the only suppression: no baseline file, no diff- or
    # cache-scoped run
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["lint", option, str(clean)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
