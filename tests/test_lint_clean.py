"""Tier-1 gate: the tree itself must satisfy repro-lint.

``src/repro`` is linted against the committed ``lint_baseline.json``;
any new determinism / concurrency / contract violation fails the suite
with the same report a developer sees from ``make lint``.
"""

import json
from pathlib import Path

from repro.analysis import Baseline, Linter, render_text
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint_baseline.json"


def test_src_repro_lints_clean_against_committed_baseline():
    findings = Linter().lint_paths([SRC], root=REPO_ROOT)
    assert BASELINE.is_file(), "lint_baseline.json must be committed"
    findings, _ = Baseline.load(BASELINE).filter(findings)
    assert findings == [], "\n" + render_text(findings)


def test_benchmarks_and_examples_parse_cleanly():
    # no E001 syntax findings anywhere the linter can reach (the paper
    # tables lived under benchmarks/ when this test was named)
    for directory in (REPO_ROOT / "tests" / "paper", REPO_ROOT / "examples"):
        findings = Linter().lint_paths([directory], root=REPO_ROOT)
        assert not [f for f in findings if f.rule_id == "E001"]


def test_cli_lint_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("entry = cache.popitem()\n", encoding="utf-8")
    clean = tmp_path / "clean.py"
    clean.write_text("entry = cache.pop('key')\n", encoding="utf-8")

    assert cli_main(["lint", str(clean)]) == 0
    assert cli_main(["lint", str(dirty)]) == 1
    assert cli_main(["lint", str(tmp_path / "absent.py")]) == 2
    capsys.readouterr()

    payload_exit = cli_main(["lint", "--json", str(dirty)])
    payload = json.loads(capsys.readouterr().out)
    assert payload_exit == 1
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "DET004"


def test_cli_lint_write_then_apply_baseline(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("entry = cache.popitem()\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"

    assert cli_main(
        ["lint", "--write-baseline", str(baseline), str(dirty)]
    ) == 0
    assert baseline.is_file()
    assert cli_main(["lint", "--baseline", str(baseline), str(dirty)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_lint_json_is_byte_identical_across_runs(tmp_path, capsys):
    (tmp_path / "a.py").write_text(
        "entry = cache.popitem()\n", encoding="utf-8"
    )
    (tmp_path / "b.py").write_text(
        "import time\nstamp = time.time()\n", encoding="utf-8"
    )
    outputs = []
    for _ in range(2):
        cli_main(["lint", "--json", "--root", str(tmp_path), str(tmp_path)])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    # whole-program rules appear in the catalogue alongside per-file ones
    ids = {rule["id"] for rule in payload["rules"]}
    assert {"IPC001", "IPC002", "IPD001", "IPE001", "META001"} <= ids


def test_cli_lint_cache_cold_then_warm(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "entry = cache.popitem()\n", encoding="utf-8"
    )
    cache_file = tmp_path / "lint-cache.json"
    base = [
        "lint", "--json", "--cache", "--cache-file", str(cache_file),
        "--root", str(tmp_path), str(tmp_path),
    ]

    cli_main(base)
    cold = json.loads(capsys.readouterr().out)
    assert cold["cache"] == {"enabled": True, "hits": 0, "misses": 1}

    cli_main(base)
    warm = json.loads(capsys.readouterr().out)
    assert warm["cache"] == {"enabled": True, "hits": 1, "misses": 0}
    assert warm["findings"] == cold["findings"]

    # touching the file invalidates its entry
    (tmp_path / "mod.py").write_text(
        "entry = cache.popitem()\nx = 1\n", encoding="utf-8"
    )
    cli_main(base)
    dirty = json.loads(capsys.readouterr().out)
    assert dirty["cache"]["misses"] == 1


def test_cli_lint_changed_scopes_findings_to_git_diff(tmp_path, capsys):
    import subprocess

    def git(*argv):
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
            cwd=tmp_path, check=True, capture_output=True,
        )

    committed = tmp_path / "committed.py"
    committed.write_text("old = cache.popitem()\n", encoding="utf-8")
    git("init", "-q")
    git("add", "committed.py")
    git("commit", "-q", "-m", "seed")
    fresh = tmp_path / "fresh.py"
    fresh.write_text("new = cache.popitem()\n", encoding="utf-8")

    exit_code = cli_main(
        ["lint", "--json", "--changed", "--root", str(tmp_path),
         str(tmp_path)]
    )
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    # the committed finding is outside the diff; only fresh.py reports
    assert [f["path"] for f in payload["findings"]] == ["fresh.py"]


def test_cli_lint_warns_on_stale_baseline_rules(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n", encoding="utf-8")
    stale = tmp_path / "baseline.json"
    stale.write_text(json.dumps({
        "version": 2,
        "rules": ["DET004", "ZZZ999"],
        "entries": [{
            "rule": "ZZZ999",
            "path": "clean.py",
            "snippet": "x = 1",
            "count": 1,
            "reason": "retired rule",
        }],
    }), encoding="utf-8")

    assert cli_main(["lint", "--baseline", str(stale), str(target)]) == 0
    err = capsys.readouterr().err
    assert "unknown rule(s): ZZZ999" in err


def test_committed_baseline_is_v2_with_the_full_rule_universe():
    payload = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert payload["version"] == 2
    assert payload["entries"] == []  # every finding is fixed, not waived
    assert "IPE001" in payload["rules"]
    assert "META001" in payload["rules"]
