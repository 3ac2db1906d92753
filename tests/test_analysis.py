"""Tests for :mod:`repro.analysis` — the invariant checkers behind
``repro lint``.

The fixture corpus under ``tests/lint_fixtures/`` carries its own
expectations as comments (see its README): every ``*_bad`` fixture
must produce exactly its marked findings, every ``*_good`` twin must
lint clean.  On top of the corpus: the shipped tree itself must lint
clean, deleting a cache-key ingredient from the real cache module must
light up the completeness checker (the acceptance drill for KEY001),
an unused public def added to the real package must light up API001,
waivers must round-trip, and the JSON report must be byte-identical
across reruns.
"""

import json
import pathlib
import re
import shutil

import pytest

from repro import cli
from repro.analysis import RULES, render_json, render_text, run_lint

FIXTURES = pathlib.Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# Expectation markers (documented in lint_fixtures/README.md).
_EXPECT_AT = re.compile(r"#\s*repro-lint-expect-at:\s*([A-Z0-9]+)@(\d+)")
_EXPECT_NEXT = re.compile(r"^\s*#\s*repro-lint-expect-next:\s*([A-Z0-9,]+)")
_EXPECT_INLINE = re.compile(r"#\s*repro-lint-expect:\s*([A-Z0-9,]+)")


def expected_findings(path: pathlib.Path, display: str) -> set:
    """Parse a fixture's expectation markers into (path, line, rule)."""
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_AT.search(line)
        if match:
            out.add((display, int(match.group(2)), match.group(1)))
            continue
        match = _EXPECT_NEXT.match(line)
        if match:
            out.update(
                (display, lineno + 1, rule)
                for rule in match.group(1).split(",")
            )
            continue
        match = _EXPECT_INLINE.search(line)
        if match:
            out.update(
                (display, lineno, rule) for rule in match.group(1).split(",")
            )
    return out


def corpus_cases() -> list:
    cases = [p.name for p in FIXTURES.iterdir() if p.suffix == ".py"]
    cases += [p.name for p in FIXTURES.iterdir() if p.is_dir()]
    assert cases, f"fixture corpus missing at {FIXTURES}"
    return sorted(cases)


def case_files(target: pathlib.Path) -> list:
    return [target] if target.is_file() else sorted(target.rglob("*.py"))


@pytest.mark.parametrize("case", corpus_cases())
def test_fixture_corpus(case):
    """Each fixture produces exactly the findings its markers declare."""
    target = FIXTURES / case
    findings = run_lint([target], root=FIXTURES)
    got = {(f.path, f.line, f.rule) for f in findings}
    expected = set()
    for path in case_files(target):
        display = path.relative_to(FIXTURES).as_posix()
        expected |= expected_findings(path, display)
    assert got == expected
    if case.endswith("_good.py") or case.endswith("_good"):
        assert not expected, f"good fixture {case} must carry no markers"


def test_every_rule_has_a_triggering_fixture():
    """The corpus demonstrates all 17 rules, and the catalog names them."""
    triggered = set()
    for case in corpus_cases():
        for path in case_files(FIXTURES / case):
            triggered |= {rule for _, _, rule in expected_findings(path, "")}
    assert triggered == set(RULES)
    for rule, description in RULES.items():
        assert re.fullmatch(r"[A-Z]+\d{3}", rule)
        assert description


def test_shipped_tree_is_clean():
    """``repro lint`` over the real source tree finds nothing unwaived."""
    assert run_lint([REPO_ROOT / "src"], root=REPO_ROOT) == []


def test_deleting_cache_ingredient_is_caught(tmp_path):
    """The ISSUE acceptance drill: drop the ``"objective"`` ingredient
    from the real ``experiments/cache.py`` and the completeness checker
    must light up every now-uncovered read on the solve path."""
    shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "repro")
    cache = tmp_path / "repro" / "experiments" / "cache.py"
    text = cache.read_text()
    lines = [l for l in text.splitlines() if '"objective": objective' not in l]
    assert len(lines) == len(text.splitlines()) - 1, (
        "expected exactly one objective-ingredient line in the cache module"
    )
    cache.write_text("\n".join(lines) + "\n")
    findings = run_lint([tmp_path], root=tmp_path)
    key001 = [f for f in findings if f.rule == "KEY001"]
    assert key001, "deleting the objective ingredient must trigger KEY001"
    assert all("objective" in f.message for f in key001)
    assert {f.rule for f in findings} == {"KEY001"}


def test_unreferenced_public_def_is_caught(tmp_path):
    """A public def that no module calls, added to a copy of the real
    package, makes API001 fire on it and nowhere else."""
    shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "repro")
    module = tmp_path / "repro" / "util" / "validation.py"
    lines = module.read_text().splitlines()
    module.write_text("\n".join([*lines, "", "", "def orphan():", "    return 0", ""]))
    findings = run_lint([tmp_path], root=tmp_path)
    assert [(f.path, f.line, f.rule) for f in findings] == [
        ("repro/util/validation.py", len(lines) + 3, "API001")
    ]
    assert "repro.util.validation.orphan" in findings[0].message


def test_single_file_lint_skips_api001():
    """API001 needs the whole package: linting one file reports neither
    the rule nor its waivers as unused."""
    waived = REPO_ROOT / "src" / "repro" / "algorithms" / "dp_reliability.py"
    assert "disable=API001" in waived.read_text()
    assert run_lint([waived], root=REPO_ROOT) == []
    unused = FIXTURES / "api_surface_bad" / "repro" / "widgets.py"
    assert run_lint([unused], root=FIXTURES) == []


def test_api001_waiver_on_a_used_def_is_unused(tmp_path):
    """On a full-package run an API001 waiver on a def that has a caller
    suppresses nothing, so the waiver audit reports it."""
    shutil.copytree(FIXTURES / "api_surface_good", tmp_path / "pkg")
    widgets = tmp_path / "pkg" / "repro" / "widgets.py"
    text = widgets.read_text()
    waived = text.replace(
        "def listed():", "def listed():  # repro-lint: disable=API001 §5.1"
    )
    assert waived != text
    widgets.write_text(waived)
    findings = run_lint([tmp_path / "pkg"], root=tmp_path)
    assert [(f.path, f.rule) for f in findings] == [
        ("pkg/repro/widgets.py", "WAIVE002")
    ]
    assert run_lint([widgets], root=tmp_path) == []


def test_api001_call_in_package_init_is_not_a_use(tmp_path):
    """A call written in a package ``__init__`` body does not count as a
    use, so the callee stays flagged."""
    shutil.copytree(FIXTURES / "api_surface_bad", tmp_path / "pkg")
    init = tmp_path / "pkg" / "repro" / "__init__.py"
    init.write_text(init.read_text() + "\n\ndef _boot():\n    return lazy_only()\n")
    flagged = {
        f.message.split(" ")[0]
        for f in run_lint([tmp_path / "pkg"], root=tmp_path)
        if f.rule == "API001"
    }
    assert "repro.widgets.lazy_only" in flagged
    assert len(flagged) == 5


def test_api001_caller_outside_the_package_counts(tmp_path):
    """A non-package module in the linted set is a caller like any other:
    a script that calls one flagged def clears that def alone."""
    shutil.copytree(FIXTURES / "api_surface_bad", tmp_path / "pkg")
    script = tmp_path / "pkg" / "use_widgets.py"
    script.write_text("from repro.widgets import lazy_only\n\nlazy_only()\n")
    flagged = {
        f.message.split(" ")[0]
        for f in run_lint([tmp_path / "pkg"], root=tmp_path)
        if f.rule == "API001"
    }
    assert flagged == {
        "repro.widgets.shown_off",
        "repro.widgets.listed",
        "repro.widgets.documented_only",
        "repro.widgets.Gadget",
    }


def test_waiver_round_trip(tmp_path):
    """A justified waiver suppresses its finding; stripping the reason
    turns it into WAIVE001 and un-suppresses the original finding."""
    source = FIXTURES / "waiver_good.py"
    assert run_lint([source], root=FIXTURES) == []
    stripped = re.sub(r"(disable=DET001)[^\n]*", r"\1", source.read_text())
    bad = tmp_path / "waiver_stripped.py"
    bad.write_text(stripped)
    rules = [f.rule for f in run_lint([bad], root=tmp_path)]
    assert rules.count("WAIVE001") == 2
    assert rules.count("DET001") == 2


def test_rules_subset_filters_and_skips_waiver_audit():
    full = run_lint([FIXTURES / "waiver_unused_bad.py"], root=FIXTURES)
    assert {f.rule for f in full} == {"WAIVE002"}
    subset = run_lint(
        [FIXTURES / "waiver_unused_bad.py"], rules=["DET001"], root=FIXTURES
    )
    assert subset == []  # waiver audit only runs on full runs
    only_det = run_lint(
        [FIXTURES / "det_env_bad.py"], rules=["DET003"], root=FIXTURES
    )
    assert {f.rule for f in only_det} == {"DET003"}
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint([FIXTURES / "det_env_bad.py"], rules=["NOPE123"])


def test_json_report_schema_and_determinism():
    findings = run_lint([FIXTURES / "det_clock_bad.py"], root=FIXTURES)
    first = render_json(findings)
    again = render_json(
        run_lint([FIXTURES / "det_clock_bad.py"], root=FIXTURES)
    )
    assert first == again  # byte-identical across reruns
    payload = json.loads(first)
    assert set(payload) == {"schema", "counts", "findings"}
    assert payload["schema"] == 1
    keys = [(f["path"], f["line"], f["rule"]) for f in payload["findings"]]
    assert keys == sorted(keys)
    assert sum(payload["counts"].values()) == len(payload["findings"])
    for entry in payload["findings"]:
        assert set(entry) == {"path", "line", "rule", "message"}


def test_text_report_mentions_every_finding():
    findings = run_lint([FIXTURES / "det_set_bad.py"], root=FIXTURES)
    report = render_text(findings)
    for f in findings:
        assert f"{f.path}:{f.line}: {f.rule}" in report
    assert f"{len(findings)} finding(s)" in report
    assert "no findings" in render_text([])


# -- CLI ------------------------------------------------------------------


def test_cli_lint_bad_fixture_json(capsys):
    rc = cli.main(
        ["lint", str(FIXTURES / "det_clock_bad.py"), "--format", "json"]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"DET001": 3}


def test_cli_lint_api_surface_package(capsys):
    """``repro lint`` on a directory holding a ``repro`` package root
    runs API001 and exits non-zero on its findings."""
    rc = cli.main(
        ["lint", str(FIXTURES / "api_surface_bad"), "--format", "json"]
    )
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["counts"] == {"API001": 5}
    assert cli.main(["lint", str(FIXTURES / "api_surface_good")]) == 0


def test_cli_lint_clean_fixture(capsys):
    rc = cli.main(["lint", str(FIXTURES / "det_clock_good.py")])
    assert rc == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_lint_rules_subset(capsys):
    rc = cli.main(
        [
            "lint",
            str(FIXTURES / "tel_span_bad.py"),
            "--rules",
            "TEL002",
            "--format",
            "json",
        ]
    )
    assert rc == 1
    assert set(json.loads(capsys.readouterr().out)["counts"]) == {"TEL002"}


def test_cli_lint_list_rules(capsys):
    rc = cli.main(["lint", "--list-rules"])
    assert rc == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_cli_lint_output_file(tmp_path, capsys):
    out_file = tmp_path / "findings.json"
    rc = cli.main(
        [
            "lint",
            str(FIXTURES / "io_write_bad.py"),
            "--format",
            "json",
            "--output",
            str(out_file),
        ]
    )
    assert rc == 1
    on_disk = json.loads(out_file.read_text())
    assert json.loads(capsys.readouterr().out) == on_disk
    assert on_disk["counts"] == {"IO001": 2}


def test_cli_lint_missing_path():
    with pytest.raises(SystemExit):
        cli.main(["lint", "does/not/exist.py"])
