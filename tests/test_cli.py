"""CLI orchestration, report emission, determinism."""

import json

import pytest

from splitcasimir.cli import SuiteConfig, main, run_suite
from splitcasimir.report import CheckRecord, Report, emit


def test_run_suite_small_all_pass():
    config = SuiteConfig(["sl(2)"], ["construct", "casimir", "identities"])
    report = run_suite(config)
    assert report.all_passed
    assert report.summary["PASS"] > 5


def test_reports_are_byte_identical_for_same_config_and_seed():
    config = SuiteConfig(["sl(3)"], ["construct", "identities"], seed=7)
    a = emit(run_suite(config), "json")
    b = emit(run_suite(SuiteConfig(["sl(3)"], ["construct", "identities"],
                                   seed=7)), "json")
    assert a == b


@pytest.mark.parametrize("method", ["exact_full", "randomized_exact"])
def test_failed_record_keeps_the_witness(monkeypatch, method):
    # a wrong sl(2) root fails the defining identity; the report's record
    # carries the witness as VerificationReport.to_dict writes it
    from fractions import Fraction

    from splitcasimir import identities
    wrong = identities.CharIdentity([Fraction(-3, 8), Fraction(1, 7)])
    monkeypatch.setattr(identities, "defining_identity", lambda _: wrong)
    want = identities.verify_defining_identity("sl(2)", method).to_dict()
    assert want["status"] == "FAIL" and want["witness"]
    report = run_suite(SuiteConfig(["sl(2)"], ["identities"], method=method))
    records = json.loads(emit(report, "json"))["records"]
    (failed,) = [r for r in records if r["status"] == "FAIL"]
    assert failed["target"] == "sl(2) defining identity"
    assert failed["witness"] == want["witness"]
    assert all("witness" not in r for r in records if r["status"] == "PASS")


def test_json_round_trip():
    config = SuiteConfig(["sl(2)"], ["construct"])
    report = run_suite(config)
    again = Report.from_dict(json.loads(emit(report, "json")))
    assert again.to_dict() == report.to_dict()


def test_emit_formats():
    report = Report({"x": 1})
    report.add(CheckRecord("s", "t", "PASS", "m", "1", "1"))
    assert emit(report, "json").startswith("{")
    assert "suite,target,status" in emit(report, "csv")
    md = emit(report, "markdown")
    assert "| t | PASS |" in md
    with pytest.raises(ValueError):
        emit(report, "yaml")


def test_empty_report_is_valid_per_format():
    report = Report({})
    assert json.loads(emit(report, "json"))["records"] == []
    assert emit(report, "csv").strip().splitlines()[0].startswith("suite")
    assert "summary" in emit(report, "markdown")


def test_vogel_table_markdown_layout():
    from splitcasimir.report import vogel_table_markdown
    md = vogel_table_markdown()
    header = md.splitlines()[0]
    for col in ("type", "algebra", "alpha", "beta", "gamma", "t", "1/t",
                "-beta/2t", "-gamma/2t"):
        assert col in header
    assert "| E_8 | e8 | -2 | 12 | 20 | 30 | 1/30 | -1/5 | -1/3 |" in md


def test_cli_exit_codes_and_output(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--algebra", "sl(2)", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["summary"]["FAIL"] == 0


@pytest.mark.parametrize("command", [["verify", "--algebra", "sl(2)"],
                                     ["vogel-table"]])
def test_cli_out_dash_writes_to_stdout(command, tmp_path, monkeypatch,
                                       capsys):
    # "-" is stdout, as when --out is absent, and never a file named "-"
    monkeypatch.chdir(tmp_path)
    assert main(command) == 0
    want = capsys.readouterr().out
    assert main(command + ["--out", "-"]) == 0
    assert capsys.readouterr().out == want and want
    assert list(tmp_path.iterdir()) == []


def test_cli_vogel_defaults():
    rc = main(["vogel", "--algebra", "sl(3),g2", "--out", "/dev/null"])
    assert rc == 0


@pytest.mark.parametrize("name", ["A2", "sl3", "D4", "so(8)"])
def test_cli_vogel_exceptional_line_under_any_accepted_name(name, tmp_path):
    # sl(3) and so(8) lie on the exceptional line whatever they are called
    out = tmp_path / "vogel.json"
    assert main(["vogel", "--algebra", name, "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    (line,) = [r for r in records if r["target"] == f"{name} exceptional line"]
    assert (line["status"], line["observed"], line["expected"]) == \
        ("PASS", "True", "True")


def test_cli_ybe_single_pair(tmp_path):
    out = tmp_path / "ybe.json"
    rc = main(["ybe", "--case", "sl(2)", "--u", "1/2", "--v", "1/3",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    targets = [r["target"] for r in data["records"]]
    assert any("YBE(1/2,1/3)" in t for t in targets)


def test_cli_ybe_report_records_samples(tmp_path):
    out = tmp_path / "ybe.json"
    rc = main(["ybe", "--case", "sl(2)", "--samples", "1/2,1/3",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["samples"] == ["1/2", "1/3"]


@pytest.mark.parametrize("argv", [
    ["ybe", "--case", "sl(2)", "--samples", "1/2,1/3,2/5"],
    ["ybe", "--case", "sl(2)", "--u", "7/3"],
    ["ybe", "--case", "sl(2)", "--v", "7/3"],
    ["ybe", "--case", "sl(2)", "--u", "1/2", "--v", "1/3", "--samples", "2/5,3/7"],
])
def test_cli_rejects_unpaired_ybe_samples(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", "/dev/null"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ybe", "--case", "sl(2)", "--form", "spectral"],
    ["verify", "--algebra", "sl(2)", "--method", "approx"],
    ["ybe", "--case", "sl(2)", "--method", "exact_full"],
    ["construct", "--algebra", "sl(2)", "--cache-dir", "x"],
])
def test_cli_rejects_removed_options(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", "/dev/null"])
    assert exc.value.code == 2


def test_suite_dependency_order():
    config = SuiteConfig(["sl(2)"], ["identities", "construct"])
    report = run_suite(config)
    suites = [r.suite for r in report.records]
    assert suites.index("construct") < suites.index("identities")
