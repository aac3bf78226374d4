"""CLI orchestration, report emission, determinism, caching."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from splitcasimir.cache import (
    CacheError,
    _code_hash,
    cache_path,
    load_or_build,
    read_bundle,
    write_bundle,
)
from splitcasimir.cli import SuiteConfig, main, run_suite
from splitcasimir.report import CheckRecord, Report, emit, parse_json


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


def test_json_round_trip():
    config = SuiteConfig(["sl(2)"], ["construct"])
    report = run_suite(config)
    again = parse_json(emit(report, "json"))
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


def test_cli_vogel_defaults():
    rc = main(["vogel", "--algebra", "sl(3),g2", "--out", "/dev/null"])
    assert rc == 0


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
])
def test_cli_rejects_removed_options(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", "/dev/null"])
    assert exc.value.code == 2


def test_cache_round_trip_and_corruption(tmp_path):
    (alg_rep, warning) = load_or_build("sl(2)", tmp_path)[0], None
    alg, rep = load_or_build("sl(2)", tmp_path)[0]
    path = cache_path(tmp_path, "sl(2)", "defining")
    assert path.exists()
    alg2, rep2 = read_bundle(path)
    assert alg2.struct == alg.struct
    assert alg2.killing == alg.killing
    assert [g for g in rep2.generators] == [g for g in rep.generators]
    # corrupt the file: loader must rebuild with a warning
    path.write_bytes(b"junk")
    with pytest.raises(CacheError):
        read_bundle(path)
    (alg3, rep3), warning = load_or_build("sl(2)", tmp_path)
    assert warning is not None
    assert alg3.struct == alg.struct


def test_cache_key_includes_version_and_code_hash(tmp_path):
    p = cache_path(tmp_path, "so(5)", "defining")
    assert "-v1-" in p.name
    assert len(p.name.split("-")[-1].split(".")[0]) == 16


def test_cache_code_hash_covers_kernels(tmp_path):
    # the hash of a package tree changes when its _kernels.py does
    import splitcasimir
    package = Path(splitcasimir.__file__).parent
    for tree in ("same", "edited"):
        shutil.copytree(package, tmp_path / tree / "splitcasimir",
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "edited" / "splitcasimir" / "_kernels.py", "a") as f:
        f.write("# edited\n")

    def code_hash(tree):
        out = subprocess.run(
            [sys.executable, "-c",
             "from splitcasimir.cache import _code_hash; print(_code_hash())"],
            env={**os.environ, "PYTHONPATH": str(tmp_path / tree)},
            capture_output=True, text=True, check=True)
        return out.stdout.strip()

    same = code_hash("same")
    assert same == _code_hash()
    assert code_hash("edited") != same


def test_suite_dependency_order():
    config = SuiteConfig(["sl(2)"], ["identities", "construct"])
    report = run_suite(config)
    suites = [r.suite for r in report.records]
    assert suites.index("construct") < suites.index("identities")
