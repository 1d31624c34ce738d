"""CLI surface: printed output, file emission, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legoverlap
from legoverlap import GramMatrix, build_gram_matrix
from legoverlap.cli import main
from legoverlap.quadrature import MAX_ORDER


def test_overlap_prints_large_value(capsys):
    assert main(["overlap", "--n", "10", "--m", "3", "--q", "10", "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "19641872250"


def test_overlap_prints_vanishing_reason(capsys):
    assert main(["overlap", "--n", "1", "--m", "3", "--q", "0", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0 (parity)"


def test_overlap_constant_case(capsys):
    assert main(["overlap", "--n", "0", "--m", "0", "--q", "0", "--k", "0"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_overlap_fractional_value(capsys):
    assert main(["overlap", "--n", "3", "--m", "3", "--q", "0", "--k", "0"]) == 0
    assert capsys.readouterr().out.strip() == "2/7"


def test_overlap_oracle_method(capsys):
    assert main(
        ["overlap", "--n", "11", "--m", "4", "--q", "10", "--k", "3", "--method", "oracle"]
    ) == 0
    assert capsys.readouterr().out.strip() == "962451740250"


def test_gram_json_to_stdout(capsys):
    assert main(["gram", "--q", "0", "--k", "0", "--n-max", "2", "--m-max", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"][1][1] == "2/3"


def test_gram_writes_json_and_csv(tmp_path):
    json_path = tmp_path / "gram.json"
    assert main(
        ["gram", "--q", "1", "--k", "1", "--n-max", "3", "--m-max", "3", "--out", str(json_path)]
    ) == 0
    assert GramMatrix.from_json(json_path.read_text()) == build_gram_matrix(1, 1, 3, 3)

    csv_path = tmp_path / "gram.csv"
    assert main(
        ["gram", "--q", "1", "--k", "1", "--n-max", "3", "--m-max", "3",
         "--format", "csv", "--out", str(csv_path)]
    ) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n\\m,0,1,2,3"
    assert lines[3] == "2,0,0,6,0"


def test_gram_has_no_method_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--q", "0", "--k", "0", "--n-max", "2", "--m-max", "2", "--method", "oracle"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_gram_unwritable_path(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "gram.json"
    code = main(["gram", "--q", "0", "--k", "0", "--n-max", "1", "--m-max", "1", "--out", str(target)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_verify_small_grid(capsys):
    assert main(["verify", "--n-max", "6", "--q-max", "2", "--k-max", "2"]) == 0
    assert "441 comparisons, 0 mismatches" in capsys.readouterr().out


def test_verify_trivial_grid(capsys):
    assert main(["verify", "--n-max", "0", "--q-max", "0", "--k-max", "0"]) == 0
    assert "1 comparisons, 0 mismatches" in capsys.readouterr().out


def test_boundary_default_method(capsys):
    assert main(["boundary", "--n", "2", "--k", "5"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_boundary_all_methods(capsys):
    assert main(["boundary", "--n", "3", "--k", "1", "--method", "all"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["factorial: 6", "recurrence: 6", "genfunc: 6", "AGREE"]


def test_boundary_base_case(capsys):
    assert main(["boundary", "--n", "0", "--k", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_quad_check_passes(capsys):
    assert main(["quad-check", "--n", "2", "--m", "4", "--q", "1", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("OK")
    assert "exact: 6" in out


def test_quad_check_even_parity_structural_zero(capsys):
    assert main(["quad-check", "--n", "12", "--m", "10", "--q", "4", "--k", "0"]) == 0
    out = capsys.readouterr().out
    assert "exact: 0" in out
    assert out.strip().endswith("OK")


def test_quad_check_default_order_is_smallest_exact(capsys):
    assert main(["quad-check", "--n", "100", "--m", "100", "--q", "0", "--k", "0"]) == 0
    out = capsys.readouterr().out
    assert "quadrature (101 nodes)" in out
    assert out.strip().endswith("OK")


def test_quad_check_rejects_too_small_rule(capsys):
    code = main(["quad-check", "--n", "6", "--m", "6", "--q", "0", "--k", "0", "--nodes", "3"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        [],  # degree 2 MAX_ORDER + 1: the smallest exact order is MAX_ORDER + 1
        ["--nodes", str(MAX_ORDER + 1)],
    ],
    ids=["default-order", "nodes"],
)
def test_quad_check_rejects_orders_past_the_rule_cap(extra, capsys):
    args = ["quad-check", "--n", str(MAX_ORDER), "--m", str(MAX_ORDER + 1), "--q", "0", "--k", "0"]
    assert main(args + extra) == 2
    assert f"order must be in 1..{MAX_ORDER}" in capsys.readouterr().err


def test_quad_check_names_the_default_order_it_rejects(capsys):
    args = ["quad-check", "--n", str(MAX_ORDER), "--m", str(MAX_ORDER + 1), "--q", "0", "--k", "0"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{MAX_ORDER + 1} is the default, the smallest exact order for degree {2 * MAX_ORDER + 1}" in err
    assert "--nodes chooses another order" in err
    assert main(args + ["--nodes", str(MAX_ORDER + 1)]) == 2
    assert "default" not in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["overlap", "--n", "-3", "--m", "1", "--q", "0", "--k", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["overlap", "--n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_invocation():
    # The child imports the same package the suite tests, installed or not.
    package_root = str(Path(legoverlap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "legoverlap", "overlap",
         "--n", "10", "--m", "5", "--q", "10", "--k", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "137493105750"
