import json
import os
import subprocess
import sys

import pytest

import relaydmt
from relaydmt import exponent_profile
from relaydmt.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_INSUFFICIENT_DATA,
    EXIT_OK,
    EXIT_SOLVER_REFUSED,
    _parse_grid,
    main,
)


def test_parse_grid_forms():
    assert _parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _parse_grid("0.1,0.5,0.9") == [0.1, 0.5, 0.9]
    assert _parse_grid("") == []
    with pytest.raises(ValueError):
        _parse_grid("0:1")
    with pytest.raises(ValueError):
        _parse_grid("0:1:-0.5")


def test_parse_grid_long_grid_does_not_drift():
    grid = _parse_grid("0:100:0.01")
    assert len(grid) == 10_001
    assert grid[-1] == 100.0
    assert grid[5000] == 50.0


def test_curve_json_schema(tmp_path):
    out = tmp_path / "curves.json"
    code = main(
        [
            "curve", "--m", "1", "--k", "2", "--n", "1",
            "--variants", "hd-dynamic,ddf-1k1", "--r", "0:1:0.5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    records = json.loads(out.read_text())
    assert len(records) == 2
    for rec in records:
        assert set(rec) == {"config", "variant", "points"}
        assert set(rec["config"]) == {"m", "k", "n"}
        for point in rec["points"]:
            assert set(point) == {"r", "d"}
    hd = next(r for r in records if r["variant"] == "hd-dynamic")
    assert hd["points"][0]["d"] == pytest.approx(3.0, abs=1e-6)
    assert not any(name.endswith(".part") for name in os.listdir(tmp_path))


def test_curve_csv_columns(tmp_path):
    out = tmp_path / "curves.csv"
    code = main(
        [
            "curve", "--m", "2", "--k", "1", "--n", "2",
            "--variants", "fd", "--r", "0,1,2",
            "--format", "csv", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,d,variant,m,k,n"
    assert lines[1].split(",") == ["0", "6", "fd", "2", "1", "2"]


def test_curve_hd_matches_fd_for_n1n(tmp_path):
    out = tmp_path / "c.json"
    code = main(
        [
            "curve", "--m", "2", "--k", "1", "--n", "2",
            "--variants", "hd-dynamic,fd", "--r", "0:2:0.25",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    records = json.loads(out.read_text())
    hd = [p["d"] for p in records[0]["points"]]
    fd = [p["d"] for p in records[1]["points"]]
    assert max(abs(a - b) for a, b in zip(hd, fd)) <= 1e-3


def test_curve_validation_failures():
    assert main(["curve", "--m", "1", "--k", "1", "--n", "1", "--r", ""]) == EXIT_BAD_CONFIG
    assert (
        main(
            ["curve", "--m", "2", "--k", "1", "--n", "2",
             "--variants", "closed-1k1", "--r", "0:1:0.5"]
        )
        == EXIT_BAD_CONFIG
    )
    assert (
        main(["curve", "--m", "0", "--k", "1", "--n", "1", "--r", "0:1:0.5"])
        == EXIT_BAD_CONFIG
    )


def test_curve_solver_refusal_exit_code(monkeypatch, capsys):
    # no shipped variant refuses today; the exit-code mapping stays public
    from relaydmt import solvers

    def refuse(config, r):
        raise solvers.SolverRefusal("over the size cap")

    monkeypatch.setitem(solvers._REGISTRY, "hd-static", (None, refuse))
    code = main(
        ["curve", "--m", "1", "--k", "1", "--n", "1",
         "--variants", "hd-static", "--r", "0:1:0.5"]
    )
    assert code == EXIT_SOLVER_REFUSED
    assert "solver refused: over the size cap" in capsys.readouterr().err


def test_curve_static_n1n_beyond_old_cap(capsys):
    code = main(
        ["curve", "--m", "5", "--k", "1", "--n", "5",
         "--variants", "hd-static", "--r", "0:5:1"]
    )
    assert code == EXIT_OK
    (record,) = json.loads(capsys.readouterr().out)
    assert [p["d"] for p in record["points"]] == pytest.approx(
        [30.0, 20.0, 12.0, 6.0, 2.0, 0.0], abs=1e-9
    )


def test_compare_reports_gaps(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = main(
        [
            "compare", "--m", "2", "--k", "3", "--n", "2",
            "--variants", "hd-dynamic,fd", "--r", "0:2:0.5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    record = json.loads(out.read_text())
    assert set(record) == {"config", "r_grid", "values", "max_gaps"}
    # a strong relay separates the half- and full-duplex curves at high rate
    assert record["max_gaps"]["hd-dynamic|fd"] > 0.4
    assert "max gap" in capsys.readouterr().out


def test_compare_stdout_is_pure_json(capsys):
    code = main(
        [
            "compare", "--m", "1", "--k", "1", "--n", "1",
            "--variants", "hd-dynamic,fd", "--r", "0:1:0.5",
        ]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert set(record) == {"config", "r_grid", "values", "max_gaps"}
    assert "max gap" in captured.err


def test_compare_identical_variant_gap_zero(tmp_path):
    out = tmp_path / "cmp.json"
    code = main(
        [
            "compare", "--m", "1", "--k", "1", "--n", "1",
            "--variants", "ptp,ptp", "--r", "0:1:0.5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["max_gaps"]["ptp|ptp"] == 0.0


def test_compare_needs_two_variants():
    code = main(
        ["compare", "--m", "1", "--k", "1", "--n", "1",
         "--variants", "ptp", "--r", "0:1:0.5"]
    )
    assert code == EXIT_BAD_CONFIG


def test_simulate_json_and_reproducibility(tmp_path):
    args = [
        "simulate", "--m", "1", "--k", "1", "--n", "1", "--r", "0.5",
        "--snr-db", "10:20:5", "--samples", "20000", "--seed", "7",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
    assert main(args + ["--workers", "3", "--out", str(out2)]) == EXIT_OK
    rec1 = json.loads(out1.read_text())
    rec2 = json.loads(out2.read_text())
    assert [e["p_out"] for e in rec1["estimates"]] == [
        e["p_out"] for e in rec2["estimates"]
    ]
    assert set(rec1) == {"config", "r", "seed", "estimates", "slope", "analytic_d"}
    assert rec1["analytic_d"] == pytest.approx(1.0, abs=1e-6)


def test_simulate_stdout_is_pure_json(capsys):
    code = main(
        [
            "simulate", "--m", "1", "--k", "1", "--n", "1", "--r", "0.5",
            "--snr-db", "10:20:5", "--samples", "20000", "--seed", "7",
        ]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["analytic_d"] == pytest.approx(1.0, abs=1e-9)
    assert "fitted slope" in captured.err


def test_simulate_rejects_degenerate_rate():
    code = main(
        ["simulate", "--m", "1", "--k", "1", "--n", "1", "--r", "0",
         "--snr-db", "10:20:5", "--samples", "5000"]
    )
    assert code == EXIT_BAD_CONFIG


def test_simulate_insufficient_points():
    code = main(
        ["simulate", "--m", "2", "--k", "2", "--n", "2", "--r", "0.2",
         "--snr-db", "35:45:5", "--samples", "1000", "--seed", "1"]
    )
    assert code == EXIT_INSUFFICIENT_DATA


def test_simulate_empty_snr_grid(capsys):
    code = main(
        ["simulate", "--m", "1", "--k", "1", "--n", "1", "--r", "0.5",
         "--snr-db", "", "--samples", "1000"]
    )
    assert code == EXIT_BAD_CONFIG
    assert "need at least one SNR point" in capsys.readouterr().err


def test_verify_fault_injection_fails_and_names_check(monkeypatch, capsys):
    from relaydmt import verify

    def biased(level, length):
        return tuple(min(1.0, x + 0.01) for x in exponent_profile(level, length))

    monkeypatch.setattr(verify, "exponent_profile", biased)
    code = main(["verify"])
    assert code == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL  profile consistency" in out


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(relaydmt.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, relaydmt.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.stdout.strip() == "False"
