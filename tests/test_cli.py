import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import pytest

import relaydmt
from relaydmt import exponent_profile, solvers
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
    # a non-finite bound or step is named, not reported as an empty grid
    for text in ("0:1:nan", "nan:1:0.5", "0:1:inf", "0:inf:0.5"):
        with pytest.raises(ValueError, match="non-finite"):
            _parse_grid(text)
    # a grid past 1,000,000 points is refused, by name, before it is built
    for text in ("0:1:1e-12", "0:1000000:1", "-1e308:1e308:1"):
        with pytest.raises(ValueError, match="more than 1,000,000 points") as err:
            _parse_grid(text)
        assert text in str(err.value)


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


def test_curve_out_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "curves.json"
    code = main(["curve", "--r", "0:1:0.5", "--out", str(out)])
    assert code == EXIT_BAD_CONFIG
    assert str(out) in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.part"))


def test_curve_out_onto_existing_directory(tmp_path, capsys):
    # the rename onto a directory fails after the temp file was written
    out = tmp_path / "taken"
    out.mkdir()
    code = main(["curve", "--r", "0:1:0.5", "--out", str(out)])
    assert code == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert str(out) in err
    assert ".part" not in err
    assert not list(tmp_path.rglob("*.part"))


def test_curve_solver_refusal_exit_code(monkeypatch, capsys):
    # the mapping holds for any variant that refuses, not only hd-dynamic
    from relaydmt import solvers

    def refuse(config, grid):
        raise solvers.SolverRefusal("over the size cap")

    monkeypatch.setitem(solvers._REGISTRY, "hd-static", (None, refuse))
    code = main(
        ["curve", "--m", "1", "--k", "1", "--n", "1",
         "--variants", "hd-static", "--r", "0:1:0.5"]
    )
    assert code == EXIT_SOLVER_REFUSED
    assert "solver refused: over the size cap" in capsys.readouterr().err


@pytest.mark.parametrize("mkn", [(99999, 1, 99999), (1000, 1000, 1000)])
def test_curve_refuses_an_oversize_dynamic_engine_before_it_allocates(mkn, capsys):
    # about 3e10 and 10,020,010 kink lines against the cap's 660,490; the
    # first asked numpy for an 83.8 GiB plane-pair mask before the cap
    argv = ["curve", "--m", str(mkn[0]), "--k", str(mkn[1]), "--n", str(mkn[2]), "--r", "0"]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(argv)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_SOLVER_REFUSED
    assert "kink lines > 660490" in capsys.readouterr().err
    assert seconds < 1.0 and peak < 1 << 20


@pytest.mark.parametrize("mkn", [(65792, 1, 1), (10**6, 10**6, 10**6)])
def test_curve_refuses_an_oversize_static_engine_before_it_allocates(mkn, capsys):
    # 394,758 and 6,000,006 candidates per r against the cap's 394,752
    argv = ["curve", "--variants", "hd-static", "--r", "1",
            "--m", str(mkn[0]), "--k", str(mkn[1]), "--n", str(mkn[2])]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(argv)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_SOLVER_REFUSED
    assert "candidates > 394752" in capsys.readouterr().err
    assert seconds < 1.0 and peak < 1 << 20


def test_curve_bad_r_mid_grid_exits_2(capsys):
    code = main(["curve", "--m", "1", "--k", "2", "--n", "1",
                 "--variants", "hd-dynamic,hd-static", "--r", "0.25,1.5,0.75"])
    assert code == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: r=1.5 outside [0, 1]" in captured.err


def test_main_calls_in_one_process_parse_their_own_argv(capsys):
    from relaydmt.cli import build_parser

    assert build_parser() is build_parser()  # built once per process
    records = []
    for variants, grid in (("hd-dynamic", "0:1:0.5"), ("fd,ptp", "0.25,0.75")):
        code = main(["curve", "--m", "1", "--k", "2", "--n", "1",
                     "--variants", variants, "--r", grid])
        assert code == EXIT_OK
        records.append(json.loads(capsys.readouterr().out))
    assert [c["variant"] for c in records[0]] == ["hd-dynamic"]
    assert [p["r"] for p in records[0][0]["points"]] == [0.0, 0.5, 1.0]
    assert [c["variant"] for c in records[1]] == ["fd", "ptp"]
    assert [p["r"] for p in records[1][1]["points"]] == [0.25, 0.75]
    # a bad argv still exits through argparse with status 2
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--m", "two"])
    assert exc.value.code == 2
    assert "invalid int value: 'two'" in capsys.readouterr().err
    assert main(["curve", "--r", "0.5"]) == EXIT_OK
    (record,) = json.loads(capsys.readouterr().out)
    assert record["variant"] == "hd-dynamic"
    assert [p["r"] for p in record["points"]] == [0.5]


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
    # at (1,1,1) the static and dynamic half-duplex curves coincide
    out = tmp_path / "cmp.json"
    code = main(
        [
            "compare", "--m", "1", "--k", "1", "--n", "1",
            "--variants", "hd-dynamic,hd-static", "--r", "0:1:0.5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["max_gaps"]["hd-dynamic|hd-static"] == 0.0


def test_compare_csv_rows(capsys):
    code = main(
        ["compare", "--m", "2", "--k", "1", "--n", "2",
         "--variants", "ptp,fd", "--r", "0,1,2", "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["r,ptp,fd", "0,4,6"]


def test_compare_needs_two_variants():
    code = main(
        ["compare", "--m", "1", "--k", "1", "--n", "1",
         "--variants", "ptp", "--r", "0:1:0.5"]
    )
    assert code == EXIT_BAD_CONFIG


@pytest.mark.parametrize("variants", ["fd,fd", "ptp,fd,hd-dynamic,fd"])
def test_compare_refuses_a_repeated_variant(variants, capsys):
    # one JSON column per variant name, so a repeat would leave the CSV
    # header and the gaps (a self-pair) out of step with the JSON values
    for output in ("json", "csv"):
        code = main(
            ["compare", "--m", "1", "--k", "1", "--n", "1",
             "--variants", variants, "--r", "0,0.5", "--format", output]
        )
        assert code == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: compare lists a variant twice: {variants}\n"


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


def test_simulate_csv_rows(capsys):
    code = main(
        ["simulate", "--m", "1", "--k", "1", "--n", "1", "--r", "0.5",
         "--snr-db", "10:20:5", "--samples", "20000", "--seed", "7",
         "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "snr_db,rho,r,p_out,n_samples,ci_half_width",
        "10,10,0.5,0.0628,20000,0.00336302983026",
    ]


@pytest.mark.parametrize(
    "r, snr_db",
    [("0", "10:20:5"), ("nan", "10:20:5"), ("0.5", "inf,10,20")],
    ids=["zero-rate", "nan-rate", "inf-snr"],
)
def test_simulate_rejects_degenerate_rate(r, snr_db):
    code = main(
        ["simulate", "--m", "1", "--k", "1", "--n", "1", "--r", r,
         "--snr-db", snr_db, "--samples", "5000"]
    )
    assert code == EXIT_BAD_CONFIG


@pytest.mark.parametrize("snr_db", ["4000", "10,20,3100"])
def test_simulate_refuses_an_snr_past_the_float_range(snr_db, capsys):
    # 10 ** 400 overflows a float: the SNR reads as inf and is refused
    code = main(
        ["simulate", "--m", "1", "--k", "1", "--n", "1", "--r", "0.5",
         "--snr-db", snr_db, "--samples", "1000"]
    )
    assert code == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == "error: rho must exceed 1 and be finite, got inf\n"


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


def _biased_profile(level, length):
    return tuple(min(1.0, x + 0.01) for x in exponent_profile(level, length))


def _shift_variant(monkeypatch, variant, shift, where=lambda c: True):
    needs, fn = solvers._REGISTRY[variant]

    def shifted(c, grid):
        return [d + shift for d in fn(c, grid)] if where(c) else fn(c, grid)

    monkeypatch.setitem(solvers._REGISTRY, variant, (needs, shifted))


def _shift_scalar(monkeypatch, name, shift):
    from relaydmt import verify

    fn = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: fn(*args) + shift)


# an upper bound is lowered, not raised: raising it cannot break a <= check;
# the scalar shifts sit just past the identity (1e-12) and rate (1e-9) bounds
@pytest.mark.parametrize(
    "target, shift, label",
    [
        ("profile", 0.01, "profile consistency"),
        ("closed-1k1", 0.01, "closed-form agreement"),
        ("hd-static", 0.01, "static equals dynamic (n,1,n)"),
        ("fd", -0.01, "sandwich bounds"),
        ("symmetric-upper", -0.01, "symmetric upper bound dominance"),
        ("density_exponent", 1e-9, "objective/density identity"),
        ("rate_exponent", 1e-6, "profile support closure"),
        ("hd-dynamic m<n", 0.01, "reciprocity"),
        ("solve_general_grid", 0.2, "grid-oracle agreement"),
        ("_cut_log2dets", -1.0, "cut-set sample properties"),
    ],
    ids=["profile", "closed-1k1", "hd-static", "fd", "symmetric-upper",
         "density_exponent", "rate_exponent", "reciprocity", "grid-oracle", "cut-set"],
)
def test_verify_fault_injection_fails_and_names_check(monkeypatch, capsys, target, shift, label):
    from relaydmt import verify

    if target == "profile":
        monkeypatch.setattr(verify, "exponent_profile", _biased_profile)
    elif target in ("density_exponent", "rate_exponent"):
        _shift_scalar(monkeypatch, target, shift)
    elif target == "hd-dynamic m<n":
        # only one side of each reciprocal pair moves
        _shift_variant(monkeypatch, "hd-dynamic", shift, lambda c: c.m < c.n)
    elif target == "solve_general_grid":
        fn = verify.solve_general_grid

        def raised(*args):
            result = fn(*args)
            return replace(result, d=result.d + shift)

        monkeypatch.setattr(verify, target, raised)
    elif target == "_cut_log2dets":
        fn = verify._cut_log2dets

        def lowered(*args):
            l_sd, l_srd, l_s_rd = fn(*args)
            return l_sd, l_srd + shift, l_s_rd

        monkeypatch.setattr(verify, target, lowered)
    else:
        _shift_variant(monkeypatch, target, shift)
    code = main(["verify"])
    assert code == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert f"FAIL  {label}" in out


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(relaydmt.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, relaydmt.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.stdout.strip() == "False"
