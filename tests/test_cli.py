"""Command-line surface: formats, exit codes, determinism, fixtures plumbing."""

import json
from pathlib import Path

import pytest

from wallcross.cli import laurent_human, main
from wallcross.combinat import quantum_integer

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Rendering


def test_laurent_human_uses_q_powers():
    assert laurent_human(quantum_integer(3)) == "q + 1 + 1/q"
    assert laurent_human(quantum_integer(2)) == "q^(1/2) + 1/q^(1/2)"
    assert laurent_human(-quantum_integer(4)) == "-q^(3/2) - q^(1/2) - 1/q^(1/2) - 1/q^(3/2)"


# ---------------------------------------------------------------------------
# gw


def test_gw_single_cell(capsys):
    code, out, _ = run(capsys, "gw", "--r", "1", "--d", "1")
    assert code == 0
    assert out.splitlines()[1].split() == ["1", "1", "3", "1"]


def test_gw_grid_matches_golden(capsys):
    code, out, _ = run(capsys, "gw", "--r", "1", "--d-max", "6", "--out", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "r,d,gw_nodal,gw_local"
    assert rows[2].split(",")[2] == "21/4"
    assert rows[5].split(",")[2] == "11628/25"


def test_gw_rejected_weight_is_config_error(capsys):
    code, out, err = run(capsys, "gw", "--r", "0", "--d", "1")
    assert code == 2
    assert out == ""
    assert "scattering" in err


# ---------------------------------------------------------------------------
# dt


def test_dt_numeric(capsys):
    code, out, _ = run(capsys, "dt", "--m", "3", "--d", "2")
    assert code == 0
    assert out.splitlines()[1].split() == ["3", "2", "-6"]


def test_dt_numeric_low_m_is_config_error(capsys):
    code, out, err = run(capsys, "dt", "--m", "1", "--d", "1")
    assert code == 2
    assert out == ""
    assert "scattering" in err


def test_dt_refined_rendering(capsys):
    code, out, _ = run(capsys, "dt", "--m", "3", "--d", "1", "--refined")
    assert code == 0
    assert "q + 1 + 1/q" in out


def test_dt_refined_pentagon_zero(capsys):
    code, out, _ = run(capsys, "dt", "--m", "1", "--d", "3", "--refined")
    assert code == 0
    line = out.splitlines()[1].split()
    assert line[:4] == ["1", "3", "0", "0"]


def test_dt_refined_json_report(capsys):
    code, out, _ = run(capsys, "dt", "--m", "3", "--d-max", "2", "--refined", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["omega_at_1"] == "3"
    assert payload[1]["omega_at_1"] == "-6"
    assert payload[1]["gv_list"] == ["-1"]
    golden = json.loads((GOLDENS / "refined_m3_dmax4.json").read_text())
    assert out == json.dumps(golden[:2], indent=2) + "\n"


def test_d_and_d_max_are_mutually_exclusive(capsys):
    for command in (["gw", "--r", "1"], ["dt", "--m", "3"], ["gv", "--r", "1"]):
        code, out, err = run(capsys, *command, "--d", "2", "--d-max", "5")
        assert code == 2, command
        assert out == "", command
        assert "not allowed with argument" in err, command


def test_dt_d_max_zero_is_config_error(capsys):
    # 0 is a value, not "flag absent": it must not fall back to the default range
    code, out, err = run(capsys, "dt", "--refined", "--m", "3", "--d-max", "0")
    assert code == 2
    assert out == ""
    assert "--d-max must be >= 1, got 0" in err


def test_dt_refined_size_limit_in_user_units(capsys):
    code, out, err = run(capsys, "dt", "--refined", "--m", "3", "--d", "9")
    assert code == 2
    assert out == ""
    assert "d must be in 1..8, got 9" in err


# ---------------------------------------------------------------------------
# scatter


def test_scatter_pentagon_json(capsys):
    code, out, _ = run(capsys, "scatter", "--m", "1", "--order", "3", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    outgoing = [r for r in payload["rays"] if not r["incoming"]]
    assert outgoing == [{"direction": [1, 1], "incoming": False, "wall_function": {"1": "1"}}]


def test_scatter_extract_omega(capsys):
    code, out, _ = run(capsys, "scatter", "--m", "3", "--order", "4", "--extract-omega", "2")
    assert code == 0
    assert out.strip() == "-6"


def test_scatter_insufficient_order_is_config_error(capsys):
    code, _, err = run(capsys, "scatter", "--m", "3", "--order", "1", "--extract-omega", "2")
    assert code == 2
    assert "order" in err


def test_scatter_human_listing(capsys):
    code, out, _ = run(capsys, "scatter", "--m", "2", "--order", "4")
    assert code == 0
    assert "incoming line (1, 0)" in out
    assert "outgoing ray (1, 1)" in out


# ---------------------------------------------------------------------------
# gv


def test_gv_first_values(capsys):
    code, out, _ = run(capsys, "gv", "--r", "1", "--d-max", "3", "--out", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[3] for r in rows] == ["1", "-1", "2"]


# ---------------------------------------------------------------------------
# verify


def test_verify_table_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(1 for line in lines if line.startswith("PASS table/")) == 6
    assert lines[-1] == "suite table: 6/6 passed"


def test_verify_partition_suite_custom_range(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "partition", "--d-max", "12")
    assert code == 0
    assert "suite partition: 12/12 passed" in out


def test_verify_refined_restricted(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "refined", "--m", "3", "--d-max", "2")
    assert code == 0
    assert "suite refined:" in out
    assert "FAIL" not in out


def test_verify_json_is_deterministic_and_timed_on_stderr(capsys):
    code, out1, err = run(capsys, "verify", "--suite", "table", "--out", "json")
    assert code == 0
    assert "completed in" in err
    _, out2, _ = run(capsys, "verify", "--suite", "table", "--out", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["total"] == 6 and payload["failures"] == 0
    assert "duration" not in payload


def test_verify_order_zero_is_config_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "scatter", "--order", "0")
    assert code == 2
    assert out == ""
    assert "--order must be >= 1, got 0" in err


def test_verify_d_max_zero_is_config_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "scatter", "--d-max", "0")
    assert code == 2
    assert out == ""
    assert "--d-max must be >= 1, got 0" in err


def test_verify_m_zero_is_config_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "scatter", "--m", "0")
    assert code == 2
    assert out == ""
    assert "--m must be >= 1, got 0" in err


def test_verify_m_below_three_is_config_error(capsys):
    for suite, m in (("scatter", "2"), ("refined", "2"), ("all", "1")):
        code, out, err = run(capsys, "verify", "--suite", suite, "--m", m)
        assert code == 2, suite
        assert out == "", suite
        assert f"--m must be >= 3 for --suite {suite}, got {m}" in err
        assert "anchors" in err


def test_verify_scatter_checks_every_degree_up_to_d_max(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "scatter", "--d-max", "5")
    assert code == 0
    assert out.splitlines()[-1] == "suite scatter: 15/15 passed"
    for m in (3, 4):
        assert f"PASS scatter/central m={m} d=5:" in out


def test_verify_scatter_d_max_above_its_cap_is_config_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "scatter", "--d-max", "40")
    assert code == 2
    assert out == ""
    assert "--d-max" in err and "40" in err


@pytest.mark.parametrize("suite, cap", [("partition", 200), ("chain", 800)])
def test_verify_d_max_one_above_the_suite_cap_is_config_error(capsys, suite, cap):
    code, out, err = run(capsys, "verify", "--suite", suite, "--d-max", str(cap + 1))
    assert code == 2
    assert out == ""
    assert f"--d-max must be at most {cap} for --suite {suite}, got {cap + 1}" in err


def test_verify_refined_d_max_above_the_factor_cap_names_the_flag(capsys):
    code, out, err = run(capsys, "verify", "--suite", "refined", "--d-max", "9")
    assert code == 2
    assert out == ""
    assert "--d-max must be at most 8 for --suite refined, got 9" in err


def test_verify_order_below_twice_d_max_is_config_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "scatter", "--d-max", "5", "--order", "8")
    assert code == 2
    assert out == ""
    assert "--order 8" in err and "up to 5" in err and "--order >= 10" in err


def test_verify_rejects_flags_the_suite_does_not_read(capsys, tmp_path):
    for argv, flag in ((["--suite", "all", "--d-max", "2"], "--d-max"),
                       (["--suite", "table", "--m", "2", "--order", "99"], "--m"),
                       (["--suite", "refined", "--order", "50"], "--order"),
                       (["--suite", "chain", "--fixtures", str(tmp_path / "nope.csv")],
                        "--fixtures")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == "", argv
        assert f"--suite {argv[1]} does not read {flag}" in err, argv


def test_verify_missing_fixtures_is_config_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--suite", "table",
                       "--fixtures", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "fixtures" in err


def test_verify_malformed_fixture_row_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("d,gw_nodal,gw_smooth\n1,abc,9\n")
    code, out, err = run(capsys, "verify", "--suite", "table", "--fixtures", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(bad) in err and "abc" in err


def test_verify_detects_corrupt_fixtures(capsys, tmp_path):
    bad = tmp_path / "p2_table.csv"
    bad.write_text("d,gw_nodal,gw_smooth\n1,4,9\n")
    code, out, _ = run(capsys, "verify", "--suite", "table", "--fixtures", str(bad))
    assert code == 1
    assert "FAIL table/d=1" in out


def test_usage_error_exit_code(capsys):
    assert main(["gw"]) == 2  # --r is required
    assert main(["verify", "--suite", "bogus"]) == 2
    assert main(["nonsense"]) == 2


def test_removed_flags_are_usage_errors(capsys):
    assert main(["gw", "--r", "1", "--jobs", "2"]) == 2
    assert main(["verify", "--suite", "table", "--strict-truncation"]) == 2


def test_csv_is_a_usage_error_where_no_csv_is_rendered(capsys):
    # scatter and verify render human and json only; csv must not fall through
    for argv in (["verify", "--suite", "table"], ["scatter", "--m", "3", "--order", "4"]):
        code, out, err = run(capsys, *argv, "--out", "csv")
        assert code == 2, argv
        assert out == "", argv
        assert "invalid choice" in err, argv
