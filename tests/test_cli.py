"""Command-line surface: formats, exit codes, determinism, fixtures plumbing."""

import json

from wallcross.cli import laurent_human, main
from wallcross.combinat import quantum_integer


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


def test_gw_rejected_weight_is_surfaced_per_cell(capsys):
    code, out, _ = run(capsys, "gw", "--r", "0", "--d", "1")
    assert code == 0
    assert "DomainError" in out
    assert "scatter" in out


# ---------------------------------------------------------------------------
# dt


def test_dt_numeric(capsys):
    code, out, _ = run(capsys, "dt", "--m", "3", "--d", "2")
    assert code == 0
    assert out.splitlines()[1].split() == ["3", "2", "-6"]


def test_dt_numeric_low_m_hints_at_refined(capsys):
    code, out, _ = run(capsys, "dt", "--m", "1", "--d", "1")
    assert code == 0
    assert "DomainError" in out


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
