import json

from conwaymoonshine.cli import main
from conwaymoonshine.qseries import FracPowerSeries as S


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_delta_exit_code(capsys):
    code, out = run(capsys, "verify", "delta", "--order", "20")
    assert code == 0
    assert "pass" in out


def test_series_tw_2a(capsys):
    code, out = run(capsys, "series", "--class", "2A", "--which", "tw", "--order", "4")
    assert code == 0
    assert out.startswith("24 + 4096 q")


def test_series_unknown_class_usage_error(capsys):
    code, _ = run(capsys, "series", "--class", "1Z")
    assert code == 2


def test_negative_order_is_usage_error(capsys):
    assert run(capsys, "series", "--class", "2A", "--order", "-1")[0] == 2
    assert run(capsys, "verify", "delta", "--order", "-1")[0] == 2


def test_leech_shell_norm_bounds(capsys):
    assert run(capsys, "lattice", "leech-shell", "--norm", "-1")[0] == 2
    code, out = run(capsys, "lattice", "leech-shell", "--norm", "0", "--format", "json")
    assert code == 0 and json.loads(out) == {"norm": 0, "count": 1}


def test_count_options_are_non_negative(capsys, monkeypatch):
    assert run(capsys, "n1", "check", "--samples", "-1")[0] == 2
    assert run(capsys, "n1", "check", "--jobs", "-3")[0] == 2
    assert run(capsys, "invariance", "--class", "2A", "--samples", "-1")[0] == 2
    assert run(capsys, "invariance", "--class", "2A", "--points", "-1")[0] == 2
    lemma = ("verify", "lemma", "--class", "2A", "--order", "2")
    for bad in ("abc", "-2"):
        monkeypatch.setenv("MOONSHINE_JOBS", bad)
        assert run(capsys, *lemma)[0] == 2
    monkeypatch.setenv("MOONSHINE_JOBS", "1")
    assert run(capsys, *lemma)[0] == 0


def test_series_requires_selector(capsys):
    code, _ = run(capsys, "series")
    assert code == 2


def test_series_json_round_trips(capsys):
    code, out = run(
        capsys, "series", "--class", "3A", "--which", "s", "--order", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    series = S.from_json(payload["series"])
    assert series.coeff(0) == 0


def test_table_csv_round_trips(capsys):
    import csv
    import io

    code, out = run(capsys, "table", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 90
    from conwaymoonshine.frameshape import parse

    for row in rows:
        parse(row["frame_shape"])


def test_shared_options_belong_to_the_subcommand(capsys):
    # before the subcommand they would be overwritten by its defaults
    assert run(capsys, "--format", "json", "lattice", "golay-weights")[0] == 2
    assert run(capsys, "--jobs", "2", "verify", "lemma", "--class", "2A")[0] == 2
    code, out = run(capsys, "lattice", "golay-weights", "--format", "json")
    assert code == 0 and json.loads(out)["weights"]["8"] == 759


def test_csv_format_is_table_only(capsys):
    assert run(capsys, "lattice", "golay-weights", "--format", "csv") == (2, "")
    assert run(capsys, "oracle", "spinor", "--class", "2A", "--format", "csv") == (2, "")


def test_malformed_shape_is_usage_error(capsys):
    code, _ = run(capsys, "series", "--shape", "1^23")
    assert code == 2


def test_oracle_spinor(capsys):
    code, out = run(capsys, "oracle", "spinor", "--class", "4A", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_matches_closed"] and payload["magnitude_matches_table"]


def test_oracle_fock_small(capsys):
    code, out = run(
        capsys, "oracle", "fock", "--class", "identity", "--max-degree", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["untwisted_match"] and payload["twisted_match"]


def test_invariance_report_seed_determinism(capsys):
    args = ("invariance", "--class", "6C", "--points", "8", "--seed", "7", "--format", "json")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_invariance_sweep_same_under_process_pool(capsys):
    args = ("invariance", "--class", "all", "--format", "json")
    code1, out1 = run(capsys, *args, "--jobs", "1")
    code2, out2 = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_lemma_single_class(capsys):
    code, out = run(capsys, "verify", "lemma", "--class", "6C", "--order", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and len(payload["reports"]) == 1
