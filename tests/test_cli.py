import argparse
import hashlib
import json
import time

import pytest

from conwaymoonshine.classdata import registry
from conwaymoonshine.cli import build_parser, main
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


@pytest.mark.parametrize("norm", ["40", "1000"])
def test_leech_shell_refuses_a_walk_beyond_the_node_ceiling(capsys, norm):
    start = time.perf_counter()
    code = main(["lattice", "leech-shell", "--norm", norm, "--format", "json"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "norm %s needs about" % norm in err and "enumeration nodes" in err
    assert elapsed < 1


def test_count_options_are_non_negative(capsys):
    assert run(capsys, "invariance", "--class", "2A", "--samples", "-1")[0] == 2
    assert run(capsys, "invariance", "--class", "2A", "--points", "-1")[0] == 2


@pytest.mark.parametrize("argv", [
    "invariance --class 2A --points 0",
    "invariance --class 2A --samples 0",
    "invariance --class 2A --points 0 --samples 0",
    "invariance --points 0 --format json",
])
def test_invariance_zero_request_is_usage_error(capsys, argv):
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "at least 1, got 0" in err


def test_invariance_tol_must_be_finite_and_positive(capsys):
    for tol in ("inf", "-1", "0", "nan"):
        t0 = time.perf_counter()
        assert run(capsys, "invariance", "--class", "2A", "--tol", tol) == (2, ""), tol
        assert time.perf_counter() - t0 < 1.0, tol


def test_invariance_unreachable_tol_is_usage_error(capsys):
    # the truncation bound cannot reach tol/10, so nothing was measured
    assert main(["invariance", "--class", "2A", "--tol", "1e-13"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: truncation bound"), err


def test_series_shape_tw_takes_c_from_the_registry(capsys):
    tw = ("--which", "tw", "--format", "json")
    for rec in registry():
        by_class = run(capsys, "series", "--class", rec.co0_name, *tw)
        by_shape = run(capsys, "series", "--shape", str(rec.frame_shape), *tw)
        assert by_class[0] == by_shape[0] == 0
        assert json.loads(by_shape[1])["series"] == json.loads(by_class[1])["series"], rec.co0_name


def test_series_shape_tw_scalar_without_c_value(capsys):
    # a shape with fixed points takes C = 0, so T_s_tw is -chi = -8 here
    code, out = run(capsys, "series", "--shape", "1^8.2^8", "--which", "tw", "--order", "3")
    assert code == 0 and out.startswith("-8 + O(q^3)")
    # fixed-point-free (an element of order 25) but not tabulated: C must be given
    assert run(capsys, "series", "--shape", "25/1", "--which", "tw")[0] == 2
    assert run(capsys, "series", "--shape", "25/1", "--which", "tw", "--c-value", "5")[0] == 0


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
    assert run(capsys, "--class", "2A", "verify", "lemma")[0] == 2
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


def test_verify_lemma_single_class(capsys):
    code, out = run(capsys, "verify", "lemma", "--class", "6C", "--order", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and len(payload["reports"]) == 1


LEAVES = [
    "table", "series", "verify lemma", "verify delta", "verify hecke", "verify normalization",
    "oracle fock", "oracle spinor", "lattice golay-weights", "lattice leech-shell",
    "lattice frame-check", "invariance", "n1 check",
]


def _leaf_options(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), {a.option_strings[-1]: a for a in parser._actions if a.option_strings}
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_options(child, path + (name,))


@pytest.mark.parametrize("leaf", LEAVES)
def test_every_leaf_has_help(capsys, leaf):
    assert run(capsys, *leaf.split(), "--help")[0] == 0


def test_each_leaf_declares_only_the_options_it_reads():
    options = dict(_leaf_options(build_parser()))
    assert sorted(options) == sorted(LEAVES)
    assert [leaf for leaf, opts in options.items() if "--jobs" in opts] == []
    assert [leaf for leaf, opts in options.items() if "csv" in opts["--format"].choices] == [
        "table"]
    assert sum(len(opts) - 1 for opts in options.values()) == 32  # less --help


@pytest.mark.parametrize("argv", [
    "lattice golay-weights --jobs 4",
    "n1 check --jobs 2",
    "n1 check --seed 3",
    "n1 check --samples 100",
    "table --jobs 2",
    "verify lemma --jobs 2",
    "invariance --jobs 2",
    "verify delta --class 2A",
    "lattice frame-check --norm 8",
    "oracle spinor --class 2A --max-degree 3",
    "series --class 2A --shape 1^24",
    "series --class 2A --c-value 3",
    "series --shape 1^24 --which s --c-value 3",
    "verify --order 20 delta",
    "lattice --norm 4 leech-shell",
])
def test_options_a_leaf_does_not_read_are_usage_errors(capsys, argv):
    assert run(capsys, *argv.split()) == (2, "")


@pytest.mark.parametrize("argv", [
    "verify hecke --order 1",
    "verify delta --order 0",
    "verify normalization --order 0",
    "verify lemma --class 2A --order 0",
])
def test_verify_order_too_small_is_usage_error(capsys, argv):
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    ("verify delta --order 0", "order 0 is too small: the delta identity needs 1 or more"),
    ("verify hecke --order 0", "order 0 is too small: the Hecke fit needs 2 or more"),
    ("verify hecke --order 1", "order 1 is too small: the Hecke fit needs 2 or more"),
])
def test_verify_order_too_small_names_the_given_order(capsys, argv, message):
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


# sha256 of stdout for the exact reports; a change that keeps them must keep these
# (invariance is left out: its float deviations can move with numpy)
PINNED_REPORTS = {
    "n1 check --format json": "dbf3017e9f01e02d719b1d285ff77a91b6290a637c98ee50437434b40dc94e7b",
    "lattice frame-check --format json": "d2b471f593a80a8ec76a91b2a6492784f957887ae5ca7560357cd57f16eddaa3",
    "lattice golay-weights --format json": "fef23e302ed125bf46f88d84f61028e870016d0ec53d1f11f81d7cc5b222e97d",
    "lattice leech-shell --norm 2 --format json": "b125c5f79a1d2c7c4000b826c7d81227704410fb748d118f38bae6367e0b165c",
    "lattice leech-shell --format json": "bb24897e0beafcabb9f14669fdc0febbb334bf10b19d0b3c0e511591f970887d",
    "lattice leech-shell --norm 20 --format json": "45529d0ed921b44ec6d8cf407e1efb559e267844b68a89d54823c65c1334be7c",
    "verify lemma --format json": "c5fc90afda7b7e3be5e15216bf48b85a61beaafcb28bfca55f736bc3bc1e9752",
    "verify delta --format json": "81319869b19f59806af75aee356fc367573efcaed90a781ba19589fe6013d036",
    "verify hecke --format json": "06546c8a163d051fcce507f9de9923097c9628611693482a0bd15331f38d0013",
    "verify normalization --format json": "23ad3e586c826ee7a1cc815779c8694fb22141a113b28589a4b146eddfb1c26d",
    # the edge orders, where a part's valuation meets the order
    "verify delta --order 1 --format json": "514fccadb5218cdef39e5d6e71ddae72661d6aa0cd5899188f2c83b8cae0561d",
    "verify hecke --order 2 --format json": "c77461ed78557d294a8374609e3d673c4031d235c7b36b629d1e2062b75d2f5f",
    "verify lemma --class 60B --order 2 --format json": "04c45d9e51e45873ad449743159c26bff985ab78afc7d92aec45c2412de07ab3",
    "oracle spinor --class 2A --format json": "6b9b1848460f12665037f50b7183c482e255627362cb7e67142de12abb2c43f3",
    "oracle fock --class 2A --format json": "e22a8190841b2ca9ec9ea556636241065ef59d09db0ee7ccfa0baf9c155c6eea",
    "series --class 2A --which tw --format json": "6edcd1c0335148b125faf89cdc6c96a2dec54b24aaba933382d76ee7a9993f80",
    # C = 0: eta_pi * 0 is on grid 1, so the one term row is [0, 1, -24, 1], not eta_pi's grid [0, 24, -24, 1]
    "series --shape 1^24 --which tw --format json": "0cbf59417ca372aa995b46f9f0711456781877365d2e4e8ba201d0a1184aab57",
    "table --format csv": "a8460c8bfa9aead171c7241f16e528dc43a801bf96d74d9b5153ced9dd071366",
}


def test_exact_reports_are_pinned(capsys):
    got = {argv: run(capsys, *argv.split()) for argv in PINNED_REPORTS}
    got = {argv: (code, hashlib.sha256(out.encode()).hexdigest()) for argv, (code, out) in got.items()}
    assert got == {argv: (0, digest) for argv, digest in PINNED_REPORTS.items()}
