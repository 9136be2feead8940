import csv
import io
import json
import math
import weakref

import numpy as np
import pytest

from diskvolterra import cli
from diskvolterra.cli import (ConfigError, build_parser, lemma25_log_fit, main,
                              run_identity_suite, run_lemma25, run_sweep, write_csv)


def write_symbols(tmp_path, phi=None, g=None):
    cfg = {"phi": phi or {"family": "scaled_identity", "params": {"c": 0.5}},
           "g": g or {"family": "identity"}}
    path = tmp_path / "symbols.json"
    path.write_text(json.dumps(cfg))
    return str(path)


SMALL_GRID = ["--grid-angles", "64", "--jmax", "16"]


def test_lemma25_outputs(tmp_path):
    out = run_lemma25([1.0], [10, 100, 1000], tmp_path)
    assert (tmp_path / "lemma25_standard.csv").exists()
    assert (tmp_path / "lemma25_log.csv").exists()
    scaled = out["standard"][1.0]["scaled"][1000]
    assert scaled == pytest.approx(2 / math.e, rel=0.01)


def test_lemma25_checkpoint_cap(tmp_path):
    with pytest.raises(ConfigError):
        run_lemma25([1.0], [10 ** 7 + 1], tmp_path)
    with pytest.raises(ConfigError):
        run_lemma25([], [100], tmp_path)


def test_lemma25_cli(tmp_path):
    rc = main(["lemma25", "--out", str(tmp_path / "o"),
               "--checkpoints", "10,100", "--alphas", "1"])
    assert rc == 0
    rc = main(["lemma25", "--out", str(tmp_path / "o2"),
               "--checkpoints", "20000000"])
    assert rc == 2


@pytest.mark.parametrize("checkpoints", ["10.7", "1e1", "10,100.5", "ten"])
def test_lemma25_checkpoints_are_integers(tmp_path, capsys, checkpoints):
    # the --nseq rule: each entry parses as an int; 10.7 once ran at n = 11
    rc = main(["lemma25", "--out", str(tmp_path / "o"), "--checkpoints", checkpoints,
               "--alphas", "1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_lemma25_without_a_checkpoint_for_the_log_fit_exits_2(tmp_path, capsys):
    # the a + b/log n fit reads the checkpoints n >= 2; with none it once
    # crashed on an empty array
    rc = main(["lemma25", "--out", str(tmp_path / "o"), "--alphas", "1",
               "--checkpoints", "1"])
    err = capsys.readouterr().err
    assert rc == 2 and "config error" in err and "checkpoint must be >= 2" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()
    rc = main(["lemma25", "--out", str(tmp_path / "o"), "--alphas", "1",
               "--checkpoints", "1,2"])
    assert rc == 0
    fit = json.loads((tmp_path / "o" / "lemma25_log_fit.json").read_text())
    assert fit["fit_checkpoints"] == [2]


def test_log_fit_window():
    ns = [1000, 10_000, 100_000, 1_000_000]
    vals = [1.0 - 1.0 / math.log(n) for n in ns]
    fit = lemma25_log_fit(ns, vals)
    assert fit["a"] == pytest.approx(1.0, abs=1e-9)
    assert fit["b"] == pytest.approx(-1.0, abs=1e-7)
    assert min(fit["fit_checkpoints"]) >= 10_000


def test_identity_suite_passes_and_is_deterministic(tmp_path):
    r1 = run_identity_suite(seed=7, count=5)
    r2 = run_identity_suite(seed=7, count=5)
    assert r1 == r2
    assert r1["all_passed"]
    with pytest.raises(ConfigError):
        run_identity_suite(seed=7, count=0)


def test_identities_cli_exit_codes(tmp_path):
    rc = main(["identities", "--count", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "identities.json").exists()


def test_identities_with_a_negative_seed_exits_2(tmp_path, capsys):
    rc = main(["identities", "--seed", "-1", "--count", "1", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2 and "config error: seed must be >= 0" in err
    assert not (tmp_path / "o").exists()


def test_criterion_cli(tmp_path):
    sym = write_symbols(tmp_path)
    rc = main(["criterion", "--op", "vgcphi", "--alpha", "1", "--beta", "1",
               "--config", sym, "--out", str(tmp_path / "out"),
               "--nseq", "256", *SMALL_GRID])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "criterion_vgcphi_alpha1_beta1.json").read_text())
    assert report["verdict"] == "bounded"
    csv_path = tmp_path / "out" / "criterion_vgcphi_alpha1_beta1_cond1.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,s_n,scaled_s_n"
    assert len(lines) == 258  # header + n = 0..256


def test_criterion_cli_requires_config(tmp_path):
    rc = main(["criterion", "--op", "vgcphi", "--alpha", "1", "--beta", "1",
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("command", ["criterion", "essnorm"])
@pytest.mark.parametrize("flags", [["--alpha", "-1"], ["--beta", "0"], ["--alpha", "nan"],
                                   ["--nseq", "0"]],
                         ids=["alpha-negative", "beta-zero", "alpha-nan", "nseq-zero"])
def test_operator_flag_errors_exit_2(tmp_path, capsys, command, flags):
    sym = write_symbols(tmp_path)
    rc = main([command, "--op", "vgcphi", "--alpha", "1", "--beta", "1", "--config", sym,
               "--out", str(tmp_path / "out"), *SMALL_GRID, *flags])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["criterion", "essnorm", "norms"])
@pytest.mark.parametrize("extra", [{"grid": {"angels": 64}}, {"grid": {"angles": 64}},
                                   {"nseq": 64}],
                         ids=["misspelt-grid-key", "grid-object", "other-key"])
def test_symbol_file_with_other_keys_exits_2(tmp_path, capsys, command, extra):
    # a symbol file holds only "phi" and "g"; a grid object in it used to be
    # ignored without a word, even a malformed one
    path = tmp_path / "symbols.json"
    path.write_text(json.dumps({"phi": {"family": "scaled_identity", "params": {"c": 0.5}},
                                "g": {"family": "identity"}, **extra}))
    flags = ([] if command == "norms"
             else ["--op", "vgcphi", "--alpha", "1", "--beta", "1", "--nseq", "64"])
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
               *SMALL_GRID, *flags])
    assert rc == 2
    assert "unknown symbol config keys" in capsys.readouterr().err


SYMBOLS = {"phi": {"family": "scaled_identity", "params": {"c": 0.5}},
           "g": {"family": "identity"}}


@pytest.mark.parametrize("command,entry", [
    pytest.param("criterion", {"phi": {"family": "mobius", "params": {"a": [0.5]}}},
                 id="mobius-a-one-entry"),
    pytest.param("norms", {"phi": {"family": "mobius", "params": {"a": {"re": 0.5}}}},
                 id="mobius-a-object"),
    pytest.param("criterion", {"phi": {"family": "mobius", "params": []}},
                 id="params-list"),
    pytest.param("essnorm", {"g": {"family": "poly", "params": {"coeffs": 5}}},
                 id="poly-coeffs-number"),
    pytest.param("norms", {"phi": []}, id="phi-list"),
    pytest.param("criterion", {"phi": {"family": "scaled_identity", "params": {"c": None}}},
                 id="c-null"),
    pytest.param("sweep", {"phis": [{"family": "mobius", "params": {"a": [0.5]}}]},
                 id="sweep-mobius-a-one-entry"),
])
def test_malformed_symbol_specs_exit_2(tmp_path, capsys, command, entry):
    # each of these once escaped as an IndexError, TypeError or
    # AttributeError with a traceback and exit code 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entry if command == "sweep" else {**SYMBOLS, **entry}))
    flags = ([] if command in ("norms", "sweep")
             else ["--op", "vgcphi", "--alpha", "1", "--beta", "1", "--nseq", "64"])
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
               *SMALL_GRID, *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err


#: complex spec parameters that are not a number or an [re, im] pair of
#: numbers; each of these once ran, the first as phi = z, the second as 0
BAD_NUMBERS = [
    pytest.param({"phi": {"family": "poly", "params": {"coeffs": "01"}}}, id="coeffs-string"),
    pytest.param({"phi": {"family": "poly", "params": {"coeffs": {"0": 1}}}},
                 id="coeffs-object"),
    pytest.param({"g": {"family": "poly", "params": {"coeffs": {}}}}, id="coeffs-empty-object"),
    pytest.param({"g": {"family": "poly", "params": {"coeffs": [0, True]}}}, id="coeff-bool"),
    pytest.param({"phi": {"family": "scaled_identity", "params": {"c": "0.5"}}},
                 id="c-string"),
    pytest.param({"phi": {"family": "scaled_identity", "params": {"c": [0.5, 0, 7]}}},
                 id="c-triple"),
    pytest.param({"phi": {"family": "mobius", "params": {"a": [0.5, False]}}},
                 id="a-pair-with-bool"),
]

#: keys that no family reads, beside the family or in its params
UNKNOWN_KEYS = [
    pytest.param({"phi": {"family": "scaled_identity", "params": {"c": 0.5}, "extra": 1}},
                 id="spec-key"),
    pytest.param({"phi": {"family": "scaled_identity", "params": {"c": 0.5, "zz": 1}}},
                 id="scaled-identity-param"),
    pytest.param({"g": {"family": "identity", "params": {"c": 1.0}}}, id="identity-param"),
    pytest.param({"g": {"family": "log_cesaro", "params": {"a": 0.5}}},
                 id="log-cesaro-param"),
    pytest.param({"g": {"family": "poly", "params": {"coeffs": [0, 1], "c": 1}}},
                 id="poly-param"),
]


def run_with_symbols(tmp_path, command, entry):
    """main() of ``command`` on SYMBOLS with ``entry`` merged in, given as
    a symbol file or, for a sweep, as the one phi and g of its config."""
    symbols = {**SYMBOLS, **entry}
    cfg = (symbols if command != "sweep" else
           {"kinds": ["vgcphi"], "phis": [symbols["phi"]], "gs": [symbols["g"]],
            "alphas": [1.0], "betas": [1.0], "nseq": 64})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    flags = [] if command == "sweep" else ["--op", "vgcphi", "--alpha", "1", "--beta", "1",
                                           "--nseq", "64"]
    return main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                 *SMALL_GRID, *flags])


@pytest.mark.parametrize("command", ["criterion", "sweep"])
@pytest.mark.parametrize("entry", BAD_NUMBERS + UNKNOWN_KEYS)
def test_spec_numbers_and_keys_follow_one_rule(tmp_path, capsys, command, entry):
    rc = run_with_symbols(tmp_path, command, entry)
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["criterion", "sweep"])
@pytest.mark.parametrize("entry", [
    pytest.param({"phi": {"family": "scaled_identity", "params": {"c": [0.5, 0]}}},
                 id="c-pair"),
    pytest.param({"phi": {"family": "scaled_identity"}}, id="c-default"),
    pytest.param({"g": {"family": "poly", "params": {"coeffs": [0, 1, [0, 0.5]]}}},
                 id="coeffs-mixed"),
    pytest.param({"g": {"family": "log_cesaro", "params": {}}}, id="empty-params"),
])
def test_well_formed_specs_run(tmp_path, command, entry):
    assert run_with_symbols(tmp_path, command, entry) == 0


@pytest.mark.parametrize("nseq", ["4", "9"])
def test_essnorm_cli_with_a_short_scan(tmp_path, capsys, nseq):
    # alpha = 1 brings a log condition, whose a + b/log n fit once read n = 1
    sym = write_symbols(tmp_path)
    rc = main(["essnorm", "--op", "vgcphi", "--alpha", "1", "--beta", "1",
               "--config", sym, "--out", str(tmp_path / "out"),
               "--nseq", nseq, *SMALL_GRID])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    est = json.loads((tmp_path / "out" / "essnorm_vgcphi_alpha1_beta1.json").read_text())
    assert len(est["conditions"]) == 2


def test_essnorm_cli(tmp_path):
    sym = write_symbols(tmp_path)
    rc = main(["essnorm", "--op", "cphiug", "--alpha", "2", "--beta", "1",
               "--config", sym, "--out", str(tmp_path / "out"),
               "--nseq", "256", *SMALL_GRID])
    assert rc == 0
    est = json.loads((tmp_path / "out" / "essnorm_cphiug_alpha2_beta1.json").read_text())
    assert est["compact_flag"] is True
    assert (tmp_path / "out" / "essnorm_cphiug_alpha2_beta1_cond1_boundary.csv").exists()


def test_essnorm_cli_unbounded_case(tmp_path):
    sym = write_symbols(tmp_path, phi={"family": "scaled_identity", "params": {"c": 1.0}})
    rc = main(["essnorm", "--op", "vgcphi", "--alpha", "2", "--beta", "0.5",
               "--config", sym, "--out", str(tmp_path / "out"),
               "--nseq", "512", *SMALL_GRID])
    assert rc == 1


def test_norms_cli(tmp_path):
    sym = write_symbols(tmp_path)
    rc = main(["norms", "--config", sym, "--alphas", "1,2",
               "--out", str(tmp_path / "out"), *SMALL_GRID])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "norms.json").read_text())
    assert data["alpha=1"]["zygmund_phi"] == pytest.approx(0.5)


def test_verify_testfns_cli(tmp_path):
    rc = main(["verify-testfns", "--out", str(tmp_path), "--a-grid", "0.8",
               "--alphas", "1.5", *SMALL_GRID])
    assert rc == 0
    report = json.loads((tmp_path / "testfn_claims.json").read_text())
    assert "g_a" in report and "h_n" in report


def test_sweep_validation(tmp_path):
    with pytest.raises(ConfigError):
        run_sweep({"alphas": []}, tmp_path)
    with pytest.raises(ConfigError):
        run_sweep({"kinds": ["bogus"]}, tmp_path)
    with pytest.raises(ConfigError):
        run_sweep({"alphas": [0.0, 1.0]}, tmp_path)


@pytest.mark.parametrize("cfg,flags", [
    pytest.param({"grid": {"angles": 8}}, [], id="grid-angles"),
    pytest.param({"phis": [{"family": "bogus"}]}, [], id="unknown-phi"),
    pytest.param({"phis": [{"params": {"c": 0.5}}]}, [], id="missing-phi-family"),
    pytest.param({"phis": [{"family": "mobius", "params": {"a": 1.5}}]}, [],
                 id="mobius-outside-disk"),
    pytest.param({"nseq": "abc"}, [], id="nseq-not-a-number"),
    pytest.param({"alphas": ["x"]}, [], id="alpha-not-a-number"),
    pytest.param({"grid": {"angels": 64}}, [], id="unknown-grid-key"),
    pytest.param({"nsqe": 64}, [], id="unknown-top-level-key"),
    pytest.param(None, ["--nseq", "64"], id="null-config-with-nseq"),
    # one rule for operator arguments: the criterion and essnorm flags refuse
    # these too, but a sweep once ran them and wrote inf or NaN into reports
    pytest.param({"betas": [math.inf]}, [], id="beta-infinite"),
    pytest.param({"alphas": [1.0, math.inf]}, [], id="alpha-infinite"),
    pytest.param({"betas": [math.nan]}, [], id="beta-nan"),
    pytest.param({"nseq": 0}, [], id="nseq-zero"),
    pytest.param({"compact_tol": math.nan}, [], id="compact-tol-nan"),
    pytest.param({"compact_tol": math.inf}, [], id="compact-tol-infinite"),
    pytest.param({"compact_tol": -1e-3}, [], id="compact-tol-negative"),
    # nothing read the seed key, so it is gone like any unknown key
    pytest.param({"seed": 42}, [], id="seed-key"),
    # integer entries take JSON integers only: int() once cut these short
    pytest.param({"nseq": 64.7}, [], id="nseq-float"),
    pytest.param({"nseq": "64"}, [], id="nseq-string"),
    pytest.param({"nseq": True}, [], id="nseq-bool"),
    pytest.param({"grid": {"angles": 64.9}}, [], id="grid-angles-float"),
    pytest.param({"grid": {"j_max": True}}, [], id="grid-jmax-bool"),
    # exponents and compact_tol take JSON numbers only: true once read as 1
    pytest.param({"alphas": [True]}, [], id="alpha-bool"),
    pytest.param({"betas": [1.0, True]}, [], id="beta-bool"),
    pytest.param({"compact_tol": True}, [], id="compact-tol-bool"),
    pytest.param({"compact_tol": "0.001"}, [], id="compact-tol-string"),
    # an empty list once ran the default grid without a word
    pytest.param({"grid": []}, [], id="grid-empty-list"),
    # a grid whose points round onto the circle once failed every cell
    pytest.param({"grid": {"j_max": 60}}, [], id="grid-jmax-past-double-precision"),
])
def test_sweep_config_errors_exit_2(tmp_path, capsys, cfg, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_small_config(tmp_path):
    cfg = {
        "kinds": ["vgcphi", "cphiug"],
        "phis": [{"family": "scaled_identity", "params": {"c": 0.5}}],
        "gs": [{"family": "identity"}],
        "alphas": [1.0],
        "betas": [1.0],
        "nseq": 128,
        "grid": {"radii_count": 8, "angles": 64, "j_max": 12},
    }
    rows = run_sweep(cfg, tmp_path / "out")
    assert len(rows) == 2
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("kind,alpha,beta,phi_family,g_family,cond1_label")
    assert len(summary) == 3
    assert (tmp_path / "out" / "config_echo.json").exists()
    # compact column is true for phi = z/2 cells
    for line in summary[1:]:
        assert line.split(",")[-2] == "True"


def test_sweep_runs_a_one_term_scan(tmp_path):
    # a sweep takes any nseq >= 1, as the criterion and essnorm flags do
    cfg = {"kinds": ["vgcphi"], "phis": [{"family": "scaled_identity", "params": {"c": 0.5}}],
           "gs": [{"family": "identity"}], "alphas": [1.0], "betas": [1.0], "nseq": 1,
           "grid": {"radii_count": 8, "angles": 64, "j_max": 12}}
    rows = run_sweep(cfg, tmp_path / "out")
    assert [row[-1] for row in rows] == [""]
    echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
    assert echo["nseq"] == 1 and "seed" not in echo


def test_sweep_cli_with_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kinds": ["ugcphi"],
        "phis": [{"family": "scaled_identity", "params": {"c": 0.5}}],
        "gs": [{"family": "identity"}],
        "alphas": [0.5],
        "betas": [1.0],
        "nseq": 64,
        "grid": {"radii_count": 6, "angles": 64, "j_max": 10},
    }))
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    rc = main(["sweep", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "out2")])
    assert rc == 2


@pytest.mark.parametrize("command,flags", [
    pytest.param("norms", ["--alphas", "-1"], id="norms-alpha-negative"),
    pytest.param("norms", ["--alphas", "1,inf"], id="norms-alpha-infinite"),
    pytest.param("verify-testfns", ["--alphas", "-1"], id="testfns-alpha-negative"),
    pytest.param("verify-testfns", ["--alphas", "inf"], id="testfns-alpha-infinite"),
    pytest.param("verify-testfns", ["--a-grid", "1.5"], id="testfns-a-outside-disk"),
    pytest.param("verify-testfns", ["--a-grid", "0.8,0"], id="testfns-a-zero"),
    pytest.param("verify-testfns", ["--a-grid", "nan"], id="testfns-a-nan"),
    pytest.param("lemma25", ["--alphas", "-1"], id="lemma25-alpha-negative"),
    pytest.param("lemma25", ["--alphas", "nan"], id="lemma25-alpha-nan"),
])
def test_alpha_and_a_lists_follow_one_rule(tmp_path, capsys, command, flags):
    # every alpha positive and finite, every a with 0 < |a| < 1, as for the
    # operator flags; these once exited 1 with a traceback, or wrote inf blocks
    extra = {"norms": ["--config", write_symbols(tmp_path), *SMALL_GRID],
             "verify-testfns": SMALL_GRID, "lemma25": ["--checkpoints", "10"]}[command]
    rc = main([command, "--out", str(tmp_path / "out"), *extra, *flags])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_verify_testfns_with_only_inner_parameters(tmp_path):
    # no a > 1/2: the families that need one report nothing, the others as usual
    rc = main(["verify-testfns", "--out", str(tmp_path), "--a-grid", "0.3",
               "--alphas", "1", *SMALL_GRID])
    assert rc == 0
    report = json.loads((tmp_path / "testfn_claims.json").read_text())
    assert report["h_n"] == {"claims": [], "norm_bound": []}
    assert report["f_a"]["claims"] and report["f_a"]["norm_bound"][0]["norms"]["0.3"] > 0


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-05, 1e+16, math.inf, math.nan]


@pytest.mark.parametrize("raw,scaled", [
    pytest.param(EDGE_FLOATS, EDGE_FLOATS[::-1], id="edge-values"),
    pytest.param([0.25, 3.0], [0.5, 1.0 / 3.0], id="n_seq-1"),
])
def test_per_n_csv_bytes_are_csv_writers(tmp_path, raw, scaled):
    raw, scaled = np.array(raw), np.array(scaled)
    for header, columns in ((["n", "s_n", "scaled_s_n"], (raw, scaled)),
                            (["n", "scaled_s_n"], (scaled,))):
        rows = [[n, *(repr(float(c[n])) for c in columns)] for n in range(len(raw))]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(rows)
        path = tmp_path / f"{len(columns)}.csv"
        write_csv(path, header, columns=columns)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


QUERY_FLAGS = {"--out", "--config", "--grid-angles", "--jmax", "--nseq"}
#: the shared flags each subcommand accepts; norms and verify-testfns take an
#: unread --nseq only because the benchmark's smoke queries pass it
ACCEPTED = {
    "lemma25": {"--out"},
    "identities": {"--out", "--seed"},
    "norms": QUERY_FLAGS,
    "verify-testfns": QUERY_FLAGS - {"--config"},
    "criterion": QUERY_FLAGS,
    "essnorm": QUERY_FLAGS,
    "sweep": QUERY_FLAGS,
}
OPERATOR = ["--op", "vgcphi", "--alpha", "1", "--beta", "1"]


@pytest.mark.parametrize("command", sorted(ACCEPTED))
@pytest.mark.parametrize("flag", ["--config", "--out", "--seed", "--nseq", "--grid-angles",
                                  "--jmax"])
def test_each_command_takes_only_the_flags_it_reads(tmp_path, command, flag):
    # every subcommand once took all six and ignored most: lemma25 ran with
    # --jmax 0 --nseq -5, and sweep --jmax 10 ran j_max 40
    argv = [command, *(OPERATOR if command in ("criterion", "essnorm") else []),
            "--out", str(tmp_path / "out"), flag, "7"]
    if flag in ACCEPTED[command]:
        build_parser().parse_args(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


def test_a_sweep_lets_go_of_each_symbol_when_the_next_part_starts(tmp_path, monkeypatch):
    # the symbols of a sweep, and so their grid contexts with every kept
    # table, once all lived until the whole sweep ended
    contexts, alive = [], []
    take = cli.take_sups

    def spy(sym, requests, grid=None):
        alive.append([ref() is not None for ref in contexts])
        take(sym, requests, grid)
        contexts.append(weakref.ref(sym.context(grid)))
    monkeypatch.setattr(cli, "take_sups", spy)
    cfg = {"kinds": ["vgcphi"], "phis": [{"family": "scaled_identity", "params": {"c": 0.5}},
                                         {"family": "mobius", "params": {"a": 0.5}}],
           "gs": [{"family": "identity"}], "alphas": [1.0], "betas": [1.0], "nseq": 64}
    assert len(run_sweep(cfg, tmp_path / "out")) == 2
    assert alive == [[], [False]]


SWEEP_CFG = {"kinds": ["vgcphi"], "phis": [{"family": "scaled_identity", "params": {"c": 0.5}}],
             "gs": [{"family": "identity"}], "alphas": [1.0], "betas": [1.0], "nseq": 64,
             "grid": {"radii_count": 6, "angles": 64, "j_max": 12}}


def sweep_cli(tmp_path, cfg, flags, out="out"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main(["sweep", "--config", str(path), "--out", str(tmp_path / out), *flags])


@pytest.mark.parametrize("flags", [["--nseq", "32"], ["--jmax", "5"], ["--grid-angles", "128"]],
                         ids=["nseq", "jmax", "grid-angles"])
def test_sweep_flag_that_contradicts_the_config_exits_2(tmp_path, capsys, flags):
    # these flags were once dropped in favour of the config without a word
    rc = sweep_cli(tmp_path, SWEEP_CFG, flags)
    assert rc == 2
    assert "conflicts with the config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,key,value", [
    pytest.param(["--jmax", "10"], "j_max", 10, id="jmax"),
    pytest.param(["--grid-angles", "128"], "angles", 128, id="grid-angles"),
    pytest.param(["--nseq", "32"], "nseq", 32, id="nseq"),
])
def test_sweep_flag_fills_what_the_config_leaves_out(tmp_path, flags, key, value):
    cfg = json.loads(json.dumps(SWEEP_CFG))
    del (cfg if key == "nseq" else cfg["grid"])[key]
    assert sweep_cli(tmp_path, cfg, flags) == 0
    echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
    assert (echo if key == "nseq" else echo["grid"])[key] == value


def test_sweep_flags_equal_to_the_config_change_no_byte(tmp_path):
    assert sweep_cli(tmp_path, SWEEP_CFG, [], out="plain") == 0
    assert sweep_cli(tmp_path, SWEEP_CFG, ["--nseq", "64", "--grid-angles", "64",
                                           "--jmax", "12"], out="flags") == 0
    plain = sorted(p for p in (tmp_path / "plain").iterdir())
    assert len(plain) == 4  # criterion, essnorm, summary, config echo
    for path in plain:
        assert path.read_bytes() == (tmp_path / "flags" / path.name).read_bytes()


@pytest.mark.parametrize("grid", [[64], None, "j_max"])
def test_sweep_grid_flag_with_a_grid_that_is_no_object_exits_2(tmp_path, capsys, grid):
    rc = sweep_cli(tmp_path, {**SWEEP_CFG, "grid": grid}, ["--jmax", "12"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("command,op", [("criterion", "vgcphi"), ("essnorm", "ugcphi")])
def test_non_finite_value_exits_1_without_a_traceback(tmp_path, capsys, command, op):
    # phi = g = z at alpha 120 overflows the pointwise side; this once
    # escaped as an uncaught NonFiniteValueError
    sym = write_symbols(tmp_path, phi={"family": "scaled_identity", "params": {"c": 1.0}})
    rc = main([command, "--op", op, "--alpha", "120", "--beta", "1", "--config", sym,
               "--out", str(tmp_path / "out"), "--nseq", "64", "--grid-angles", "64",
               "--jmax", "12"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"{command}: ") and "Traceback" not in err


def test_criterion_on_a_grid_past_double_precision_exits_2(tmp_path, capsys):
    sym = write_symbols(tmp_path, phi={"family": "scaled_identity", "params": {"c": 1.0}})
    rc = main(["criterion", *OPERATOR, "--config", sym, "--out", str(tmp_path / "out"),
               "--nseq", "64", "--grid-angles", "64", "--jmax", "52"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_testfns_sorts_norm_keys_as_strings(tmp_path):
    # the |a| keys of norm_bound are written as strings in string order, as
    # they always were: "0.6" before "1e-05"
    rc = main(["verify-testfns", "--out", str(tmp_path), "--a-grid", "0.6,0.00001",
               "--alphas", "1", *SMALL_GRID])
    assert rc == 0
    report = json.loads((tmp_path / "testfn_claims.json").read_text())
    orders = {tuple(block["norms"]) for family in report.values()
              for block in family["norm_bound"]}
    assert orders == {("0.6",), ("0.6", "1e-05")}
