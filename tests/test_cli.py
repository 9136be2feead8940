import json
import math

import pytest

from diskvolterra.cli import (ConfigError, lemma25_log_fit, main, run_identity_suite,
                              run_lemma25, run_sweep)


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


@pytest.mark.parametrize("cfg", [
    {"grid": {"angles": 8}},
    {"phis": [{"family": "bogus"}]},
    {"phis": [{"params": {"c": 0.5}}]},
    {"phis": [{"family": "mobius", "params": {"a": 1.5}}]},
    {"nseq": "abc"},
    {"alphas": ["x"]},
    {"grid": {"angels": 64}},
], ids=["grid-angles", "unknown-phi", "missing-phi-family", "mobius-outside-disk",
        "nseq-not-a-number", "alpha-not-a-number", "unknown-grid-key"])
def test_sweep_config_errors_exit_2(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
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
