import filecmp
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afcmem
from afcmem.bounds import threshold_bound
from afcmem.cli import _stage_bounds, _stage_table1, build_parser, cmd_simulate, main
from afcmem.config import (
    _LIMITS,
    ConfigError,
    canonical_text,
    check_bound_budget,
    config_hash,
    default_config,
    load_config,
    parse_config_text,
)
from afcmem.refdata import ETA_M_BENCH


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_config_canonical_round_trip():
    cfg = default_config()
    text = canonical_text(cfg)
    assert canonical_text(parse_config_text(text)) == text


def test_config_hash_pinned():
    # reproduction runs stamp this hash into every CSV; changing a default
    # must show up here first
    assert config_hash(default_config()) == "2039b37d7438"


def test_simulate_bytes_pinned(tmp_path):
    # sha256 of every file `simulate --seed 1` writes; any drift in the
    # simulation or in the CSV formatting must show up here first
    out = os.path.join(tmp_path, "s")
    assert main(["simulate", "--seed", "1", "--out", out]) == 0
    digests = {name: hashlib.sha256(_read(os.path.join(out, name))).hexdigest()
               for name in sorted(os.listdir(out))}
    assert digests == {
        "estimate.csv": "501c156cb658366c124a95bd184deb16fdc04c0bb7ace8dc45437faab22407d7",
        "histogram_noise.csv": "2a861e4806085bf9a5636dc468b624d511e94393a4480ea04dff3dced5fd0bbe",
        "histogram_orthogonal.csv": "7f22d7af71481326e26daed494e759cee7a7f197696a009183a4333fac7948b9",
        "histogram_parallel.csv": "307081e7d2b297b0040087bb9640715706e77962f0be75324a6cd16ae03963f2",
        "transmitted.csv": "b1fe1cfa015e686ac8e1010d2e25028dd30c34957f3e947f2bf8fb2e02468e8a",
    }


def test_tomography_bytes_pinned(tmp_path):
    # the simulated six-setting path with its nonzero dark backgrounds, which
    # reproduce-paper's tableB1 (dark_rate = 0) does not reach
    cfg = os.path.join(tmp_path, "t.ini")
    with open(cfg, "w") as fh:
        fh.write("[tomography]\ntrials = 20000\nresamples = 100\n")
    out = os.path.join(tmp_path, "t")
    assert main(["tomography", "--seed", "1", "--config", cfg, "--out", out]) == 0
    digests = {name: hashlib.sha256(_read(os.path.join(out, name))).hexdigest()
               for name in sorted(os.listdir(out))}
    assert digests == {
        "chi.csv": "f0a796296914b8b3b1b6f36b2d98c45ea62c01977e7deb9f0f02651fee44913c",
        "state_fidelity.csv": "992141793ceb93bf5444ed1d2aa419afb3fe56a2dbfbf591794ff7b181d7f34e",
    }


def test_predict_bytes_pinned(tmp_path):
    out = os.path.join(tmp_path, "p")
    assert main(["predict", "--out", out]) == 0
    digest = hashlib.sha256(_read(os.path.join(out, "predict_fidelity.csv"))).hexdigest()
    assert digest == "916d7fd0ea801324c724b9e2912226d44ecf55172f894c5f3e466dcae7c6e7fa"


def test_config_override_and_types():
    cfg = parse_config_text("[simulate]\ntrials = 5000\ninput_state = R\n"
                            "[memory]\neta = 0.05\n")
    assert cfg["simulate"]["trials"] == 5000
    assert cfg["simulate"]["input_state"] == "R"
    assert cfg["memory"]["eta"] == 0.05
    assert cfg["schedule"]["n_modes"] == 5  # untouched sections keep defaults


def test_config_rejects_unknown_names():
    with pytest.raises(ConfigError):
        parse_config_text("[memory]\netaa = 0.05\n")
    with pytest.raises(ConfigError):
        parse_config_text("[warp]\nspeed = 9\n")
    with pytest.raises(ConfigError):
        parse_config_text("[simulate]\ntrials = lots\n")
    # keys of older configs that nothing reads any more fail loudly too
    for section, key, value in (("memory", "eta_pol_spread", "0.09"), ("schedule", "n_rep", "18"),
                                ("detection", "dark_gate_width", "0.0"),
                                ("simulate", "pol_anisotropy", "false"),
                                ("simulate", "input_window_reference", "false"),
                                ("simulate", "cp2_leakage", "0.0"),
                                ("reproduce", "grid_points", "50"), ("reproduce", "refine_rounds", "2")):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"[{section}]\n{key} = {value}\n")


def test_config_parses_ints_exactly():
    # 2**53 + 1 has no float; a float detour would give 2**53
    assert parse_config_text("[simulate]\ntrials = 9007199254740993\n")["simulate"]["trials"] \
        == 9007199254740993
    assert parse_config_text("[simulate]\ntrials = 1_000_000\n")["simulate"]["trials"] == 1_000_000
    # float notation is rejected, as by --trials: 9007199254740993.0 would round
    for bad in ("2.5", "1e6", "2.0", "9007199254740993.0", "nan", "inf", str(2 ** 63)):
        with pytest.raises(ConfigError):
            parse_config_text(f"[simulate]\ntrials = {bad}\n")


def test_config_rejects_non_finite_floats(tmp_path):
    for text in ("[memory]\neta = nan\n", "[bounds]\nk_sigma = inf\n",
                 "[predict]\nmu_max = -Infinity\n", "[memory]\np_n = 1e400\n",
                 "[simulate]\nmu_per_mode = 1.4, nan\n"):
        with pytest.raises(ConfigError):
            parse_config_text(text)
    # a NaN mu1_err used to pass every range check and write a NaN band
    cfg = os.path.join(tmp_path, "nan.ini")
    with open(cfg, "w") as fh:
        fh.write("[predict]\nmu1_err = nan\n")
    assert main(["predict", "--config", cfg, "--out", os.path.join(tmp_path, "p")]) == 2


def _ini_text(min_size=0):
    # what an INI value can carry: no list separator, comment prefix or
    # line break, and no surrounding whitespace
    chars = st.characters(blacklist_categories=("Cs",), blacklist_characters=",#;\n\r")
    return st.text(chars, min_size=min_size, max_size=12).filter(lambda s: s == s.strip())


def _values_like(default):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-(2 ** 63) + 1, 2 ** 63 - 1)
    if isinstance(default, float):
        return finite
    if isinstance(default, str):
        return _ini_text()
    # a list holds at least one item; an empty one is rejected like an empty item
    if all(isinstance(v, float) for v in default):
        return st.lists(finite, min_size=1, max_size=4).map(tuple)
    return st.lists(_ini_text(min_size=1), min_size=1, max_size=4).map(tuple)


_RANDOM_CONFIGS = st.fixed_dictionaries({
    section: st.fixed_dictionaries({key: _values_like(v) for key, v in keys.items()})
    for section, keys in default_config().items()})


@settings(deadline=None, max_examples=150)
@given(_RANDOM_CONFIGS)
def test_canonical_text_round_trips_any_config(cfg):
    assert parse_config_text(canonical_text(cfg)) == cfg


def test_show_defaults_round_trips(capsys):
    assert main(["show-defaults"]) == 0
    printed = capsys.readouterr().out
    assert canonical_text(parse_config_text(printed)) == canonical_text(default_config())


def test_predict_writes_band(tmp_path):
    out = os.path.join(tmp_path, "p")
    assert main(["predict", "--out", out, "--mu", "0.8,1.4"]) == 0
    lines = _read(os.path.join(out, "predict_fidelity.csv")).decode().splitlines()
    rows = [l for l in lines if l and not l.startswith("#")]
    assert rows[0] == "mu,band_low,fidelity,band_high"
    assert len(rows) == 3
    lo, mid, hi = map(float, rows[1].split(",")[1:])
    assert lo < mid < hi


def test_predict_tiny_mu_gives_half_without_warnings(tmp_path):
    # mu1/mu overflows for the first two; the band's limit there is 1/2
    out = os.path.join(tmp_path, "p")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", "--out", out, "--mu", "1e-320,1e-310,1e-300"]) == 0
    rows = [l for l in _read(os.path.join(out, "predict_fidelity.csv")).decode().splitlines()
            if l and not l.startswith("#")][1:]
    assert len(rows) == 3
    for row in rows:
        assert [float(v) for v in row.split(",")[1:]] == [0.5, 0.5, 0.5]


def test_parser_built_once():
    # a parser per main() call left ~200 objects in reference cycles each time
    assert build_parser() is build_parser()


def test_stochastic_commands_require_seed(tmp_path, capsys):
    out = os.path.join(tmp_path, "s")
    assert main(["simulate", "--out", out]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_seed_must_fit_uint64(tmp_path):
    out = os.path.join(tmp_path, "s")
    assert main(["simulate", "--out", out, "--seed", str(2 ** 64)]) == 2
    assert not os.path.exists(out)


def test_bad_flags_rejected(tmp_path):
    out = os.path.join(tmp_path, "x")
    assert main(["simulate", "--out", out, "--seed", "1", "--mu", "abc"]) == 2
    assert main(["simulate", "--out", out, "--seed", "1", "--trials", "0"]) == 2
    assert main(["predict", "--out", out, "--config", "/nonexistent.ini"]) == 2
    # no directory, though --trials is checked only after main's own checks
    assert not os.path.exists(out)


def test_mu_flag_rejects_non_finite(tmp_path, capsys):
    out = os.path.join(tmp_path, "m")
    for argv in (["predict", "--mu", "nan"], ["predict", "--mu", "1,inf"], ["bounds", "--mu", "nan"],
                 ["bounds", "--mu", "inf"], ["simulate", "--seed", "1", "--mu", "inf"]):
        assert main(argv + ["--out", out]) == 2
        assert "--mu" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_invalid_schedule_rejected_by_every_command(tmp_path, capsys):
    # 9 modes of 1.25 us plus the 5 us transfer pulse overrun the 15 us comb delay
    cfg = os.path.join(tmp_path, "nine.ini")
    with open(cfg, "w") as fh:
        fh.write("[schedule]\nn_modes = 9\n")
    out = os.path.join(tmp_path, "o")
    for argv in (["simulate", "--seed", "1"], ["tomography", "--seed", "1"], ["predict"], ["bounds"]):
        assert main(argv + ["--config", cfg, "--out", out]) == 2
        assert "comb delay" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bad_config_value_exits_2(tmp_path):
    cfg = os.path.join(tmp_path, "bad.ini")
    with open(cfg, "w") as fh:
        fh.write("[memory]\neta = 1.7\n")
    assert main(["simulate", "--out", os.path.join(tmp_path, "o"),
                 "--seed", "1", "--config", cfg]) == 2


def test_simulate_outputs_and_determinism(tmp_path):
    cfg = os.path.join(tmp_path, "small.ini")
    with open(cfg, "w") as fh:
        fh.write("[simulate]\ntrials = 20000\n")
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    out_c = os.path.join(tmp_path, "c")
    assert main(["simulate", "--config", cfg, "--out", out_a, "--seed", "11"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out_b, "--seed", "11"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out_c, "--seed", "12"]) == 0
    names = ["histogram_parallel.csv", "histogram_orthogonal.csv",
             "histogram_noise.csv", "estimate.csv", "transmitted.csv"]
    for name in names:
        assert os.path.exists(os.path.join(out_a, name))
        assert _read(os.path.join(out_a, name)) == _read(os.path.join(out_b, name))
    assert _read(os.path.join(out_a, "histogram_parallel.csv")) != _read(
        os.path.join(out_c, "histogram_parallel.csv"))


def test_simulate_estimate_contents(tmp_path):
    out = os.path.join(tmp_path, "est")
    assert main(["simulate", "--out", out, "--seed", "7", "--trials", "50000"]) == 0
    text = _read(os.path.join(out, "estimate.csv")).decode()
    for q in ("eta", "p_n", "fidelity", "fidelity_mode_1", "fidelity_mode_5"):
        assert f"\n{q}," in text


def test_simulate_zero_mu_mode_transmits_nan_without_warnings(tmp_path):
    # a mode with no input has no transmitted light: its row is NaN, not
    # inf from a division by mu = 0 or a ratio of dark counts
    out = os.path.join(tmp_path, "z")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--seed", "1", "--mu", "1.4,0,1,1,1", "--out", out]) == 0
    rows = [l for l in _read(os.path.join(out, "transmitted.csv")).decode().splitlines()
            if l and not l.startswith("#")][1:]
    assert rows[1] == "2,nan,nan,nan,nan"
    for row in rows[:1] + rows[2:]:
        assert all(0.0 < float(v) < 1.0 for v in row.split(",")[1:]), row
    # nor does it store a qubit: its per-mode fidelity was a count ratio of
    # noise and dark counts (0.488 here)
    fids = dict(l.split(",", 1) for l in _read(os.path.join(out, "estimate.csv")).decode().splitlines()
                if l.startswith("fidelity_mode_"))
    assert fids.pop("fidelity_mode_2") == "nan,nan"
    assert len(fids) == 4
    for value in fids.values():
        fid, err = map(float, value.split(","))
        assert 0.5 < fid < 1.0 and 0.0 < err < 0.05


def test_tomography_from_counts_file(tmp_path):
    counts = os.path.join(tmp_path, "counts.csv")
    ideal = {"H": ("H", 1000, "V", 0), "V": ("V", 1000, "H", 0),
             "D": ("D", 1000, "A", 0), "R": ("R", 1000, "L", 0)}
    with open(counts, "w") as fh:
        fh.write("input,setting,counts\n")
        for inp, (s1, n1, s2, n2) in ideal.items():
            rest = {"H": 500, "V": 500, "D": 500, "A": 500, "R": 500, "L": 500}
            rest[s1], rest[s2] = n1, n2
            for s, n in rest.items():
                fh.write(f"{inp},{s},{n}\n")
    cfg = os.path.join(tmp_path, "t.ini")
    with open(cfg, "w") as fh:
        fh.write(f"[tomography]\ncounts_file = {counts}\nresamples = 100\n")
    out = os.path.join(tmp_path, "tomo")
    assert main(["tomography", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    fid_rows = [l for l in _read(os.path.join(out, "state_fidelity.csv")).decode().splitlines()
                if l and not l.startswith("#")][1:]
    assert len(fid_rows) == 4
    for row in fid_rows:
        assert float(row.split(",")[1]) > 0.99  # noiseless counts, pure inputs
    chi_text = _read(os.path.join(out, "chi.csv")).decode()
    chi00 = float(next(l for l in chi_text.splitlines() if "chi00" in l).split(":")[1])
    assert chi00 > 0.99


def test_tomography_counts_file_validation(tmp_path):
    bad = os.path.join(tmp_path, "bad.csv")
    with open(bad, "w") as fh:
        fh.write("input,setting,counts\nH,Q,100\n")
    cfg = os.path.join(tmp_path, "t.ini")
    with open(cfg, "w") as fh:
        fh.write(f"[tomography]\ncounts_file = {bad}\n")
    out = os.path.join(tmp_path, "o")
    assert main(["tomography", "--config", cfg, "--out", out, "--seed", "3"]) == 2
    assert not os.path.exists(out)


def test_tomography_zero_counts_exits_3(tmp_path):
    counts = os.path.join(tmp_path, "zero.csv")
    with open(counts, "w") as fh:
        fh.write("input,setting,counts\n")
        for inp in ("H", "V", "D", "R"):
            for s in ("H", "V", "D", "A", "R", "L"):
                fh.write(f"{inp},{s},0\n")
    cfg = os.path.join(tmp_path, "t.ini")
    with open(cfg, "w") as fh:
        fh.write(f"[tomography]\ncounts_file = {counts}\n")
    out = os.path.join(tmp_path, "o")
    assert main(["tomography", "--config", cfg, "--out", out, "--seed", "3"]) == 3
    assert not os.path.exists(out)


def test_bounds_command_outputs(tmp_path):
    cfg = os.path.join(tmp_path, "b.ini")
    with open(cfg, "w") as fh:
        fh.write("[bounds]\ngrid_points = 20\nrefine_rounds = 1\n")
    out = os.path.join(tmp_path, "bounds")
    assert main(["bounds", "--config", cfg, "--out", out, "--mu", "0.8,1.4"]) == 0
    curve = [l for l in _read(os.path.join(out, "bound_curve.csv")).decode().splitlines()
             if l and not l.startswith("#")]
    assert curve[0].startswith("mu,plain,threshold,transmitted")
    assert len(curve) == 3
    verdicts = _read(os.path.join(out, "verdicts.csv")).decode()
    assert "quantum" in verdicts
    digests = {name: hashlib.sha256(_read(os.path.join(out, name))).hexdigest()
               for name in sorted(os.listdir(out))}
    assert digests == {
        "bound_curve.csv": "a7c0cb52451ae4943332c01014f833097c042587f6f68dd7222dd623dd98d840",
        "verdicts.csv": "5596f4b39b9119a7ea9ede8db641cbce71f4c851cca1a2a6d70657ae3bd4ba30",
    }


def test_bounds_command_writes_fallback_without_negative_zero(tmp_path):
    # 2 f_t - 1 = 0.5 on the q axis: a p = 0 cell won by 1 ulp and wrote strategy_p = -0
    cfg = _ini(tmp_path, "[bounds]\nf_t = 0.75\neta_t = 0.4\neta_m = 0.02\ngrid_points = 21\n"
                         "refine_rounds = 1\n")
    out = os.path.join(tmp_path, "bounds")
    assert main(["bounds", "--config", cfg, "--out", out, "--mu", "1.4"]) == 0
    header, row = [l for l in _read(os.path.join(out, "bound_curve.csv")).decode().splitlines()
                   if l and not l.startswith("#")]
    fields = dict(zip(header.split(","), row.split(",")))
    assert "-0" not in row.split(",")
    assert (fields["strategy_p"], fields["strategy_delta"], fields["strategy_eta_m1"]) == ("0", "0", "nan")


def test_output_tree_comparable_across_runs(tmp_path):
    # same command, same seed, fresh directories: identical trees
    cfg = os.path.join(tmp_path, "s.ini")
    with open(cfg, "w") as fh:
        fh.write("[simulate]\ntrials = 10000\n")
    a, b = os.path.join(tmp_path, "ta"), os.path.join(tmp_path, "tb")
    assert main(["simulate", "--config", cfg, "--out", a, "--seed", "5"]) == 0
    assert main(["simulate", "--config", cfg, "--out", b, "--seed", "5"]) == 0
    cmp = filecmp.dircmp(a, b)
    assert not cmp.diff_files and not cmp.left_only and not cmp.right_only


def test_fig3a_threshold_uses_configured_matching(tmp_path):
    cfg = os.path.join(tmp_path, "linear.ini")
    with open(cfg, "w") as fh:
        fh.write("[bounds]\nmatching = linear\ngrid_points = 4\nrefine_rounds = 1\n"
                 "[reproduce]\ntrials = 20000\nresamples = 100\nbound_points = 2\n")
    out = os.path.join(tmp_path, "r")
    assert main(["reproduce-paper", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    rows = [l.split(",") for l in _read(os.path.join(out, "fig3a.csv")).decode().splitlines()
            if l and not l.startswith("#")]
    assert rows[0][-1] == "threshold_bound" and len(rows) == 40
    for row in rows[1:]:
        bound = threshold_bound(float(row[0]), ETA_M_BENCH, matching="linear").bound
        assert row[-1] == f"{bound:.12g}"
    # the default exp matching gives 0.791023 at mu = 0.5, the linear one 0.801631
    assert rows[1][0] == "0.5" and rows[1][-1] == "0.80163107274"


def _one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    return err


def _exits_cleanly(argv, code, capsys):
    """main(argv) returns code with a one-line error message and no traceback."""
    assert main(argv) == code
    return _one_line_error(capsys.readouterr().err)


def _ini(tmp_path, text):
    path = os.path.join(tmp_path, "c.ini")
    with open(path, "w") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("argv, ini", [
    (["predict", "--mu", "0.8,,1.4,"], ""),
    (["simulate", "--seed", "1"], "[simulate]\nmu_per_mode = 1.4,\n"),
    (["tomography", "--seed", "1"], "[tomography]\ninput_labels = H,,V,D,R\n"),
], ids=["predict-mu-flag", "simulate-mu-per-mode", "tomography-input-labels"])
def test_empty_list_items_rejected(tmp_path, capsys, argv, ini):
    out = os.path.join(tmp_path, "o")
    err = _exits_cleanly(argv + ["--config", _ini(tmp_path, ini), "--out", out], 2, capsys)
    assert "empty list item" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, ini, code", [
    (["simulate", "--seed", "1"], "[detection]\ndetector_efficiency = 0\n", 2),
    (["simulate", "--seed", "1"], "[detection]\ntransmission_to_detector = 1e-300\n", 3),
    (["simulate", "--seed", "1", "--mu", "1e-300"], "", 3),
], ids=["zero-detector-efficiency", "tiny-transmission", "tiny-mu"])
def test_vanishing_detection_chain_rejected(tmp_path, capsys, argv, ini, code):
    # each of these divided by zero in the estimator and ended in a traceback
    out = os.path.join(tmp_path, "o")
    _exits_cleanly(argv + ["--config", _ini(tmp_path, ini), "--out", out], code, capsys)
    assert not os.path.exists(out)


def test_bounds_command_rejects_subnormal_mu(tmp_path, capsys):
    # it wrote a plain bound of 0.6665 and a transmitted bound above the threshold bound
    out = os.path.join(tmp_path, "o")
    err = _exits_cleanly(["bounds", "--mu", "1e-320", "--out", out], 2, capsys)
    assert "mu must be at least" in err
    assert not os.path.exists(out)


def test_bounds_command_rejects_underflowing_emission_budget(tmp_path, capsys):
    # eta_m mu underflows to 0: the threshold bound was nan
    out = os.path.join(tmp_path, "o")
    err = _exits_cleanly(["bounds", "--mu", "1e-300", "--config",
                          _ini(tmp_path, "[bounds]\neta_m = 1e-30\n"), "--out", out], 2, capsys)
    assert "emission budget P_emit = 0" in err
    assert not os.path.exists(out)


def _counts(inputs, n=100):
    return "".join(f"{inp},{s},{n}\n" for inp in inputs for s in "HVDARL")


_GOOD_COUNTS = _counts("HVDR")


@pytest.mark.parametrize("counts, labels, message", [
    (None, "H, V, D, R", "cannot read counts file"),
    ("H,H\n", "H, V, D, R", "expected input,setting,counts"),
    ("H,H,12.5\n", "H, V, D, R", "counts must be an integer"),
    (_GOOD_COUNTS + "H,V,7\n", "H, V, D, R", "duplicate entry for H/V"),
    (_counts("HVD"), "H, V, D, R", "lacks input states ['R']"),
    (_GOOD_COUNTS, "H, V, D, D", "distinct members"),
    (_GOOD_COUNTS, "H, V, D, Q", "distinct members"),
    (_GOOD_COUNTS, "H, V, D, A", "do not span"),
    # 1e23 ended in an OverflowError traceback, and 24 counts at 2^63 - 1 wrapped the
    # int64 sum and exited 3 with "no counts to fit"
    ("H,H,100000000000000000000000\n", "H, V, D, R",
     "counts.csv:2: counts must be in [0, 2^53], got 100000000000000000000000"),
    (_counts("HVDR", 2 ** 63 - 1), "H, V, D, R",
     "counts.csv:2: counts must be in [0, 2^53], got 9223372036854775807"),
    ("H,H,-1\n", "H, V, D, R", "counts.csv:2: counts must be in [0, 2^53], got -1"),
], ids=["unreadable", "two-columns", "non-integer", "duplicate-entry", "missing-input",
        "duplicate-label", "unknown-label", "non-spanning-labels", "count-1e23", "counts-at-int64-max",
        "negative-count"])
def test_tomography_rejections(tmp_path, capsys, counts, labels, message):
    path = os.path.join(tmp_path, "counts.csv")
    if counts is not None:
        with open(path, "w") as fh:
            fh.write("input,setting,counts\n" + counts)
    cfg = _ini(tmp_path, f"[tomography]\ncounts_file = {path}\ninput_labels = {labels}\n"
                         "resamples = 100\n")
    out = os.path.join(tmp_path, "o")
    err = _exits_cleanly(["tomography", "--seed", "3", "--config", cfg, "--out", out], 2, capsys)
    assert message in err
    assert not os.path.exists(out)


def _capped(body, args, cwd):
    """Run body, with main imported and args as sys.argv[1:], in a child process with 512 MiB
    of address space and 60 s of CPU time, so an unchecked size fails the test, not the machine."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "resource.setrlimit(resource.RLIMIT_CPU, (60, 60))\n"
            "from afcmem.cli import main\n" + body)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(afcmem.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _capped_main(argv, cwd):
    """main(argv) under _capped; its exit code is the child's."""
    return _capped("sys.exit(main(sys.argv[1:]))\n", argv, cwd)


@pytest.mark.parametrize("command, section, key, value", [
    pytest.param(command, "bounds", key, 1_000_000_000, id=f"{command}-{key}")
    for command in ("bounds", "reproduce-paper") for key in ("grid_points", "refine_rounds")
] + [
    pytest.param(command, section, key, value, id=f"{command}-{key}-{value}")
    for command, section, key in (("bounds", "bounds", "n_points"), ("predict", "predict", "n_points"),
                                  ("reproduce-paper", "reproduce", "bound_points"))
    for value in (0, 1_000_000_000)
])
def test_bound_search_size_limits(tmp_path, command, section, key, value):
    # grid_points or n_points = 1e9 asked for a 7.45 GiB axis, refine_rounds = 1e9 ran
    # without end, and bound_points = 0 ended in an IndexError after writing 8 CSVs
    out = os.path.join(tmp_path, "o")
    argv = [command, "--seed", "1", "--config", _ini(tmp_path, f"[{section}]\n{key} = {value}\n"),
            "--out", out]
    proc = _capped_main(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"[{section}] {key} = {value} is outside" in _one_line_error(proc.stderr)
    assert not os.path.exists(out)


_SIZE_LIMITS = [("bounds", "grid_points", 2, 256), ("bounds", "refine_rounds", 0, 16),
                ("bounds", "n_points", 2, 1000), ("reproduce", "bound_points", 1, 1000),
                ("predict", "n_points", 2, 100_000)]


def test_bound_search_limits_are_inclusive(tmp_path):
    for section, key, lo, hi in _SIZE_LIMITS:
        for value in (lo, hi):
            assert load_config(_ini(tmp_path, f"[{section}]\n{key} = {value}\n"))[section][key] == value
        for value in (lo - 1, hi + 1):
            with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = {value} is outside"):
                load_config(_ini(tmp_path, f"[{section}]\n{key} = {value}\n"))


@pytest.mark.parametrize("command, ini, source", [
    ("bounds", "[bounds]\nn_points = 1000\ngrid_points = 256\nrefine_rounds = 16\n", "[bounds] n_points"),
    ("reproduce-paper", "[bounds]\ngrid_points = 256\nrefine_rounds = 16\n[reproduce]\nbound_points = 1000\n",
     "[reproduce] bound_points"),
], ids=["bounds", "reproduce-paper"])
def test_bound_search_budget_rejects_keys_that_multiply(tmp_path, command, ini, source):
    # every key inside its own range: bounds would have run for about 6.6 hours,
    # and reproduce-paper writes seven CSVs before its bound stage
    out = os.path.join(tmp_path, "o")
    argv = [command, "--seed", "1", "--config", _ini(tmp_path, ini), "--out", out]
    proc = _capped_main(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = _one_line_error(proc.stderr)
    assert "bound search of 2.86e+11 candidates exceeds the budget of 1.25e+09" in err
    assert f"lower {source}, [bounds] grid_points or [bounds] refine_rounds" in err
    assert not os.path.exists(out)


def test_bound_search_budget_counts_the_mu_flag(tmp_path):
    # 10,000 --mu values at the default grid ask for 3.75e12 candidates
    out = os.path.join(tmp_path, "o")
    proc = _capped_main(["bounds", "--mu", ",".join(["1.0"] * 10_000), "--out", out], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the budget of 1.25e+09: lower --mu," in _one_line_error(proc.stderr)
    assert not os.path.exists(out)


def test_bound_search_budget_admits_every_limit_alone():
    # the budget function only, nothing is run: each key at the top of its
    # accepted range with the others at their defaults, for the bounds grid and
    # for reproduce-paper's bound points
    cfg = default_config()
    b, grid, points = cfg["bounds"], cfg["bounds"]["n_points"], cfg["reproduce"]["bound_points"]
    admitted = [(1000, b), (grid, dict(b, grid_points=256)), (grid, dict(b, refine_rounds=16)),
                (points, dict(b, grid_points=256)), (points, dict(b, refine_rounds=16))]
    assert max(check_bound_budget(n, "points", bounds) for n, bounds in admitted) == 24 * 3 * 256 ** 3
    with pytest.raises(ConfigError, match="exceeds the budget"):
        check_bound_budget(1000, "points", dict(b, grid_points=256, refine_rounds=16))


def test_single_bound_point_reproduces(tmp_path):
    # the lower limit of bound_points: a one-point figD1 curve at mu = 0.5,
    # then the verdicts at the four working points of the photon-number scan
    cfg = load_config(_ini(tmp_path, "[bounds]\ngrid_points = 4\nrefine_rounds = 0\n"
                                     "[reproduce]\nbound_points = 1\n"))
    summary = []
    for name, write in _stage_bounds(cfg, 1, {}, lambda *row: summary.append(row)):
        write(os.path.join(tmp_path, name))
    rows = [l for l in _read(os.path.join(tmp_path, "figD1_bounds.csv")).decode().splitlines()
            if l and not l.startswith("#")]
    assert len(rows) == 2 and rows[1].startswith("0.5,")
    assert [table for table, *_ in summary] == ["figD1"] * 3 + ["verdicts"] * 4
    assert all(value == reference for _, _, value, reference, _ in summary)


def test_bound_pass_order(tmp_path, monkeypatch):
    # one pass per command: the --mu grid, then the four working points of the scan
    seen = {name: [] for name in ("poisson_conditional_bound", "threshold_bound",
                                  "transmitted_constrained_bound")}
    for name, mus in seen.items():
        def record(mu, *args, _bound=getattr(afcmem.cli, name), _mus=mus, **kwargs):
            _mus.append(mu)
            return _bound(mu, *args, **kwargs)
        monkeypatch.setattr(afcmem.cli, name, record)
    cfg = _ini(tmp_path, "[bounds]\ngrid_points = 4\nrefine_rounds = 0\n")
    assert main(["bounds", "--mu", "0.8,1.4", "--config", cfg, "--out", os.path.join(tmp_path, "o")]) == 0
    assert seen["transmitted_constrained_bound"] == [0.8, 1.4, 0.8, 1.4, 3.6, 8.2]
    assert seen["threshold_bound"] == [0.8, 1.4, 0.8, 1.4, 3.6, 8.2]
    assert seen["poisson_conditional_bound"] == [0.8, 1.4]


def test_reproduce_table1_holds_one_row_of_runs(tmp_path, monkeypatch):
    # each row's three runs stayed alive while the next row drew its own: 112 B per
    # bin at 417,000 bins against simulate's 66, where _MAX_BINS budgets 64. Both
    # commands hold the same bins, so their peaks compare per bin. The exporter
    # streams 64 bins at a time and peaks below the draws (the same peaks with it at
    # 20,850 to 83,400 bins), but 417,000 rows under tracemalloc take seconds. The
    # stubs record how many histograms each export got, so that neither goes unused
    exported = []
    monkeypatch.setattr(afcmem.cli, "export_histograms", lambda hists, *args: exported.append(len(hists)))
    monkeypatch.setattr(afcmem.cli, "export_histogram", lambda hist, *args: exported.append(1))
    cfg = load_config(_ini(tmp_path, "[detection]\nbin_width = 0.00125\n[simulate]\ntrials = 1000\n"
                                     "[reproduce]\ntrials = 1000\n"))

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out = str(tmp_path)
    simulate = peak(lambda: cmd_simulate(cfg, build_parser().parse_args(["simulate", "--seed", "1", "--out", out])))
    writes = []
    table1 = peak(lambda: writes.extend(_stage_table1(cfg, 1, {}, lambda *row: None)))
    for name, write in writes:
        write(os.path.join(out, name))
    assert table1 <= 1.1 * simulate
    assert exported == [3, 1]  # simulate's three runs in one pass, then fig2's one


@pytest.mark.parametrize("argv, ini, message", [
    (["reproduce-paper"], "[reproduce]\ntrials = 100\nresamples = 100\n",
     "zero output counts in both analyzer ports"),
    (["simulate"], "[memory]\neta_t = 0\n[detection]\ndark_rate = 0\n", "zero input-window counts"),
], ids=["reproduce-paper", "simulate"])
def test_failed_run_removes_the_out_it_made(tmp_path, capsys, argv, ini, message):
    # both fail on what the random draws gave, after their first CSVs: reproduce-paper
    # left fig2_histogram.csv and table1.csv, simulate four CSVs
    out = os.path.join(tmp_path, "o")
    err = _exits_cleanly(argv + ["--seed", "1", "--config", _ini(tmp_path, ini), "--out", out], 3, capsys)
    assert message in err
    assert not os.path.exists(out)


def test_failed_run_removes_only_the_directories_it_made(tmp_path, capsys):
    ini = _ini(tmp_path, "[memory]\neta_t = 0\n[detection]\ndark_rate = 0\n")
    argv = ["simulate", "--seed", "1", "--config", ini, "--out"]
    _exits_cleanly(argv + [os.path.join(tmp_path, "a", "b", "c")], 3, capsys)
    assert not os.path.exists(os.path.join(tmp_path, "a"))
    # an --out that existed before the run stays, with the files it held
    out = os.path.join(tmp_path, "kept")
    os.makedirs(out)
    with open(os.path.join(out, "sentinel"), "w") as fh:
        fh.write("x")
    _exits_cleanly(argv + [out], 3, capsys)
    assert os.listdir(out) == ["sentinel"]  # simulate estimates both before its first write
    assert _read(os.path.join(out, "sentinel")) == b"x"
    _exits_cleanly(argv + [os.path.join(out, "new")], 3, capsys)
    assert not os.path.exists(os.path.join(out, "new"))
    assert _read(os.path.join(out, "sentinel")) == b"x"


def test_failed_reproduce_writes_nothing_into_an_existing_out(tmp_path, capsys):
    # fails after table1 on what the random draws gave; fig2_histogram.csv and
    # table1.csv were written beside the files that were there before
    out = os.path.join(tmp_path, "kept")
    os.makedirs(out)
    with open(os.path.join(out, "sentinel.txt"), "w") as fh:
        fh.write("x")
    ini = _ini(tmp_path, "[reproduce]\ntrials = 100\nresamples = 100\n")
    err = _exits_cleanly(["reproduce-paper", "--seed", "1", "--config", ini, "--out", out], 3, capsys)
    assert "zero output counts in both analyzer ports" in err
    assert os.listdir(out) == ["sentinel.txt"]
    assert _read(os.path.join(out, "sentinel.txt")) == b"x"


@pytest.mark.parametrize("argv, last, first_output", [
    (["predict"], "_mu1_band", "predict_fidelity.csv"),
    (["simulate", "--seed", "1"], "estimate_transmission", "histogram_parallel.csv"),
    (["tomography", "--seed", "1"], "process_tomography", "state_fidelity.csv"),
    (["bounds"], "_bound_rows", "bound_curve.csv"),
    (["reproduce-paper", "--seed", "1"], "_bound_rows", "fig2_histogram.csv"),
], ids=lambda value: value[0] if isinstance(value, list) else None)
@pytest.mark.parametrize("exc, code", [(ValueError, 2), (RuntimeError, 3)], ids=["exit2", "exit3"])
def test_failure_in_the_last_computation_writes_nothing(tmp_path, capsys, monkeypatch, argv, last,
                                                        first_output, exc, code):
    # every command computes all of its results before its first write: a failure in
    # its last computation leaves an existing --out as it was and creates no other
    def fail(*args, **kwargs):
        raise exc("stub failure")
    monkeypatch.setattr(afcmem.cli, last, fail)
    out = os.path.join(tmp_path, "kept")
    os.makedirs(out)
    before = {"sentinel": b"x", first_output: b"stale\n"}
    for name, data in before.items():
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(data)
    assert "stub failure" in _exits_cleanly(argv + ["--out", out], code, capsys)
    assert {name: _read(os.path.join(out, name)) for name in os.listdir(out)} == before
    assert "stub failure" in _exits_cleanly(argv + ["--out", os.path.join(tmp_path, "a", "b")], code, capsys)
    assert sorted(os.listdir(tmp_path)) == ["kept"]


# every size-limited key at its cheapest accepted value, with few trials: an admitted
# run of each command below takes milliseconds
_CHEAPEST = {key: lo for key, (lo, hi) in _LIMITS.items()}
_FUZZ_COMMANDS = (["predict"], ["bounds"], ["tomography", "--seed", "1"], ["reproduce-paper", "--seed", "1"])


@st.composite
def _limit_changes(draw):
    """One to three size-limited keys, each just outside its range, 0, 2^63 - 1 or cheapest."""
    keys = draw(st.lists(st.sampled_from(sorted(_LIMITS)), min_size=1, max_size=3, unique=True))
    return {key: draw(st.sampled_from((_LIMITS[key][0] - 1, _LIMITS[key][1] + 1, 0, 2 ** 63 - 1,
                                       _LIMITS[key][0]))) for key in keys}


@settings(derandomize=True, deadline=None, max_examples=12)
@given(_limit_changes())
@example({("bounds", "refine_rounds"): 0})  # every key admitted: each command runs
def test_exit_code_contract_over_size_limits(changes):
    lines = {"tomography": ["trials = 2000"], "reproduce": ["trials = 2000"]}
    for (section, key), value in {**_CHEAPEST, **changes}.items():
        lines.setdefault(section, []).append(f"{key} = {value}")
    with tempfile.TemporaryDirectory() as tmp:
        ini = _ini(tmp, "".join(f"[{section}]\n" + "\n".join(keys) + "\n" for section, keys in lines.items()))
        outs = [os.path.join(tmp, argv[0]) for argv in _FUZZ_COMMANDS]
        argvs = [argv + ["--config", ini, "--out", out] for argv, out in zip(_FUZZ_COMMANDS, outs)]
        proc = _capped("import json\nprint(json.dumps([main(json.loads(a)) for a in sys.argv[1:]]))\n",
                       [json.dumps(argv) for argv in argvs], tmp)
        assert proc.returncode == 0, proc.stderr
        # one "error: " line per failed command, and nothing else
        assert all(line.startswith("error: ") for line in proc.stderr.splitlines()), proc.stderr
        codes = json.loads(proc.stdout.splitlines()[-1])
        for argv, out, code in zip(_FUZZ_COMMANDS, outs, codes):
            assert code in (0, 2, 3), (argv, code, proc.stderr)
            assert code == 0 or not os.path.exists(out), (argv, code)


@pytest.mark.parametrize("section, message", [
    ("[predict]\nmu1 = -1\n", "mu1 and mu1_err must be nonnegative"),
    ("[predict]\nf_c = 0.3\n", "f_c = 0.3 outside [1/2, 1]"),
    ("[bounds]\neta_m = 2\n", "eta_m must be in (0, 1], got 2.0"),
    ("[bounds]\nmatching = foo\n", "matching must be 'exp' or 'linear', got 'foo'"),
    ("[bounds]\nf_t = 0.3\n", "f_t must be in (1/2, 1), got 0.3"),
    ("[bounds]\nk_sigma = -1\n", "error bar and k must be nonnegative"),
])
def test_reproduce_rejects_late_section_before_writing(tmp_path, capsys, section, message):
    # the fig3a and figD1 stages read these values last, after six or seven CSVs
    # are written; the failed run removes them
    out = os.path.join(tmp_path, "o")
    cfg = _ini(tmp_path, section)
    err = _exits_cleanly(["reproduce-paper", "--seed", "1", "--config", cfg, "--out", out], 2, capsys)
    assert message in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "tomography"])
@pytest.mark.parametrize("section, key, value", [("detection", "bin_width", "1e-12"),
                                                 ("schedule", "mode_duration", "1e-12"),
                                                 ("schedule", "comb_delay", "1e12")])
def test_histogram_size_limit(tmp_path, command, section, key, value):
    # 5.2e14, 2.6e15 and 4.0e12 histogram bins were accepted before any array was sized
    out = os.path.join(tmp_path, "o")
    argv = [command, "--seed", "1", "--config", _ini(tmp_path, f"[{section}]\n{key} = {value}\n"),
            "--out", out]
    proc = _capped_main(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = _one_line_error(proc.stderr)
    assert "bin_width" in err and "us sequence span" in err and "histogram bins" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", [50, 1_000_000_000])
@pytest.mark.parametrize("command, section", [("tomography", "tomography"),
                                              ("reproduce-paper", "reproduce")])
def test_bootstrap_resample_limits(tmp_path, command, section, value):
    # resamples = 50 exited 2 only after the simulation had run, and 1e9 ran
    # without end; the bootstrap holds arrays of about 1.5 kB per resample
    out = os.path.join(tmp_path, "o")
    argv = [command, "--seed", "1", "--config",
            _ini(tmp_path, f"[{section}]\nresamples = {value}\n"), "--out", out]
    proc = _capped_main(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"[{section}] resamples = {value} is outside the accepted range [100, 10000]" \
        in _one_line_error(proc.stderr)
    assert not os.path.exists(out)


def test_resample_limits_are_inclusive(tmp_path):
    for section in ("tomography", "reproduce"):
        for value in (100, 10_000):
            cfg = load_config(_ini(tmp_path, f"[{section}]\nresamples = {value}\n"))
            assert cfg[section]["resamples"] == value
        for value in (99, 10_001):
            with pytest.raises(ConfigError, match=f"resamples = {value} is outside"):
                load_config(_ini(tmp_path, f"[{section}]\nresamples = {value}\n"))
