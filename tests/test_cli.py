import argparse
import json
import re
import shutil
import zlib
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from shiftlab import analysis, errors, evaluator, harness, svg, theory, trainer
from shiftlab.cli import main

TINY_SHIFT = """\
[shift]
d_core=10
d_spu=3
sigma_core=3
sigma_spu=1
n_train=200
p_maj=0.9
n_ood_test=800
master_seed=4

[grid]
learning_rates=1e-3,1e-2
l2s=0
batch_sizes=full,16
snapshot_epochs=1,3
n_seeds=2

[analysis]
n_pairs=40
"""


def make_config(tmp_path, body=TINY_SHIFT, out=None):
    path = tmp_path / "cfg.ini"
    out_dir = out or (tmp_path / "out")
    path.write_text(body + f"\n[output]\ndir={out_dir}\n")
    return path, out_dir


def test_sweep_and_plot_and_analyze(tmp_path, capsys):
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "moon.svg").exists()
    assert main(["plot", "--config", str(cfg)]) == 0
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert (out_dir / "report.json").exists()


def test_plot_redraws_the_sweeps_moon_svg(tmp_path, capsys):
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    moon = (out_dir / "moon.svg").read_bytes()
    assert main(["plot", "--config", str(cfg)]) == 0
    assert (out_dir / "moon.svg").read_bytes() == moon
    for name, entry in json.loads((out_dir / "manifest.json").read_text())["files"].items():
        data = (out_dir / name).read_bytes()
        assert entry == {"bytes": len(data), "crc32": zlib.crc32(data)}, name
    # the curve fits need at least 4 points
    results = tmp_path / "three.csv"
    results.write_text("\n".join((out_dir / "results.csv").read_text().splitlines()[:4]) + "\n")
    capsys.readouterr()
    assert main(["plot", "--config", str(cfg), "--results", str(results)]) == 4
    assert "at least 4 points" in capsys.readouterr().err


def test_analyze_on_a_header_only_results_csv_is_analysis_error(tmp_path, capsys):
    cfg, out_dir = make_config(tmp_path)
    results = tmp_path / "header_only.csv"
    results.write_text("model_id,group_acc_0,group_acc_1\n")
    assert main(["analyze", "--config", str(cfg), "--results", str(results)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("analysis error:") and "has no rows" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("new,says", [
    ("k_groups=3\nr_tr=0.5,0.3,0.2\npi1=0.9\npi0=0.3", "k-group mode does not take pi1/pi0"),
    ("p_maj=0.9\nr_tr=0.5,0.5", "explicit r_tr conflicts with the 2-group parameters"),
], ids=["kgroup-with-pi", "r_tr-off-p_maj"])
def test_inconsistent_shift_section_is_config_error(tmp_path, capsys, new, says):
    cfg, out_dir = make_config(tmp_path, TINY_SHIFT.replace("p_maj=0.9", new))
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bad [shift]") and says in err
    assert not out_dir.exists()


def test_p_maj_series_on_an_attribute_base_is_config_error(tmp_path, capsys):
    cfg, out_dir = make_config(tmp_path, TINY_SHIFT.replace("p_maj=0.9", "pi1=0.9\npi0=0.3"))
    assert main(["series", "--config", str(cfg), "--knob", "p_maj", "--values", "0.7,0.9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "majority-mode base spec" in err
    assert not out_dir.exists()


def test_clean_sweep_removes_stale_failures_csv(tmp_path):
    # The ridge term multiplies the weights by about -lr * l2 <= -1e197 a step,
    # so every l2=1e200 cell overflows to inf in its first epochs.
    failing = TINY_SHIFT.replace("l2s=0\n", "l2s=0,1e200\n")
    cfg, out_dir = make_config(tmp_path, failing)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert "1e+200" in (out_dir / "failures.csv").read_text()
    assert "failures.csv" in json.loads((out_dir / "manifest.json").read_text())["files"]
    cfg, _ = make_config(tmp_path, TINY_SHIFT, out=out_dir)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert not (out_dir / "failures.csv").exists()
    assert (out_dir / "results.csv").exists()
    assert "failures.csv" not in json.loads((out_dir / "manifest.json").read_text())["files"]


def test_gen_data(tmp_path):
    cfg, out_dir = make_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg)]) == 0
    for name in ("train.csv", "id_test.csv", "ood_test.csv", "spec.txt"):
        assert (out_dir / name).exists()


def test_seed_override_changes_features(tmp_path):
    cfg, out_dir = make_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    first = (out_dir / "train.csv").read_bytes()
    main(["gen-data", "--config", str(cfg), "--seed", "99"])
    assert (out_dir / "train.csv").read_bytes() != first


def test_series_subcommand(tmp_path):
    cfg, out_dir = make_config(tmp_path)
    assert main(["series", "--config", str(cfg), "--knob", "p_maj",
                 "--values", "0.7,0.9"]) == 0
    assert (out_dir / "series.json").exists()


def test_agreement_subcommand(tmp_path):
    cfg, out_dir = make_config(tmp_path)
    main(["sweep", "--config", str(cfg)])
    assert main(["agreement", "--config", str(cfg), "--pairs", "30"]) == 0
    assert (out_dir / "agreement.csv").exists()
    report = json.loads((out_dir / "agreement_report.json").read_text())
    assert report["n_pairs"] == 30


def test_theory_subcommand(tmp_path):
    assert main(["theory", "--out", str(tmp_path), "--mc-samples", "100000",
                 "--seed", "3"]) == 0
    assert (tmp_path / "roc_traversal.csv").exists()
    summary = json.loads((tmp_path / "theory_summary.json").read_text())
    assert summary["verdict"] == "consistent"


def test_exit_code_1_config(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.ini")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[shift]\nd_core=0\nd_spu=1\nsigma_core=1\nsigma_spu=1\n"
                   "n_train=10\np_maj=0.5\n")
    assert main(["sweep", "--config", str(bad)]) == 1
    capsys.readouterr()
    bad.write_bytes(b"\xff[shift]\nd_core=1\n")
    assert main(["sweep", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse") and "Traceback" not in err


def test_empty_grid_is_config_error(tmp_path, capsys):
    cfg, out_dir = make_config(tmp_path, TINY_SHIFT.replace("n_seeds=2", "n_seeds=0"))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_series_bad_values_is_config_error(tmp_path, capsys):
    cfg, out_dir = make_config(tmp_path)
    assert main(["series", "--config", str(cfg), "--knob", "sdr",
                 "--values", "0.1,x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out_dir.exists()


def test_series_checks_every_value_before_the_first_sweep(tmp_path, capsys):
    cfg, out_dir = make_config(tmp_path)
    assert main(["series", "--config", str(cfg), "--knob", "p_maj",
                 "--values", "0.7,1.5"]) == 2
    assert "p_maj" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("old,new", [
    ("learning_rates=1e-3,1e-2", "learning_rates=nan,1e-2"),
    ("learning_rates=1e-3,1e-2", "learning_rates=inf"),
    ("learning_rates=1e-3,1e-2", "learning_rates=1e-2,-inf"),
    ("l2s=0", "l2s=nan"),
    ("l2s=0", "l2s=0,inf"),
    ("batch_sizes=full,16", "batch_sizes=full,0"),
    ("snapshot_epochs=1,3", "snapshot_epochs="),
])
def test_bad_grid_value_fails_before_training(tmp_path, capsys, old, new):
    cfg, out_dir = make_config(tmp_path, TINY_SHIFT.replace(old, new))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "config error: bad [grid]" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("line", [
    "probit_eps=0.7", "probit_eps=0", "probit_eps=0.5", "probit_eps=-1e-3",
    "probit_eps=nan", "spline_lambda=0", "spline_lambda=-2", "spline_lambda=nan",
    "n_pairs=0", "n_pairs=-3", "pair_seed=-1", "spline_lambda=inf",
])
def test_bad_analysis_range_fails_before_any_output(tmp_path, capsys, line):
    cfg, out_dir = make_config(tmp_path, TINY_SHIFT.replace("n_pairs=40", line))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_non_finite_margin_fails_at_load(tmp_path, capsys, margin):
    bad = TINY_SHIFT + f"margin={margin}\n"
    cfg, out_dir = make_config(tmp_path, bad)
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert not out_dir.exists()
    make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    make_config(tmp_path, bad)
    capsys.readouterr()
    assert main(["agreement", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [analysis] margin") and "Traceback" not in err
    assert not (out_dir / "agreement.csv").exists()
    assert not (out_dir / "agreement_report.json").exists()


@pytest.mark.parametrize("old,new", [
    ("sigma_core=3", "sigma_core=nan"), ("sigma_core=3", "sigma_core=inf"),
    ("sigma_spu=1", "sigma_spu=nan"), ("n_ood_test=800", "n_ood_test=1"),
])
def test_non_finite_noise_scale_fails_at_load(tmp_path, capsys, old, new):
    cfg, out_dir = make_config(tmp_path, TINY_SHIFT.replace(old, new))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "config error: bad [shift]" in capsys.readouterr().err
    assert not out_dir.exists()


def test_empty_ood_group_fails_every_command_at_load(tmp_path, capsys):
    body = TINY_SHIFT.replace("p_maj=0.9", "k_groups=3\nr_tr=0.5,0.3,0.2\nr_ts=0.5,0.5,0")
    cfg, out_dir = make_config(tmp_path, body)
    for command in ("gen-data", "sweep", "series", "agreement", "analyze", "plot"):
        assert main([command, "--config", str(cfg)]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("config error: bad [shift] group 2 gets no rows of the OOD pool")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--pairs=0", "--pairs=-3", "--pair-seed=-1"])
def test_bad_agreement_override_is_config_error(tmp_path, capsys, flag):
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["agreement", "--config", str(cfg), flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [analysis]") and "Traceback" not in err
    assert not (out_dir / "agreement.csv").exists()


@pytest.mark.parametrize("values", ["0.7,1.5", "0.9,0.7", "0.7,nan", "0.7,0.7", "0.7,0.7000001"])
def test_bad_series_section_fails_every_command_at_load(tmp_path, capsys, values):
    body = TINY_SHIFT + f"\n[series]\nknob=p_maj\nvalues={values}\n"
    cfg, out_dir = make_config(tmp_path, body)
    for command in ("gen-data", "sweep", "series"):
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "[series]" in err
    assert not out_dir.exists()


def test_empty_series_section_is_left_to_the_series_command(tmp_path, capsys):
    cfg, out_dir = make_config(tmp_path, TINY_SHIFT + "\n[series]\nknob=p_maj\nvalues=\n")
    assert main(["series", "--config", str(cfg)]) == 1
    assert "series needs" in capsys.readouterr().err
    assert main(["gen-data", "--config", str(cfg)]) == 0


def test_series_level_off_its_range_is_generation_error(tmp_path, capsys):
    attribute = TINY_SHIFT.replace("p_maj=0.9", "pi1=0.9\npi0=0.2")
    cfg, out_dir = make_config(tmp_path, attribute)
    assert main(["series", "--config", str(cfg), "--knob", "correlation_level",
                 "--values", "0.5,1.5"]) == 2
    err = capsys.readouterr().err
    assert "correlation_level=1.5" in err and "Traceback" not in err
    assert not out_dir.exists()


# Finite, zero, negative, nan, inf and empty values for the [grid] and
# [analysis] keys; lists take up to three of them.
_FLOAT = st.sampled_from(["1e-2", "0.3", "3", "0", "-1e-3", "nan", "inf", "-inf", ""])
_INT = st.sampled_from(["1", "3", "0", "-2", "nan", "inf", ""])
_FLOATS = st.lists(_FLOAT, max_size=3).map(",".join)
_FUZZ = {
    "learning_rates": _FLOATS, "l2s": _FLOATS,
    "batch_sizes": st.lists(st.sampled_from(["full", "16", "0", "-4", "nan", ""]),
                            max_size=3).map(",".join),
    "snapshot_epochs": st.lists(_INT, max_size=3).map(",".join), "n_seeds": _INT,
    "probit_eps": _FLOAT, "spline_lambda": st.one_of(_FLOAT, st.just("gcv")),
    "n_pairs": _INT, "pair_seed": _INT, "margin": _FLOAT,
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_grid_or_analysis_value_fails_at_load_or_runs(tmp_path_factory, data):
    # A few keys of the TINY config at a time, so that most draws that pass
    # the load-time checks still differ from it.
    body = TINY_SHIFT
    for key in data.draw(st.lists(st.sampled_from(list(_FUZZ)), min_size=1, max_size=3,
                                  unique=True)):
        line = f"{key}={data.draw(_FUZZ[key], label=key)}"
        old = re.search(rf"^{key}=.*$", body, re.M)
        # a key TINY leaves out goes to its last section, [analysis]
        body = body.replace(old.group(0), line) if old else body + line + "\n"
    cfg, out_dir = make_config(tmp_path_factory.mktemp("fuzz"), body)
    code = main(["sweep", "--config", str(cfg)])
    assert code in (0, 1, 3, 4)
    assert code != 1 or not out_dir.exists()


# [shift] and [series] values: counts from {-1, 0, 1, 3, 2**64}, rates and
# scales from {nan, inf, -1, 0, 0.5, 1, 1.5}, and empty or non-numeric ones.
_SHIFT_INT = st.sampled_from(["-1", "0", "1", "3", str(2**64), "", "x"])
_SHIFT_FLOAT = st.sampled_from(["nan", "inf", "-1", "0", "0.5", "1", "1.5", "", "x"])
_SHIFT_FLOATS = st.lists(_SHIFT_FLOAT, max_size=3).map(",".join)
_SHIFT_FUZZ = {
    **dict.fromkeys(("d_core", "d_spu", "n_train", "n_id_test", "n_ood_test", "k_groups",
                     "master_seed"), _SHIFT_INT),
    **dict.fromkeys(("sigma_core", "sigma_spu", "p_maj", "pi1", "pi0", "p_y1"), _SHIFT_FLOAT),
    "r_tr": _SHIFT_FLOATS, "r_ts": _SHIFT_FLOATS,
}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_any_shift_or_series_value_fails_at_load_or_runs(tmp_path_factory, data):
    body = TINY_SHIFT
    for key in data.draw(st.lists(st.sampled_from(list(_SHIFT_FUZZ)), max_size=3, unique=True)):
        line = f"{key}={data.draw(_SHIFT_FUZZ[key], label=key)}"
        old = re.search(rf"^{key}=.*$", body, re.M)
        body = body.replace(old.group(0), line) if old else body.replace(
            "\n[grid]", f"{line}\n\n[grid]")
    if data.draw(st.booleans(), label="series"):
        knob = data.draw(st.sampled_from(["sdr", "p_maj", "correlation_level", "x", ""]))
        body += f"\n[series]\nknob={knob}\nvalues={data.draw(_SHIFT_FLOATS, label='values')}\n"
    cfg, out_dir = make_config(tmp_path_factory.mktemp("fuzz"), body)
    code = main(["sweep", "--config", str(cfg)])
    assert code in (0, 1, 2, 3, 4)
    assert code != 1 or not out_dir.exists()


def _write_half_then_fail(*args, **kwargs):
    with open(args[-1], "w") as fh:  # every patched writer takes the path last
        fh.write("partial")
    raise OSError("disk full")


@pytest.mark.parametrize("command,patch,outputs", [
    (["analyze"], (analysis, "dump_json"), ["report.json"]),
    (["plot"], (svg, "emit_plot"), ["moon.svg"]),
    (["theory", "--mc-samples", "10000"], (theory, "write_traversal_csv"),
     ["roc_traversal.csv", "theory_summary.json"]),
    (["theory", "--mc-samples", "10000"], (analysis, "dump_json"),
     ["roc_traversal.csv", "theory_summary.json"]),
    (["sweep"], (trainer, "write_model_store"), ["models.csv", "weights.csv", "manifest.json"]),
    (["agreement"], (svg, "emit_plot"), ["agreement_overlay.svg", "agreement_report.json"]),
])
def test_failed_writer_leaves_no_partial_file(tmp_path, monkeypatch, command, patch,
                                              outputs):
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    for name in ("report.json", "moon.svg", *outputs):
        (out_dir / name).unlink(missing_ok=True)
    monkeypatch.setattr(*patch, _write_half_then_fail)
    args = command + (["--out", str(out_dir)] if command[0] == "theory"
                      else ["--config", str(cfg)])
    assert main(args) == 5
    for name in outputs:
        assert not (out_dir / name).exists(), name
    assert list(out_dir.glob("*.tmp")) == []


def test_failed_agreement_write_keeps_the_previous_run_whole(tmp_path, monkeypatch):
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["agreement", "--config", str(cfg), "--pairs", "40"]) == 0
    outputs = ("agreement.csv", "agreement_overlay.svg", "agreement_report.json")
    first = {name: (out_dir / name).read_bytes() for name in outputs}
    monkeypatch.setattr(svg, "emit_plot", _write_half_then_fail)
    assert main(["agreement", "--config", str(cfg), "--pairs", "20"]) == 5
    assert {name: (out_dir / name).read_bytes() for name in outputs} == first
    assert list(out_dir.glob("*.tmp")) == []


# Each command as it reruns over a complete run in ``out`` with other inputs,
# and the writes (``harness._atomic`` calls) that a clean rerun makes.
_RERUNS = {
    "gen-data": (["gen-data", "--seed", "2"], 4),
    "sweep": (["sweep", "--seed", "2"], 7),
    "analyze": (["analyze", "--results", "{other}"], 1),
    "plot": (["plot", "--results", "{other}"], 1),
    "agreement": (["agreement", "--pairs", "20"], 3),
    "series": (["series", "--knob", "sdr", "--values", "0.2,0.4", "--seed", "2"], 15),
    "theory": (["theory", "--mc-samples", "10000", "--seed", "2"], 2),
}


def _rerun(command, root, out):
    """``main`` on ``command``'s rerun, writing into ``out``."""
    argv = [a.format(other=root / "other" / "results.csv") for a in _RERUNS[command][0]]
    if command == "theory":
        return main(argv + ["--out", str(out / "theory")])
    return main(argv + ["--config", str(root / "cfg.ini"), "--out", str(out)])


@pytest.fixture(scope="module")
def complete_run(tmp_path_factory):
    """``out`` holds every command's outputs at the config's seed, and
    ``other`` a sweep at seed 2."""
    root = tmp_path_factory.mktemp("complete")
    cfg, out = make_config(root)
    for argv in (["gen-data"], ["sweep"], ["analyze"], ["plot"], ["agreement"],
                 ["series", "--knob", "sdr", "--values", "0.2,0.4"]):
        assert main(argv + ["--config", str(cfg)]) == 0, argv
    assert main(["theory", "--mc-samples", "10000", "--out", str(out / "theory")]) == 0
    assert main(["sweep", "--config", str(cfg), "--seed", "2", "--out", str(root / "other")]) == 0
    return root


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _verifies(sweep_dir):
    files = json.loads((sweep_dir / "manifest.json").read_text())["files"]
    return all(entry == {"bytes": len(data), "crc32": zlib.crc32(data)}
               for name, entry in files.items() for data in [(sweep_dir / name).read_bytes()])


@pytest.mark.parametrize("command", list(_RERUNS))
def test_every_failed_write_keeps_a_whole_set(complete_run, tmp_path, monkeypatch, capsys,
                                              command):
    # The k-th write of a rerun fails before its file is renamed, for every k:
    # the run exits 5 and each file keeps its previous bytes.  Exceptions: a
    # sweep renames its files one by one, so each is old or new, and its
    # manifest is gone; a series also leaves no summary.
    before = _tree(complete_run / "out")
    atomic, calls, fail_at = harness._atomic, [], None

    def failing(path, writer):
        calls.append(path)
        if len(calls) == fail_at:
            def writer(tmp):
                tmp.write_text("partial")
                raise OSError("disk full")
        atomic(path, writer)

    monkeypatch.setattr(harness, "_atomic", failing)
    clean_dir = shutil.copytree(complete_run / "out", tmp_path / "clean")
    assert _rerun(command, complete_run, clean_dir) == 0
    assert len(calls) == _RERUNS[command][1]
    clean = _tree(clean_dir)
    assert clean != before
    sweeps = command in ("sweep", "series")
    for fail_at in range(1, len(calls) + 1):
        calls.clear()
        work = shutil.copytree(complete_run / "out", tmp_path / f"fault_{fail_at}")
        capsys.readouterr()
        assert _rerun(command, complete_run, work) == 5, fail_at
        assert "Traceback" not in capsys.readouterr().err
        assert list(work.rglob("*.tmp")) == [], fail_at
        after = _tree(work)
        gone = set(before) - set(after)
        assert set(after) <= set(before), fail_at
        if command == "sweep":
            assert gone == {Path("manifest.json")}, fail_at
        elif command == "series":
            assert Path("series.json") in gone, fail_at
            assert all(p.name == "manifest.json" for p in gone - {Path("series.json")})
        else:
            assert gone == set(), fail_at
        for name, data in after.items():
            assert data == before[name] or (sweeps and data == clean[name]), (fail_at, name)
            if name.name == "manifest.json":
                assert _verifies(work / name.parent), (fail_at, name)


@pytest.mark.parametrize("command", list(_RERUNS))
def test_output_under_a_regular_file_creates_nothing(complete_run, tmp_path, capsys,
                                                     monkeypatch, command):
    # agreement reads its inputs from the output directory, so it finds none.
    computed = []
    for module, name in ((trainer, "sweep"), (theory, "monte_carlo_gap"),
                         (analysis, "fit_curves")):
        def counted(*args, _run=getattr(module, name), _name=name, **kwargs):
            computed.append(_name)
            return _run(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert _rerun(command, complete_run, blocker / "sub") == (4 if command == "agreement" else 5)
    assert "Traceback" not in capsys.readouterr().err
    assert computed == []  # the output location is checked before any compute
    assert list(tmp_path.rglob("*")) == [blocker]
    assert blocker.read_text() == "a file, not a directory"


@pytest.mark.parametrize("flag", ["--seed=-1", "--mc-samples=5", "--threshold=nan"])
def test_theory_checks_its_inputs_before_its_output_location(tmp_path, capsys, flag):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(["theory", "--out", str(blocker / "sub"), flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("generation error:") and "Traceback" not in err
    assert list(tmp_path.rglob("*")) == [blocker]


def _corrupted_pool(cfg, out_dir):
    assert main(["gen-data", "--config", str(cfg)]) == 0
    pool = out_dir / "ood_test.csv"
    lines = pool.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",oops"
    pool.write_text("\n".join(lines) + "\n")


def _reordered_pool(cfg, out_dir):
    assert main(["gen-data", "--config", str(cfg)]) == 0
    pool = out_dir / "ood_test.csv"
    header, *rows = pool.read_text().splitlines()
    pool.write_text("\n".join([header, *reversed(rows)]) + "\n")


def _reversed_results(cfg, out_dir):
    results = out_dir / "results.csv"
    header, *rows = results.read_text().splitlines()
    results.write_text("\n".join([header, *reversed(rows)]) + "\n")


def _results_without_model_id(cfg, out_dir):
    results = out_dir / "results.csv"
    results.write_text(results.read_text().replace("model_id", "model_id_x", 1))


def _reseeded_pool(cfg, out_dir):
    assert main(["gen-data", "--config", str(cfg), "--seed", "99"]) == 0


def _only_manifest_and_preds(cfg, out_dir):
    for path in out_dir.iterdir():
        if path.name not in ("manifest.json", "preds.csv"):
            path.unlink()


@pytest.mark.parametrize("fault", [_corrupted_pool, _reordered_pool, _reversed_results,
                                   _results_without_model_id, _reseeded_pool,
                                   _only_manifest_and_preds])
def test_agreement_reads_only_manifest_and_preds(tmp_path, fault):
    # The pool's rows come from the config's layout and the model IDs from
    # preds.csv, so no other file of the sweep can change the outputs.
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    outputs = ("agreement.csv", "agreement_report.json", "agreement_overlay.svg")
    assert main(["agreement", "--config", str(cfg)]) == 0
    want = [(out_dir / name).read_bytes() for name in outputs]
    for name in outputs:
        (out_dir / name).unlink()
    fault(cfg, out_dir)
    assert main(["agreement", "--config", str(cfg)]) == 0
    assert [(out_dir / name).read_bytes() for name in outputs] == want


@pytest.mark.parametrize("old,new", [("master_seed=4", "master_seed=4\nr_ts=0.3,0.7"),
                                     ("n_ood_test=800", "n_ood_test=801")])
def test_agreement_with_other_pool_counts_is_generation_error(tmp_path, capsys, old, new):
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    make_config(tmp_path, TINY_SHIFT.replace(old, new))
    capsys.readouterr()
    assert main(["agreement", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "Traceback" not in err
    assert not (out_dir / "agreement.csv").exists()


def _with(row, y=None, z=None):
    """A dataset CSV row with its label and/or group replaced."""
    old_y, old_z, features = row.split(",", 2)
    return f"{old_y if y is None else y},{old_z if z is None else z},{features}"


def _every_group_one(rows):
    return [_with(r, z=1) for r in rows]


def _label_7_and_group_9(rows):
    return [_with(rows[0], y=7), *rows[1:-1], _with(rows[-1], z=9)]


def _group_9(rows):
    return [_with(rows[0], z=9), *rows[1:]]


def _pool_counts(rows):
    """[positives, negatives] per group of dataset CSV rows, as a sweep's
    manifest records them."""
    cells = [(int(row.split(",")[1]), row.split(",")[0]) for row in rows]
    return [[cells.count((g, "1")), cells.count((g, "-1"))]
            for g in range(max(g for g, _ in cells) + 1)]


@pytest.mark.parametrize("fault", [_every_group_one, _label_7_and_group_9, _group_9])
def test_agreement_on_pool_off_the_config_counts_is_generation_error(tmp_path, capsys, fault):
    # The manifest records a pool whose per-(group, label) counts the config
    # does not give, so preds.csv's bits are not aligned with its layout.
    # The pool's rows are the ones gen-data writes for the sweep's config.
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["gen-data", "--config", str(cfg)]) == 0
    header, *rows = (out_dir / "ood_test.csv").read_text().splitlines()
    manifest = out_dir / "manifest.json"
    recorded = json.loads(manifest.read_text())
    assert recorded["ood_test_counts"] == _pool_counts(rows)
    recorded["ood_test_counts"] = _pool_counts(fault(rows))
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert main(["agreement", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "Traceback" not in err
    assert not (out_dir / "agreement.csv").exists()


def test_agreement_without_manifest_is_analysis_error(tmp_path, capsys):
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    (out_dir / "manifest.json").unlink()
    capsys.readouterr()
    assert main(["agreement", "--config", str(cfg)]) == 4
    assert "manifest.json" in capsys.readouterr().err
    assert not (out_dir / "agreement.csv").exists()


def _not_json(manifest):
    return manifest[:-3]


def _no_pool_entry(manifest):
    manifest = json.loads(manifest)
    del manifest["ood_test_counts"]
    return json.dumps(manifest)


def _no_preds_entry(manifest):
    manifest = json.loads(manifest)
    del manifest["files"]["preds.csv"]
    return json.dumps(manifest)


@pytest.mark.parametrize("fault", [_not_json, _no_pool_entry, _no_preds_entry])
def test_agreement_on_bad_manifest_is_generation_error(tmp_path, capsys, fault):
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    manifest = out_dir / "manifest.json"
    manifest.write_text(fault(manifest.read_text()))
    capsys.readouterr()
    assert main(["agreement", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "Traceback" not in err
    missing = {_no_pool_entry: "ood_test_counts", _no_preds_entry: "preds.csv"}
    assert missing.get(fault, "") in err
    assert not (out_dir / "agreement.csv").exists()


def _short_bits(lines):
    lines[3] = lines[3][:-1]


def _bad_char(lines):
    lines[3] = lines[3][:-1] + "x"


def _dropped(lines):
    del lines[3]


def _old_header(lines):
    lines[0] = "model_id,bits"


def _pad_bit(lines):
    # the pool's 803 rows leave the last byte's 5 low bits as zero padding
    lines[3] = lines[3][:-1] + format(int(lines[3][-1], 16) | 1, "x")


def _space_in_hex(lines):
    # the same size, and bytes.fromhex would read it as one byte short
    lines[3] = lines[3][:-4] + "  " + lines[3][-2:]


# What refuses each fault: the manifest's size, else the reader's own checks.
_PREDS_FAULT_SAYS = {_short_bits: "bytes differ", _bad_char: "hex digits",
                     _dropped: "bytes differ", _old_header: "bytes differ",
                     _pad_bit: "pad bit", _space_in_hex: "hex digits"}


@pytest.mark.parametrize("fault", list(_PREDS_FAULT_SAYS))
def test_agreement_on_corrupted_preds_is_generation_error(tmp_path, capsys, fault):
    cfg, out_dir = make_config(tmp_path, TINY_SHIFT.replace("n_ood_test=800", "n_ood_test=803"))
    assert main(["sweep", "--config", str(cfg)]) == 0
    preds = out_dir / "preds.csv"
    lines = preds.read_text().splitlines()
    fault(lines)
    preds.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["agreement", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "preds.csv" in err and _PREDS_FAULT_SAYS[fault] in err and "Traceback" not in err
    assert not (out_dir / "agreement.csv").exists()


def test_agreement_on_a_sweep_with_0_1_text_preds_names_the_header(tmp_path, capsys):
    # preds.csv as sweeps once wrote it, one '0'/'1' character a pool row,
    # with the manifest entry such a sweep wrote for it.
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    preds = out_dir / "preds.csv"
    rows = [line.split(",") for line in preds.read_text().splitlines()[1:]]
    text = "model_id,bits\n" + "".join(
        f"{mid},{''.join(f'{int(h, 16):04b}' for h in hexed)}\n" for mid, hexed in rows)
    preds.write_text(text)
    manifest = out_dir / "manifest.json"
    recorded = json.loads(manifest.read_text())
    recorded["files"]["preds.csv"] = {"bytes": len(text), "crc32": zlib.crc32(text.encode())}
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert main(["agreement", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "preds.csv" in err and "'model_id,bits'" in err and "'model_id,packed_hex'" in err
    assert "Traceback" not in err and not (out_dir / "agreement.csv").exists()


def test_agreement_on_reversed_bits_is_generation_error(tmp_path, capsys):
    # Same length and characters: only the manifest's CRC-32 tells it apart.
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    preds = out_dir / "preds.csv"
    lines = preds.read_text().splitlines()
    model_id, bits = lines[3].split(",")
    assert bits != bits[::-1]
    lines[3] = f"{model_id},{bits[::-1]}"
    preds.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["agreement", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "preds.csv" in err and "CRC-32" in err and "Traceback" not in err
    assert not (out_dir / "agreement.csv").exists()


@pytest.mark.parametrize("rates", ["1e-2,1e-2", "0.0100000001,0.01"])
def test_grid_with_duplicate_cells_is_config_error(tmp_path, capsys, rates):
    # The second pair differs, but not at the 6 digits a cell ID prints.
    body = TINY_SHIFT.replace("learning_rates=1e-3,1e-2", f"learning_rates={rates}")
    cfg, out_dir = make_config(tmp_path, body)
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "[grid]" in err and "cell ID" in err and "Traceback" not in err
    assert not out_dir.exists()


def _renamed(column):
    def fault(header, row):
        return header.replace(column, column + "_x"), row
    return fault


def _non_numeric(header, row):
    fields = row.split(",")
    fields[header.split(",").index("group_acc_0")] = "n/a"
    return header, ",".join(fields)


def _short_row(header, row):
    return header, ",".join(row.split(",")[:6])  # no accuracy fields


def _non_utf8(header, row):
    return header, row + "\xff"  # written as the byte 0xff


def _long_field(header, row):
    # a model ID past the csv module's 131,072-character field limit
    return header, "m" * 131_073 + row[row.index(","):]


def _extra_field(header, row):
    return header, row + ",0.5"  # one field more than the header


@pytest.mark.parametrize("command,fault", [
    ("analyze", _renamed("group_acc_0")),
    ("plot", _renamed("group_acc_0")),
    ("analyze", _non_numeric),
    ("plot", _non_numeric),
    ("analyze", _short_row),
    ("analyze", _non_utf8),
    ("plot", _non_utf8),
    ("analyze", _long_field),
    ("analyze", _extra_field),
], ids=["analyze-no-group_acc_0", "plot-no-group_acc_0",
        "analyze-non-numeric", "plot-non-numeric", "analyze-short-row",
        "analyze-non-utf8", "plot-non-utf8", "analyze-long-field", "analyze-extra-field"])
def test_malformed_results_csv_is_generation_error(tmp_path, capsys, command, fault):
    cfg, out_dir = make_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    results = out_dir / "results.csv"
    header, first, *rest = results.read_text().splitlines()
    header, first = fault(header, first)
    results.write_bytes(("\n".join([header, first, *rest]) + "\n").encode("latin-1"))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "results.csv" in err and "Traceback" not in err


def test_theory_rerun_gives_identical_bytes(tmp_path):
    args = ["theory", "--p-y1", "0.4", "--pi1", "0.8", "--pi0", "0.25", "--s1", "1.7",
            "--threshold", "0.2", "--n-thresholds", "301", "--mc-samples", "20000",
            "--seed", "11"]
    for run in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / run)]) == 0
    for name in ("roc_traversal.csv", "theory_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# --s0=1e308 is finite, but the ROC traversal's bisection bracket, mu0 + 10 * s0, is not:
# it would give only nan rows.
@pytest.mark.parametrize("flag", ["--mu0=nan", "--mu1=nan", "--mu1=-inf", "--s0=inf", "--s0=nan",
                                  "--s1=nan", "--threshold=nan", "--threshold=inf", "--s0=1e308",
                                  "--s0=0", "--s1=0"])
def test_theory_non_finite_input_is_generation_error(tmp_path, capsys, flag):
    out = tmp_path / "theory"
    assert main(["theory", "--out", str(out), flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("generation error:") and "finite" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_theory_tiny_sds_run_without_overflow_warnings(tmp_path):
    # standardized scores near 1e300 once overflowed x * x inside the array CDF
    assert main(["theory", "--mc-samples", "10000", "--s0=1e-300", "--s1=1e-300",
                 "--out", str(tmp_path)]) == 0
    # as does a far threshold's standardized score, which the rates take as +-inf
    assert main(["theory", "--mc-samples", "10000", "--s0=1e-300", "--s1=1e-300",
                 "--threshold=1e300", "--out", str(tmp_path / "far")]) == 0
    assert json.loads((tmp_path / "far" / "theory_summary.json").read_text())["tpr"] == 0.0


def test_theory_negative_seed_is_generation_error(tmp_path, capsys):
    out = tmp_path / "theory"
    assert main(["theory", "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("generation error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--mc-samples", "--n-thresholds"])
def test_theory_count_of_2_to_63_is_generation_error(tmp_path, capsys, flag):
    out = tmp_path / "theory"
    # a second --mc-samples overrides the first
    assert main(["theory", "--out", str(out), "--mc-samples", "10000", flag, str(2**63)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("generation error:") and "2**63" in err
    assert not out.exists()


@pytest.mark.parametrize("stage,flag", [
    ("monte_carlo_gap", "--n-thresholds=2"), ("roc_traverse", "--threshold=nan"),
    ("roc_traverse", "--seed=-1"), ("roc_traverse", "--mc-samples=5")])
def test_theory_checks_every_input_before_either_computation(tmp_path, capsys, monkeypatch,
                                                              stage, flag):
    def no_compute(*args, **kwargs):
        raise AssertionError(f"{stage} ran before {flag} was checked")

    monkeypatch.setattr(theory, stage, no_compute)
    out = tmp_path / "theory"
    assert main(["theory", "--out", str(out), flag]) == 2
    assert capsys.readouterr().err.startswith("generation error:")
    assert not out.exists()


@pytest.mark.parametrize("command,option", [("theory", "--config"), ("analyze", "--seed"),
                                            ("plot", "--seed")])
def test_options_a_command_does_not_read_are_rejected(tmp_path, capsys, command, option):
    cfg, _ = make_config(tmp_path)
    argv = [command] + (["--config", str(cfg)] if command != "theory" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, str(cfg) if option == "--config" else "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([command, "-h"])
    assert option not in capsys.readouterr().out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_reports_its_readme_exit_code():
    # README: "Exit codes: 1 configuration, 2 data generation, 3 training, 4 analysis, 5 I/O."
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = re.search(r"^Exit codes: (.*)\.$", readme, re.M).group(1)
    names = {int(code): name for code, name in re.findall(r"(\d) ([a-zA-Z/ ]+)", table)}
    expected = {errors.ConfigError: 1, errors.InvalidSpecError: 2,
                errors.DegenerateDimensionError: 2, errors.InfeasibleMarginalsError: 2,
                errors.DegeneratePopulationError: 2, errors.DivergenceError: 3,
                errors.DimensionMismatchError: 3, errors.AnalysisError: 4,
                errors.EmptyGroupError: 4, errors.MissingInputsError: 4}
    found = list(_subclasses(errors.ShiftLabError))
    assert set(found) == set(expected)
    for cls in found:
        assert cls.exit_code == expected[cls], cls
        assert cls.label in names[cls.exit_code], cls  # "config" in "configuration"


def test_readme_refusal_list_quotes_the_preds_csv_header(tmp_path):
    # README's agreement refusals must name the header the writer emits.
    path = tmp_path / "preds.csv"
    evaluator.write_preds_csv([("m0", np.packbits([1, 0, 1]))], path)
    header = path.read_text().splitlines()[0]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    refusals = re.search(r"^- exits 2 naming `preds.csv` when (.*?)\n\n", readme, re.M | re.S)
    assert f"its header is not `{header}`" in " ".join(refusals.group(1).split())


def test_exit_code_2_generation(tmp_path):
    # degenerate population reaches the generation layer through `theory`
    assert main(["theory", "--pi1", "1.0", "--pi0", "1.0",
                 "--out", str(tmp_path)]) == 2


def test_degenerate_attribute_marginal_is_a_config_error(tmp_path, capsys):
    # ShiftSpec defers to theory.PopulationSpec, whose DegeneratePopulationError
    # is an InvalidSpecError, so load_config reports it as the config's fault.
    cfg, out_dir = make_config(tmp_path, TINY_SHIFT.replace("p_maj=0.9", "pi1=0\npi0=0"))
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "[shift] P(Z=1) = 0.0 is degenerate; conditionals undefined" in err
    assert not out_dir.exists()


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    outputs = []
    for run in ("a", "b", "c"):
        assert main(["theory", "--mc-samples", "10000", "--out", str(tmp_path / run)]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
        if run == "a":  # an earlier test in this process may have built it already
            assert built.count("shiftlab") <= 1
            built.clear()
    assert outputs[0] == outputs[1] == outputs[2]
    assert built == []


def test_exit_code_3_training(tmp_path):
    # lr * l2 >> 2 makes the ridge update expand geometrically; enough epochs
    # drive every cell to overflow, so the whole sweep fails
    body = TINY_SHIFT.replace("learning_rates=1e-3,1e-2", "learning_rates=10.0") \
                     .replace("l2s=0", "l2s=1e12") \
                     .replace("snapshot_epochs=1,3", "snapshot_epochs=1,25")
    cfg, _ = make_config(tmp_path, body)
    assert main(["sweep", "--config", str(cfg)]) == 3


def test_exit_code_4_analysis(tmp_path):
    cfg, _ = make_config(tmp_path)
    assert main(["analyze", "--config", str(cfg)]) == 4  # no results.csv yet
    assert main(["agreement", "--config", str(cfg)]) == 4


def test_exit_code_5_io(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg, _ = make_config(tmp_path, out=blocker / "sub")
    assert main(["sweep", "--config", str(cfg)]) == 5
