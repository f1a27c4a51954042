import json

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


def write_config(tmp_path, body=TINY_SHIFT, out=None):
    path = tmp_path / "cfg.ini"
    out_dir = out or (tmp_path / "out")
    path.write_text(body + f"\n[output]\ndir={out_dir}\n")
    return path, out_dir


def test_sweep_and_plot_and_analyze(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "moon.svg").exists()
    assert main(["plot", "--config", str(cfg)]) == 0
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert (out_dir / "report.json").exists()


def test_gen_data(tmp_path):
    cfg, out_dir = write_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg)]) == 0
    for name in ("train.csv", "id_test.csv", "ood_test.csv", "spec.txt"):
        assert (out_dir / name).exists()


def test_seed_override_changes_features(tmp_path):
    cfg, out_dir = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    first = (out_dir / "train.csv").read_bytes()
    main(["gen-data", "--config", str(cfg), "--seed", "99"])
    assert (out_dir / "train.csv").read_bytes() != first


def test_series_subcommand(tmp_path):
    cfg, out_dir = write_config(tmp_path)
    assert main(["series", "--config", str(cfg), "--knob", "p_maj",
                 "--values", "0.7,0.9"]) == 0
    assert (out_dir / "series.json").exists()


def test_agreement_subcommand(tmp_path):
    cfg, out_dir = write_config(tmp_path)
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
    assert main(["theory", "--out", str(tmp_path), "--format", "json",
                 "--mc-samples", "100000"]) == 0
    assert (tmp_path / "roc_traversal.json").exists()


def test_exit_code_1_config(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "missing.ini")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[shift]\nd_core=0\nd_spu=1\nsigma_core=1\nsigma_spu=1\n"
                   "n_train=10\np_maj=0.5\n")
    assert main(["sweep", "--config", str(bad)]) == 1


def test_empty_grid_is_config_error(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path, TINY_SHIFT.replace("n_seeds=2", "n_seeds=0"))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_exit_code_2_generation(tmp_path):
    # degenerate population reaches the generation layer through `theory`
    assert main(["theory", "--pi1", "1.0", "--pi0", "1.0",
                 "--out", str(tmp_path)]) == 2


def test_exit_code_3_training(tmp_path):
    # lr * l2 >> 2 makes the ridge update expand geometrically; enough epochs
    # drive every cell to overflow, so the whole sweep fails
    body = TINY_SHIFT.replace("learning_rates=1e-3,1e-2", "learning_rates=10.0") \
                     .replace("l2s=0", "l2s=1e12") \
                     .replace("snapshot_epochs=1,3", "snapshot_epochs=1,25")
    cfg, _ = write_config(tmp_path, body)
    assert main(["sweep", "--config", str(cfg)]) == 3


def test_exit_code_4_analysis(tmp_path):
    cfg, _ = write_config(tmp_path)
    assert main(["analyze", "--config", str(cfg)]) == 4  # no results.csv yet
    assert main(["agreement", "--config", str(cfg)]) == 4


def test_exit_code_5_io(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg, _ = write_config(tmp_path, out=blocker / "sub")
    assert main(["sweep", "--config", str(cfg)]) == 5
