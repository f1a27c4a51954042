import pytest

from shiftlab.config import (AnalysisOptions, ExperimentConfig, GridSpec,
                             SeriesSpec, load_config, write_config)
from shiftlab.datagen import ShiftSpec
from shiftlab.errors import ConfigError

GOOD_CONFIG = """\
# moon sweep configuration
[shift]
d_core=100
d_spu=10
sigma_core=10
sigma_spu=1
n_train=3000
p_maj=0.9
master_seed=42

[grid]
learning_rates=1e-4,1e-3,1e-2
l2s=0,1e-4
batch_sizes=full,32
snapshot_epochs=1,5,10
n_seeds=2

[analysis]
probit_eps=1e-3
spline_lambda=gcv
n_pairs=100

[output]
dir=outdir
"""


def test_load_good_config(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(GOOD_CONFIG)
    cfg = load_config(path)
    assert cfg.shift.d_core == 100
    assert cfg.shift.master_seed == 42
    assert cfg.grid.learning_rates == (1e-4, 1e-3, 1e-2)
    assert cfg.grid.batch_sizes == ("full", 32)
    assert cfg.analysis.n_pairs == 100
    assert str(cfg.out_dir) == "outdir"
    assert cfg.grid.n_snapshots == 3 * 2 * 2 * 2 * 3


def test_config_round_trip(tmp_path):
    spec = ShiftSpec(d_core=50, d_spu=25, sigma_core=10.0, sigma_spu=1.0,
                     n_train=3000, pi1=0.9, pi0=0.3, master_seed=5)
    cfg = ExperimentConfig(shift=spec,
                           grid=GridSpec(learning_rates=(1e-3, 1e-2), n_seeds=3),
                           analysis=AnalysisOptions(n_pairs=250, margin=0.05),
                           out_dir=tmp_path / "o",
                           series=SeriesSpec(knob="sdr", values=(0.1, 0.3, 0.5)))
    path = tmp_path / "cfg.ini"
    write_config(cfg, path)
    back = load_config(path)
    assert back.shift == spec
    assert back.grid == cfg.grid
    assert back.analysis == cfg.analysis
    assert back.series == cfg.series
    # a second write is byte-identical
    path2 = tmp_path / "cfg2.ini"
    write_config(back, path2)
    assert path.read_text().replace(str(tmp_path / "o"), "X") \
        == path2.read_text().replace(str(tmp_path / "o"), "X")


def test_default_grid_round_trips_exactly(tmp_path):
    # The default learning rates are log-spaced doubles with 17 significant
    # digits; fewer printed digits would load back a different sweep.
    spec = ShiftSpec(d_core=100, d_spu=10, sigma_core=10.0, sigma_spu=1.0,
                     n_train=3000, p_maj=0.9, master_seed=2)
    cfg = ExperimentConfig(shift=spec, out_dir=tmp_path / "o")
    path = tmp_path / "cfg.ini"
    write_config(cfg, path)
    back = load_config(path)
    assert back.grid.learning_rates == GridSpec().learning_rates
    assert back == cfg


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.ini")


def test_missing_shift_section(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[grid]\nn_seeds=2\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_shift_values(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[shift]\nd_core=0\nd_spu=1\nsigma_core=1\nsigma_spu=1\n"
                    "n_train=10\np_maj=0.5\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[shift]\nd_core=10\n")  # required keys missing
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(GOOD_CONFIG + "\n[grid]\nbogus=1\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("section", [
    "[analysis]\nprobit_eps=abc", "[analysis]\nbogus=1", "[grid]\nn_seeds=two",
    "[series]\nvalues=0.1,x", "[series]\nbogus=1", "[output]\nbogus=x",
])
def test_bad_section_values_are_config_errors(tmp_path, section):
    path = tmp_path / "c.ini"
    path.write_text(GOOD_CONFIG.split("[grid]")[0] + section + "\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_shipped_example_config_loads():
    from pathlib import Path
    example = Path(__file__).resolve().parents[1] / "configs" / "example.ini"
    cfg = load_config(example)
    assert cfg.shift.d_core == 100
    assert cfg.shift.mode == "majority"
    assert cfg.grid.n_snapshots == 5 * 3 * 2 * 5 * 7


def test_overrides():
    spec = ShiftSpec(d_core=10, d_spu=2, sigma_core=1.0, sigma_spu=1.0,
                     n_train=100, p_maj=0.8, master_seed=1)
    cfg = ExperimentConfig(shift=spec)
    out = cfg.with_overrides(out_dir="elsewhere", master_seed=99)
    assert str(out.out_dir) == "elsewhere"
    assert out.shift.master_seed == 99
    assert cfg.shift.master_seed == 1  # original untouched
