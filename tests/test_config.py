import pytest

from pathlib import Path

from shiftlab.config import (AnalysisOptions, ExperimentConfig, GridSpec,
                             SeriesSpec, _spec_for_knob, load_config)
from shiftlab.datagen import ShiftSpec, mixture_table
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


ROUND_TRIP_CONFIG = """\
[shift]
d_core=50
d_spu=25
sigma_core=10.0
sigma_spu=1.0
n_train=3000
pi1=0.9
pi0=0.3
master_seed=5

[grid]
learning_rates=0.001,0.01
n_seeds=3

[analysis]
n_pairs=250
margin=0.05
pair_seed=11

[output]
dir=o

[series]
knob=sdr
values=0.1,0.3,0.5
"""


def test_config_round_trip(tmp_path):
    # Every section of a hand-written file loads back into the config it
    # spells out: attribute-mode shift (pi1/pi0), pair_seed and [series].
    path = tmp_path / "cfg.ini"
    path.write_text(ROUND_TRIP_CONFIG)
    back = load_config(path)
    spec = ShiftSpec(d_core=50, d_spu=25, sigma_core=10.0, sigma_spu=1.0,
                     n_train=3000, pi1=0.9, pi0=0.3, master_seed=5)
    cfg = ExperimentConfig(shift=spec,
                           grid=GridSpec(learning_rates=(1e-3, 1e-2), n_seeds=3),
                           analysis=AnalysisOptions(n_pairs=250, margin=0.05,
                                                    pair_seed=11),
                           out_dir=Path("o"),
                           series=SeriesSpec(knob="sdr", values=(0.1, 0.3, 0.5)))
    assert back.shift == spec
    assert back.grid == cfg.grid
    assert back.analysis == cfg.analysis
    assert back.series == cfg.series
    assert back == cfg


# The default learning rates are log-spaced doubles printed to 17 significant
# digits; 12 would load back a different sweep.
DEFAULT_GRID_CONFIG = """\
[shift]
d_core=100
d_spu=10
sigma_core=10.0
sigma_spu=1.0
n_train=3000
p_maj=0.9
master_seed=2

[grid]
learning_rates=0.0001,0.0005623413251903491,0.0031622776601683794,0.017782794100389229,0.10000000000000001
l2s=0.0,0.0001,0.01
batch_sizes=full,32
snapshot_epochs=1,2,5,10,25,50,100
n_seeds=5

[output]
dir=o
"""


def test_default_grid_round_trips_exactly(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(DEFAULT_GRID_CONFIG)
    back = load_config(path)
    assert back.grid.learning_rates == GridSpec().learning_rates
    spec = ShiftSpec(d_core=100, d_spu=10, sigma_core=10.0, sigma_spu=1.0,
                     n_train=3000, p_maj=0.9, master_seed=2)
    assert back == ExperimentConfig(shift=spec, out_dir=Path("o"))


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
    path.write_text(GOOD_CONFIG.replace("master_seed=42", "master_seed=42\nbogus_key=1"))
    with pytest.raises(ConfigError, match=r"unknown \[shift\] key 'bogus_key'"):
        load_config(path)


def test_shift_values_are_read_as_in_every_section(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(GOOD_CONFIG.replace("d_core=100", "d_core=1e2"))
    with pytest.raises(ConfigError, match=r"bad \[shift\] value for 'd_core'"):
        load_config(path)
    path.write_text(GOOD_CONFIG.replace("master_seed=42", "master_seed=42\nr_ts=0.25,0.75,"))
    assert load_config(path).shift.r_ts == (0.25, 0.75)


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


@pytest.mark.parametrize("n_train, p_y1, pi1, pi0", [
    (3000, 0.5, 0.9, 0.3), (9973, 0.4, 0.7, 0.45), (301, 0.65, 0.8, 0.1)])
def test_correlation_level_spec_reproduces_the_mixture_table(n_train, p_y1, pi1, pi0):
    base = ShiftSpec(d_core=10, d_spu=2, sigma_core=1.0, sigma_spu=1.0,
                     n_train=n_train, p_y1=p_y1, pi1=pi1, pi0=pi0, master_seed=1)
    for level in (0.0, 0.1, 0.25, 0.5, 0.8, 0.97, 1.0):
        table = mixture_table(n_train, p_y1, base.p_z1, level)
        counts = _spec_for_knob(base, "correlation_level", level).group_label_counts("train")
        # group_label_counts is [z] -> (positives, negatives); the table is [y][z]
        assert counts == [(int(table[1, z]), int(table[0, z])) for z in (0, 1)], level
