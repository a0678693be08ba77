import configparser
import csv
from pathlib import Path

import numpy as np
import pytest

from kernelcg import cli, harness
from kernelcg.datasets import TOY_DEFAULT_SIGMA2, gen_toy, load_csv, toy_kernel
from kernelcg.harness import read_records_csv


def test_gen_toy_writes_dataset(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert cli.main(["gen-toy", "--seed", "3", "--out", str(out)]) == 0
    data = load_csv(out, "y")
    assert data.n_train == 100 and data.n_test == 100
    assert "100 train / 100 test" in capsys.readouterr().out


def test_gen_grid_writes_dataset(tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main(["gen-grid", "--g", "5", "--d", "2", "--seed", "1", "--out", str(out)]) == 0
    data = load_csv(out, "y")
    assert data.n_train == 25 and data.dim == 2


@pytest.mark.parametrize("g, d", [(3, 0), (0, 3), (3, -1)])
def test_gen_grid_with_a_size_below_one_is_one_line_error(tmp_path, g, d):
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as raised:
        cli.main(["gen-grid", "--g", str(g), "--d", str(d), "--out", str(out)])
    assert raised.value.code == f"error: a grid needs at least 1 point per axis and 1 axis, got g = {g}, d = {d}"
    assert not out.exists()


def test_run_and_metrics_roundtrip(tmp_path, capsys):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    config_path.write_text(
        f"""
[dataset]
source = toy
seed = 0

[kernel]
family = se
metric = 0.25
theta_f = 2.0
sigma2 = 0.01

[methods]
list = exact, kmcg, cg-reorth, sor

[schedule]
steps = 2:4
repetitions = 2
seed = 9

[output]
path = {records_path}
"""
    )
    assert cli.main(["run", "--config", str(config_path)]) == 0
    records = read_records_csv(records_path)
    assert {r.method for r in records} == {"exact", "kmcg", "cg-reorth", "sor"}
    assert {r.step for r in records if r.method == "kmcg"} == {2, 3, 4}
    capsys.readouterr()
    assert cli.main(["metrics", "--records", str(records_path)]) == 0
    printed = capsys.readouterr().out
    assert "kmcg" in printed and "eps_f" in printed


def _rows_without_seconds(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    seconds = rows[0].index("seconds")
    return [row[:seconds] + row[seconds + 1:] for row in rows]


def test_run_on_a_gen_toy_file_matches_the_toy_dataset(tmp_path):
    # gen-toy writes .17g values and train/test labels, so run on its file
    # sees the very dataset gen_toy returns, split for split.
    data_path = tmp_path / "toy.csv"
    assert cli.main(["gen-toy", "--seed", "2", "--out", str(data_path)]) == 0
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    config_path.write_text(
        f"""
[dataset]
source = csv
path = {data_path}
target = y

[kernel]
family = se
metric = 0.25
theta_f = 2.0
sigma2 = {TOY_DEFAULT_SIGMA2!r}

[methods]
list = exact, kmcg, cg-reorth, sor

[schedule]
steps = 1:3
repetitions = 2
seed = 9

[output]
path = {records_path}
"""
    )
    assert cli.main(["run", "--config", str(config_path)]) == 0
    config = harness.ExperimentConfig(
        kernel=toy_kernel(), sigma2=TOY_DEFAULT_SIGMA2, methods=("exact", "kmcg", "cg-reorth", "sor"),
        steps=(1, 2, 3), repetitions=2, master_seed=9,
    )
    reference_path = tmp_path / "reference.csv"
    harness.emit_csv(harness.run_experiment(config, gen_toy(seed=2)), reference_path)
    assert _rows_without_seconds(records_path) == _rows_without_seconds(reference_path)


def test_run_on_masked_series(tmp_path):
    series = tmp_path / "series.csv"
    lines = ["time,value,mask"]
    rng = np.random.default_rng(0)
    values = np.sin(0.3 * np.arange(40)) + 0.05 * rng.standard_normal(40)
    mask = (np.arange(40) % 4 != 0).astype(int)
    for i in range(40):
        lines.append(f"{float(i)},{values[i]},{mask[i]}")
    series.write_text("\n".join(lines) + "\n")
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    config_path.write_text(
        f"""
[dataset]
source = series-csv
path = {series}

[kernel]
family = se
metric = 0.05
theta_f = 1.0
sigma2 = 0.01

[methods]
list = exact, kmcg

[schedule]
steps = 2, 5
repetitions = 1
seed = 4

[output]
path = {records_path}
"""
    )
    assert cli.main(["run", "--config", str(config_path)]) == 0
    records = read_records_csv(records_path)
    kmcg_rows = [r for r in records if r.method == "kmcg"]
    assert len(kmcg_rows) == 2 and all(np.isfinite(r.smse) for r in kmcg_rows)


def test_shipped_series_config_runs(tmp_path, monkeypatch):
    # demos/series_config_example.ini as shipped, with only its output path
    # changed, on an 80-point series.csv with a quarter of the rows masked.
    rng = np.random.default_rng(5)
    values = np.sin(0.1 * np.arange(80)) + 0.03 * rng.standard_normal(80)
    mask = (np.arange(80) % 4 != 1).astype(int)
    rows = ["time,value,mask"] + [f"{float(i)},{values[i]:.17g},{mask[i]}" for i in range(80)]
    (tmp_path / "series.csv").write_text("\n".join(rows) + "\n")
    shipped = (Path(__file__).parents[1] / "demos" / "series_config_example.ini").read_text()
    assert shipped.count("path = series_records.csv") == 1
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "series_config.ini"
    config_path.write_text(shipped.replace("path = series_records.csv", f"path = {records_path}"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", str(config_path)]) == 0
    records = read_records_csv(records_path)
    assert records and not [r.reason for r in records if r.reason.startswith("error:")]


def test_steps_parser_forms():
    assert cli._parse_steps("1:4") == (1, 2, 3, 4)
    assert cli._parse_steps("1, 5, 9") == (1, 5, 9)


_TOY_CONFIG = """
[dataset]
source = toy

[kernel]
metric = 0.25
sigma2 = 0.01

[schedule]
steps = 1:2
repetitions = 1

[output]
path = {records}
"""


@pytest.mark.parametrize("section", ["dataset", "kernel"])
def test_run_without_required_section_is_one_line_error(tmp_path, section):
    config_path = tmp_path / "config.ini"
    text = _TOY_CONFIG.format(records=tmp_path / "records.csv")
    config_path.write_text(text.replace(f"[{section}]", "[unused]"))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    message = raised.value.code
    assert message.startswith("error:") and f"[{section}]" in message and "\n" not in message


@pytest.mark.parametrize("edit, code", [
    (("[output]", "[ouput]"), "has an unknown section [ouput]"),
    (("[dataset]", "[DEFAULT]\nseed = 3\n\n[dataset]"), "has an unknown section [DEFAULT]"),
    (("repetitions = 1", "repetition = 1"), "[schedule] does not read repetition"),
    (("metric = 0.25", "metrics = 0.25"), "[kernel] does not read metrics"),
    (("[output]", "[methods]\nlist = exact\nlists = kmcg\n\n[output]"), "[methods] does not read lists"),
    (("path = ", "path = x\nformat = csv\nfile = "), "[output] does not read format, file"),
])
def test_run_with_an_unknown_section_or_key_is_one_line_error(tmp_path, edit, code):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    config_path.write_text(_TOY_CONFIG.format(records=records_path).replace(*edit))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    message = raised.value.code
    assert message.startswith("error:") and message.endswith(code) and "\n" not in message
    assert not records_path.exists()


def test_config_template_reads_only_known_keys():
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read_string(cli.CONFIG_TEMPLATE)
    assert set(cfg.sections()) == {"dataset", *cli._SECTION_KEYS}
    for name, keys in cli._SECTION_KEYS.items():
        assert set(cfg[name]) <= set(keys)
    assert set(cfg["dataset"]) - {"source"} <= set(cli._DATASET_KEYS[cfg["dataset"]["source"]])


def test_run_with_negative_step_budget_is_one_line_error(tmp_path):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    config_path.write_text(_TOY_CONFIG.format(records=records_path).replace("steps = 1:2", "steps = -1:2"))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    assert raised.value.code == "error: step budgets must be at least 0, got -1"
    assert not records_path.exists()


def test_run_with_repeated_step_budget_is_one_line_error(tmp_path):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    config_path.write_text(_TOY_CONFIG.format(records=records_path).replace("steps = 1:2", "steps = 2, 1, 2"))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    assert raised.value.code == "error: step budgets must be distinct, got 2, 1, 2"
    assert not records_path.exists()


def test_run_with_negative_master_seed_is_one_line_error(tmp_path):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    text = _TOY_CONFIG.format(records=records_path)
    config_path.write_text(text.replace("repetitions = 1", "repetitions = 1\nseed = -1"))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    assert raised.value.code == "error: master_seed must be at least 0, got -1"
    assert not records_path.exists()


def test_run_on_config_without_section_headers_is_one_line_error(tmp_path):
    config_path = tmp_path / "config.ini"
    config_path.write_text("source = toy\n")
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    message = raised.value.code
    assert message.startswith("error:") and "section" in message and "\n" not in message


def test_run_on_ragged_masked_series_is_one_line_error(tmp_path):
    series = tmp_path / "series.csv"
    series.write_text("time,value,mask\n0,1,1\n1,2\n2,1,0\n")
    config_path = tmp_path / "config.ini"
    text = _TOY_CONFIG.format(records=tmp_path / "records.csv")
    config_path.write_text(text.replace("source = toy", f"source = series-csv\npath = {series}"))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    message = raised.value.code
    assert message.startswith("error:") and "row 3 has 2 cells" in message and "\n" not in message


def test_run_with_a_dataset_key_the_source_does_not_read_is_one_line_error(tmp_path):
    # A series is split by its mask, so a seed would be silently ignored.
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    text = _TOY_CONFIG.format(records=records_path)
    config_path.write_text(text.replace("source = toy", "source = series-csv\npath = series.csv\nseed = 3\ng = 4"))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    assert raised.value.code == "error: [dataset] source series-csv does not read seed, g"
    assert not records_path.exists()


def test_run_on_grid_with_matern_kernel_is_one_line_error(tmp_path):
    # The grid source draws its targets from an SE kernel; fitting
    # Matern-5/2 to them would compare two different models.
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    text = _TOY_CONFIG.format(records=records_path)
    config_path.write_text(text.replace("source = toy", "source = grid\ng = 4\nd = 2")
                           .replace("metric = 0.25", "family = matern52\nmetric = 0.25"))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    message = raised.value.code
    assert message.startswith("error:") and "family must be se" in message and "\n" not in message
    assert not records_path.exists()


@pytest.mark.parametrize("g, d", [(3, 0), (0, 3), (3, -1)])
def test_run_on_a_grid_with_a_size_below_one_is_one_line_error(tmp_path, g, d):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    config_path.write_text(_TOY_CONFIG.format(records=records_path).replace("source = toy", f"source = grid\ng = {g}\nd = {d}"))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    assert raised.value.code == f"error: a grid needs at least 1 point per axis and 1 axis, got g = {g}, d = {d}"
    assert not records_path.exists()
