import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kernelcg import cli
from kernelcg.datasets import read_dataset_csv
from kernelcg.harness import read_records_csv


def test_gen_toy_writes_dataset(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert cli.main(["gen-toy", "--seed", "3", "--out", str(out)]) == 0
    data = read_dataset_csv(out)
    assert data.n_train == 100 and data.n_test == 100
    assert "100 train / 100 test" in capsys.readouterr().out


def test_gen_grid_writes_dataset(tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main(["gen-grid", "--g", "5", "--d", "2", "--seed", "1", "--out", str(out)]) == 0
    data = read_dataset_csv(out)
    assert data.n_train == 25 and data.dim == 2


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


def test_run_on_config_without_section_headers_is_one_line_error(tmp_path):
    config_path = tmp_path / "config.ini"
    config_path.write_text("source = toy\n")
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    message = raised.value.code
    assert message.startswith("error:") and "section" in message and "\n" not in message


def test_run_with_bad_thread_count_exits_with_one_error_line(tmp_path):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    config_path.write_text(_TOY_CONFIG.format(records=records_path))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, KERNELCG_THREADS="two",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "kernelcg.cli", "run", "--config", str(config_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: KERNELCG_THREADS must be a positive integer, got 'two'"]
    assert not records_path.exists()


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
