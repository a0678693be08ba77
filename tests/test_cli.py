import csv
import re
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


@pytest.mark.parametrize("flag, value", [("--n-train", 0), ("--n-test", -3)])
def test_gen_toy_with_a_size_below_one_is_one_line_error(tmp_path, flag, value):
    # --n-train 0 once wrote a file that run rejected, and -3 ended in
    # "negative dimensions are not allowed".
    out = tmp_path / "toy.csv"
    with pytest.raises(SystemExit) as raised:
        cli.main(["gen-toy", flag, str(value), "--out", str(out)])
    assert raised.value.code == f"error: {flag[2:].replace('-', '_')} must be at least 1, got {value}"
    assert not out.exists()


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
    # sees the very dataset gen_toy returns, split for split. A % in a path
    # is plain text: the config has no interpolation.
    data_path = tmp_path / "toy_%y.csv"
    assert cli.main(["gen-toy", "--seed", "2", "--out", str(data_path)]) == 0
    records_path = tmp_path / "records_%(seed)s.csv"
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
    (("repetitions = 1", "repetitions = 1\nbudget_rule = fixed-m\nfixed_m = 2"), "[schedule] does not read budget_rule"),
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


def _write_config(path, records, source, edits=()):
    """A toy-sized config on `source` (None for toy) with its required keys,
    then each (section, key, value) of `edits` set, or deleted where value is
    None."""
    source = source or "toy"
    sections = {
        "dataset": {"source": source, **_REQUIRED_DATASET_KEYS.get(source, {})},
        "kernel": {"metric": "0.25", "sigma2": "0.01"},
        "schedule": {"steps": "1:2", "repetitions": "1"},
        "output": {"path": str(records)},
    }
    for section, key, value in edits:
        keys = sections.setdefault(section, {})
        if value is None:
            del keys[key]
        else:
            keys[key] = value
    path.write_text("".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                            for section, keys in sections.items()))


_REQUIRED_DATASET_KEYS = {"csv": {"path": "data.csv", "target": "y"}, "series-csv": {"path": "series.csv"}}

# One unparsable value for every key the config reads: (section, dataset
# source whose key it is, key, value, message). Values are parsed before any
# file is read.
_UNPARSABLE = [
    ("dataset", None, "source", "tiy", "'tiy' is not one of toy, csv, series-csv, grid"),
    ("dataset", "toy", "seed", "x", "invalid literal for int() with base 10: 'x'"),
    ("dataset", "csv", "path", "", "is empty"),
    ("dataset", "csv", "target", "", "is empty"),
    ("dataset", "csv", "test_fraction", "half", "could not convert string to float: 'half'"),
    ("dataset", "csv", "seed", "1e3", "invalid literal for int() with base 10: '1e3'"),
    ("dataset", "series-csv", "path", "", "is empty"),
    ("dataset", "grid", "g", "ten", "invalid literal for int() with base 10: 'ten'"),
    ("dataset", "grid", "d", "2.0", "invalid literal for int() with base 10: '2.0'"),
    ("dataset", "grid", "seed", "", "invalid literal for int() with base 10: ''"),
    ("kernel", None, "family", "rbf", "'rbf' is not one of se, matern52"),
    ("kernel", None, "metric", "0.25, x", "could not convert string to float: 'x'"),
    ("kernel", None, "theta_f", "two", "could not convert string to float: 'two'"),
    ("kernel", None, "sigma2", "1e-2.5", "could not convert string to float: '1e-2.5'"),
    ("methods", None, "list", "exact, kmgc", f"'kmgc' is not one of {', '.join(harness.METHODS)}"),
    ("schedule", None, "steps", "1:2:3", "too many values to unpack (expected 2)"),
    ("schedule", None, "repetitions", "two", "invalid literal for int() with base 10: 'two'"),
    ("schedule", None, "fixed_m", "2.5", "invalid literal for int() with base 10: '2.5'"),
    ("schedule", None, "kmcg_m", "all", "invalid literal for int() with base 10: 'all'"),
    ("schedule", None, "inducing_cap", "many", "invalid literal for int() with base 10: 'many'"),
    ("schedule", None, "seed", "-", "invalid literal for int() with base 10: '-'"),
    ("output", None, "path", "", "is empty"),
]

# Each key with no default: (section, dataset source whose key it is, key).
_REQUIRED = [("kernel", None, "sigma2"), ("dataset", "csv", "path"), ("dataset", "csv", "target"),
             ("dataset", "series-csv", "path")]


def _table():
    """Every (section, dataset source or None, key, key spec) the config reads."""
    rows = [(section, None, key, spec) for section, keys in cli._SECTIONS.items() for key, spec in keys.items()]
    return rows + [("dataset", source, key, spec) for source, (_, keys) in cli._SOURCES.items()
                   for key, spec in keys.items()]


def test_the_key_cases_cover_the_table():
    table = {(section, source, key) for section, source, key, _ in _table()}
    assert {case[:3] for case in _UNPARSABLE} == table
    assert set(_REQUIRED) == {(section, source, key) for section, source, key, spec in _table()
                              if spec[2] is cli._REQUIRED}


def _case_id(case):
    section, source, *rest = case
    # The [schedule] cases keep the ids they had when only that section was named.
    prefix = () if section == "schedule" else tuple(filter(None, (section, source)))
    return "-".join((*prefix, *rest))


@pytest.mark.parametrize("section, source, key, value, message", _UNPARSABLE, ids=map(_case_id, _UNPARSABLE))
def test_run_with_an_unparsable_schedule_value_names_the_key(tmp_path, section, source, key, value, message):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    _write_config(config_path, records_path, source, [(section, key, value)])
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    assert raised.value.code == f"error: [{section}] {key}: {message}"
    assert not records_path.exists()


@pytest.mark.parametrize("section, source, key", _REQUIRED)
def test_run_without_a_required_key_names_it(tmp_path, section, source, key):
    # A csv without a path once ended in a TypeError traceback, and one
    # without a target in "target column None not found".
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    _write_config(config_path, records_path, source, [(section, key, None)])
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    assert raised.value.code == f"error: [{section}] {key}: missing, and it has no default"
    assert not records_path.exists()


def test_run_without_a_methods_section_runs_every_method(tmp_path):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    _write_config(config_path, records_path, None)
    assert cli.main(["run", "--config", str(config_path)]) == 0
    assert {r.method for r in read_records_csv(records_path)} == set(harness.METHODS)


def test_run_with_an_empty_method_list_is_one_line_error(tmp_path):
    # It once fitted the exact oracle and wrote a header-only CSV.
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    text = _TOY_CONFIG.format(records=records_path)
    config_path.write_text(text.replace("[schedule]", "[methods]\nlist =\n\n[schedule]"))
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    assert raised.value.code == "error: [methods] list: is empty"
    assert not records_path.exists()


# Values that parse but are out of range: (section, key, value, message).
_OUT_OF_RANGE = [
    ("methods", "list", ", ,", "is empty"),
    ("kernel", "sigma2", "inf", "must be positive and finite, got inf"),
    ("kernel", "sigma2", "0", "must be positive and finite, got 0.0"),
    ("kernel", "theta_f", "inf", "must be positive and finite, got inf"),
    ("kernel", "theta_f", "nan", "must be positive and finite, got nan"),
    ("kernel", "metric", "0.25, -1", "must be positive and finite, got -1.0"),
    ("schedule", "steps", "5:1", "is empty"),
    ("schedule", "steps", "-1:2", "must be at least 0, got -1"),
    ("schedule", "steps", "1, 1", "must be distinct, got 1, 1"),
    ("schedule", "steps", "2, 1, 2", "must be distinct, got 2, 1, 2"),
    ("schedule", "repetitions", "0", "must be at least 1, got 0"),
    ("schedule", "fixed_m", "0", "must be at least 1, got 0"),
    ("schedule", "kmcg_m", "0", "must be at least 1, got 0"),
    ("schedule", "inducing_cap", "0", "must be at least 1, got 0"),
    ("schedule", "seed", "-1", "must be at least 0, got -1"),
]


@pytest.mark.parametrize("source", [None, "csv"])
@pytest.mark.parametrize("section, key, value, message", _OUT_OF_RANGE)
def test_run_with_an_out_of_range_value_names_the_key_before_reading_data(tmp_path, source, section, key, value,
                                                                          message):
    # These once surfaced after the data file was read (a csv path that does
    # not exist reported the missing file first) and named no key; an
    # infinite theta_f ended in "array must not contain infs or NaNs", and
    # steps = 5:1 in "the step schedule must be nonempty".
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    _write_config(config_path, records_path, source,
                  [("dataset", "path", str(tmp_path / "missing.csv"))] * (source == "csv") + [(section, key, value)])
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--config", str(config_path)])
    assert raised.value.code == f"error: [{section}] {key}: {message}"
    assert not records_path.exists()


def test_run_with_fixed_m_sets_every_inducing_budget(tmp_path):
    records_path = tmp_path / "records.csv"
    config_path = tmp_path / "config.ini"
    text = _TOY_CONFIG.format(records=records_path)
    config_path.write_text(text.replace("[schedule]", "[methods]\nlist = sor, dtc, fitc, vfe, pbr\n\n"
                                                      "[schedule]\nfixed_m = 5"))
    assert cli.main(["run", "--config", str(config_path)]) == 0
    records = read_records_csv(records_path)
    assert {r.method for r in records} == {"sor", "dtc", "fitc", "vfe", "pbr"}
    assert {r.budget for r in records} == {5}


def test_config_template_reads_only_known_keys(tmp_path):
    # The template names every key the table holds, set or commented out,
    # and the reader accepts the template and the shipped series config.
    template = tmp_path / "template.ini"
    template.write_text(cli.CONFIG_TEMPLATE)
    for path in (template, Path(__file__).parents[1] / "demos" / "series_config_example.ini"):
        cli._read_config(path)
    named, section = set(), None
    for line in cli.CONFIG_TEMPLATE.splitlines():
        section = line[1:-1] if line.startswith("[") else section
        key = re.match(r"(?:; )?(\w+) =", line)
        if key:
            named.add((section, key[1]))
    assert named == {(section, key) for section, _, key, _ in _table()}


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
