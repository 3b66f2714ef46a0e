"""The command line and the demos, each in a fresh Python process.

tests/test_cli.py calls ``wtanet.cli.main`` in-process.  These tests run
``python -m wtanet``, so they also check ``__main__.py``'s exit status,
the first, uncached parser build, a stdout that has no reader, and the
bits of a model that a new process trains on one BLAS thread or one CPU.
"""

import functools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_iris_like_csv

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def python(*argv, cwd, env=None, preexec_fn=None):
    """Run ``python *argv`` in ``cwd``, importing the package from ``src``."""
    return subprocess.run([sys.executable, *argv], cwd=cwd, preexec_fn=preexec_fn,
                          env={**os.environ, **(env or {}), "PYTHONPATH": str(REPO / "src")},
                          capture_output=True, text=True, timeout=300)


wtanet = functools.partial(python, "-m", "wtanet")


def ok(run):
    assert run.returncode == 0, run.stderr
    return run


def f1_config(path="f1.csv", **sections):
    """A config that trains two units at order 1 on the CSV at ``path``."""
    return json.dumps({"dataset": {"path": path}, "expansion": {"order": 1},
                       "model": {"units": 2}, **sections})


def write_files(work, files):
    """Write each ``name: content`` of ``files`` into ``work``.

    A callable content is called with ``work`` for the text or bytes.
    """
    for name, content in files.items():
        content = content(work) if callable(content) else content
        (work / name).write_bytes(content if isinstance(content, bytes) else content.encode())


@pytest.fixture(scope="module")
def f1(tmp_path_factory):
    """The one f1 CSV (50 rows) and the model trained on it that the
    serving checks share."""
    work = tmp_path_factory.mktemp("f1")
    ok(wtanet("synth", "f1", "f1.csv", "--n", "50", cwd=work))
    (work / "f1.json").write_text(f1_config(ga={"generations": 2}))
    ok(wtanet("--out-dir", "f1-out", "train", "f1.json", cwd=work))
    return work / "f1.csv", work / "f1-out" / "model.json"


SUCCEEDING = [
    pytest.param(["--help"], {}, id="help"),
    pytest.param(["synth", "mackey-glass", "mg.csv", "--length", "200"], {},
                 id="synth-mackey-glass"),
    pytest.param(["kselect", "instance.json"], {"instance.json": '{"x": [3, 1, 2], "k": 2}'},
                 id="kselect"),
    pytest.param(["lp", "box.csv", "--form", "box"], {"box.csv": "1,-2\n0,0\n3,5\n"},
                 id="lp-box"),
]


@pytest.mark.parametrize("argv, files", SUCCEEDING)
def test_command_exits_0(tmp_path, argv, files):
    write_files(tmp_path, files)
    ok(wtanet(*argv, cwd=tmp_path))


def nan_target_in_row_3(work):
    rows = (work / "f1.csv").read_text().splitlines()
    rows[2] = rows[2].rsplit(",", 1)[0] + ",nan"
    return "\n".join(rows) + "\n"


def byte_ff_at_offset_4(work):
    data = (work / "f1.csv").read_bytes()
    return data[:4] + b"\xff" + data[4:]


def format_version_1(work):
    text = (work / "model.json").read_text()
    assert '"format_version": 2' in text
    return text.replace('"format_version": 2', '"format_version": 1')


# each command runs in a directory that holds a copy of the shared
# f1.csv and model.json, plus the files of its row
FAILING = [
    pytest.param(["kselect", "malformed.json"], {"malformed.json": '{"k": 2}'},
                 r"^error:data:", [], None, id="kselect-malformed-instance"),
    pytest.param(["synth", "mackey-glass", "mg-noise.csv", "--noise", "0.1"], {},
                 r"^error:data:", ["mg-noise.csv"], None, id="synth-mackey-glass-noise"),
    pytest.param(["--out-dir", "synth-out", "synth", "f1", "f1-flag.csv", "--n", "5"], {},
                 r"^error:data:", ["f1-flag.csv", "synth-out"], None, id="synth-out-dir"),
    pytest.param(["--out-dir", "nan-out", "train", "nan.json"],
                 {"f1-nan.csv": nan_target_in_row_3,
                  "nan.json": f1_config("f1-nan.csv", ga={"generations": 2})},
                 r"^error:data:", [], None, id="nan-target"),
    pytest.param(["train", "output.json"],
                 {"output.json": f1_config(ga={"generations": 2},
                                           output={"dir": "output-out"})},
                 r"^error:config: unknown key output$", ["output-out"], None,
                 id="output-section"),
    pytest.param(["--out-dir", "duplicate-out", "train", "duplicate.json"],
                 {"duplicate.json": '{"dataset": {"path": "f1.csv"}, "model": {"units": 2}, '
                                    '"expansion": {"order": 1}, "model": {"units": 3}}'},
                 r"^error:config: ", ["duplicate-out"], None, id="duplicate-key"),
    # 10**15 chromosomes ask for 114 PiB, past the 128 TiB user address
    # space, so the allocation fails at once on any host
    pytest.param(["--out-dir", "huge-out", "train", "huge.json"],
                 {"huge.json": f1_config(ga={"population_size": 10**15})},
                 r"^error:train: ", [], 1, id="population-1e15"),
    pytest.param(["--out-dir", "f1.csv", "density", "density.json"],
                 {"density.json": f1_config(ga={"generations": 2},
                                            density={"k_values": [0, 1], "seeds": [0, 1, 2]})},
                 r"^error:write:", [], None, id="density-out-dir-is-a-file"),
    pytest.param(["eval", "model.json", "f1-ff.csv"], {"f1-ff.csv": byte_ff_at_offset_4},
                 r"^error:data: malformed CSV f1-ff\.csv", [], None, id="csv-not-utf8"),
    # only format version 2, which records the training normalization, loads
    pytest.param(["eval", "v1-model.json", "f1.csv"], {"v1-model.json": format_version_1},
                 r"^error:data: model\.format_version", [], None, id="model-format-version-1"),
]


@pytest.mark.parametrize("argv, files, first_line, absent, n_lines", FAILING)
def test_command_exits_1_with_an_error_line(f1, tmp_path, argv, files, first_line, absent,
                                            n_lines):
    for shared in f1:
        shutil.copy(shared, tmp_path)
    write_files(tmp_path, files)
    run = wtanet(*argv, cwd=tmp_path)
    assert run.returncode == 1, run.stderr
    assert re.search(first_line, run.stderr.partition("\n")[0]), run.stderr
    if n_lines is not None:
        assert run.stderr.count("\n") == n_lines, run.stderr
    for path in absent:
        assert not (tmp_path / path).exists()


def test_predict_reads_a_csv_with_a_byte_order_mark(f1, tmp_path):
    csv, model = f1
    (tmp_path / "f1-bom.csv").write_bytes(b"\xef\xbb\xbf" + csv.read_bytes())
    ok(wtanet("predict", model, "f1-bom.csv", "--target-column", "-1", "-o", "bom-pred.csv",
              cwd=tmp_path))
    assert (tmp_path / "bom-pred.csv").read_text().count("\n") == 50


@pytest.mark.parametrize("output", ["/dev/stdout", "/dev/null"])
def test_predict_into_a_file_that_is_not_regular(f1, tmp_path, output):
    # the output is written but not cut to length: a pipe or /dev/null has none
    csv, model = f1
    ok(wtanet("predict", model, csv, "--target-column", "-1", "-o", "pred.csv", cwd=tmp_path))
    run = ok(wtanet("--quiet", "predict", model, csv, "--target-column", "-1", "-o", output,
                    cwd=tmp_path))
    assert run.stdout == ((tmp_path / "pred.csv").read_text()
                          if output == "/dev/stdout" else "")


def test_eval_into_a_pipe_with_no_reader_exits_1_without_an_error_line(f1, tmp_path):
    csv, model = f1
    read, write = os.pipe()
    os.close(read)
    try:
        # the child's stdout is the write end of a pipe whose only read end
        # closed before the child started, so its one write always fails;
        # an empty PYTHONUNBUFFERED leaves stdout block-buffered, as a pipe
        # is by default, so that write is main's flush
        run = wtanet("eval", model, csv, cwd=tmp_path, env={"PYTHONUNBUFFERED": ""},
                     preexec_fn=lambda: os.dup2(write, 1))
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (1, "")


# a c08-shaped training (N_train 7000, K=3, M=4) scores 4 chromosomes a
# block, a product large enough for OpenBLAS to thread, with passes long
# enough for the fitness helper thread, which one CPU leaves out; a
# c04-shaped training (Iris-format classification, K=1, M=6, stratified)
# scores the whole population in one block
TRAININGS = {
    "c08": {"dataset": {"path": "noise.csv"}, "expansion": {"order": 3},
            "model": {"units": 4}, "ga": {"generations": 20},
            "split": {"train_fraction": 0.7}},
    "c04": {"dataset": {"path": "iris.csv", "target_column": -1}, "expansion": {"order": 1},
            "model": {"mode": "classification", "units_per_class": 2},
            "ga": {"generations": 200, "fitness_stagnation_patience": 200},
            "split": {"train_fraction": 0.7, "stratified": True}},
}
LEGS = {
    "one-blas-thread": {"env": {"OPENBLAS_NUM_THREADS": "1"}},
    "one-cpu": {"preexec_fn": lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})},
}


@pytest.fixture(scope="module", params=TRAININGS)
def default_training(request, tmp_path_factory):
    """A directory with a training's data and config, and the model and
    trace it gives under the default BLAS threads and CPUs in ``default``."""
    work = tmp_path_factory.mktemp(request.param)
    if request.param == "c08":
        ok(wtanet("--seed", "4", "synth", "f1", "noise.csv", "--n", "10000",
                  "--noise", "0.1", cwd=work))
    else:
        write_iris_like_csv(work / "iris.csv")
    (work / "config.json").write_text(json.dumps(TRAININGS[request.param]))
    ok(wtanet("--out-dir", "default", "train", "config.json", cwd=work))
    return work


@pytest.mark.parametrize("leg", LEGS)
def test_same_model_and_trace_as_the_default(default_training, leg):
    if leg == "one-cpu" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the default already runs on one CPU")
    work = default_training
    ok(wtanet("--out-dir", leg, "train", "config.json", cwd=work, **LEGS[leg]))
    for name in ("model.json", "trace.csv"):
        assert (work / leg / name).read_bytes() == (work / "default" / name).read_bytes(), name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_exits_0(demo, tmp_path):
    ok(python(demo, cwd=tmp_path))
