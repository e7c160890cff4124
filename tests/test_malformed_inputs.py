"""Malformed inputs end in the documented exit codes, never in a traceback.

One valid file of each kind the CLI reads is mutated by hypothesis (byte
flips, deletions, insertions of troublesome tokens, truncation) and read
back through ``cli.main``: a data file may be accepted (0) or rejected as a
data (2) or numeric (3) error, and a config file accepted (0), rejected as a
usage error (1) or, when it is not JSON at all, as a data error (2).  Every
rejection is one ``plastiscan:`` line that names the file.  The examples are
derandomised, so every run tries the same files.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import plastiscan
from plastiscan.cli import main
from plastiscan.errors import DataError
from plastiscan.raster import LabelGrid, read_label_map

TOKENS = (b"nan", b"-1", b"1e400", b"\xff", b'"', b",", b"{", b"]", b"\n", b"\x00", b"0.5")

# one edit: (kind, position as a fraction of the file, a byte, a token, a length)
EDITS = st.tuples(
    st.sampled_from(("flip", "delete", "insert", "truncate")),
    st.floats(0.0, 1.0),
    st.integers(0, 255),
    st.sampled_from(TOKENS),
    st.integers(1, 8),
)
MUTATIONS = st.lists(EDITS, min_size=1, max_size=3)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(content: bytes, edits) -> bytes:
    data = bytearray(content)
    for kind, where, byte, token, length in edits:
        at = min(int(where * len(data)), max(len(data) - 1, 0))
        if kind == "flip" and data:
            data[at] = byte
        elif kind == "delete":
            del data[at:at + length]
        elif kind == "insert":
            data[at:at] = token
        else:
            del data[at:]
    return bytes(data)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of valid inputs: samples, endmembers, config, a 6 x 4
    stack, its truth map, and small RF and SVM models."""
    home = tmp_path_factory.mktemp("inputs")
    shutil.copy(Path(plastiscan.__file__).parent / "data" / "endmembers.json",
                home / "members.json")
    (home / "cfg.json").write_text('{"n_plastic": 3, "n_water": 5, "seed": 2}\n')
    samples = str(home / "samples.csv")
    for argv in (
        ["synth-data", "--out", samples, "--n-plastic", "8", "--n-water", "16"],
        ["synth-scene", "--out", str(home / "scene.json"), "--truth-out", str(home / "truth.pgm"),
         "--width", "6", "--height", "4", "--patch", "1,1,2,2,1.0"],
        ["train", "--samples", samples, "--model", "2", "--algo", "rf", "--n-trees", "5",
         "--out", str(home / "rf.json")],
        ["train", "--samples", samples, "--model", "2", "--algo", "svm",
         "--out", str(home / "svm.json")],
    ):
        assert main(argv) == 0
    return home


# the file mutated, the command that reads it (names resolved in the work
# directory) and the exit codes it may end with
CASES = {
    "samples": ("samples.csv", ["profile", "--samples", "samples.csv", "--out", "p.csv"],
                {0, 2, 3}),
    "config": ("cfg.json", ["--config", "cfg.json", "synth-data", "--out", "p.csv"],
               {0, 1, 2}),
    "endmembers": ("members.json", ["synth-data", "--endmembers", "members.json",
                                    "--n-plastic", "2", "--n-water", "2", "--out", "p.csv"],
                   {0, 2, 3}),
    "stack-header": ("scene.json", ["predict-scene", "--in", "scene.json", "--model-file",
                                    "rf.json", "--out", "l.pgm"], {0, 2, 3}),
    "stack-payload": ("scene.raw", ["predict-scene", "--in", "scene.json", "--model-file",
                                    "svm.json", "--out", "l.pgm"], {0, 2, 3}),
    "rf-model": ("rf.json", ["predict-scene", "--in", "scene.json", "--model-file", "rf.json",
                             "--out", "l.pgm"], {0, 2, 3}),
    "svm-model": ("svm.json", ["predict-scene", "--in", "scene.json", "--model-file",
                               "svm.json", "--out", "l.pgm"], {0, 2, 3}),
}


@pytest.mark.filterwarnings("ignore::plastiscan.spectra.PlausibilityWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_mutated_file_ends_in_a_documented_exit(case, inputs, tmp_path, monkeypatch, capsys):
    name, argv, codes = CASES[case]
    for path in inputs.iterdir():
        shutil.copy(path, tmp_path / path.name)
    monkeypatch.chdir(tmp_path)
    valid = (inputs / name).read_bytes()

    @PROPERTY
    @given(MUTATIONS)
    def check(edits):
        (tmp_path / name).write_bytes(mutate(valid, edits))
        code = main(argv)
        err = capsys.readouterr().err
        assert code in codes, err
        if code:
            assert err.startswith("plastiscan: ") and err.count("\n") == 1, err
            assert name in err, err

    check()


@PROPERTY
@given(MUTATIONS)
def test_mutated_label_map_reads_or_raises_a_data_error(inputs, edits):
    path = inputs / "mutated.pgm"
    path.write_bytes(mutate((inputs / "truth.pgm").read_bytes(), edits))
    try:
        assert isinstance(read_label_map(path), LabelGrid)
    except DataError:
        pass
