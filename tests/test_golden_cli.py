"""Pinned bytes of every file the CLI verbs write for small fixed-seed runs.

Each digest is the SHA-256 of one output file (CSV, JSON summary or scan
sidecar).  A change to number formatting, quoting, line endings, headers or
sidecars moves at least one of them.  The ``dim`` stabilize run uses an
emitter so faint that some lock-in probes see no photons, so its updates
file has empty error cells.  The ``quoted`` tune-curve run renames two
emitters to ids that csv must quote (a comma with double quotes, and a line
break); its digest was taken from ``csv.writer`` output.
"""

import ast
import contextlib
import csv
import hashlib
import io
import json

import pytest

from snvtune.cli import main
from snvtune.config import default_config_text

SEED = "7"
DIM_CONFIG = "{dim}"
QUOTED_CONFIG = "{quoted}"
QUOTED_IDS = {"axial_hinge": 'hinge, "A"', "axial_mid": "mid\r\nB"}

RUNS = {
    "tune-curve": ["tune-curve", "--steps", "9"],
    "tune-curve-jobs": ["--jobs", "2", "tune-curve", "--steps", "9"],
    "tune-curve-quoted": ["--config", QUOTED_CONFIG, "tune-curve", "--steps", "9"],
    "ple": ["ple", "--emitter", "axial_hinge", "--bias", "0,41", "--points", "21"],
    "ple-expected": ["--expected-value", "ple", "--emitter", "transversal_hinge",
                     "--bias", "0,41", "--points", "21"],
    "inhomo-matched": ["inhomo", "--matched"],
    "inhomo-n": ["inhomo", "--n", "50"],
    "calibrate-pulse": ["calibrate-pulse", "--pulses", "10,50",
                        "--cooldowns", "0,500,3000"],
    "stabilize-dim": ["--config", DIM_CONFIG, "stabilize", "--duration", "60",
                      "--scans", "2"],
    "stabilize-seeds": ["--jobs", "2", "stabilize", "--seeds", "7,8",
                        "--duration", "30", "--scans", "1"],
}

# shifts from TuningCurve's closed form, not the voltage chain's nu_c - nu0
TUNE_CURVE = {
    "tune_curve.csv":
        "9ff645a9caf33ced1d95b2ac9100c807443e339fc9f72a564692d7c325248866",
}

GOLDEN = {
    "tune-curve": TUNE_CURVE,
    "tune-curve-jobs": TUNE_CURVE,
    "tune-curve-quoted": {
        "tune_curve.csv":
            "081967267b57709f95656254b52a70d7c56be2ba5f68d48d5af16d1df4965b93",
    },
    "calibrate-pulse": {
        "pulse_calibration.csv":
            "6d604a42c37760e5bbb18f63b96ecbe47e5f757398e2e282fcc78678bcf1d07d",
    },
    "inhomo-matched": {
        "inhomo_cdf.csv":
            "ce6cc6e7a10614cb0767133125466dfdd14b5dc28c16ec8445428feaf209d178",
        "inhomo_summary.json":
            "bd1a8c1689d951e09b6f6554f1ff4e5dd43000aadf8423887f44eae20eb70ad9",
    },
    "inhomo-n": {
        "inhomo_cdf.csv":
            "e363474be06b00d95523bc98cfa6f2d4bd75c15b30193b6d748585176be0b369",
        "inhomo_summary.json":
            "7ae6101a03bc2c16680de2602fc8c8931d0bde03f0718625c22ae5e0d5e14c37",
    },
    "ple": {
        "ple_axial_hinge_0V.csv":
            "7343d7705cddf4018a5d6602e01fa9265c0a2e2e4443d7553176a379f54510ca",
        "ple_axial_hinge_0V.csv.meta.json":
            "2e65423df7e9c4d914fbba02d59bd6e4458ee6be53eb73504bed60b1a0262bb4",
        "ple_axial_hinge_41V.csv":
            "cc86fed0ea1028fdf11c74ee132af4d3b957ea399cc73f6506dfb98e0f2d2439",
        "ple_axial_hinge_41V.csv.meta.json":
            "8742df8689cf339a44d581aea29b282a02d87f7e64c64a3654a02f2a085111dd",
    },
    "ple-expected": {
        "ple_transversal_hinge_0V.csv":
            "8ea4e9763ac2c07ce8309e1c173456e77a9edb75a8cbcd88c6fa36e8b497d72f",
        "ple_transversal_hinge_0V.csv.meta.json":
            "74e3e19e7b4d714a3aa064a9120e006eb8508879eb54e25f6404298e49ecf394",
        "ple_transversal_hinge_41V.csv":
            "c563eb54e72d872872879fb6fa04b29edc21f3b52edf159deaed1e24bc3605b3",
        "ple_transversal_hinge_41V.csv.meta.json":
            "6a07ffd7f25652e3518e7fb01bfee7501e1786350925cff9e132a9cf5b26ef08",
    },
    "stabilize-dim": {
        "stabilize_scans_7.csv":
            "ffd1415ba0ab43fd686787d24196630e07c5db4f28ef231390cad6d7f7611aef",
        "stabilize_summary_7.json":
            "17e8dde80d2f7d7b326477aec19ff8c091a14a258a5bad3eb826ce87d53b58fc",
        "stabilize_updates_7.csv":
            "1353c64747304028681daac0fe9f9c2ec606916eea5048789ee06d5e15d920d9",
    },
    "stabilize-seeds": {
        "stabilize_scans_7.csv":
            "0464da038a2768acdfeb15c6842d99d2cc1e6b9786d9781cfe1e08ee669d7f7d",
        "stabilize_scans_8.csv":
            "15c3fb315b29675ca433530c516ebc92efe75ee7049d693722ec7787dc71a30a",
        "stabilize_summary_7.json":
            "59368d674e46c6ff11d501d7e97920652d5ebbabf351c29e6a09d74d97b95964",
        "stabilize_summary_8.json":
            "0612dc24fd8d867d98849592717981145965c3bee11a861c7670d7a4ccecd9bb",
        "stabilize_updates_7.csv":
            "012f37f182a035a92c83049be436248c0aa154e33177e56bd19df0d478302b8a",
        "stabilize_updates_8.csv":
            "7f2484403563b7c3a9b6cd36799d5d5c110bfa4548a4f831645a28d56fc3ed84",
    },
}


def dim_config_text() -> str:
    """Default config with a faint axial_hinge, a 1-photon CR threshold and
    1 s scan dwell: some probes count nothing, scans still fit."""
    doc = json.loads(default_config_text())
    emitter = next(e for e in doc["emitters"] if e["id"] == "axial_hinge")
    emitter["peak_rate"]["value"] = 100.0
    emitter["background_rate"]["value"] = 5.0
    doc["control"]["cr_check"]["photon_threshold"] = 1
    doc["control"]["stabilization"]["scan_dwell"]["value"] = 1000.0
    return json.dumps(doc, indent=1)


def quoted_config_text() -> str:
    """Default config with the ``QUOTED_IDS`` renames."""
    doc = json.loads(default_config_text())
    for emitter in doc["emitters"]:
        emitter["id"] = QUOTED_IDS.get(emitter["id"], emitter["id"])
    return json.dumps(doc, indent=1)


def file_digests(tmp_path, label) -> dict[str, str]:
    configs = {"dim": dim_config_text(), "quoted": quoted_config_text()}
    for name, text in configs.items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in configs})
            for a in RUNS[label]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--out", str(out), "--seed", SEED, *argv]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("label", sorted(RUNS))
def test_every_output_file_is_byte_identical(tmp_path, label):
    assert file_digests(tmp_path, label) == GOLDEN[label]


def test_dim_run_writes_empty_error_cells(tmp_path):
    file_digests(tmp_path, "stabilize-dim")
    lines = (tmp_path / "out" / f"stabilize_updates_{SEED}.csv").read_text(
        encoding="utf-8").splitlines()
    assert any(",," in line and line.endswith(",0,0") for line in lines)
    assert any(line.endswith(",1,1") for line in lines)


def test_quoted_emitter_ids_read_back(tmp_path):
    file_digests(tmp_path, "tune-curve-quoted")
    with (tmp_path / "out" / "tune_curve.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["emitter", "bias_V", "shift_GHz", "fwhm_MHz"]
    names = [row[0] for row in rows[1:]]
    assert all(len(row) == 4 for row in rows)
    assert names == [QUOTED_IDS.get(n, n) for n in
                     ("axial_hinge", "axial_mid", "transversal_hinge",
                      "bulk_reference") for _ in range(9)]


def test_unknown_emitter_message_quotes_the_ids(tmp_path, capsys):
    path = tmp_path / "quoted.json"
    path.write_text(quoted_config_text(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--out", str(out), "--config", str(path), "tune-curve",
                 "--emitters", "nope"]) == 2
    err = capsys.readouterr().err
    ids = sorted(QUOTED_IDS.get(n, n) for n in
                 ("axial_hinge", "axial_mid", "transversal_hinge", "bulk_reference"))
    # one line, and the listed ids read back as Python literals
    head, listed = err.split("known ids: ")
    assert head == "error: unknown emitter id 'nope'; " and err.count("\n") == 1
    assert ast.literal_eval(f"[{listed}]") == ids
    assert not out.exists()
