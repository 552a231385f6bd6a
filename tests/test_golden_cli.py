"""Pinned bytes of every file the CLI verbs write for small fixed-seed runs.

Each digest is the SHA-256 of one output file (CSV, JSON summary or scan
sidecar).  A change to number formatting, quoting, line endings, headers or
sidecars moves at least one of them.  The ``dim`` stabilize run uses an
emitter so faint that some lock-in probes see no photons, so its updates
file has empty error cells.
"""

import contextlib
import hashlib
import io
import json

import pytest

from snvtune.cli import main
from snvtune.config import default_config_text

SEED = "7"
DIM_CONFIG = "{dim}"

RUNS = {
    "tune-curve": ["tune-curve", "--steps", "9"],
    "tune-curve-jobs": ["--jobs", "2", "tune-curve", "--steps", "9"],
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

TUNE_CURVE = {
    "tune_curve.csv":
        "ef0edb5e11ef4c8df896a983edb545a54892a27d5153b576c1cf3f3d16a0daf0",
}

GOLDEN = {
    "tune-curve": TUNE_CURVE,
    "tune-curve-jobs": TUNE_CURVE,
    "calibrate-pulse": {
        "pulse_calibration.csv":
            "97463befa15d96093b23e806aca7b8b5f3d41a80dd58100628f456b3dfd9a7e3",
    },
    "inhomo-matched": {
        "inhomo_cdf.csv":
            "c555ba4d9f7437b10172c07b08f89c11cf4a87781f27d215122de8a32cc15e6d",
        "inhomo_summary.json":
            "142539880aa7ac1ea61af78c8e7d5eeb0f063b4144afb7508665ec7568c7dacb",
    },
    "inhomo-n": {
        "inhomo_cdf.csv":
            "ee18bc5f3cb407690aac08ccc345977d0f579d5f5a22b0c031fb1395bb44e03f",
        "inhomo_summary.json":
            "63c6a3828f1f380121f7ec002b8a85ce4906a16592247b29ad65ef1a1d917feb",
    },
    "ple": {
        "ple_axial_hinge_0V.csv":
            "38234150dfe3bc9ccc2d06dea4c1b66f01de8bf6dad8f595c28f8a0990e58c19",
        "ple_axial_hinge_0V.csv.meta.json":
            "2e65423df7e9c4d914fbba02d59bd6e4458ee6be53eb73504bed60b1a0262bb4",
        "ple_axial_hinge_41V.csv":
            "37bbe1620cab28685a4772d16ebc9b6b68f31d6a52844c8594839747825ac233",
        "ple_axial_hinge_41V.csv.meta.json":
            "8742df8689cf339a44d581aea29b282a02d87f7e64c64a3654a02f2a085111dd",
    },
    "ple-expected": {
        "ple_transversal_hinge_0V.csv":
            "fe6b0cd3363cac3865261249f5164b4fc6a83d462ce874d59e864259d091cd4e",
        "ple_transversal_hinge_0V.csv.meta.json":
            "74e3e19e7b4d714a3aa064a9120e006eb8508879eb54e25f6404298e49ecf394",
        "ple_transversal_hinge_41V.csv":
            "e66ee3d827284fd45c153f99966049ca6028ddd61d2e1c506bc52e3c79cff627",
        "ple_transversal_hinge_41V.csv.meta.json":
            "6a07ffd7f25652e3518e7fb01bfee7501e1786350925cff9e132a9cf5b26ef08",
    },
    "stabilize-dim": {
        "stabilize_scans_7.csv":
            "811db62fae06675e550bbc448d8aefa91bdd867c04b6b8b9e24f8644a57274a0",
        "stabilize_summary_7.json":
            "8145d7a1230bc63428d1f329951c9bed38b81e2e36b9723d04590a5063ab7f06",
        "stabilize_updates_7.csv":
            "cb57fdb85af372b7c76838773c047136fdef36fc770d7a0b05b6af6a9ea69586",
    },
    "stabilize-seeds": {
        "stabilize_scans_7.csv":
            "a677ec1aec12f45df2c7d8e33932bc056f495fe6fd2037bb00ad1594378e893e",
        "stabilize_scans_8.csv":
            "04b565555624f484e4f749fc2d06d33186715f131bf0a70d63db7dfe2f3d0d2c",
        "stabilize_summary_7.json":
            "47aba04c5246278ae75ea5bac1cc1128fff11667626ab647ba62c252a92f1e22",
        "stabilize_summary_8.json":
            "d56c0c3e0a47b928b3b4dbe8518d2750d1da30683cae4fff3d24dbbeb5266ddf",
        "stabilize_updates_7.csv":
            "22085ed72e24b3c547dd544f11ae89314b5ddb3252130fdc73d8f29c820dff25",
        "stabilize_updates_8.csv":
            "c56d3b4bb68dc0f5dfca15cf2674bb69de049e59726f46d4f055121ded1bdd1e",
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


def file_digests(tmp_path, label) -> dict[str, str]:
    dim = tmp_path / "dim.json"
    dim.write_text(dim_config_text(), encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(dim=dim) for a in RUNS[label]]
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
