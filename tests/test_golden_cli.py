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

TUNE_CURVE = {
    "tune_curve.csv":
        "ef0edb5e11ef4c8df896a983edb545a54892a27d5153b576c1cf3f3d16a0daf0",
}

GOLDEN = {
    "tune-curve": TUNE_CURVE,
    "tune-curve-jobs": TUNE_CURVE,
    "tune-curve-quoted": {
        "tune_curve.csv":
            "2b83c98d17b4d37016d8347541e1c190ab0608ab47940ce73bec6c55cdb951ca",
    },
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
            "c71f58c3a08950e1b464542ec313eef73c6094eb56f79347727c3141f135c4ee",
        "stabilize_summary_7.json":
            "25368eb0f1ceacd27a347e8a2bfe0d0f478512280104e8328d9d7e410c704669",
        "stabilize_updates_7.csv":
            "277a0fb442a1da749243a5ac2ac9a499077063b4941011558739c34a07a789b5",
    },
    "stabilize-seeds": {
        "stabilize_scans_7.csv":
            "9704548a627598bfdf7e008b37a15da35038b2c12eb99643163ad8a9484a3158",
        "stabilize_scans_8.csv":
            "d3c4edf56891a9da1bd205ba381009fc6bb1278dafbea9781cb1a034a146503a",
        "stabilize_summary_7.json":
            "a33ac3de5e94a7b898c8ce87107deb8c5d8a228b94cd214b511b5acf0330a798",
        "stabilize_summary_8.json":
            "245537a026f2b55b32ad66f475c75a522f4c7666bd9aa8882948c5bcbbe568d9",
        "stabilize_updates_7.csv":
            "bc9b8a557c44ac0433e5fba7de0fcd330f43a874649af3722c84436165d306bb",
        "stabilize_updates_8.csv":
            "410d027c6de66a778ab3513bf2008ffc5e17a732bf42486766635a69d6b2dbde",
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
    assert not list(out.iterdir())
