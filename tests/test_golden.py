"""Golden SHA-256 pins on every bundled scenario's report and time series.

The bundled scenarios draw only constant delays, so a second set of pins
covers the random draws: small committed inputs under `tests/fixtures/`
with uniform, normal, exponential and empirical latency, the
`hyperledger-fabric` processing delays, passive drops and the poet lottery.
Their `propagation.csv` (from `--emit-records`) pins every latency draw.
The pins read the files of each input's shared run (`shared_run` in
conftest.py), which `tests/test_cli.py` ties to what `main` writes.

Every run is a pure function of (configuration, seed), and every preset sets
its own seed, so these bytes may only change on purpose. A change that moves
them updates the digests here, says why in CHANGES.md, and bumps the report's
`schema_version` if the format changed.

Each report must also stay small: raw per-message data belongs in the opt-in
side files (`--emit-records`), never in `report.json`.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permachain
from conftest import FIXTURES
from permachain.cli import EXIT_OK, list_scenarios, load_scenario, main

MAX_REPORT_BYTES = 256 * 1024  # the largest bundled report is ~47 KB

# scenario -> (report.json digest, timeseries.csv digest)
GOLDEN = {
    "pbft-viewchange": (
        "5dd539ad2561c1db52c48ec2b23ce171240592b49abd3fc8efe144f984692118",
        "daa9c7264d6d2b59f507a22c3fe4ca54a2d32f0afdac56ec7a61023a0280454a"),
    "poa-baseline": (
        "8fe6e2552259de980ccde6b0b49535fb0caae5fd1df5c2d4e26d5d4210d8b247",
        "25f02b6c96a4f1b7ed9163ea55f4c4af116cd4b06f4639208055c2772c00b574"),
    "poet-baseline": (
        "fbbcb07166d327c924789d49c2a118165a57b6b7dd6541c6e2fab3500eea71a2",
        "d01b696a0844ce37049091a3d80b549e24e5d7f1ef74e90eb89de555fadc01d6"),
    "situation1-desk": (
        "9be0c075608f90f5a5e4e3185aae69e322c6e908b066cf59b70c5656e9f264a9",
        "759ad2d1f348f3459d0da9d2b80d90337b1e72664be9b50b994824fb24a0efd0"),
    "situation1": (
        "caf062d842e0d5e40e8203d73201dc4c16d05fc8b5322a35a8de4ddb6b9801c5",
        "a6a35b640d770c71f206fff27132dae048549303d01fb614a9378800ce360188"),
    "situation2": (
        "c635012e2588468b80c832c3ddab95e876171cc755dc41279b45bcadd7c77bcd",
        "59785cacdb4b1e6759280f04ace8b994a779083741044d3661bb70d9ccc9de0f"),
    "situation3": (
        "905ed42f0e0e9c6726e08293a5408840e0a655a368d73054e36350db5a4aae3b",
        "854d382ae9414dd55b4d57ee3d453276861934755664c71106148aeebc9bece8"),
    "situation4": (
        "ca64c774a3b72a6e598f16c0b8035d0bbe14663b59c671d4e04b2c00075fc349",
        "1684d2d22e93d8a67ce9f39debbe51a35bcb71e628760db45647f759eb19b4ae"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_bundled_scenario_is_pinned():
    assert sorted(name for name, _ in list_scenarios()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_outputs_match_golden_digests(name, shared_run):
    out = shared_run(name).out
    assert (sha256(out / "report.json"), sha256(out / "timeseries.csv")) == GOLDEN[name]
    assert (out / "report.json").stat().st_size < MAX_REPORT_BYTES


# fixture -> (report.json, timeseries.csv, propagation.csv digests).
#   pbft-quorum-small: perfbench/inputs.py render("pbft-quorum", 1, 0.1), uniform
#     pair latency, hyperledger-fabric delays, active and passive faults;
#   poet-days-small: render("poet-days", 1, 0.05), exponential default latency,
#     uniform pairs, the poet lottery;
#   empirical-pbft: empirical default latency, one normal pair, empirical and
#     normal processing delays, one passive authority.
FIXTURE_GOLDEN = {
    "empirical-pbft": (
        "1b41dad08a3fa6962e82b396dbfd9061189fe5420402008dc3cfdf856eb55e22",
        "e4a4aa3c706155286be348cd3edcf0f89b74226cb19cb78a6bf0b193d2dd9c1b",
        "e72dca829644b881aeea6fc391eb09bd7ad3ccd0c60b4c03f81600ade1d14a33"),
    "pbft-quorum-small": (
        "92817f4c4273ff520321e8ff2ed98c75e87600ef4869667af5b6ccc610ac8fb0",
        "e5595f3ae61b48c224feae6fb1ff4101613f9b87cf397669cb45fc090880192c",
        "15633586382cbe176619d9430f0debff8ebf42b17ca3680fd12cb7f26b064e08"),
    "poet-days-small": (
        "518f06225de15dc0f662cc599faadc59b03633c79f7bd3faed80ab3b43e59637",
        "b352bdea3fdf25a7613a0ce20e2db093bb9ca47c33f6c85efc02e617086a9217",
        "64c02d0d7c78d99e657c76bcc774f7031e61128b0e142366fb33755b644369a2"),
}


def test_every_fixture_is_pinned():
    assert sorted(p.name for p in FIXTURES.iterdir() if p.is_dir()) == sorted(FIXTURE_GOLDEN)


@pytest.mark.parametrize("name", sorted(FIXTURE_GOLDEN))
def test_fixture_outputs_match_golden_digests(name, shared_run):
    out = shared_run(name).out
    outputs = ("report.json", "timeseries.csv", "propagation.csv")
    assert tuple(sha256(out / f) for f in outputs) == FIXTURE_GOLDEN[name]


# Constant delays only, no passive node, and a protocol other than poet: no
# run consumes a random draw, so the seed may change nothing but itself.
DRAW_FREE = ("pbft-viewchange", "poa-baseline", "situation1-desk", "situation4")


@pytest.mark.parametrize("name", DRAW_FREE)
def test_draw_free_scenario_report_does_not_depend_on_seed(name, shared_run, tmp_path):
    # the shared run is at the preset's seed, 1
    assert main(["--scenario", name, "--seed", "7", "--out", str(tmp_path)]) == EXIT_OK
    reports = []
    for seed, out in ((1, shared_run(name).out), (7, tmp_path)):
        report = json.loads((out / "report.json").read_text())
        assert report.pop("seed") == report["config"].pop("seed") == seed
        reports.append(report)
    config = reports[0]["config"]
    delays = [config["latency"]["default"], *config["processing_delay"].values()]
    assert "pairs" not in config["latency"] and {d["kind"] for d in delays} == {"constant"}
    assert config["protocol"] != "poet"
    assert all(row["byzantine"] != 2 for row in load_scenario(name)["nodes"])
    assert reports[0] == reports[1]


# Runs the CLI with numpy made unimportable: any `import numpy` raises ImportError.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from permachain.cli import main
out = sys.argv[1]
sys.exit(max(main(["--scenario", name, "--out", f"{out}/{name}", "--emit-csv"])
             for name in sys.argv[2:]))
"""


def test_simulator_runs_without_numpy(tmp_path):
    names = ("poet-baseline", "situation3")  # the lottery and passive drops both draw
    src = str(Path(permachain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, str(tmp_path), *names],
                          env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    for name in names:
        assert (sha256(tmp_path / name / "report.json"),
                sha256(tmp_path / name / "timeseries.csv")) == GOLDEN[name]
