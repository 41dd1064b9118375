"""Golden SHA-256 pins on every bundled scenario's report and time series.

The bundled scenarios draw only constant delays, so a second set of pins
covers the random draws: small committed inputs under `tests/fixtures/`
with uniform, normal, exponential and empirical latency, the
`hyperledger-fabric` processing delays, passive drops and the poet lottery.
Their `propagation.csv` (from `--emit-records`) pins every latency draw.

Every run is a pure function of (configuration, seed), and every preset sets
its own seed, so these bytes may only change on purpose. A change that moves
them updates the digests here, says why in CHANGES.md, and bumps the report's
`schema_version` if the format changed.

Each report must also stay small: raw per-message data belongs in the opt-in
side files (`--emit-records`), never in `report.json`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from permachain.cli import EXIT_OK, list_scenarios, load_scenario, main

MAX_REPORT_BYTES = 256 * 1024  # the largest bundled report is ~47 KB

FIXTURES = Path(__file__).parent / "fixtures"

# scenario -> (report.json digest, timeseries.csv digest)
GOLDEN = {
    "pbft-viewchange": (
        "5dd539ad2561c1db52c48ec2b23ce171240592b49abd3fc8efe144f984692118",
        "daa9c7264d6d2b59f507a22c3fe4ca54a2d32f0afdac56ec7a61023a0280454a"),
    "poa-baseline": (
        "8fe6e2552259de980ccde6b0b49535fb0caae5fd1df5c2d4e26d5d4210d8b247",
        "25f02b6c96a4f1b7ed9163ea55f4c4af116cd4b06f4639208055c2772c00b574"),
    "poet-baseline": (
        "bd0a43d104e148f3bac37ccfcfcae8f6277fbbbaa51cd49fb9b90f50ca27d339",
        "42a00e88a3412e7bb4254145c710ca1e2e937cbacff378082e03fbdf06f6ce95"),
    "situation1-desk": (
        "9be0c075608f90f5a5e4e3185aae69e322c6e908b066cf59b70c5656e9f264a9",
        "759ad2d1f348f3459d0da9d2b80d90337b1e72664be9b50b994824fb24a0efd0"),
    "situation1": (
        "caf062d842e0d5e40e8203d73201dc4c16d05fc8b5322a35a8de4ddb6b9801c5",
        "a6a35b640d770c71f206fff27132dae048549303d01fb614a9378800ce360188"),
    "situation2": (
        "d5b53deef251bd78078ab95455a384827d0a55f37f33802794bba7bb6f7a76c0",
        "91f050f4c0546c74c69806899e6a1e1e284090572d3d7e3c82d69dd3f2965ae1"),
    "situation3": (
        "b222b20328eef00d7f7bff5fa63f5cb06d30d6a262f02d76fa93dc2b91e3d20d",
        "daa71305f0a14ffb90c265bfbad1babf59d477e82806fa86a32783362fe7b934"),
    "situation4": (
        "ca64c774a3b72a6e598f16c0b8035d0bbe14663b59c671d4e04b2c00075fc349",
        "1684d2d22e93d8a67ce9f39debbe51a35bcb71e628760db45647f759eb19b4ae"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_bundled_scenario_is_pinned():
    assert sorted(name for name, _ in list_scenarios()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_outputs_match_golden_digests(name, tmp_path):
    assert main(["--scenario", name, "--out", str(tmp_path), "--emit-csv"]) == EXIT_OK
    assert (sha256(tmp_path / "report.json"), sha256(tmp_path / "timeseries.csv")) \
        == GOLDEN[name]
    assert (tmp_path / "report.json").stat().st_size < MAX_REPORT_BYTES


# fixture -> (report.json, timeseries.csv, propagation.csv digests).
#   pbft-quorum-small: perfbench/inputs.py render("pbft-quorum", 1, 0.1), uniform
#     pair latency, hyperledger-fabric delays, active and passive faults;
#   poet-days-small: render("poet-days", 1, 0.05), exponential default latency,
#     uniform pairs, the poet lottery;
#   empirical-pbft: empirical default latency, one normal pair, empirical and
#     normal processing delays, one passive authority.
FIXTURE_GOLDEN = {
    "empirical-pbft": (
        "2889c879da2efebb41148df0821d19ddac8dad2181a3dd7d9df1f2dac3904f0a",
        "07b8e2954d88a74904acfe0d00b5e62506d8655ce416f5d6a27c32415faa03a7",
        "379b0c63d297e04d7586aa9fda6a02a51261062ac28794fecd19221e54b677bf"),
    "pbft-quorum-small": (
        "d81fcbfe394d43eba0dd18e85206b5c878ba6f1c15094325af4362117e1d3589",
        "90832af332c85d105eeb878b8ed078bb0fe9aff463e937e9b0dd8ad693330851",
        "933cdcfcbabe2258fa41e446bdd65fbb8f48b0e07f6375ae231ff02bce86fd62"),
    "poet-days-small": (
        "fe09ccd82b3be91afa1eaf98bb26e592336d8d6ccb419e0fa1881a28057298ae",
        "6c5b85a8cb729924894294451780048d7edabbdbc39455efe68c3c654d5993d6",
        "1d5df7c640736c844cce4b0100f985a140a913342d3e8beeccb3d0d9a0c90717"),
}


def test_every_fixture_is_pinned():
    assert sorted(p.name for p in FIXTURES.iterdir() if p.is_dir()) == sorted(FIXTURE_GOLDEN)


@pytest.mark.parametrize("name", sorted(FIXTURE_GOLDEN))
def test_fixture_outputs_match_golden_digests(name, tmp_path):
    inputs = FIXTURES / name
    assert main(["--config", str(inputs / "config.json"), "--nodes", str(inputs / "nodes.csv"),
                 "--transactions", str(inputs / "transactions.json"), "--out", str(tmp_path),
                 "--emit-csv", "--emit-records"]) == EXIT_OK
    outputs = ("report.json", "timeseries.csv", "propagation.csv")
    assert tuple(sha256(tmp_path / f) for f in outputs) == FIXTURE_GOLDEN[name]


# Constant delays only, no passive node, and a protocol other than poet: no
# run consumes a random draw, so the seed may change nothing but itself.
DRAW_FREE = ("pbft-viewchange", "poa-baseline", "situation1-desk", "situation4")


@pytest.mark.parametrize("name", DRAW_FREE)
def test_draw_free_scenario_report_does_not_depend_on_seed(name, tmp_path):
    reports = []
    for seed in (1, 7):
        out = tmp_path / str(seed)
        assert main(["--scenario", name, "--seed", str(seed), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report.pop("seed") == report["config"].pop("seed") == seed
        reports.append(report)
    config = reports[0]["config"]
    delays = [config["latency"]["default"], *config["processing_delay"].values()]
    assert "pairs" not in config["latency"] and {d["kind"] for d in delays} == {"constant"}
    assert config["protocol"] != "poet"
    assert all(row["byzantine"] != 2 for row in load_scenario(name)["nodes"])
    assert reports[0] == reports[1]
