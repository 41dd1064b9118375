"""Golden SHA-256 pins on every bundled scenario's report and time series.

Every run is a pure function of (configuration, seed), and every preset sets
its own seed, so these bytes may only change on purpose. A change that moves
them updates the digests here, says why in CHANGES.md, and bumps the report's
`schema_version` if the format changed.

Each report must also stay small: raw per-message data belongs in the opt-in
side files (`--emit-records`), never in `report.json`.
"""

import hashlib

import pytest

from permachain.cli import EXIT_OK, list_scenarios, main

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
