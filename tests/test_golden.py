"""Golden SHA-256 pins on every bundled scenario's report and time series.

Every run is a pure function of (configuration, seed), and every preset sets
its own seed, so these bytes may only change on purpose. A change that moves
them updates the digests here, says why in CHANGES.md, and bumps the report's
`schema_version` if the format changed.
"""

import hashlib

import pytest

from permachain.cli import EXIT_OK, list_scenarios, main

# scenario -> (report.json digest, timeseries.csv digest)
GOLDEN = {
    "pbft-viewchange": (
        "3d3fb37a16bfa6001d90b15c22b5fb7f6f968419574805f304f483a399af0858",
        "daa9c7264d6d2b59f507a22c3fe4ca54a2d32f0afdac56ec7a61023a0280454a"),
    "poa-baseline": (
        "29874df421d8b7bab55f395704fa63086c0eb9ccbf4c9fa475b0833621d6ea55",
        "25f02b6c96a4f1b7ed9163ea55f4c4af116cd4b06f4639208055c2772c00b574"),
    "poet-baseline": (
        "5c0376cc4ec5e2c8666bc131f40a7ff92e77c50118cf542a76f2236f729702ee",
        "42a00e88a3412e7bb4254145c710ca1e2e937cbacff378082e03fbdf06f6ce95"),
    "situation1-desk": (
        "5cbe8fe8e6d278bef14fc8217518276829c604c1a8f7a8b1550b8a50e0418e68",
        "759ad2d1f348f3459d0da9d2b80d90337b1e72664be9b50b994824fb24a0efd0"),
    "situation1": (
        "f79c35c6df32dc4bced7ce1585b5c5fc33b532df9f9f7916f470da0849505203",
        "a6a35b640d770c71f206fff27132dae048549303d01fb614a9378800ce360188"),
    "situation2": (
        "1b217e91c9276d06aed7db4de7b96b582b49aff8005b4e4d29e214560e7a3f89",
        "91f050f4c0546c74c69806899e6a1e1e284090572d3d7e3c82d69dd3f2965ae1"),
    "situation3": (
        "358dfb75946c866c703ed46dd1d6b547d317fac452b889ad644d5d6ada88fcd9",
        "daa71305f0a14ffb90c265bfbad1babf59d477e82806fa86a32783362fe7b934"),
    "situation4": (
        "2b89f3800ebca4edc86444b6e4343a4ba683020fe6b471c9b2bfc6d3d8466b11",
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
