"""Byte-for-byte pins of the CLI's outputs on the bundled reference sweep.

The linear fit, its metrics and its estimates use only fsum, sqrt,
squares and basic arithmetic (no log, exp, LAPACK or random draws), so
these digests hold on any IEEE-754 platform. A change that moves any
output byte fails here; the model's ``created_at`` stamp is left out.
"""

import hashlib

from floodgauge.cli import main
from floodgauge.pipeline import write_calibration_csv
from floodgauge.refdata import reference_dataset

COMMANDS = {
    "fit": ["fit", "--data", "cal.csv", "--model", "linear", "--out", "model.json"],
    "evaluate": ["evaluate", "--model", "model.json", "--data", "cal.csv",
                 "--out-json", "report.json"],
    "estimate": ["estimate", "--model", "model.json", "--events", "cal.csv",
                 "--out", "estimates.csv"],
}

GOLDEN_SHA256 = {
    "fit stdout": "0c3dd053c31f33c98b26d3791738edce5dfaea9c206f68170f3964233930f468",
    "evaluate stdout": "a0f5073d7126d70240b148fa59b959fc9319018140d2ae02e58c29891bf51253",
    "estimate stdout": "35a0456bc23600157354c2c5982f974625d9c289d53a29cf2d0cfebda547bd45",
    "cal.csv": "2e85c7ab2d6dfb5e4837f32fd6335da369cf806b64d31a785e67ef14c1508096",
    "model.json": "7bca09a9214e22e6bfd653127bddd90308bcd6c1ce051fdd445fedf68dfc3167",
    "report.json": "9a25fba452b9c795c727862ebd1a81d8d25fe1099d0042a2d2704297bcd290e6",
    "estimates.csv": "e95bd524349f462dabb662ae43ade871a01dfa9ea2552ec7de66e8444774fafd",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reference_workflow_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    # relative paths keep the temporary directory out of stdout
    monkeypatch.chdir(tmp_path)
    write_calibration_csv("cal.csv", reference_dataset())
    digests = {}
    for name, argv in COMMANDS.items():
        capsys.readouterr()
        assert main(argv) == 0
        digests[f"{name} stdout"] = sha256(capsys.readouterr().out.encode("utf-8"))
    for name in ("cal.csv", "model.json", "report.json", "estimates.csv"):
        lines = (tmp_path / name).read_bytes().splitlines(keepends=True)
        digests[name] = sha256(
            b"".join(line for line in lines if not line.startswith(b'  "created_at": '))
        )
    assert digests == GOLDEN_SHA256
