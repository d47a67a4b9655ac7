"""The SRG manifest sweep against its recorded CSV, timings aside.

``data/srg_sweep.csv`` is the output of

    pathcomplex bench data/srg/manifest.txt \
        --methods wl1,pwl,swl,cwl,pcn,cwn --seeds 0,1 --layers 4 \
        --output-format csv

Every column but ``lift_ms`` and ``forward_ms`` must stay the same: family
order, parameters, pair counts, indistinguishable counts and failure rates.
"""

import csv
import io
import pathlib

from pathcomplex.cli import main

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE.parent / "data" / "srg" / "manifest.txt"
TIMINGS = ("lift_ms", "forward_ms")


def _untimed(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{k: v for k, v in row.items() if k not in TIMINGS} for row in rows]


def test_manifest_sweep_matches_the_recorded_csv(capsys, srg_specs):
    code = main(["bench", str(MANIFEST), "--methods", "wl1,pwl,swl,cwl,pcn,cwn",
                 "--seeds", "0,1", "--layers", "4", "--output-format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    recorded = (HERE / "data" / "srg_sweep.csv").read_text()
    assert out.splitlines()[0] == recorded.splitlines()[0]  # same header
    assert _untimed(out) == _untimed(recorded)
    assert len(_untimed(recorded)) == 56
