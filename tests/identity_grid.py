"""Print one sha256 per output of a fixed grid, then one of the whole list.

    python tests/identity_grid.py

Runs the plcroute of the `src/` next to this directory.  The grid:
`dlc.cycle_analysis` at max_level 0-6 and `sfn.cycle_analysis` on the five
default models, ring_150 and rand_area_300 (seed 300); `simulate` of both
protocols on those seven models at (cycles, cap, seed) = (2, 2, 5),
(300, 2, 21), (600, 0, 3) and (257, 10000, 7), cap being max_retries;
and the `compare --defaults --cycles 2 --seed 0 -o` document.  An analysis
or report is hashed as repr(dataclasses.asdict(...)), the document as its
bytes.  A change that claims to move no number runs this on its parent
and on itself and compares the two listings; nothing here is pinned yet.
pytest does not collect this file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from plcroute import cli, dlc, sfn  # noqa: E402
from plcroute.channel import (DEFAULT_MODELS, ChannelSpec,  # noqa: E402
                              build_matrix)
from plcroute.simulator import PROTOCOLS, SimConfig, simulate  # noqa: E402

MODELS = (*DEFAULT_MODELS,
          ("ring_150", ChannelSpec(kind="ring", node_count=150)),
          ("rand_area_300", ChannelSpec(kind="rand_area", node_count=300,
                                        seed=300)))
MAX_LEVELS = range(7)
RUNS = ((2, 2, 5), (300, 2, 21), (600, 0, 3), (257, 10000, 7))
COMPARE = ["compare", "--defaults", "--cycles", "2", "--seed", "0"]


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = repr(asdict(data)).encode()
    return hashlib.sha256(data).hexdigest()


def entries():
    """(name, sha256) of each output of the grid, in a fixed order."""
    for name, spec in MODELS:
        per = build_matrix(spec)
        for level in MAX_LEVELS:
            yield (f"dlc.cycle_analysis {name} max_level={level}",
                   _sha(dlc.cycle_analysis(per, level)))
        yield f"sfn.cycle_analysis {name}", _sha(sfn.cycle_analysis(per))
        for protocol in PROTOCOLS:
            for cycles, cap, seed in RUNS:
                cfg = SimConfig(protocol, cycles=cycles, max_retries=cap,
                                seed=seed)
                yield (f"simulate {protocol} {name} cycles={cycles} "
                       f"cap={cap} seed={seed}", _sha(simulate(per, cfg)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "compare.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*COMPARE, "-o", str(path)])
        if code:
            raise SystemExit(f"{' '.join(COMPARE)} exited with {code}")
        yield " ".join([*COMPARE, "-o"]), _sha(path.read_bytes())


def main() -> None:
    lines = []
    for name, digest in entries():
        lines.append(f"{digest}  {name}")
        print(lines[-1], flush=True)
    whole = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{whole}  all {len(lines)} entries")


if __name__ == "__main__":
    main()
