"""Print one sha256 per output of a fixed grid, then one of the whole list.

    python -W error::RuntimeWarning tests/identity_grid.py

Runs the plcroute of the `src/` next to this directory.  The grid:
`dlc.cycle_analysis` at max_level 0-6 and `sfn.cycle_analysis` on the five
default models, ring_150 and rand_area_300 (seed 300); `simulate` of both
protocols on those seven models at (cycles, cap, seed) = (2, 2, 5),
(300, 2, 21), (600, 0, 3) and (257, 10000, 7), cap being max_retries;
the `compare --defaults --cycles 2 --seed 0 -o` document; both analyses
of ring_1000 (about 8 s, most of it the SFN analysis's 1,998 uplink
floods); `sample_first_success_levels` toward every slave of ring_10
and of rand_area_20; the `analyze --format json` document of each default
model, saved as digest-models/<name>.per in a temporary directory, which
the document names by that relative path; and `sfn.level_distribution`
toward every slave of ring_10 and of rand_area_20, from the master's
flood.  An analysis or report is hashed as repr(dataclasses.asdict(...)),
a document as its bytes, a model's sampled levels as the bytes of their
arrays in slave order, and a model's level distributions as the bytes of
each pi followed by the repr of (mean_level, truncated_mass, unreachable),
in slave order.  Entries were appended in groups, so the first 113 lines
are the listing of the grid before the ring_1000 and sampler entries, and
the first 117 the listing before the analyze and level_distribution
entries.  A change that claims to move no number runs this on its parent
and on itself and compares the two listings; nothing here is pinned yet.
With -W error::RuntimeWarning, a numpy warning anywhere in the grid ends
the run.  pytest does not collect this file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from plcroute import cli, dlc, sfn  # noqa: E402
from plcroute.channel import (DEFAULT_MODELS, MASTER,  # noqa: E402
                              ChannelSpec, build_matrix, save_matrix)
from plcroute.simulator import (PROTOCOLS, SimConfig,  # noqa: E402
                                sample_first_success_levels, simulate)

MODELS = (*DEFAULT_MODELS,
          ("ring_150", ChannelSpec(kind="ring", node_count=150)),
          ("rand_area_300", ChannelSpec(kind="rand_area", node_count=300,
                                        seed=300)))
MAX_LEVELS = range(7)
RUNS = ((2, 2, 5), (300, 2, 21), (600, 0, 3), (257, 10000, 7))
COMPARE = ["compare", "--defaults", "--cycles", "2", "--seed", "0"]
RING_1000 = ChannelSpec(kind="ring", node_count=1000)
# (model, trials, seed) of the sampled first-success levels
SAMPLES = (("ring_10", 500, 3), ("rand_area_20", 500, 3))
# models whose level distributions toward every slave are hashed
DISTRIBUTIONS = ("ring_10", "rand_area_20")


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = repr(asdict(data)).encode()
    return hashlib.sha256(data).hexdigest()


def _cli(argv) -> bytes:
    """What `plcroute *argv` writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code:
        raise SystemExit(f"plcroute {' '.join(argv)} exited with {code}")
    return out.getvalue().encode()


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
        _cli([*COMPARE, "-o", str(path)])
        yield " ".join([*COMPARE, "-o"]), _sha(path.read_bytes())
    per = build_matrix(RING_1000)
    yield ("dlc.cycle_analysis ring_1000 max_level=4",
           _sha(dlc.cycle_analysis(per, 4)))
    yield "sfn.cycle_analysis ring_1000", _sha(sfn.cycle_analysis(per))
    for name, trials, seed in SAMPLES:
        per = build_matrix(dict(MODELS)[name])
        levels = b"".join(
            sample_first_success_levels(per, s, trials, seed).tobytes()
            for s in per.slaves)
        yield (f"sample_first_success_levels {name} trials={trials} "
               f"seed={seed}", _sha(levels))
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        # a document names its matrix by the path it was given
        os.chdir(tmp)
        try:
            Path("digest-models").mkdir()
            for name, spec in DEFAULT_MODELS:
                path = f"digest-models/{name}.per"
                save_matrix(build_matrix(spec), path)
                yield (f"analyze --format json {path}",
                       _sha(_cli(["analyze", "--format", "json", path])))
        finally:
            os.chdir(home)
    for name in DISTRIBUTIONS:
        per = build_matrix(dict(MODELS)[name])
        downlink = sfn.flood(per, MASTER)
        dists = (sfn.level_distribution(downlink, s) for s in per.slaves)
        yield f"sfn.level_distribution {name}", _sha(b"".join(
            d.pi.tobytes()
            + repr((d.mean_level, d.truncated_mass, d.unreachable)).encode()
            for d in dists))


def main() -> None:
    lines = []
    for name, digest in entries():
        lines.append(f"{digest}  {name}")
        print(lines[-1], flush=True)
    whole = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{whole}  all {len(lines)} entries")


if __name__ == "__main__":
    main()
