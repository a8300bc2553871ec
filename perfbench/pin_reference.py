"""Recompute the pinned analytic references in reference.json.

    PYTHONPATH=src python3 perfbench/pin_reference.py

The benchmark checks every analysis it runs against these values, so rerun
this only when a change is meant to alter the analytic results, and say so
in that change.
"""
from __future__ import annotations

import json

from plcroute import channel, dlc, sfn

from workloads import MAX_LEVEL, REFERENCE_FILE, WORKLOADS, model_spec


def main() -> None:
    names = sorted({name for sizes in WORKLOADS.values()
                    for workload in sizes.values() for name in workload.models})
    reference = {}
    for name in names:
        per = channel.build_matrix(model_spec(name))
        entry = {}
        for protocol, analysis in (
                ("dlc1000", dlc.cycle_analysis(per, MAX_LEVEL)),
                ("sfn", sfn.cycle_analysis(per))):
            entry[protocol] = {"total": analysis.total,
                               "unreachable": list(analysis.unreachable)}
        reference[name] = entry
        print(name, entry["dlc1000"]["total"], entry["sfn"]["total"])
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
