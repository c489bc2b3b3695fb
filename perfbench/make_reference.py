#!/usr/bin/env python3
"""Regenerate reference.json from the current treewco sources.

    python3 perfbench/make_reference.py

The reference holds digests (see stages.digest) of the analyze reports for
the reference seed of every workload, at both scales.  Regenerate it only
for a deliberate change of report schema or verdicts, in a change of its
own; every run compares against it.
"""

from __future__ import annotations

import json

import run
import stages as S
import workloads as W
from spans import NullTracer


def reference() -> dict:
    null = NullTracer()
    out: dict = {}
    for scale in W.SCALES:
        out[scale] = {}
        for name in W.WORKLOADS:
            plan = W.make_plan(name, run.REFERENCE_SEED, scale)
            built = W.Built(plan, null)
            reports = {
                oid: S.digest(json.loads(S.analyze(null, built.ops[oid], built.window(oid), oid)))
                for oid in plan["analyze"]
            }
            out[scale][name] = {"seed": run.REFERENCE_SEED, "reports": reports}
    return out


if __name__ == "__main__":
    run.REFERENCE_PATH.write_text(json.dumps(reference(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
