#!/usr/bin/env python3
"""Rewrite ``perfbench/pins.json`` from the program as it is now.

    python3 perfbench/pin.py

Pins the sentinel cells and, at the default seed, the figure artefact
digests and each figure cell's kernel statistics, sample count and
sample-set digest.  Run it only for a change that is meant to alter what
the simulator produces (one that also bumps ``CALIBRATION_VERSION``);
a change meant to be faster only must leave the pins as they are.
"""

from __future__ import annotations

import json
import shutil

from common import DEFAULT_SEED, PINS, RUN, require_program, sentinel_records


def main() -> int:
    require_program()
    from figures import FigureTool, Reference

    try:
        reference = Reference(FigureTool(), DEFAULT_SEED)
    finally:
        shutil.rmtree(RUN, ignore_errors=True)
    pins = {
        "seed": DEFAULT_SEED,
        "sentinels": sentinel_records(),
        "figures": {"artefacts": reference.artefacts, "cells": reference.cells},
    }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
