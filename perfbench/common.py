"""Shared pieces of the benchmark: paths, percentiles, processes, pins.

Every path the benchmark touches is inside the checkout it runs from:
the program under ``src/`` and ``tools/``, and a work directory
``.perfbench_work/`` at the checkout root (listed in ``.gitignore``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import resource
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIGURE_TOOL = ROOT / "tools" / "make_all_figures.py"
WORK = ROOT / ".perfbench_work"
#: Caches, outputs and logs of the current run; removed when it ends.
RUN = WORK / "run"
#: Span files of traced runs; kept.
TRACES = WORK / "traces"
PINS = Path(__file__).resolve().parent / "pins.json"

#: The seed the pinned digests were taken at; also the figures' default.
DEFAULT_SEED = 1999

#: Short cells every run re-simulates, whatever its seed, and compares
#: with the pinned kernel statistics, sample counts and sample bytes.
SENTINEL_CELLS = (("win98", "games"), ("nt4", "office"))
SENTINEL_DURATION_S = 2.0


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def require_program() -> None:
    """Put ``src`` on the import path, or raise :class:`ProgramMissing`."""
    for needed in (SRC / "repro" / "__init__.py", FIGURE_TOOL):
        if not needed.is_file():
            raise ProgramMissing(f"{needed.relative_to(ROOT)} not found")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for a program subprocess: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def fresh_dir(name: str) -> Path:
    """An empty directory for this run."""
    path = RUN / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# Percentiles: nearest rank, reported with the samples beyond them
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float):
    """``(value, samples beyond it)`` by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_samples(q: float, beyond: int = 10) -> int:
    """Fewest samples that leave ``beyond`` of them past percentile ``q``."""
    n = beyond
    while n - max(1, math.ceil(q * n)) < beyond:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)[0]


# ----------------------------------------------------------------------
# Processes: memory and CPU time
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children(pid: int) -> List[int]:
    """The live child processes of ``pid``."""
    try:
        return [int(child) for child in
                Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except OSError:
        return []


def cpu_ticks(pids: Sequence[int]) -> int:
    """User plus system clock ticks the processes ``pids`` have used."""
    total = 0
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()   # from field 3, the state
        total += int(fields[11]) + int(fields[12])
    return total


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the high-water resident sets of ``pid`` and its children."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
        pending.extend(children(current))
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Pinned values
# ----------------------------------------------------------------------
def load_pins() -> dict:
    return json.loads(PINS.read_text())


def cell_record(result) -> dict:
    """What a pin holds for one cell: kernel statistics, sample count
    and the digest of the serialized sample set."""
    from repro.core.export import sample_set_to_json

    stats = dataclasses.asdict(result.kernel_stats)
    # Intrusion vectors are named with a process-wide sequence number
    # (``intr-hal-cli-5``), which depends on what ran earlier in the
    # process; pin the counts under the names without it.
    stats["per_vector"] = sorted(
        [re.sub(r"-\d+$", "", name), count] for name, count in stats["per_vector"].items())
    return {
        "kernel_stats": stats,
        "samples": len(result.sample_set),
        "sha256": sha256(sample_set_to_json(result.sample_set)),
    }


def sentinel_records() -> Dict[str, dict]:
    """Simulate the sentinel cells (seed-independent, two seconds each)."""
    from repro.core.experiment import ExperimentConfig, run_latency_experiment

    records = {}
    for os_name, workload in SENTINEL_CELLS:
        config = ExperimentConfig(os_name=os_name, workload=workload,
                                  duration_s=SENTINEL_DURATION_S,
                                  seed=DEFAULT_SEED)
        records[f"{os_name}/{workload}"] = cell_record(run_latency_experiment(config))
    return records


def diff_records(label: str, got: Dict[str, dict], pinned: Dict[str, dict]) -> List[str]:
    """One line per cell whose record differs from its pin."""
    problems = []
    for cell in sorted(set(got) | set(pinned)):
        if got.get(cell) != pinned.get(cell):
            problems.append(f"{label} {cell}: simulated statistics or bytes "
                            "differ from the pinned values")
    return problems


def check_sentinels(pins: Optional[dict] = None) -> List[str]:
    pins = pins if pins is not None else load_pins()
    return diff_records("sentinel", sentinel_records(), pins["sentinels"])
