"""The figures workloads: regenerate the paper's artefact set in-process.

The program measured is ``tools/make_all_figures.py`` itself, loaded as a
module and driven through its ``main()``: the nine cells it runs (2 OS x
4 workloads plus the Figure 5 virus-scanner cell) go through
``run_campaign(jobs=1, cache_dir=...)`` and every table and figure is
rendered and written.

* ``figures-cold`` regenerates from an empty cache, so simulation does
  almost all of the work and every cell is written to the cache.
* ``figures-warm`` regenerates from a cache that set-up filled, so no cell
  is simulated: the work is cache reads, fingerprint checks, sample-set
  decoding and rendering.

Both run pinned to one CPU, with a calibration loop after every cell and
every regeneration; every timing is rescaled by the loops around it
(``calibrate.py``).

Run as a script (``python3 perfbench/figures.py OUT_DIR SEED CACHE_DIR``),
it is ``figures-warm``'s set-up: one regeneration into ``CACHE_DIR``,
timed in that process.

Every artefact and cache entry is compared byte for byte with a serial,
uncached regeneration made after the timed phase, and at the pinned seed
also with the pinned digests and per-cell kernel statistics.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import calibrate
from calibrate import Speedometer
from common import (
    DEFAULT_SEED,
    FIGURE_TOOL,
    cell_record,
    diff_records,
    fresh_dir,
    median,
    min_samples,
    percentile,
    program_env,
    require_program,
    self_peak_rss_mb,
    sha256,
)

#: Simulated seconds per cell.
CELL_S = 5.0

#: Nominal host seconds of one regeneration on the reference machine
#: (2 CPUs, Python 3.11); the pass counts below are sized from them so a
#: run measures about ``--seconds``.  They fix the work, not the result.
COLD_PASS_S = 3.3
WARM_PASS_S = 0.15

MIN_COLD_PASSES = 5
#: Enough passes for the p90 printed beside ``op_p50_ms`` to have ten
#: passes beyond it.
MIN_WARM_PASSES = min_samples(0.9)

#: Fresh interpreters timed for ``figures-cold`` set-up (median reported).
SETUP_REPEATS = 5

RENDER_SPANS = ("report.figure4", "worst_case.table3", "histogram.figure5",
                "mttf.figure6_7", "report.section4")


def cell_label(config) -> str:
    label = f"{config.os_name}/{config.workload}"
    return label + ("+" + config.extra_profile.name if config.extra_profile else "")


class FigureTool:
    """``tools/make_all_figures.py`` loaded as a module and run in-process,
    on one CPU, with the calibration loops (``calibrate.py``) on that CPU
    before the first regeneration, after each one and after each cell.

    The campaign's ``run_latency_experiment`` is wrapped by a timer (not a
    tracer: nine calls per regeneration), so every simulated cell leaves
    its label and host interval in :attr:`cells`; every regeneration
    leaves its host interval, less the loops run inside it, in
    :attr:`passes`.  The readers below rescale them once the loops after
    them have run.
    """

    def __init__(self) -> None:
        import repro.core.campaign as campaign
        import repro.core.experiment as experiment

        spec = importlib.util.spec_from_file_location("make_all_figures", FIGURE_TOOL)
        self.module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.module)
        self.cpu = calibrate.cpus()[-1]
        calibrate.pin(self.cpu)   # inherited by the interpreters it starts
        self.speed = Speedometer()
        self.cells: List[Tuple[str, float, float, float]] = []
        self.sim_s: Dict[str, float] = {}
        self.passes: List[Tuple[float, float, float, int, int]] = []
        self._inner_ms = 0.0      # calibration inside regenerations
        self.loop()

        def timed_cell(config):
            start = time.perf_counter()
            # Looked up per call, so a traced run can wrap it.
            result = experiment.run_latency_experiment(config)
            end = time.perf_counter()
            label = cell_label(config)
            self.cells.append((label, start, end, end - start))
            self.sim_s[label] = config.warmup_s + config.duration_s
            self._inner_ms += self.loop()
            return result

        campaign.run_latency_experiment = timed_cell

    def loop(self) -> float:
        return self.speed.loop(self.cpu)

    def run_program(self, args: List[str]) -> float:
        """``python <args>`` in a fresh interpreter on this CPU; its
        rescaled seconds."""
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=program_env(), check=True,
                       stdout=subprocess.DEVNULL)
        end = time.perf_counter()
        self.loop()
        return self.speed.rescale(end - start, start, end, self.cpu)

    def fill(self, out_dir: Path, seed: int, cache_dir: Path) -> float:
        """``figures-warm`` set-up: one regeneration into ``cache_dir`` in
        a process of its own on this CPU (:func:`_fill_main`), so this
        process never simulates.  Its rescaled seconds: the regeneration
        as the child rescaled it, cell by cell, plus the rest of the
        child's life (interpreter start, imports) rescaled here."""
        start = time.perf_counter()
        child = subprocess.run([sys.executable, __file__, str(out_dir), str(seed), str(cache_dir)],
                               env=program_env(), check=True, stdout=subprocess.PIPE, text=True)
        end = time.perf_counter()
        self.loop()
        timed = json.loads(child.stdout.splitlines()[-1])
        rest_s = end - start - timed["host_s"]
        return self.speed.rescale(rest_s, start, end, self.cpu) + timed["regeneration_s"]

    def regenerate(self, out_dir: Path, seed: int, cache_dir: Path = None) -> int:
        """One regeneration from a collected heap; returns its index in
        :attr:`passes`."""
        argv = ["make_all_figures.py", str(CELL_S), str(out_dir), "--seed", str(seed)]
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        saved_argv, sys.argv = sys.argv, argv
        inner_ms, first_cell = self._inner_ms, len(self.cells)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                gc.collect()
                start = time.perf_counter()
                status = self.module.main()
                end = time.perf_counter()
        finally:
            sys.argv = saved_argv
        if status != 0:
            raise RuntimeError(f"make_all_figures exited {status}")
        host_s = end - start - (self._inner_ms - inner_ms) / 1000.0
        self.passes.append((start, end, host_s, first_cell, len(self.cells)))
        self.loop()
        return len(self.passes) - 1

    def seconds(self, index: int) -> float:
        """Regeneration ``index``, rescaled."""
        start, end, host_s, _, _ = self.passes[index]
        return self.speed.rescale(host_s, start, end, self.cpu)

    def host_s(self, indices) -> float:
        """Median raw host seconds of the regenerations ``indices``."""
        return statistics.median(self.passes[i][2] for i in indices)

    def _cell_medians(self, indices) -> Dict[str, float]:
        """Each cell's median rescaled seconds over regenerations ``indices``."""
        by_cell: Dict[str, List[float]] = {}
        for i in indices:
            _, _, _, first, last = self.passes[i]
            for label, start, end, host_s in self.cells[first:last]:
                by_cell.setdefault(label, []).append(
                    self.speed.rescale(host_s, start, end, self.cpu))
        return {label: statistics.median(times) for label, times in by_cell.items()}

    def host_s_per_sim_s(self, indices) -> float:
        """Seconds per simulated second over every cell of one regeneration,
        from each cell's median over the regenerations ``indices``."""
        medians = self._cell_medians(indices)
        return sum(medians.values()) / sum(self.sim_s[label] for label in medians)

    def regeneration_times(self, indices) -> List[float]:
        """Seconds of each regeneration ``indices``: its cells, each
        rescaled by the loops on either side of it, plus the rest of the
        regeneration (cache, rendering) rescaled by the loops around it."""
        times = []
        for i in indices:
            start, end, host_s, first, last = self.passes[i]
            cells = self.cells[first:last]
            rest_s = host_s - sum(cell[3] for cell in cells)
            times.append(sum(self.speed.rescale(cell_s, cell_start, cell_end, self.cpu)
                             for _, cell_start, cell_end, cell_s in cells)
                         + self.speed.rescale(rest_s, start, end, self.cpu))
        return times

    def regeneration_s(self, indices) -> float:
        """Seconds of one regeneration: each cell's median over the
        regenerations ``indices``, plus the median of the rest of a
        regeneration (cache, rendering).  A cell is rescaled by the loops
        on either side of it, which follows the machine's speed more
        closely than the loops around a whole regeneration do."""
        rest = []
        for i in indices:
            start, end, host_s, first, last = self.passes[i]
            cells_s = sum(cell[3] for cell in self.cells[first:last])
            rest.append(self.speed.rescale(host_s - cells_s, start, end, self.cpu))
        return sum(self._cell_medians(indices).values()) + statistics.median(rest)


def artefacts(out_dir: Path) -> Dict[str, str]:
    """Digest of every artefact file the tool wrote."""
    return {path.name: sha256(path.read_bytes()) for path in sorted(out_dir.iterdir())}


def cache_entries(cache_dir: Path) -> Dict[str, str]:
    """Cache key -> digest of the stored sample-set bytes."""
    return {
        path.stem: sha256(json.loads(path.read_text())["sample_set"])
        for path in sorted(cache_dir.glob("*.json"))
    }


class Reference:
    """A serial, uncached regeneration, made after the timed phase."""

    def __init__(self, tool: FigureTool, seed: int):
        import repro.core.campaign as campaign

        self.cells: Dict[str, dict] = {}   # cell label -> pinned-style record
        self.keys: Dict[str, str] = {}     # cache key -> sample-set digest
        simulate = campaign.run_latency_experiment

        def recording(config):
            result = simulate(config)
            record = cell_record(result)
            self.cells[cell_label(config)] = record
            self.keys[campaign.cache_key(config)] = record["sha256"]
            return result

        out_dir = fresh_dir("reference")
        campaign.run_latency_experiment = recording
        try:
            tool.regenerate(out_dir, seed)
        finally:
            campaign.run_latency_experiment = simulate
        self.artefacts = artefacts(out_dir)

    def problems_against_pins(self, seed: int, pins: dict) -> List[str]:
        """At the pinned seed: artefact digests and per-cell statistics."""
        if seed != DEFAULT_SEED:
            return []
        problems = diff_records("figures cell", self.cells, pins["figures"]["cells"])
        if self.artefacts != pins["figures"]["artefacts"]:
            problems.append("figures artefacts differ from the pinned digests")
        return problems


class Tally:
    """Operations compared with the reference: attempted and mismatched."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def compare(self, what: str, got: Dict[str, str], expected: Dict[str, str]) -> None:
        for name in sorted(set(got) | set(expected)):
            self.attempted += 1
            if got.get(name) != expected.get(name):
                self.failed += 1
                self.problems.append(f"{what} {name} differs from the serial run")

    def add(self, problems: List[str]) -> None:
        self.problems.extend(problems)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def interpreter_setup_s(tool: FigureTool) -> float:
    """Median rescaled seconds to start the figure tool's interpreter and
    import everything it needs (``--help`` exits after the imports)."""
    return statistics.median(tool.run_program([str(FIGURE_TOOL), "--help"])
                             for _ in range(SETUP_REPEATS))


def run_cold(seed: int, seconds: float, pins: dict) -> Tuple[dict, Tally, list]:
    tool = FigureTool()
    setup_s = interpreter_setup_s(tool)
    passes = range(max(MIN_COLD_PASSES, round(seconds / COLD_PASS_S)))
    outputs = []
    for _ in passes:
        cache_dir, out_dir = fresh_dir("cold/cache"), fresh_dir("cold/out")
        tool.regenerate(out_dir, seed, cache_dir)
        outputs.append((artefacts(out_dir), cache_entries(cache_dir)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (tool.regeneration_s(passes), "s"),
        "op_p50_ms": (median(tool.regeneration_times(passes)) * 1000.0, "ms"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    reference = Reference(tool, seed)
    tally = Tally()
    for produced, entries in outputs:
        tally.compare("artefact", produced, reference.artefacts)
        tally.compare("cache entry", entries, reference.keys)
    tally.add(reference.problems_against_pins(seed, pins))
    metrics["ok_frac"] = (tally.ok_frac, "frac")
    notes = [f"op_p50_ms over n={len(passes)} cold regenerations of "
             f"{len(reference.cells)} cells x {CELL_S:g} simulated s "
             f"(raw host median {tool.host_s(passes):.3f} s); wall_s from each cell's median",
             f"host_s_per_sim_s {tool.host_s_per_sim_s(passes):.5f} (each cell's median)"]
    return metrics, tally, notes


def run_warm(seed: int, seconds: float, pins: dict) -> Tuple[dict, Tally, list]:
    tool = FigureTool()
    cache_dir, out_dir = fresh_dir("warm/cache"), fresh_dir("warm/out")
    # Set-up fills the cache in a process of its own, so this process never
    # simulates and its peak RSS is that of the warm passes.
    setup_s = tool.fill(fresh_dir("warm/setup"), seed, cache_dir)
    filled = cache_entries(cache_dir)
    passes = range(max(MIN_WARM_PASSES, round(seconds / WARM_PASS_S)))
    outputs = []
    for _ in passes:
        tool.regenerate(out_dir, seed, cache_dir)
        outputs.append(artefacts(out_dir))
    peak_rss_mb = self_peak_rss_mb()
    simulated_in_passes = len(tool.cells)
    times = [tool.seconds(i) for i in passes]
    reference = Reference(tool, seed)
    tally = Tally()
    tally.compare("cache entry", filled, reference.keys)
    for produced in outputs:
        tally.compare("artefact", produced, reference.artefacts)
    tally.add(reference.problems_against_pins(seed, pins))
    if simulated_in_passes:
        tally.add([f"{simulated_in_passes} warm cells missed the cache"])
    p50, beyond50 = percentile(times, 0.5)
    p90, beyond90 = percentile(times, 0.9)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (tally.ok_frac, "frac"),
        "op_p50_ms": (p50 * 1000.0, "ms"),
    }
    notes = [f"op_p50_ms (one pass) over n={len(times)} ({beyond50} beyond)",
             f"pass p90 {p90 * 1000.0:.3f} ms over n={len(times)} ({beyond90} beyond)",
             f"raw host pass median {tool.host_s(passes) * 1000.0:.1f} ms"]
    return metrics, tally, notes


# ----------------------------------------------------------------------
# Traced run: spans around the calls into each layer
# ----------------------------------------------------------------------
TRACED_WARM_PASSES = 10


def _trace_targets(tool: FigureTool, cells: list, gets: list) -> list:
    import repro.core.campaign as campaign
    import repro.core.experiment as experiment
    from repro.core.histogram import LatencyHistogram
    from repro.core.report import OsComparison
    from repro.core.worst_case import WorstCaseTable
    from repro.drivers.latency import WdmLatencyTool
    from repro.hw.machine import Machine

    measuring = set()  # machines whose latency tool has started

    def on_cell(result, args):
        engine, stats = result.os.machine.engine, result.kernel_stats
        config = result.config
        measuring.clear()
        cells.append({
            "sim_s": config.warmup_s + config.duration_s,
            "warmup_s": config.warmup_s,
            "duration_s": config.duration_s,
            "events": engine.events_processed,
            "interpreted_frames": engine.interpreted_frames,
            "tape_frames": engine.tape_frames,
            "ticks_fast_forwarded": engine.ticks_fast_forwarded,
            "interrupts": stats.interrupts_delivered,
            "dpcs": stats.dpcs_executed,
            "context_switches": stats.context_switches,
            "samples": len(result.sample_set),
        })

    def run_label(args):
        return "sim.measured" if id(args[0]) in measuring else "sim.warmup"

    return [
        (tool.module, "main", "figures.pass"),
        # The calibration loops run inside a pass; keep them out of the
        # layers' self times.
        (FigureTool, "loop", "calibrate.loop"),
        (tool.module, "run_campaign", "campaign.run_campaign"),
        (experiment, "run_latency_experiment", "experiment.run_latency_experiment", on_cell),
        (experiment, "build_loaded_os", "experiment.build_loaded_os"),
        (Machine, "run_for_ms", run_label),
        (WdmLatencyTool, "start", "drivers.start",
         lambda result, args: measuring.add(id(args[0].kernel.machine))),
        (WdmLatencyTool, "collect", "drivers.collect"),
        (campaign, "sample_set_to_json", "export.serialize"),
        (campaign, "sample_set_from_json", "export.deserialize"),
        (campaign.CampaignCache, "put_serialized", "campaign.cache_put"),
        (campaign.CampaignCache, "get", "campaign.cache_get",
         lambda result, args: gets.append(result is not None)),
        (campaign, "cache_key", "campaign.cache_key"),
        (tool.module, "format_figure4_panel", "report.figure4"),
        (WorstCaseTable, "__init__", "worst_case.table3"),
        (WorstCaseTable, "format", "worst_case.table3"),
        (LatencyHistogram, "from_values", "histogram.figure5"),
        (LatencyHistogram, "render", "histogram.figure5"),
        (tool.module, "mttf_curve", "mttf.figure6_7"),
        (tool.module, "mttf_chart", "mttf.figure6_7"),
        (tool.module, "compare_sample_sets", "report.section4"),
        (OsComparison, "format", "report.section4"),
    ]


def _ms(values: List[float]) -> float:
    return median(values) * 1000.0


def traced(tracer, seed: int, pins: dict) -> Tuple[dict, Tally, list]:
    """One untraced and one traced cold regeneration, then untraced and
    traced warm passes on the traced pass's cache."""
    tool = FigureTool()
    cells: list = []
    gets: list = []
    targets = _trace_targets(tool, cells, gets)
    untraced_cold = tool.regenerate(fresh_dir("cold/out"), seed, fresh_dir("cold/cache"))
    cache_dir, out_dir = fresh_dir("traced/cache"), fresh_dir("traced/out")
    cold_mark = tracer.mark()
    with tracer.patched(targets):
        traced_cold = tool.regenerate(out_dir, seed, cache_dir)
    produced = [artefacts(out_dir)]
    entries = cache_entries(cache_dir)
    cold_self = tracer.self_times(cold_mark)

    # Warm passes alternate untraced and traced, so both see the same machine.
    warm_mark, warm_gets = tracer.mark(), len(gets)
    untraced_warm, traced_warm = [], []
    for _ in range(TRACED_WARM_PASSES):
        untraced_warm.append(tool.regenerate(out_dir, seed, cache_dir))
        produced.append(artefacts(out_dir))
        with tracer.patched(targets):
            traced_warm.append(tool.regenerate(out_dir, seed, cache_dir))
        produced.append(artefacts(out_dir))
    warm_self = tracer.self_times(warm_mark)
    untraced_cold, traced_cold = tool.seconds(untraced_cold), tool.seconds(traced_cold)
    untraced_warm = [tool.seconds(i) for i in untraced_warm]
    traced_warm = [tool.seconds(i) for i in traced_warm]

    reference = Reference(tool, seed)
    tally = Tally()
    tally.compare("cache entry", entries, reference.keys)
    for output in produced:
        tally.compare("artefact", output, reference.artefacts)
    tally.add(reference.problems_against_pins(seed, pins))

    sim_s = sum(c["sim_s"] for c in cells)
    per_sim_s = lambda field: sum(c[field] for c in cells) / sim_s
    get_self = tracer.durations("campaign.cache_get", warm_mark, self_only=True)
    renders = tracer.outermost_total(RENDER_SPANS, warm_mark)
    metrics = {
        "experiment.boot_ms": (_ms(tracer.durations("experiment.build_loaded_os", cold_mark)), "ms"),
        "sim.warmup_s_per_sim_s": (
            sum(tracer.durations("sim.warmup", cold_mark)) / sum(c["warmup_s"] for c in cells),
            "s/s"),
        "sim.measured_s_per_sim_s": (
            sum(tracer.durations("sim.measured", cold_mark)) / sum(c["duration_s"] for c in cells),
            "s/s"),
        "drivers.collect_ms": (_ms(tracer.durations("drivers.collect", cold_mark)), "ms"),
        "engine.events_per_sim_s": (per_sim_s("events"), "1/s"),
        "engine.interpreted_frames_per_sim_s": (per_sim_s("interpreted_frames"), "1/s"),
        "engine.tape_frames_per_sim_s": (per_sim_s("tape_frames"), "1/s"),
        "engine.ticks_fast_forwarded_per_sim_s": (per_sim_s("ticks_fast_forwarded"), "1/s"),
        "kernel.interrupts_per_sim_s": (per_sim_s("interrupts"), "1/s"),
        "kernel.dpcs_per_sim_s": (per_sim_s("dpcs"), "1/s"),
        "kernel.context_switches_per_sim_s": (per_sim_s("context_switches"), "1/s"),
        "samples.per_cell": (sum(c["samples"] for c in cells) / len(cells), "count"),
        "export.serialize_ms": (_ms(tracer.durations("export.serialize", cold_mark)), "ms"),
        "campaign.cache_put_ms": (_ms(tracer.durations("campaign.cache_put", cold_mark)), "ms"),
        "export.deserialize_ms": (_ms(tracer.durations("export.deserialize", warm_mark)), "ms"),
        "campaign.cache_get_ms": (_ms(get_self), "ms"),
        "campaign.cache_hit_frac": (sum(gets[warm_gets:]) / len(gets[warm_gets:]), "frac"),
        "trace.cold_overhead_frac": (traced_cold / untraced_cold - 1.0, "frac"),
        "trace.warm_overhead_frac": (median(traced_warm) / median(untraced_warm) - 1.0, "frac"),
    }
    for span_name in RENDER_SPANS:
        metrics[f"{span_name}_ms"] = (renders[span_name] * 1000.0 / TRACED_WARM_PASSES, "ms")
    for phase, self_s, passes in (("cold", cold_self, 1), ("warm", warm_self, TRACED_WARM_PASSES)):
        for layer, seconds in sorted(self_s.items()):
            if layer != "calibrate":
                metrics[f"{phase}.self_ms.{layer}"] = (seconds * 1000.0 / passes, "ms")
    notes = [
        f"figures-cold pass: untraced {untraced_cold:.3f} s, traced {traced_cold:.3f} s",
        f"figures-warm pass p50: untraced {median(untraced_warm) * 1000:.1f} ms, "
        f"traced {median(traced_warm) * 1000:.1f} ms (n={TRACED_WARM_PASSES} each)",
    ]
    return metrics, tally, notes


def _fill_main(out_dir: str, seed: str, cache_dir: str) -> None:
    """The child of :meth:`FigureTool.fill`: regenerate into ``cache_dir``
    and print the host seconds that took, calibration loops included, and
    the regeneration's rescaled seconds (:meth:`FigureTool.regeneration_times`)."""
    require_program()
    tool = FigureTool()
    start = time.perf_counter()
    index = tool.regenerate(Path(out_dir), int(seed), Path(cache_dir))
    host_s = time.perf_counter() - start
    print(json.dumps({"host_s": host_s,
                      "regeneration_s": tool.regeneration_times([index])[0]}))


if __name__ == "__main__":
    _fill_main(*sys.argv[1:])
