"""The served-mix workload: two callers in a closed loop on one worker.

``python -m repro serve --jobs 1 --cache-dir <fresh>`` runs as its own
process; one asyncio process drives it through the public
``AsyncServiceClient`` with ``pool_size=2``.  Each of the two callers sends
its next request only when its previous reply has arrived, as the real
callers (``submit``, ``stream_results``, ``submit_many``) do.

The seeded mix is mostly repeats of a 32-cell hot set that set-up warmed,
small enough to stay resident in the server's 64-entry hot LRU, plus a
steady share of never-seen cells the worker must simulate.  Hot replies
therefore come from one path (the in-memory LRU), so their latencies form
one distribution; cold replies measure queue wait plus simulation.  Set-up
simulates the hot set into the cache in the benchmark's own process, so
the server's stage statistics hold the measured phase's requests (and the
one set-up cell that starts its pool worker), not set-up's simulations.

The callers and the server share the first CPU and the pool worker has
the last one to itself (:class:`Placement`); the requests run in long
segments with both CPUs calibrated between them, and every timing is
rescaled by those loops (``calibrate.py``).  Each segment starts with a
cold request, so it starts in the loop's steady shape (:func:`steady`).

Every reply is compared byte for byte with
``sample_set_to_json(run_latency_experiment(config).sample_set)``,
recomputed serially after the timed phase.
"""

from __future__ import annotations

import asyncio
import gc
import random
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

import calibrate
from calibrate import Speedometer
from common import (
    ROOT,
    RUN,
    children,
    cpu_ticks,
    fresh_dir,
    median,
    min_samples,
    percentile,
    program_env,
    tree_peak_rss_mb,
)

#: Simulated seconds per hot cell, and per never-seen (cold) cell: the
#: cold class's cost sets the phase's length (at least 100 cold requests
#: for the cold p90 printed in the notes), so cold cells are the shorter.
HOT_CELL_S = 2.0
COLD_CELL_S = 1.0
OS_NAMES = ("nt4", "win98")
WORKLOADS = ("office", "workstation", "games", "web")
HOT_SEEDS_PER_CELL = 4
HOT_CELLS = len(OS_NAMES) * len(WORKLOADS) * HOT_SEEDS_PER_CELL   # 32
#: One request in this many is a never-seen cell (5%).
COLD_EVERY = 20
CALLERS = 2
#: Nominal completed requests per second on the reference machine (2 CPUs,
#: Python 3.11); sizes the fixed request count from ``--seconds``.
NOMINAL_RPS = 230.0
#: Requests between two calibrations of the CPUs (a multiple of
#: :data:`COLD_EVERY`, so every segment has the same shape).
SEGMENT = 100
#: Calibration loops per CPU at each calibration (their median counts).
LOOP_REPEAT = 3
#: Processes recomputing the served cells after the timed phase.
VERIFY_PROCESSES = 2
#: Seconds to wait for a server banner or a drain.
PROCESS_TIMEOUT_S = 60.0


def _combos():
    return [(os_name, workload) for os_name in OS_NAMES for workload in WORKLOADS]


def hot_set(seed: int) -> list:
    from repro.core.experiment import ExperimentConfig

    return [
        ExperimentConfig(os_name=os_name, workload=workload, duration_s=HOT_CELL_S,
                         seed=seed * 10_000 + k)
        for k in range(HOT_SEEDS_PER_CELL) for os_name, workload in _combos()
    ]


def cold_cell(seed: int, index: int):
    """The ``index``-th never-seen cell: the OS x workload pairs in turn,
    so the simulation cost of the cold class does not depend on the seed."""
    from repro.core.experiment import ExperimentConfig

    combos = _combos()
    os_name, workload = combos[index % len(combos)]
    return ExperimentConfig(os_name=os_name, workload=workload, duration_s=COLD_CELL_S,
                            seed=seed * 10_000 + HOT_SEEDS_PER_CELL + index // len(combos))


def is_cold(j: int) -> bool:
    return j % COLD_EVERY == 0


def steady(j: int) -> bool:
    """Whether request ``j`` sees the closed loop's steady shape.

    In the steady loop at least one caller is nearly always waiting on a
    cold cell while the other sends hot requests or waits on its own cold
    cell, queued behind the first.  A segment starts from a drained loop;
    because its first request is cold, the first caller waits on it while
    the second sends hot requests, which is that shape.  Only that first
    request differs: it finds the pool idle.  It counts in every total but
    in no percentile."""
    return j % SEGMENT != 0


def request_mix(seed: int, requests: int) -> Tuple[list, list]:
    """``(cells, sequence)``: distinct cells (hot set first) and the
    request sequence as ``(kind, cell index)``.

    Every :data:`COLD_EVERY`-th request is cold, so every seed sends the
    same number of cold requests at the same places; the seed picks which
    hot cell each hot request repeats.  The sequence is at least
    ``requests`` long and long enough for the reported percentiles."""
    assert SEGMENT % COLD_EVERY == 0
    rng = random.Random(seed)
    cells = hot_set(seed)
    length = requests
    while (sum(steady(j) and is_cold(j) for j in range(length)) < min_samples(0.9)
           or sum(steady(j) and not is_cold(j) for j in range(length)) < min_samples(0.99)):
        length += COLD_EVERY
    sequence: List[Tuple[str, int]] = []
    for j in range(length):
        if is_cold(j):
            cells.append(cold_cell(seed, len(cells) - HOT_CELLS))
            sequence.append(("cold", len(cells) - 1))
        else:
            sequence.append(("hot", rng.randrange(HOT_CELLS)))
    return cells, sequence


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------
class ProgramProcess:
    """``python -m repro <argv>`` listening on an ephemeral port."""

    def __init__(self, argv: List[str], log_name: str):
        RUN.mkdir(parents=True, exist_ok=True)
        self._log = open(RUN / log_name, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv, "--port", "0"],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        banner = self.process.stdout.readline().strip()
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError(f"repro {argv[0]} did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])

    def stop(self) -> None:
        """Graceful drain (SIGTERM); killed if it does not end in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._log.close()


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Replies:
    """Per request: send and reply times and whether the reply equals the
    first reply for its cell.  First replies are kept for the final
    comparison with the serial recomputation; later ones are dropped."""

    def __init__(self, n: int):
        self.sent = [0.0] * n
        self.replied = [0.0] * n
        self.same_as_first: List[Optional[bool]] = [None] * n   # None: failed
        #: Send to reply, rescaled by the calibration loops around it.
        self.latency: List[Optional[float]] = [None] * n
        self.first: Dict[int, str] = {}

    def add_first(self, cell: int, text: str) -> None:
        self.first.setdefault(cell, text)


async def closed_loop(client, cells, sequence, replies: Replies,
                      positions: range, tracer=None) -> float:
    """Run ``sequence[positions]`` with :data:`CALLERS` callers; returns
    the generator's busy seconds."""
    from repro.service.client import ServiceError

    cursor = iter(positions)
    busy = [0.0]

    async def caller() -> None:
        last_reply = None
        for j in cursor:
            cell = sequence[j][1]
            sent = time.perf_counter()
            if last_reply is not None:
                busy[0] += sent - last_reply
                if tracer is not None:
                    tracer.record("gen.busy", last_reply, sent)
            try:
                text = await client.submit(cells[cell], as_text=True)
            except ServiceError:   # ServiceUnavailable included
                text = None
            last_reply = time.perf_counter()
            replies.sent[j], replies.replied[j] = sent, last_reply
            if tracer is not None:
                tracer.record("client.submit", sent, last_reply, req=f"r{j}")
            if text is not None:
                replies.add_first(cell, text)
                replies.same_as_first[j] = text == replies.first[cell]

    await asyncio.gather(*(caller() for _ in range(CALLERS)))
    return busy[0]


class Placement:
    """Where the processes run: the callers, the server and the router on
    the first CPU, the pool worker that simulates on the last one.  Each
    side is calibrated on its own CPU (``perfbench/calibrate.py``), and a
    hot request is never preempted by a simulation.

    A calibration must see the program idle, or the program's CPU would
    read as a slow machine: each one counts as busy if the server or its
    worker gained CPU time while it ran."""

    def __init__(self) -> None:
        self.front, self.back = calibrate.cpus()[0], calibrate.cpus()[-1]
        calibrate.pin(self.front)    # inherited by every program process
        self.speed = Speedometer()
        self.program: List[int] = []
        self.calibrations = 0
        self.busy_calibrations = 0

    def place_workers(self, server_pid: int) -> None:
        workers = children(server_pid)
        for worker in workers:
            calibrate.pin(self.back, worker)
        self.program = [server_pid, *workers]

    def loops(self) -> None:
        """Calibrate both CPUs."""
        before = cpu_ticks(self.program)
        self.speed.loop(self.front, LOOP_REPEAT)
        self.speed.loop(self.back, LOOP_REPEAT)
        self.calibrations += 1
        if cpu_ticks(self.program) != before:
            self.busy_calibrations += 1


async def measured_phase(client, cells, sequence, replies: Replies,
                         placement: Placement, tracer=None) -> dict:
    """Run the whole sequence in segments of :data:`SEGMENT` requests,
    with no request in flight between segments, when both CPUs are
    calibrated.  A hot request's latency is rescaled on the front CPU, a
    cold one's on the worker's CPU, and the phase's wall time on both."""
    placement.loops()
    segments, busy_s = [], 0.0
    for begin in range(0, len(sequence), SEGMENT):
        segment = range(begin, min(begin + SEGMENT, len(sequence)))
        start = time.perf_counter()
        busy_s += await closed_loop(client, cells, sequence, replies, segment, tracer)
        segments.append((start, time.perf_counter()))
        placement.loops()
    speed = placement.speed
    for j, (kind, _) in enumerate(sequence):
        if replies.same_as_first[j] is not None:
            cpu = placement.front if kind == "hot" else placement.back
            sent, replied = replies.sent[j], replies.replied[j]
            replies.latency[j] = speed.rescale(replied - sent, sent, replied, cpu)
    wall_s = sum(speed.rescale(end - start, start, end, cpu)
                 for start, end in segments for cpu in (placement.front, placement.back)) / 2
    return {"wall_s": wall_s, "busy_s": busy_s,
            "host_wall_s": sum(end - start for start, end in segments)}


def latency_metrics(sequence, replies: Replies) -> Tuple[dict, list]:
    """``op_p50_ms`` over the steady requests (:func:`steady`), and each
    class's percentiles as notes."""
    by_kind: Dict[str, List[float]] = {"op": [], "hot": [], "cold": []}
    hot_at: List[Tuple[float, int]] = []    # (latency, position in its segment)
    for j, (kind, _) in enumerate(sequence):
        if replies.latency[j] is None or not steady(j):
            continue
        by_kind["op"].append(replies.latency[j])
        by_kind[kind].append(replies.latency[j])
        if kind == "hot":
            hot_at.append((replies.latency[j], j % SEGMENT))
    metrics, notes = {}, []
    for kind, q in (("op", 0.5), ("hot", 0.5), ("hot", 0.99), ("cold", 0.5), ("cold", 0.9)):
        value, beyond = percentile(by_kind[kind], q)
        name = f"{kind}_p{round(q * 100)}_ms"
        if kind == "op":
            metrics[name] = (value * 1000.0, "ms")
            notes.append(f"{name} over n={len(by_kind[kind])} ({beyond} beyond)")
        else:
            notes.append(f"{name} {value * 1000.0:.3f} over n={len(by_kind[kind])} "
                         f"({beyond} beyond)")
    # Segment starts must leave no mark on the hot tail: the first block of
    # a segment should hold the same share of the slowest 1% as of all.
    first_block = lambda at: at < COLD_EVERY
    tail = sorted(hot_at)[-max(1, len(hot_at) // 100):]
    notes.append(f"hot requests in a segment's first {COLD_EVERY}: "
                 f"{sum(first_block(at) for _, at in hot_at) / len(hot_at):.0%} of all, "
                 f"{sum(first_block(at) for _, at in tail) / len(tail):.0%} of the slowest 1%")
    return metrics, notes


def serial_json(config) -> str:
    """What a served reply must equal: the cell run serially, uncached."""
    from repro.core.experiment import run_latency_experiment
    from repro.core.export import sample_set_to_json

    return sample_set_to_json(run_latency_experiment(config).sample_set)


def verify(cells, sequence, replies: Replies) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` against a serial recomputation of
    every cell, made after the timed phase on :data:`VERIFY_PROCESSES`
    processes (each cell is still computed serially, on its own)."""
    served = sorted(replies.first.items())
    with ProcessPoolExecutor(max_workers=VERIFY_PROCESSES) as pool:
        expected = pool.map(serial_json, [cells[cell] for cell, _ in served], chunksize=4)
        correct = {cell: text == serial for (cell, text), serial in zip(served, expected)}
    failed = 0
    problems = [f"served cell {cell} differs from the serial run"
                for cell, ok in correct.items() if not ok]
    for j, (_, cell) in enumerate(sequence):
        if not (replies.same_as_first[j] and correct.get(cell)):
            failed += 1
    if failed:
        problems.append(f"{failed} of {len(sequence)} requests failed or "
                        "returned bytes that differ from the serial run")
    return len(sequence), failed, problems


def service_metrics(before: dict, after: dict, wall_s: float) -> Tuple[dict, list]:
    """Per-layer numbers from two ``stats`` snapshots around a phase.  The
    stage percentiles are over the server's reservoirs, which hold the
    phase's requests plus the set-up simulation that started the pool
    worker (set-up filled the cache in another process)."""
    store0, store1 = before["gauges"]["store"], after["gauges"]["store"]
    hot_hits = store1["hot_hits"] - store0["hot_hits"]
    disk_hits = store1["disk_hits"] - store0["disk_hits"]
    simulations = after["counters"]["simulations"] - before["counters"]["simulations"]
    stages = after["stages"]
    metrics = {
        "service.queue_wait_p50_ms": (stages["queue_wait"]["p50_ms"], "ms"),
        "service.execute_p50_ms": (stages["execute"]["p50_ms"], "ms"),
        "service.serve_p50_ms": (stages["serve"]["p50_ms"], "ms"),
        "service.pool_busy_frac": (
            simulations * stages["execute"]["p50_ms"] / 1000.0 / wall_s, "frac"),
        "store.hot_hit_frac": (hot_hits / (hot_hits + disk_hits), "frac"),
    }
    notes = [f"service.{stage}_p50_ms over n={stages[stage]['count']}"
             for stage in ("queue_wait", "execute", "serve")]
    return metrics, notes


def requests_for(seconds: float) -> int:
    return round(seconds * NOMINAL_RPS)


def fill_cache(configs: list, cache_dir, placement: Placement) -> float:
    """Simulate ``configs`` serially into the campaign cache the server
    will read, in this process on the worker's CPU, with a calibration
    loop after each cell; returns the rescaled seconds."""
    from repro.core.campaign import run_campaign

    speed, cpu, total = placement.speed, placement.back, 0.0
    for config in configs:
        start = time.perf_counter()
        with calibrate.on_cpu(cpu):
            run_campaign([config], jobs=1, cache_dir=cache_dir)
        end = time.perf_counter()
        speed.loop(cpu)
        total += speed.rescale(end - start, start, end, cpu)
    gc.collect()
    return total


async def _serve(seed: int, requests: int, tracer, work) -> dict:
    """Start the worker, warm the hot set, run the measured phase, then
    hand the live worker to ``work`` before draining it."""
    from repro.fleet.async_client import AsyncServiceClient

    cells, sequence = request_mix(seed, requests)
    replies = Replies(len(sequence))
    cache_dir = fresh_dir("served-cache")
    placement = Placement()
    placement.loops()
    fill_s = fill_cache(cells[1:HOT_CELLS], cache_dir, placement)
    start = time.perf_counter()
    server = ProgramProcess(["serve", "--jobs", "1", "--cache-dir", str(cache_dir)],
                            "serve.log")
    try:
        client = AsyncServiceClient(port=server.port, pool_size=CALLERS)
        try:
            # The server simulates the first cell, which starts its pool
            # worker; place it, then read the rest into the hot LRU.
            warmed = [await client.submit(cells[0], as_text=True)]
            placement.place_workers(server.process.pid)
            warmed += await client.submit_many(cells[1:HOT_CELLS], as_text=True)
            end = time.perf_counter()
            placement.loops()
            # The rest of set-up is mostly the worker simulating cells[0].
            setup_s = fill_s + placement.speed.rescale(end - start, start, end,
                                                       placement.back)
            for cell, text in enumerate(warmed):
                replies.add_first(cell, text)
            before = await client.stats()
            run = await measured_phase(client, cells, sequence, replies, placement, tracer)
            run.update(before=before, after=await client.stats())
            peak_rss_mb = tree_peak_rss_mb(server.process.pid)
            extra = await work(server.port, cache_dir, cells) if work else {}
        finally:
            await client.close()
    finally:
        server.stop()
        calibrate.unpin()    # the serial recomputation may use every CPU
    return {"cells": cells, "sequence": sequence, "replies": replies, "run": run,
            "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "extra": extra,
            "busy_calibrations": f"{placement.busy_calibrations} of "
                                 f"{placement.calibrations} calibrations saw the "
                                 "server or its worker use CPU"}


def run_mix(seed: int, seconds: float) -> Tuple[dict, int, int, List[str], list]:
    served = asyncio.run(_serve(seed, requests_for(seconds), None, None))
    run = served["run"]
    metrics, notes = latency_metrics(served["sequence"], served["replies"])
    attempted, failed, problems = verify(served["cells"], served["sequence"], served["replies"])
    metrics.update({
        "setup_s": (served["setup_s"], "s"),
        "wall_s": (run["wall_s"], "s"),
        "peak_rss_mb": (served["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    })
    notes.append(f"{attempted} requests, {CALLERS} callers in a closed loop, "
                 f"host wall {run['host_wall_s']:.3f} s, completed_rps "
                 f"{(attempted - failed) / run['wall_s']:.2f}")
    notes.append(served["busy_calibrations"])
    return metrics, attempted, failed, problems, notes


# ----------------------------------------------------------------------
# Traced run: the phase with client-side spans, the fleet probe and the
# served path's layer calls timed in-process
# ----------------------------------------------------------------------
FLEET_PROBE_ROUNDS = 3
FLEET_COLD_PROBES = 8
WIRE_ROUNDS = 20


async def _fleet_probe(worker_port: int, cache_dir, cells, seed: int) -> dict:
    """``python -m repro route`` on the shared cache in front of the same
    worker; the same hot and cold probes timed via the router and direct."""
    from repro.fleet.async_client import AsyncServiceClient

    hot = cells[:HOT_CELLS]
    # Cold probes: never-seen cells beyond any the mix used, the same
    # OS x workload pairs on both paths.
    cold = [cold_cell(seed, 100_000 + i) for i in range(2 * FLEET_COLD_PROBES)]
    cold_via, cold_direct = cold[:FLEET_COLD_PROBES], cold[FLEET_COLD_PROBES:]
    router = ProgramProcess(["route", "--workers", f"127.0.0.1:{worker_port}",
                             "--cache-dir", str(cache_dir)], "route.log")
    try:
        via = AsyncServiceClient(port=router.port, pool_size=1)
        direct = AsyncServiceClient(port=worker_port, pool_size=1)
        try:
            deadline = time.monotonic() + PROCESS_TIMEOUT_S
            while (await via.fleet_stats())["registry"]["live"] < 1:
                if time.monotonic() > deadline:
                    raise RuntimeError("router never saw the worker live")
                await asyncio.sleep(0.05)
            for config in hot:   # the router's own store reads them once from disk
                await via.submit(config, as_text=True)
            timings: Dict[str, List[float]] = {"hot_via": [], "hot_direct": [],
                                                "cold_via": [], "cold_direct": []}

            async def timed(client, config, label):
                start = time.perf_counter()
                await client.submit(config, as_text=True)
                timings[label].append(time.perf_counter() - start)

            for _ in range(FLEET_PROBE_ROUNDS):
                for config in hot:
                    await timed(via, config, "hot_via")
                    await timed(direct, config, "hot_direct")
            for via_cell, direct_cell in zip(cold_via, cold_direct):
                await timed(via, via_cell, "cold_via")
                await timed(direct, direct_cell, "cold_direct")
            router_stats = await via.stats()
        finally:
            await via.close()
            await direct.close()
    finally:
        router.stop()
    return {
        "fleet.hot_overhead_ms": (
            (median(timings["hot_via"]) - median(timings["hot_direct"])) * 1000.0, "ms"),
        "fleet.cold_overhead_ms": (
            (median(timings["cold_via"]) - median(timings["cold_direct"])) * 1000.0, "ms"),
        "fleet.route_p50_ms": (router_stats["stages"]["route"]["p50_ms"], "ms"),
    }


def _wire_timings(tracer, hot: list, texts: List[str]) -> dict:
    """The served hot path's layer calls on the hot set, timed per batch
    of one call per hot cell."""
    from repro.core.campaign import cache_key
    from repro.service.protocol import (
        config_from_wire, config_to_wire, decode_message, encode_message, ok_response)
    from repro.service.store import ResultStore

    keys = [cache_key(config) for config in hot]
    wires = [config_to_wire(config) for config in hot]
    store = ResultStore(hot_capacity=64)
    for config, key, text in zip(hot, keys, texts):
        store.put(config, text, key=key)
    envelopes = [ok_response("a1", status="done", key=key, cached=True, sample_set=text)
                 for key, text in zip(keys, texts)]
    lines = [encode_message(dict(envelope)) for envelope in envelopes]
    mark = tracer.mark()
    for _ in range(WIRE_ROUNDS):
        with tracer.span("campaign.cache_key"):
            for config in hot:
                cache_key(config)
        with tracer.span("protocol.config_from_wire"):
            for wire in wires:
                config_from_wire(wire)
        with tracer.span("store.hot_get"):
            for config, key in zip(hot, keys):
                store.get(config, key=key)
        with tracer.span("protocol.encode"):
            for envelope in envelopes:
                encode_message(envelope)
        with tracer.span("protocol.decode"):
            for line in lines:
                decode_message(line)
    per_call = lambda name, scale: median(tracer.durations(name, mark)) / len(hot) * scale
    return {
        "campaign.cache_key_us": (per_call("campaign.cache_key", 1e6), "us"),
        "protocol.config_from_wire_us": (per_call("protocol.config_from_wire", 1e6), "us"),
        "store.hot_get_us": (per_call("store.hot_get", 1e6), "us"),
        "protocol.encode_ms": (per_call("protocol.encode", 1e3), "ms"),
        "protocol.decode_ms": (per_call("protocol.decode", 1e3), "ms"),
    }


def traced(tracer, seed: int, seconds: float) -> Tuple[dict, int, int, List[str], list]:
    served = asyncio.run(_serve(
        seed, requests_for(seconds), tracer,
        lambda port, cache_dir, cells: _fleet_probe(port, cache_dir, cells, seed)))
    cells, sequence, replies, run = (served[key] for key in ("cells", "sequence", "replies", "run"))
    attempted, failed, problems = verify(cells, sequence, replies)
    metrics, notes = service_metrics(run["before"], run["after"], run["host_wall_s"])
    metrics["gen.busy_frac"] = (run["busy_s"] / (CALLERS * run["host_wall_s"]), "frac")
    metrics.update(served["extra"])
    metrics.update(_wire_timings(tracer, cells[:HOT_CELLS],
                                 [replies.first[cell] for cell in range(HOT_CELLS)]))
    notes.append(served["busy_calibrations"])
    return metrics, attempted, failed, problems, notes
