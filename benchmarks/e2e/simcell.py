"""One repeat of the simulator workload: a fixed WAN cell with one straggler.

Nothing under ``repro.runtime`` is imported here, so a change there cannot
move this workload.  The cell's size is a fixed function of ``--seconds``;
its latencies are in simulated time and repeat exactly for a given seed.
"""

from __future__ import annotations

import resource
import time

import hostspeed
from repro.cluster.pipeline import PipelineCluster
from repro.experiments.engine import FaultSpec, ScenarioSpec
from spans import SpanRecorder, layer_metrics, resident_kb
from workloads import Workload

NUM_REPLICAS = 32
SAMPLES_PER_BLOCK = 6
#: Simulated seconds before the window; also the run's unmeasured head.
WARMUP_SIMULATED = 5.0
#: Simulated seconds per requested wall second: ~1 s of wall each on the
#: reference host, which is what makes ``--seconds`` the run's length.
SIMULATED_PER_SECOND = 20.0
#: The run advances in slices this long, with a host-speed sample between.
SLICE_SIMULATED = 1.0


def run_repeat(
    workload: Workload, seed: int, window_seconds: float, trace: bool,
    process_started: float, spans_path: str,
) -> dict:
    recorder = SpanRecorder.installed_if(trace)
    setup_calibration = hostspeed.samples_ms(5)
    duration = WARMUP_SIMULATED + SIMULATED_PER_SECOND * window_seconds
    spec = ScenarioSpec(
        protocol="orthrus",
        num_replicas=NUM_REPLICAS,
        environment="wan",
        duration=duration,
        warmup=WARMUP_SIMULATED,
        samples_per_block=SAMPLES_PER_BLOCK,
        seed=seed,
        faults=FaultSpec.with_straggler(instance=1),
    )
    cluster = PipelineCluster(spec.pipeline_config())
    setup_calibration += hostspeed.samples_ms(5)
    cluster.start()
    cluster.sim.run(until=WARMUP_SIMULATED)
    setup_calibration += hostspeed.samples_ms(5)

    calibration = []
    if recorder is not None:
        recorder.recording = True
    events_opened = cluster.sim.processed_events
    rss_opened_kb = resident_kb()
    opened, cpu_opened = time.perf_counter(), time.process_time()
    reached = WARMUP_SIMULATED
    while reached < duration:
        reached = min(duration, reached + SLICE_SIMULATED)
        cluster.sim.run(until=reached)
        calibration.append(hostspeed.sample_ms())
    cpu_closed, closed = time.process_time(), time.perf_counter()
    events = cluster.sim.processed_events - events_opened
    if recorder is not None:
        recorder.recording = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rss_growth_kb = resident_kb() - rss_opened_kb

    window = [
        timeline
        for timeline in cluster.metrics.latency.timelines()
        if timeline.submitted_at is not None
        and timeline.submitted_at >= WARMUP_SIMULATED
        and timeline.end_to_end is not None
    ]
    core = cluster.core
    result = {
        "checks": {
            # Every transaction the simulated clients saw confirmed was
            # executed by the one real consensus core, exactly once.
            "confirmations_match_core": cluster.metrics.committed
            + cluster.metrics.rejected
            == core.partial_confirmations + core.global_confirmations,
            "blocks_delivered": cluster.blocks_delivered > 0,
        },
        "attempted": len(window),
        "failed": sum(1 for timeline in window if not timeline.committed),
        "committed": sum(1 for timeline in window if timeline.committed),
        "wall_s": closed - opened,
        "cpu_s": cpu_closed - cpu_opened,
        "setup_wall_s": opened - process_started,
        "setup_cpu_s": cpu_opened,
        "setup_calibration_ms": setup_calibration,
        "calibration_ms": calibration,
        "payment_ms": [
            timeline.end_to_end * 1e3
            for timeline in window
            if timeline.committed and timeline.tx_id.startswith("pay-")
        ],
        "contract_ms": [
            timeline.end_to_end * 1e3
            for timeline in window
            if timeline.committed and timeline.tx_id.startswith("con-")
        ],
        "peak_rss_mb": peak_rss_mb,
        "rss_growth_kb": rss_growth_kb,
    }
    if recorder is not None:
        layers = layer_metrics(
            recorder, committed=result["committed"], window_cpu_s=result["cpu_s"]
        )
        layers["sim.events_per_s"] = events / result["wall_s"]
        layers["sim.events_per_tx"] = events / max(result["committed"], 1)
        result["layers"] = layers
        recorder.dump(spans_path)
    return result
