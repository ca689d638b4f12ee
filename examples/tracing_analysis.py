#!/usr/bin/env python3
"""Observability: trace the ORDMA machinery at work.

Attaches the structured tracer to a simulation, runs a small ODAFS
workload through a server under memory pressure, and analyzes the event
stream: how many RPCs vs ORDMA gets, which faults occurred and why, and a
timeline excerpt around the first fault. Then folds the request *spans*
the same run collected into per-path waterfalls — where each 4 KB read
spent its time, stage by stage. A continuous-telemetry sampler rides
along, so the run also yields time-series gauges (server CPU by
category, cache occupancy, link utilization). Dumps the full trace
(events, spans and the gauge series) to one JSONL file, which
``repro-bench trace --input`` replays, and exports everything — spans,
events, and the gauge series as counter tracks — as a Chrome/Perfetto
Trace Event Format file to open in ui.perfetto.dev.

Run:  python examples/tracing_analysis.py
"""

import tempfile

from repro import KB, default_params
from repro.bench.traceexport import dump_perfetto
from repro.bench.tracecli import render_waterfall
from repro.cluster import Cluster
from repro.nas.server.vm_pressure import MemoryPressure
from repro.sim import Tracer


def main():
    cluster = Cluster(default_params(), system="odafs", block_size=4 * KB,
                      server_cache_blocks=72,
                      client_kwargs={"cache_blocks": 4})
    cluster.create_file("traced.db", 64 * 4 * KB)
    tracer = Tracer.attach(cluster.sim)
    client = cluster.clients[0]

    def workload():
        for _round in range(4):
            for i in range(64):
                yield from client.read("traced.db", i * 4 * KB, 4 * KB)

    proc = cluster.sim.process(workload())
    pressure = MemoryPressure(cluster.sim, cluster.cache,
                              interval_us=8_000.0,
                              rng=cluster.rand.stream("demo"))
    pressure.start(stop_on=proc)
    sampler = cluster.attach_sampler(interval_us=50.0)
    sampler.start(stop_on=proc)
    cluster.sim.run()

    counts = tracer.counts()
    print("event counts over the run:")
    for kind in sorted(counts):
        print(f"  {kind:<12} {counts[kind]:>6}")

    faults = tracer.filter(kind="ordma-fault")
    print(f"\n{len(faults)} ORDMA faults; reasons: "
          f"{sorted({f.detail['reason'] for f in faults})}")

    if faults:
        first = faults[0]
        window = [ev for ev in tracer
                  if abs(ev.ts - first.ts) < 200.0]
        print(f"\ntimeline around the first fault (t={first.ts:.1f} us):")
        for ev in window[:12]:
            print(f"  {ev}")

    spans = tracer.finished_spans(op="read")
    paths = sorted({s.path for s in spans})
    print(f"\n{len(spans)} read spans; paths: {paths}")
    print("one waterfall per data path (time flows left to right):")
    shown = set()
    for span in spans:
        if span.path in shown:
            continue
        shown.add(span.path)
        print()
        print(render_waterfall(span))

    print(f"\ntelemetry: {sampler.ticks} samples x {len(sampler)} series")
    for name in ("server.cpu.util", "server.cpu.util.copy",
                 "server.cache.blocks", "net.server.tx_util"):
        series = sampler.series[name]
        print(f"  {name:<22} mean {series.mean():8.3f} "
              f"last {series.last:8.3f}")

    with tempfile.NamedTemporaryFile(suffix=".jsonl",
                                     delete=False) as fh:
        path = fh.name
    written = tracer.dump_jsonl(path, series=sampler.series)
    print(f"\nfull trace ({written} event, span and series lines) "
          f"written to {path}")
    print(f"ring buffer: emitted={tracer.emitted} dropped={tracer.dropped}")
    print("(re-analyze it any time: repro-bench trace --input "
          f"{path} --critical-path)")

    with tempfile.NamedTemporaryFile(suffix=".json",
                                     delete=False) as fh:
        perfetto = fh.name
    rows = dump_perfetto(perfetto, events=list(tracer),
                         spans=tracer.finished_spans(),
                         series=sampler.series)
    print(f"perfetto export ({rows} trace events, counter tracks "
          f"included) written to {perfetto}")
    print("(open it at https://ui.perfetto.dev, or validate: "
          f"python -m repro.bench.traceexport {perfetto})")


if __name__ == "__main__":
    main()
