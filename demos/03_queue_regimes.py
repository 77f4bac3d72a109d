"""
Three behaviours of the driver frame queue
==========================================

Whether the in-kernel frame queue adds delay depends on which side is
slower. If the detector outpaces the camera the queue runs dry and adds
nothing. If the camera outpaces the detector the queue pins at full and
every frame ages through it. When the service and arrival windows
overlap, a run drifts between the two. The three shipped case scenarios
are calibrated to land in one regime each.
"""

from pipedelay import Vanilla, analyze, load_scenario, run

for name in ("case1", "case2", "case3"):
    scenario = load_scenario(name)
    variant = Vanilla(scenario.queue_size)
    bounds = analyze(scenario.camera, scenario.usb, scenario.profile, variant)

    result = run(scenario.sim_config(variant))
    delays = result.queue_delays

    print(f"{name}: {bounds.regime.name}")
    print(f"  arrivals      {bounds.arrivals.min:7.2f} .. {bounds.arrivals.max:7.2f} ms")
    print(f"  service       {bounds.service_min:7.2f} .. {bounds.service_max:7.2f} ms")
    print(f"  queue bounds  {bounds.queue.d_queue_min:7.2f} .. {bounds.queue.d_queue_max:7.2f} ms")
    print(f"  measured      {delays.min():7.2f} .. {delays.max():7.2f} ms"
          f"  (mean {delays.mean():.2f}, {len(delays)} frames, "
          f"{result.drops} dropped)")
    # Occupancy tells the same story from the queue's point of view. The
    # queue is deepest right after an accept: the frames ahead, plus one.
    peak = result.admit_ahead.max() + 1
    print(f"  occupancy     peak {peak} of {scenario.queue_size}"
          + ("" if result.first_full_ms is None
             else f", first full at {result.first_full_ms:.0f} ms"))
    print()

# The regime matters because the saturated queue is the dominant delay
# component: in case2 roughly Q service times pass between a frame's
# arrival and its retrieval, dwarfing the detector's own latency.
