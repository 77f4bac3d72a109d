"""Release gates for the whole package.

Each test is one gate: randomized bound soundness, exact operation
oracles, the arrival interval model, queue regime behaviour, the
calibrated staged reproduction, the three optimization trade-offs, and
byte-level determinism of the command line. Tolerances are part of the
contract; do not widen them to make a failing gate pass.
"""

import collections
import itertools
import os
import time

import numpy as np
import pytest

from pipedelay import cli
from pipedelay.analysis import analyze, validate_against_analysis
from pipedelay.camera import CameraConfig, UsbLinkConfig
from pipedelay.detector import (
    ContentionFree,
    OnDemand,
    StageProfile,
    Vanilla,
    ZeroSlack,
    blocking_bounds,
    compute_theta_fetch,
    service_distribution,
)
from pipedelay.dist import DelayDist, ZERO_DELAY, convolve_all, max_combine
from pipedelay.queueing import QueueRegime
from pipedelay.scenario import load_scenario
from pipedelay.sim import SimConfig, run

RESOLUTIONS = ((160, 120), (320, 240), (640, 480), (352, 288))


def _rand_dist(rng, lo, hi):
    n = int(rng.integers(1, 9))
    vals = np.unique(np.round(rng.uniform(lo, hi, n), 3))
    probs = rng.dirichlet(np.ones(len(vals)))
    return DelayDist(vals, probs)


def _random_scenario(rng, i):
    """One random but valid configuration; variants cycle with i."""
    while True:
        fps = float(rng.uniform(5.0, 60.0))
        m = int(rng.choice((8, 16, 32)))
        b = int(rng.integers(512, 4096))
        w, h = RESOLUTIONS[int(rng.integers(0, len(RESOLUTIONS)))]
        bits = int(rng.choice((8, 12, 16, 24)))
        usb = UsbLinkConfig(bytes_per_microframe=b, urb_microframes=m)
        if 1000.0 / fps > usb.urb_period_ms:
            break
    floor = 0.0
    if rng.integers(0, 3) == 2:
        floor = round(float(rng.uniform(0.0, 0.7 * 1000.0 / fps)), 3)
    cam = CameraConfig(frame_rate=fps, width=w, height=h, bits_per_pixel=bits,
                       min_capture_delay=floor)
    profile = StageProfile(
        fetch_exec=_rand_dist(rng, 0.5, 12.0),
        infer_cpu=_rand_dist(rng, 0.5, 10.0),
        infer_gpu=_rand_dist(rng, 5.0, 160.0),
        disp_exec=_rand_dist(rng, 0.5, 12.0),
        disp_block=_rand_dist(rng, 0.0, 8.0) if rng.random() < 0.5 else ZERO_DELAY,
        infer_inflation=_rand_dist(rng, 0.0, 30.0),
    )
    k = i % 4
    if k == 0:
        variant = Vanilla(int(rng.integers(1, 9)))
    elif k == 1:
        variant = OnDemand()
    elif k == 2:
        s0 = service_distribution(profile, OnDemand())
        if rng.random() < 0.5:
            theta = compute_theta_fetch(
                s0.min, profile.fetch_delay_dist(True).max,
                blocking_bounds(cam, usb)[1])
        else:
            theta = round(float(rng.uniform(0.0, s0.min)), 3)
        variant = ZeroSlack(theta)
    else:
        variant = ContentionFree()
    return cam, usb, profile, variant


class TestBoundSoundness:
    def test_no_violations_across_randomized_scenarios(self):
        rng = np.random.default_rng(123)
        n_scenarios = 1000
        failures = []
        regimes = collections.Counter()
        t0 = time.perf_counter()
        for i in range(n_scenarios):
            cam, usb, profile, variant = _random_scenario(rng, i)
            bounds = analyze(cam, usb, profile, variant)
            regimes[bounds.regime.name] += 1
            cfg = SimConfig(
                camera=cam, usb=usb, profile=profile, variant=variant,
                duration_ms=1e4 * cam.cycle_ms,
                seed=int(rng.integers(2 ** 32)), n_objects=50,
            )
            report = validate_against_analysis(run(cfg), bounds)
            if not report.ok:
                failures.append(
                    (i, variant.name,
                     [(c.name, c.n_violations, c.worst_value, c.lo, c.hi)
                      for c in report.checks if not c.ok]))
        elapsed = time.perf_counter() - t0
        assert not failures, failures[:5]
        assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
        # The corpus has to exercise every queue regime to mean anything.
        assert set(regimes) == {"ARRIVAL_LIMITED", "SERVICE_LIMITED", "MIXED"}
        print(f"soundness: {n_scenarios} scenarios, 0 violations, "
              f"{elapsed:.1f}s, regimes={dict(regimes)}")


class TestOperationOracles:
    def _small(self, rng):
        n = int(rng.integers(1, 7))
        vals = np.unique(np.round(rng.uniform(0.0, 20.0, n), 2))
        probs = rng.dirichlet(np.ones(len(vals)))
        return DelayDist(vals, probs)

    @staticmethod
    def _enumerate(dists, combine):
        # Keys rounded so float-noise twins merge the same way the library
        # merges values within its tolerance.
        out = {}
        for combo in itertools.product(*(d.points() for d in dists)):
            v = round(combine([c[0] for c in combo]), 9)
            p = 1.0
            for c in combo:
                p *= c[1]
            out[v] = out.get(v, 0.0) + p
        return out

    def _assert_matches(self, got, expected):
        got = {round(v, 9): p for v, p in got.points()}
        assert len(got) == len(expected)
        for v, p in expected.items():
            assert v in got
            assert abs(got[v] - p) <= 1e-9

    def test_convolve_max_and_service_match_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            dists = [self._small(rng) for _ in range(int(rng.integers(2, 4)))]
            self._assert_matches(convolve_all(dists), self._enumerate(dists, sum))
            self._assert_matches(max_combine(dists), self._enumerate(dists, max))
        for _ in range(150):
            f, i, d = (self._small(rng) for _ in range(3))
            profile = StageProfile(
                fetch_exec=f, infer_cpu=i, infer_gpu=ZERO_DELAY,
                disp_exec=d, infer_inflation=ZERO_DELAY,
            )
            got = service_distribution(profile, Vanilla(4))
            self._assert_matches(got, self._enumerate([f, i, d], max))
        print("oracles: convolve/max/service match enumeration at 1e-9")


class TestArrivalModel:
    @pytest.mark.parametrize(
        "fps, bpm, expected",
        [
            (30.0, 2688, {32.0: 2 / 3, 36.0: 1 / 3}),
            (20.0, 512, {48.0: 0.5, 52.0: 0.5}),
        ],
    )
    def test_interval_support_and_frequencies(self, fps, bpm, expected):
        cam = CameraConfig(frame_rate=fps, width=640, height=480, bits_per_pixel=16)
        usb = UsbLinkConfig(bytes_per_microframe=bpm, urb_microframes=32)
        profile = StageProfile(
            fetch_exec=DelayDist.constant(2.0),
            infer_cpu=DelayDist.constant(8.0),
            infer_gpu=ZERO_DELAY,
            disp_exec=DelayDist.constant(1.0),
            infer_inflation=ZERO_DELAY,
        )
        r = run(SimConfig(camera=cam, usb=usb, profile=profile,
                          variant=OnDemand(), duration_ms=400000.0,
                          seed=5, n_objects=0))
        intervals = r.arrival_intervals
        vals, counts = np.unique(np.round(intervals, 6), return_counts=True)
        assert set(vals.tolist()) == set(expected)
        freqs = counts / counts.sum()
        for v, f in zip(vals.tolist(), freqs):
            assert abs(f - expected[v]) <= 0.02, (v, f)
        print(f"arrivals {1000.0 / fps:.3f}ms: support {sorted(expected)}, "
              "frequencies within 0.02")


class TestQueueRegimeBehaviour:
    def test_drained_queue_never_waits(self):
        s = load_scenario("case1")
        bounds = analyze(s.camera, s.usb, s.profile, Vanilla(s.queue_size))
        assert bounds.regime is QueueRegime.ARRIVAL_LIMITED
        r = run(s.sim_config(Vanilla(s.queue_size)))
        assert np.all(r.queue_delays == 0.0)
        mean_arrival = float(r.arrival_intervals.mean())
        assert r.mean_cycle_ms() == pytest.approx(mean_arrival, rel=0.01)
        assert validate_against_analysis(r, bounds).ok
        print("drained regime: queue wait identically 0, "
              f"cycle {r.mean_cycle_ms():.3f} ~ arrival {mean_arrival:.3f}")

    def test_saturated_queue_waits_within_bounds(self):
        s = load_scenario("case2")
        bounds = analyze(s.camera, s.usb, s.profile, Vanilla(s.queue_size))
        assert bounds.regime is QueueRegime.SERVICE_LIMITED
        assert bounds.saturation_certified
        r = run(s.sim_config(Vanilla(s.queue_size)))
        report = validate_against_analysis(r, bounds)
        assert report.ok, [c for c in report.checks if not c.ok]
        by_name = {c.name: c for c in report.checks}
        assert by_name["queue.lower"].n_checked > 0
        assert float(r.queue_delays.max()) <= bounds.queue.d_queue_max + 1e-5
        print(f"saturated regime: waits in [{bounds.queue.d_queue_min:.1f}, "
              f"{bounds.queue.d_queue_max:.1f}]")

    def test_mixed_regime_stays_under_ceiling(self):
        s = load_scenario("case3")
        bounds = analyze(s.camera, s.usb, s.profile, Vanilla(s.queue_size))
        assert bounds.regime is QueueRegime.MIXED
        assert bounds.queue.d_queue_min == 0.0
        r = run(s.sim_config(Vanilla(s.queue_size)))
        assert float(r.queue_delays.min()) >= 0.0
        assert float(r.queue_delays.max()) <= bounds.queue.d_queue_max + 1e-5
        assert validate_against_analysis(r, bounds).ok
        print(f"mixed regime: waits in [0, {bounds.queue.d_queue_max:.1f}]")


@pytest.fixture(scope="module")
def staged_results():
    s = load_scenario("default")
    return s, {v.name: run(s.sim_config(v)) for v in s.variants}


class TestStagedReproduction:
    TARGETS = {
        "vanilla": 1070.0,
        "on_demand": 383.0,
        "zero_slack": 310.0,
        "contention_free": 261.0,
    }

    def test_mean_delays_within_ten_percent(self, staged_results):
        _, results = staged_results
        means = {}
        for name, target in self.TARGETS.items():
            mean = float(results[name].detected_e2e().mean())
            means[name] = mean
            assert abs(mean - target) <= 0.10 * target, (name, mean, target)
        reduction = (means["vanilla"] - means["contention_free"]) / means["vanilla"]
        assert 0.71 <= reduction <= 0.81, reduction
        print("staged means: " +
              ", ".join(f"{n}={means[n]:.1f}" for n in self.TARGETS) +
              f"; reduction {100 * reduction:.1f}%")


class TestQueueSizeSweep:
    def test_linear_growth_with_flat_cycle(self, staged_results):
        s, _ = staged_results
        qs = np.arange(0, 5)
        means = []
        cycles = []
        for q in qs:
            r = run(s.sim_config(Vanilla(int(q))))
            means.append(float(r.detected_e2e().mean()))
            cycles.append(r.mean_cycle_ms())
        means = np.asarray(means)
        assert np.all(np.diff(means) > 0)        # decreasing from Q=4 to Q=0
        coeffs = np.polyfit(qs, means, 1)
        fit = np.polyval(coeffs, qs)
        ss_res = float(np.sum((means - fit) ** 2))
        ss_tot = float(np.sum((means - means.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        assert r2 >= 0.98, r2
        cycles = np.asarray(cycles)
        spread = float((cycles.max() - cycles.min()) / cycles.mean())
        assert spread < 0.01, spread
        print(f"queue sweep: slope {coeffs[0]:.1f} ms per slot, R2 {r2:.4f}, "
              f"cycle spread {100 * spread:.3f}%")


class TestReleaseDelaySafety:
    def test_computed_offset_keeps_cycle_time(self, staged_results):
        s, results = staged_results
        od_cycle = results["on_demand"].mean_cycle_ms()
        zs_cycle = results["zero_slack"].mean_cycle_ms()
        assert abs(zs_cycle - od_cycle) / od_cycle < 0.01
        # Negative control: 50% beyond the safe rule must slow the loop.
        bad = run(s.sim_config(ZeroSlack(1.5 * s.theta)))
        assert bad.mean_cycle_ms() > od_cycle * 1.01
        print(f"release delay: cycle {zs_cycle:.2f} vs {od_cycle:.2f}; "
              f"1.5x offset -> {bad.mean_cycle_ms():.2f}")


class TestContentionTradeOff:
    def test_serialized_inference_wins_e2e_for_bounded_cycle_cost(self, staged_results):
        s, results = staged_results
        cf = results["contention_free"]
        zs = results["zero_slack"]
        assert float(cf.detected_e2e().mean()) < float(zs.detected_e2e().mean())
        increase = cf.mean_cycle_ms() - zs.mean_cycle_ms()
        b_lo, b_hi = blocking_bounds(s.camera, s.usb)
        fetch_with_wait = s.profile.fetch_delay_dist(False).convolve(
            DelayDist.from_points([(b_lo, 0.5), (b_hi, 0.5)]))
        ceiling = max_combine(
            [fetch_with_wait, s.profile.disp_delay_dist(False)]).mean()
        assert 0.0 < increase <= ceiling, (increase, ceiling)
        print(f"contention trade-off: cycle +{increase:.2f} ms "
              f"(ceiling {ceiling:.2f}), e2e {cf.detected_e2e().mean():.1f} < "
              f"{zs.detected_e2e().mean():.1f}")


FAST_SCENARIO = """\
[scenario]
variants = vanilla, on_demand

[camera]
preset = c930e-640x480-30

[queue]
size = 2

[profile]
preset = xavier-yolov3-608

[sim]
duration_ms = 4000
seed = 9
objects = 30
"""


class TestDeterminism:
    def test_every_command_is_byte_identical_across_runs(self, tmp_path, capsys):
        scn = tmp_path / "scn.ini"
        scn.write_text(FAST_SCENARIO)
        commands = [
            ["analyze", str(scn), "--format", "csv"],
            ["simulate", str(scn), "--trace", "--format", "csv"],
            ["validate", str(scn), "--format", "csv"],
            ["sweep", str(scn), "--param", "queue_size", "--values", "0..2",
             "--format", "csv"],
        ]
        for argv in commands:
            outs = []
            for trial in ("a", "b"):
                out_dir = tmp_path / f"{argv[0]}_{trial}"
                code = cli.main(argv + ["--out", str(out_dir)])
                assert code == 0, argv
                captured = capsys.readouterr().out
                # Output paths differ between trials by construction; the
                # payload must not.
                payload = captured.replace(str(out_dir), "OUT")
                files = {}
                for fname in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, fname), "rb") as fh:
                        files[fname] = fh.read()
                outs.append((payload, files))
            assert outs[0] == outs[1], argv[0]
        print("determinism: analyze/simulate/validate/sweep byte-identical")
