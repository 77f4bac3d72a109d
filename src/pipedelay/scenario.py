"""Scenario files: one INI-style file describes a complete run.

Grammar (sections and keys, all delays in ms). Comments sit on lines of
their own; a `;` after a value would become part of the value.

    [scenario]
    ; name is an optional label
    name = demo
    variants = vanilla, on_demand, zero_slack, contention_free

    [camera]
    ; a preset, or any CameraConfig field, which overrides the preset value
    preset = c930e-640x480-30
    frame_rate = 30
    width = 640
    height = 480
    bits_per_pixel = 16
    min_capture_delay = 0

    ; optional: UsbLinkConfig fields, which override the camera preset
    [usb]
    bytes_per_microframe = 2688
    urb_microframes = 32
    microframe_ms = 0.125
    protocol_overhead_microframes = 2

    [queue]
    ; vanilla queue size, 0 collapses to on-demand behavior
    size = 4

    [zero_slack]
    ; or a number; auto applies the safe rule
    theta = auto

    [profile]
    ; or per-stage sections
    preset = xavier-yolov3-608

    ; one optional section per StageProfile field
    [profile.fetch_exec]
    dist = 5:0.25, 6:0.5, 7:0.25
    ; alternatives: const = 5
    ;               csv = samples.csv   (one ms sample per line)
    ;               bin_ms = 1          (optional, with csv)

    [sim]
    duration_ms = 120000
    seed = 42
    objects = 500
    capture_jitter_ms = 0

Stage sections may override individual stages of a profile preset.
The `[camera]` and `[usb]` keys are the fields of `CameraConfig` and
`UsbLinkConfig`, with their types and defaults, and the stages are the
fields of `StageProfile`.
`[queue] size` and `[zero_slack] theta` configure those variants only:
`Scenario.queue_size` and `Scenario.theta` read them back off the
variants, and are None when the scenario has no such variant. The
`[sim] objects` and `capture_jitter_ms` defaults are those of `SimConfig`.
Parse problems raise ScenarioError naming the offending section and key.
The parser checks only what it reads: sections, keys, presets and that
each value converts to a finite number. Range checks live in the config
dataclasses (`CameraConfig`, `UsbLinkConfig`, `Vanilla`, `ZeroSlack`,
`SimConfig`), which name the failing field; `_KEYS` maps it to its key.

`edits` sets keys on the parsed file before anything is resolved, as if
the file said so. A `pipedelay sweep` point is such an edit of the swept
scenario, so it passes the same checks as a file and `theta = auto` is
recomputed from the edited camera and profile.
"""

import configparser
import math
import os
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from typing import get_args

from .camera import CameraConfig, UsbLinkConfig
from .detector import (
    OnDemand,
    PipelineVariant,
    StageProfile,
    Vanilla,
    ZeroSlack,
    blocking_bounds,
    compute_theta_fetch,
    detector_delay_bounds,
)
from .dist import DelayDist, load_samples_csv
from .presets import CAMERA_PRESETS, PROFILE_PRESETS, SCENARIO_PRESETS
from .sim import SimConfig


def _names(cls, required: bool = False) -> tuple[str, ...]:
    """A dataclass's field names in order, or only those without a default."""
    return tuple(f.name for f in fields(cls) if not required or
                 f.default is MISSING and f.default_factory is MISSING)


_STAGES = _names(StageProfile)
_VARIANTS = {v.name: v for v in get_args(PipelineVariant)}

# The config dataclasses check every setting and name the field that fails
# ("<field>: <reason>", with a dotted path for a nested field, or "transfer"
# for SimConfig's frame transfer term); this maps each to its key.
_KEYS = {
    **{f"camera.{k}": f"[camera] {k}" for k in _names(CameraConfig)},
    **{f"usb.{k}": f"[usb] {k}" for k in _names(UsbLinkConfig)},
    **{f"profile.{s}": f"[profile.{s}]" for s in _STAGES},
    "transfer": "[camera]/[usb] frame transfer",
    "variant.queue_size": "[queue] size",
    "variant.theta": "[zero_slack] theta",
    "duration_ms": "[sim] duration_ms",
    "seed": "[sim] seed",
    "n_objects": "[sim] objects",
    "capture_jitter_ms": "[sim] capture_jitter_ms",
}

_ALLOWED_KEYS = {
    "scenario": {"name", "variants"},
    "camera": {"preset", *_names(CameraConfig)},
    "usb": set(_names(UsbLinkConfig)),
    "queue": {"size"},
    "zero_slack": {"theta"},
    "profile": {"preset"},
    "sim": {"duration_ms", "seed", "objects", "capture_jitter_ms"},
}


class ScenarioError(ValueError):
    """A scenario file could not be parsed or resolved."""


def _build(cls, prefix: str = "", **kwargs):
    """`cls(**kwargs)`, its ValueError raised again as a ScenarioError that
    names the failing field's key; `prefix` is the field path of `cls`."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        path, _, reason = str(exc).partition(": ")
        raise ScenarioError(f"{_KEYS[prefix + path]}: {reason}") from None


@dataclass(frozen=True)
class Scenario:
    """A fully resolved run description."""

    name: str
    camera: CameraConfig
    usb: UsbLinkConfig
    profile: StageProfile
    variants: tuple[PipelineVariant, ...]
    duration_ms: float
    seed: int
    n_objects: int
    capture_jitter_ms: float
    profile_preset: str | None   # set when the profile came from a preset

    def _variant_attr(self, name: str, attr: str):
        return next((getattr(v, attr) for v in self.variants if v.name == name), None)

    @property
    def queue_size(self) -> int | None:
        """Q of the vanilla variant, None without one."""
        return self._variant_attr("vanilla", "queue_size")

    @property
    def theta(self) -> float | None:
        """The resolved release delay of the zero_slack variant, None without one."""
        return self._variant_attr("zero_slack", "theta")

    def sim_config(self, variant: PipelineVariant, seed: int | None = None,
                   trace: bool = False) -> SimConfig:
        return _build(
            SimConfig,
            camera=self.camera,
            usb=self.usb,
            profile=self.profile,
            variant=variant,
            duration_ms=self.duration_ms,
            seed=self.seed if seed is None else seed,
            n_objects=self.n_objects,
            capture_jitter_ms=self.capture_jitter_ms,
            trace=trace,
        )


def _parse_dist_literal(text: str, where: str) -> DelayDist:
    points = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        value, sep, prob = item.partition(":")
        if not sep:
            raise ScenarioError(
                f"{where}: expected 'value:probability' pairs, got {item!r}")
        try:
            points.append((float(value), float(prob)))
        except ValueError:
            raise ScenarioError(
                f"{where}: non-numeric entry {item!r}") from None
    if not points:
        raise ScenarioError(f"{where}: empty distribution")
    try:
        return DelayDist.from_points(points)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


class _Section:
    """One parsed section with typed, diagnosed key access."""

    def __init__(self, name: str, items: dict):
        self.name = name
        self.items = items

    def get(self, key: str, conv, default):
        if key not in self.items:
            return default
        raw = self.items[key]
        try:
            value = conv(raw)
        except ValueError:
            kind = conv.__name__.replace("float", "number").replace("int", "integer")
            raise ScenarioError(
                f"[{self.name}] {key}: invalid {kind} {raw!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioError(f"[{self.name}] {key}: must be finite, got {raw!r}")
        return value


def _build_stage(sec: _Section, base_dir: str) -> DelayDist:
    sources = [k for k in ("dist", "csv", "const") if k in sec.items]
    if len(sources) != 1:
        raise ScenarioError(
            f"[{sec.name}]: need exactly one of dist=, csv=, const=")
    kind = sources[0]
    if "bin_ms" in sec.items and kind != "csv":
        raise ScenarioError(f"[{sec.name}] bin_ms: only with csv=")
    if kind == "dist":
        return _parse_dist_literal(sec.items["dist"], f"[{sec.name}] dist")
    if kind == "const":
        value = sec.get("const", float, None)
        try:
            return DelayDist.constant(value)
        except ValueError as exc:
            raise ScenarioError(f"[{sec.name}] const: {exc}") from None
    path = os.path.join(base_dir, sec.items["csv"])
    if not os.path.isfile(path):
        raise ScenarioError(f"[{sec.name}] csv: no such file: {path}")
    try:
        samples = load_samples_csv(path)
    except ValueError as exc:
        raise ScenarioError(f"[{sec.name}] csv: {exc}") from None
    bin_ms = sec.get("bin_ms", float, 1.0)
    try:
        return DelayDist.from_samples(samples, bin_width_ms=bin_ms)
    except ValueError as exc:
        raise ScenarioError(f"[{sec.name}] csv: {path}: {exc}") from None


def parse_scenario(text: str, name: str = "scenario", base_dir: str = ".",
                   edits: Mapping[tuple[str, str], str] | None = None) -> Scenario:
    """Resolve a scenario file's text; `edits` maps (section, key) to the
    text that replaces or adds that key before resolution."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=name)
    except configparser.Error as exc:
        raise ScenarioError(str(exc)) from None
    for (sec, key), value in (edits or {}).items():
        if not cp.has_section(sec):
            cp.add_section(sec)
        cp.set(sec, key, value)

    sections: dict[str, _Section] = {}
    for sec in cp.sections():
        if sec in _ALLOWED_KEYS:
            allowed = _ALLOWED_KEYS[sec]
        elif sec.startswith("profile."):
            stage = sec[len("profile."):]
            if stage not in _STAGES:
                raise ScenarioError(
                    f"[{sec}]: unknown stage (expected one of {', '.join(_STAGES)})")
            allowed = {"dist", "csv", "const", "bin_ms"}
        else:
            raise ScenarioError(f"[{sec}]: unknown section")
        for key in cp[sec]:
            if key not in allowed:
                raise ScenarioError(f"[{sec}] {key}: unknown key")
        sections[sec] = _Section(sec, dict(cp[sec]))

    def section(name_: str) -> _Section:
        return sections.get(name_, _Section(name_, {}))

    # Camera and link: the fields of their config dataclasses, set by the
    # camera preset and overridden by the section keys. Both sections are
    # read before either is checked for missing fields, and both are checked
    # before either is built, so the first of several faults is reported.
    preset_name = section("camera").items.get("preset")
    preset: dict = {}
    if preset_name is not None:
        if preset_name not in CAMERA_PRESETS:
            raise ScenarioError(
                f"[camera] preset: unknown preset {preset_name!r} "
                f"(available: {', '.join(sorted(CAMERA_PRESETS))})")
        preset = CAMERA_PRESETS[preset_name]
    configs = ((CameraConfig, "camera", "a preset"), (UsbLinkConfig, "usb", "a camera preset"))
    values = []
    for cls, sec_name, _ in configs:
        sec = section(sec_name)
        got = {f.name: sec.get(f.name, f.type, preset.get(f.name)) for f in fields(cls)}
        values.append({k: v for k, v in got.items() if v is not None})
    for (cls, sec_name, hint), given in zip(configs, values):
        missing = [k for k in _names(cls, required=True) if k not in given]
        if missing:
            raise ScenarioError(
                f"[{sec_name}]: missing {', '.join(missing)} (set {hint} or the fields)")
    camera, usb = (_build(cls, f"{sec_name}.", **given)
                   for (cls, sec_name, _), given in zip(configs, values))

    # Stage profile.
    prof_sec = section("profile")
    profile_preset = prof_sec.items.get("preset")
    stages: dict[str, DelayDist] = {}
    if profile_preset is not None:
        if profile_preset not in PROFILE_PRESETS:
            raise ScenarioError(
                f"[profile] preset: unknown preset {profile_preset!r} "
                f"(available: {', '.join(sorted(PROFILE_PRESETS))})")
        base = PROFILE_PRESETS[profile_preset]
        stages = {s: getattr(base, s) for s in _STAGES}
    for stage in _STAGES:
        sec = sections.get(f"profile.{stage}")
        if sec is not None:
            stages[stage] = _build_stage(sec, base_dir)
    missing = [s for s in _names(StageProfile, required=True) if s not in stages]
    if missing:
        raise ScenarioError(
            f"[profile]: missing stages {', '.join(missing)} "
            "(set a preset or per-stage sections)")
    profile = StageProfile(**stages)

    # Variants. The queue size is checked even when no vanilla variant
    # reads it.
    queue_size = section("queue").get("size", int, Vanilla.queue_size)
    built = {"vanilla": _build(Vanilla, "variant.", queue_size=queue_size)}
    scen_sec = section("scenario")
    raw_variants = [v.strip() for v in
                    scen_sec.items.get("variants", "").split(",") if v.strip()]
    if not raw_variants:
        raise ScenarioError("[scenario] variants: need at least one variant")
    if "zero_slack" in raw_variants:
        raw_theta = section("zero_slack").items.get("theta", "auto")
        if raw_theta.strip().lower() == "auto":
            theta = compute_theta_fetch(
                detector_delay_bounds(profile, OnDemand()).s_min,
                profile.extremes(True)[0][1], blocking_bounds(camera, usb)[1])
        else:
            theta = section("zero_slack").get("theta", float, None)
        built["zero_slack"] = _build(ZeroSlack, "variant.", theta=theta)
    variants = []
    for vname in raw_variants:
        if vname not in _VARIANTS:
            raise ScenarioError(
                f"[scenario] variants: unknown variant {vname!r} "
                f"(expected one of {', '.join(_VARIANTS)})")
        if raw_variants.count(vname) > 1:
            raise ScenarioError(f"[scenario] variants: {vname!r} is listed more than once")
        variants.append(built[vname] if vname in built else _VARIANTS[vname]())

    sim_sec = section("sim")
    scenario = Scenario(
        name=scen_sec.items.get("name", name),
        camera=camera,
        usb=usb,
        profile=profile,
        variants=tuple(variants),
        duration_ms=sim_sec.get("duration_ms", float, 30000.0),
        seed=sim_sec.get("seed", int, 0),
        n_objects=sim_sec.get("objects", int, SimConfig.n_objects),
        capture_jitter_ms=sim_sec.get("capture_jitter_ms", float, SimConfig.capture_jitter_ms),
        profile_preset=profile_preset,
    )
    # The run settings, and whether the camera and the simulator's clock
    # can run them, are checked by the SimConfig of each variant.
    for variant in scenario.variants:
        scenario.sim_config(variant)
    return scenario


def load_scenario(path_or_name: str,
                  edits: Mapping[tuple[str, str], str] | None = None) -> Scenario:
    """Load a scenario file, or a shipped preset by name, with `edits`
    applied as in `parse_scenario`."""
    if os.path.isfile(path_or_name):
        try:
            with open(path_or_name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path_or_name}: not UTF-8 text ({exc.reason})") from None
        stem = os.path.splitext(os.path.basename(path_or_name))[0]
        return parse_scenario(text, name=stem, edits=edits,
                              base_dir=os.path.dirname(os.path.abspath(path_or_name)))
    if path_or_name in SCENARIO_PRESETS:
        return parse_scenario(SCENARIO_PRESETS[path_or_name], name=path_or_name,
                              edits=edits)
    raise ScenarioError(
        f"no scenario file or preset named {path_or_name!r} "
        f"(presets: {', '.join(sorted(SCENARIO_PRESETS))})")
