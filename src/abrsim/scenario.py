"""Scenario files: a line-oriented ``key = value`` format with sections.

Sections are ``[source.<name>]``, ``[switch.<name>]``, ``[link.<name>]``,
``[vc.<name>]`` and ``[run]``; ``#`` starts a comment.  Rates are given in
Mbps and delays in microseconds or milliseconds; everything is converted
once, at topology-build time.  Unknown sections or keys are errors;
missing keys fall back to the standard parameter block (OC-3 peak rate,
zero minimum rate, initial rate at 90% of peak, one RM cell per 32 cells,
rate increase factor 1, cutoff decrease factor 1/16, cutoff threshold 32).

An empty file yields the default scenario: one source, one switch, one
destination on 5 us LAN links.
"""

from __future__ import annotations

import importlib.resources
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .analysis import crm_from_tbe
from .engine import LinkSpec, SwitchParams, Topology, VcSpec
from .protocol import SourceParams
from .units import mbps_to_cps, us_to_ps


class ScenarioError(Exception):
    """Malformed or inconsistent scenario text."""


@contextmanager
def error_context(label: str):
    """Report a ValueError raised in the block as ``ScenarioError("<label>: ...")``."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(f"{label}: {exc}") from None


@dataclass
class SourceCfg:
    pcr_mbps: float = 155.52
    mcr_mbps: float = 0.0
    icr_mbps: float | None = None  # None means 0.9 * pcr
    nrm: int = 32
    rif: float = 1.0
    cdf: float = 1 / 16
    crm: int | None = None
    tbe: int | None = None

    def resolved(self) -> "SourceCfg":
        """Fill defaults, then validate by building ``SourceParams`` (the rule).

        icr = 0.9 * pcr; tbe = crm * nrm when only crm is given (crm defaults
        to 32); crm = crm_from_tbe(tbe, nrm) when only tbe is given.
        """
        icr = 0.9 * self.pcr_mbps if self.icr_mbps is None else self.icr_mbps
        crm, tbe = self.crm, self.tbe
        if tbe is None:
            crm = 32 if crm is None else crm
            tbe = crm * self.nrm
        elif crm is None:
            crm = crm_from_tbe(tbe, self.nrm)
        cfg = replace(self, icr_mbps=icr, crm=crm, tbe=tbe)
        cfg.to_params()
        return cfg

    def to_params(self) -> SourceParams:
        """Engine-unit parameters of a resolved configuration."""
        rates = {}
        for key in ("pcr", "mcr", "icr"):
            try:
                rates[key] = mbps_to_cps(getattr(self, f"{key}_mbps"))
            except ValueError as exc:
                raise ValueError(f"{key}_mbps: {exc}") from None
        return SourceParams(
            nrm=self.nrm, rif=self.rif, cdf=self.cdf, crm=self.crm, tbe=self.tbe, **rates
        )


@dataclass
class SwitchCfg:
    target_utilization: float = 0.9
    interval_cells: int = 30
    interval_us: float = 20.0

    def to_params(self) -> SwitchParams:
        return SwitchParams(
            target_utilization=self.target_utilization,
            interval_cell_limit=self.interval_cells,
            interval_time_limit=us_to_ps(self.interval_us),
        )


@dataclass
class LinkCfg:
    from_node: str = ""
    to_node: str = ""
    rate_mbps: float = 155.52
    delay_us: float = 5.0


@dataclass
class VcCfg:
    path: tuple[str, ...] = ()


@dataclass
class RunCfg:
    until_ms: float = 1200.0
    windows_ms: tuple[tuple[float, float], ...] = ()
    osc_low_mbps: float = 10.0
    osc_high_mbps: float = 130.0
    steady_from_ms: float | None = None  # None means until_ms / 4

    def steady_window(self) -> tuple[float, float]:
        start = self.until_ms / 4 if self.steady_from_ms is None else self.steady_from_ms
        return (start, self.until_ms)


@dataclass
class Scenario:
    sources: dict[str, SourceCfg] = field(default_factory=dict)
    switches: dict[str, SwitchCfg] = field(default_factory=dict)
    links: dict[str, LinkCfg] = field(default_factory=dict)
    vcs: dict[str, VcCfg] = field(default_factory=dict)
    run: RunCfg = field(default_factory=RunCfg)


def default_scenario() -> Scenario:
    """Single source, one switch, LAN links only."""
    s = Scenario()
    s.sources["s1"] = SourceCfg().resolved()
    s.switches["sw1"] = SwitchCfg()
    s.links["lan_a"] = LinkCfg(from_node="s1", to_node="sw1")
    s.links["lan_b"] = LinkCfg(from_node="sw1", to_node="d1")
    s.vcs["main"] = VcCfg(path=("s1", "sw1", "d1"))
    return s


# -- value parsing ------------------------------------------------------


def parse_number(text: str) -> float:
    """Parse a finite number or a fraction like ``1/16``; ValueError otherwise."""
    num, slash, den = text.partition("/")
    divisor = float(den) if slash else 1.0
    value = float(num) / divisor if divisor else math.inf
    if not (math.isfinite(value) and math.isfinite(divisor)):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _parse_int(text: str, line_no: int) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ScenarioError(f"line {line_no}: expected an integer, got {text!r}") from None


def _parse_float(text: str, line_no: int) -> float:
    try:
        return parse_number(text)
    except ValueError:
        raise ScenarioError(f"line {line_no}: expected a finite number, got {text!r}") from None


def _parse_windows(text: str, line_no: int) -> tuple[tuple[float, float], ...]:
    windows = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ScenarioError(f"line {line_no}: window must be 'start:end', got {part!r}")
        windows.append((_parse_float(lo, line_no), _parse_float(hi, line_no)))
    return tuple(windows)


_SOURCE_KEYS = {"pcr_mbps", "mcr_mbps", "icr_mbps", "nrm", "rif", "cdf", "crm", "tbe"}
_SWITCH_KEYS = {"target_utilization", "interval_cells", "interval_us"}
_LINK_KEYS = {"from", "to", "rate_mbps", "delay_us", "delay_ms"}
_VC_KEYS = {"path"}
_RUN_KEYS = {"until_ms", "windows_ms", "osc_low_mbps", "osc_high_mbps", "steady_from_ms"}


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a fully resolved, validated Scenario."""
    scenario = Scenario()
    section_kind: str | None = None
    section_name = ""
    current: object = None
    seen_sections: set[str] = set()
    seen_keys: set[str] = set()
    link_delay_keys: dict[str, str] = {}
    any_section = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"line {line_no}: malformed section header {line!r}")
            header = line[1:-1].strip()
            if header == "run":
                section_kind, section_name = "run", ""
            else:
                section_kind, _, section_name = header.partition(".")
                if section_kind not in ("source", "switch", "link", "vc") or not section_name:
                    raise ScenarioError(f"line {line_no}: unknown section {header!r}")
            if header in seen_sections:
                raise ScenarioError(f"line {line_no}: duplicate section [{header}]")
            seen_sections.add(header)
            any_section = True
            if section_kind == "source":
                current = scenario.sources.setdefault(section_name, SourceCfg())
            elif section_kind == "switch":
                current = scenario.switches.setdefault(section_name, SwitchCfg())
            elif section_kind == "link":
                current = scenario.links.setdefault(section_name, LinkCfg())
            elif section_kind == "vc":
                current = scenario.vcs.setdefault(section_name, VcCfg())
            else:
                current = scenario.run
            continue

        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioError(f"line {line_no}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if current is None:
            raise ScenarioError(f"line {line_no}: key outside of any section")
        dedup = f"{section_kind}.{section_name}.{key}"
        if dedup in seen_keys:
            raise ScenarioError(f"line {line_no}: duplicate key {key!r}")
        seen_keys.add(dedup)

        if section_kind == "source":
            if key not in _SOURCE_KEYS:
                raise ScenarioError(f"line {line_no}: unknown source key {key!r}")
            if key in ("nrm", "crm", "tbe"):
                setattr(current, key, _parse_int(value, line_no))
            else:
                setattr(current, key, _parse_float(value, line_no))
        elif section_kind == "switch":
            if key not in _SWITCH_KEYS:
                raise ScenarioError(f"line {line_no}: unknown switch key {key!r}")
            if key == "interval_cells":
                current.interval_cells = _parse_int(value, line_no)
            else:
                setattr(current, key, _parse_float(value, line_no))
        elif section_kind == "link":
            if key not in _LINK_KEYS:
                raise ScenarioError(f"line {line_no}: unknown link key {key!r}")
            if key == "from":
                current.from_node = value
            elif key == "to":
                current.to_node = value
            elif key == "rate_mbps":
                current.rate_mbps = _parse_float(value, line_no)
            else:
                if section_name in link_delay_keys and link_delay_keys[section_name] != key:
                    raise ScenarioError(
                        f"line {line_no}: give delay_us or delay_ms, not both"
                    )
                link_delay_keys[section_name] = key
                delay = _parse_float(value, line_no)
                current.delay_us = delay * 1000.0 if key == "delay_ms" else delay
        elif section_kind == "vc":
            if key not in _VC_KEYS:
                raise ScenarioError(f"line {line_no}: unknown vc key {key!r}")
            nodes = tuple(n.strip() for n in value.split(",") if n.strip())
            if len(nodes) < 2:
                raise ScenarioError(f"line {line_no}: vc path needs at least two nodes")
            current.path = nodes
        else:  # run
            if key not in _RUN_KEYS:
                raise ScenarioError(f"line {line_no}: unknown run key {key!r}")
            if key == "windows_ms":
                current.windows_ms = _parse_windows(value, line_no)
            else:
                setattr(current, key, _parse_float(value, line_no))

    if not any_section:
        return default_scenario()

    _validate(scenario)
    for name, cfg in scenario.sources.items():
        with error_context(f"source {name}"):
            scenario.sources[name] = cfg.resolved()
    return scenario


def _validate(scenario: Scenario) -> None:
    for name, cfg in scenario.links.items():
        if not cfg.from_node or not cfg.to_node:
            raise ScenarioError(f"link {name}: both 'from' and 'to' are required")
        if cfg.rate_mbps <= 0:
            raise ScenarioError(f"link {name}: rate must be > 0")
        if cfg.delay_us < 0:
            raise ScenarioError(f"link {name}: delay must be >= 0")
    for name, cfg in scenario.vcs.items():
        if not cfg.path:
            raise ScenarioError(f"vc {name}: path is required")
    if scenario.run.until_ms < 0:
        raise ScenarioError("run: until_ms must be >= 0")
    for lo, hi in scenario.run.windows_ms:
        if not lo < hi:
            raise ScenarioError(f"run: bad window {lo}:{hi}")


def render_scenario(scenario: Scenario) -> str:
    """Canonical text for a parsed scenario; parse(render(s)) == s."""
    out = []

    def emit(key, value):
        out.append(f"{key} = {value}")

    for name, cfg in scenario.sources.items():
        out.append(f"[source.{name}]")
        emit("pcr_mbps", repr(cfg.pcr_mbps))
        emit("mcr_mbps", repr(cfg.mcr_mbps))
        emit("icr_mbps", repr(cfg.icr_mbps))
        emit("nrm", cfg.nrm)
        emit("rif", repr(cfg.rif))
        num, den = cfg.cdf.as_integer_ratio()  # 1/64, not 0.015625
        emit("cdf", num if den == 1 else f"{num}/{den}")
        emit("crm", cfg.crm)
        emit("tbe", cfg.tbe)
        out.append("")
    for name, cfg in scenario.switches.items():
        out.append(f"[switch.{name}]")
        emit("target_utilization", repr(cfg.target_utilization))
        emit("interval_cells", cfg.interval_cells)
        emit("interval_us", repr(cfg.interval_us))
        out.append("")
    for name, cfg in scenario.links.items():
        out.append(f"[link.{name}]")
        emit("from", cfg.from_node)
        emit("to", cfg.to_node)
        emit("rate_mbps", repr(cfg.rate_mbps))
        emit("delay_us", repr(cfg.delay_us))
        out.append("")
    for name, cfg in scenario.vcs.items():
        out.append(f"[vc.{name}]")
        emit("path", ", ".join(cfg.path))
        out.append("")
    run = scenario.run
    out.append("[run]")
    emit("until_ms", repr(run.until_ms))
    if run.windows_ms:
        emit("windows_ms", ", ".join(f"{repr(lo)}:{repr(hi)}" for lo, hi in run.windows_ms))
    emit("osc_low_mbps", repr(run.osc_low_mbps))
    emit("osc_high_mbps", repr(run.osc_high_mbps))
    if run.steady_from_ms is not None:
        emit("steady_from_ms", repr(run.steady_from_ms))
    out.append("")
    return "\n".join(out)


def to_topology(scenario: Scenario) -> Topology:
    """Convert a scenario to engine units; raises ScenarioError if invalid."""
    topo = Topology()
    for name, cfg in scenario.sources.items():
        topo.source_params[name] = cfg.to_params()
    for name, cfg in scenario.switches.items():
        with error_context(f"switch {name}"):
            topo.switch_params[name] = cfg.to_params()
    for name, cfg in scenario.links.items():
        spec = LinkSpec(name=name, rate=mbps_to_cps(cfg.rate_mbps), prop_delay=us_to_ps(cfg.delay_us))
        topo.add_duplex_link(cfg.from_node, cfg.to_node, spec)
    topo.vcs = tuple(VcSpec(vc_id=name, path=cfg.path) for name, cfg in scenario.vcs.items())
    # VC endpoints that never send still need no parameters; sending
    # endpoints without a [source.] section get the defaults.
    for spec in topo.vcs:
        if spec.path[0] not in topo.source_params and spec.path[0] not in scenario.switches:
            topo.source_params[spec.path[0]] = SourceCfg().resolved().to_params()
    return topo


def bundled_config_text(name: str) -> str:
    """Read a configuration file shipped inside the package."""
    ref = importlib.resources.files("abrsim") / "configs" / name
    if not ref.is_file():
        raise ScenarioError(f"no bundled configuration named {name!r}")
    return ref.read_text(encoding="utf-8")
