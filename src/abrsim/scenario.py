"""Scenario files: a line-oriented ``key = value`` format with sections.

Sections are ``[source.<name>]``, ``[switch.<name>]``, ``[link.<name>]``,
``[vc.<name>]`` and ``[run]``; ``#`` starts a comment.  A section's keys,
their value types and their rendering order are the fields of its ``*Cfg``
dataclass.  Rates are given in Mbps and delays in us or ms; ``delay_ms`` is
checked as parsed and kept in us, and the rest is converted and checked by
the engine types at topology build.  Unknown sections or keys are errors;
missing keys fall back to the standard parameter block (OC-3 peak rate,
zero minimum rate, initial rate at 90% of peak, one RM cell per 32 cells,
rate increase factor 1, cutoff decrease factor 1/16, cutoff threshold 32).

An empty file yields the default scenario: one source, one switch, one
destination on 5 us LAN links.
"""

from __future__ import annotations

import importlib.resources
import math
import sys
from contextlib import contextmanager
from dataclasses import Field, dataclass, field, fields, replace

from .analysis import crm_from_tbe
from .engine import ConfigError, LinkSpec, SwitchParams, Topology, VcSpec
from .protocol import SourceParams
from .switch import INTERVAL_RULE
from .units import mbps_to_cps, ms_to_ps, us_to_ps


class ScenarioError(Exception):
    """Malformed or inconsistent scenario text."""


@contextmanager
def error_context(label: str):
    """Report a ValueError or ConfigError in the block as ``ScenarioError("<label>: ...")``."""
    try:
        yield
    except (ValueError, ConfigError) as exc:
        raise ScenarioError(f"{label}: {exc}") from None


def _converted(cfg, key: str, convert=mbps_to_cps):
    """``cfg.<key>`` in engine units (by default Mbps to cells/s); an error names the key."""
    try:
        return convert(getattr(cfg, key))
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


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
        to 32); crm = crm_from_tbe(tbe, nrm) when only tbe is given, and the
        two must agree when both are.
        """
        icr = 0.9 * self.pcr_mbps if self.icr_mbps is None else self.icr_mbps
        crm = self.crm
        if crm is None:
            crm = 32 if self.tbe is None else crm_from_tbe(self.tbe, self.nrm)
        tbe = crm * self.nrm if self.tbe is None else self.tbe
        cfg = replace(self, icr_mbps=icr, crm=crm, tbe=tbe)
        cfg.to_params()
        if crm != (implied := crm_from_tbe(tbe, self.nrm)):  # the tbe rule
            raise ValueError(f"crm ({crm}) inconsistent with ceil(tbe/nrm) = {implied} "
                             f"(tbe={tbe}, nrm={self.nrm})")
        return cfg

    def to_params(self) -> SourceParams:
        """Engine-unit parameters of a resolved configuration."""
        pcr, mcr, icr = (_converted(self, key) for key in ("pcr_mbps", "mcr_mbps", "icr_mbps"))
        return SourceParams(pcr, mcr, icr, self.nrm, self.rif, self.cdf, self.crm)


@dataclass
class SwitchCfg:
    target_utilization: float = 0.9
    interval_cells: int = 30
    interval_us: float = 20.0

    def to_params(self) -> SwitchParams:
        limit = _converted(self, "interval_us", us_to_ps)
        if limit < 1:  # ``SwitchParams`` would quote the value rounded to the clock
            raise ValueError(f"{INTERVAL_RULE}, got {self.interval_us:g}")
        return SwitchParams(
            target_utilization=self.target_utilization,
            interval_cell_limit=self.interval_cells,
            interval_time_limit=limit,
        )


@dataclass
class LinkCfg:
    # ``from`` and ``to`` are Python keywords, so the scenario key is metadata.
    from_node: str = field(default="", metadata={"key": "from"})
    to_node: str = field(default="", metadata={"key": "to"})
    rate_mbps: float = 155.52
    delay_us: float = 5.0  # also settable as ``delay_ms``


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

    def summary_windows(self) -> list[tuple[float, float]]:
        """The windows the summary reports, in ms: the whole run, each of
        ``windows_ms`` that ends by the horizon, then the steady window.
        A zero horizon has none."""
        if self.until_ms == 0:
            return []
        ends_by = [w for w in self.windows_ms if w[1] <= self.until_ms]
        return [(0.0, self.until_ms), *ends_by, self.steady_window()]

    def check(self) -> None:
        """The ``[run]`` rule; checked again after ``--until-ms`` sets the horizon."""
        with error_context("run: until_ms"):
            ms_to_ps(self.until_ms)
        for lo, hi in self.windows_ms:
            if not 0 <= lo < hi:
                raise ScenarioError(f"run: windows_ms needs 0 <= start < end, got {lo}:{hi}")
        start = self.steady_from_ms
        if start is not None and not 0 <= start < self.until_ms:
            raise ScenarioError(
                f"run: steady_from_ms must be >= 0 and below until_ms, "
                f"got {start} and {self.until_ms}"
            )
        windows = self.summary_windows()
        keys = ["until_ms", *["windows_ms"] * (len(windows) - 2), "steady_from_ms"]
        for key, (t0, t1) in zip(keys, windows):
            if ms_to_ps(t0) >= ms_to_ps(t1):
                raise ScenarioError(
                    f"run: {key}: the window {t0}:{t1} ms is empty on the picosecond clock"
                )
        low, high = self.osc_low_mbps, self.osc_high_mbps
        if not 0 <= low < high:
            raise ScenarioError(
                f"run: osc_low_mbps must be >= 0 and below osc_high_mbps, got {low} and {high}"
            )
        with error_context("run: osc_high_mbps"):
            mbps_to_cps(high)  # the lower threshold, below it, converts too


@dataclass
class Scenario:
    sources: dict[str, SourceCfg] = field(default_factory=dict)
    switches: dict[str, SwitchCfg] = field(default_factory=dict)
    links: dict[str, LinkCfg] = field(default_factory=dict)
    vcs: dict[str, VcCfg] = field(default_factory=dict)
    run: RunCfg = field(default_factory=RunCfg)


# Named sections: kind -> (Scenario attribute, configuration dataclass).
_SECTIONS = {
    "source": ("sources", SourceCfg),
    "switch": ("switches", SwitchCfg),
    "link": ("links", LinkCfg),
    "vc": ("vcs", VcCfg),
}


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
    try:
        divisor = float(den) if slash else 1.0
        value = float(num) / divisor if divisor else math.inf
        if math.isfinite(value) and math.isfinite(divisor):
            return value
    except ValueError:
        pass
    raise ValueError(f"expected a finite number, got {text!r}")


def parse_integer(text: str) -> int:
    """Parse a count: a base-10 integer; ValueError otherwise."""
    try:
        return int(text, 10)
    except ValueError:
        if len(text) > (limit := sys.get_int_max_str_digits()) > 0:  # too long to quote
            raise ValueError(f"expected an integer of at most {limit} digits, "
                             f"got {len(text)} characters") from None
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_windows(text: str) -> tuple[tuple[float, float], ...]:
    windows = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ValueError(f"window must be 'start:end', got {part!r}")
        windows.append((parse_number(lo), parse_number(hi)))
    return tuple(windows)


def _key(f: Field) -> str:
    """The scenario key of a configuration field."""
    return f.metadata.get("key", f.name)


def _section_keys(cfg_type) -> dict[str, Field]:
    """Scenario key -> field of a section's configuration dataclass."""
    keys = {_key(f): f for f in fields(cfg_type)}
    if cfg_type is LinkCfg:
        keys["delay_ms"] = keys["delay_us"]  # scaled by 1000 when parsed
    return keys


def _parse_value(f: Field, text: str):
    """Parse ``text`` as a value of field ``f``."""
    if f.name == "path":
        return tuple(n.strip() for n in text.split(",") if n.strip())
    if f.name == "windows_ms":
        return _parse_windows(text)
    if f.type == "str":
        return text
    return parse_integer(text) if f.type.startswith("int") else parse_number(text)


def parse_key(cfg_type, key: str, text: str):
    """Parse ``text`` as the value of ``key`` in a section of ``cfg_type``."""
    return _parse_value(_section_keys(cfg_type)[key], text)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a fully resolved, validated Scenario."""
    scenario = Scenario()
    kind = section = ""
    current: object = None
    keys: dict[str, Field] = {}
    seen_sections: set[str] = set()
    seen_keys: dict[tuple[str, str], str] = {}  # (section, field name) -> key

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("["):
                if not line.endswith("]"):
                    raise ValueError(f"malformed section header {line!r}")
                section = line[1:-1].strip()
                kind, _, name = section.partition(".")
                if section == "run":
                    current = scenario.run
                elif kind in _SECTIONS and name:
                    if kind in ("switch", "vc") and any(c in name for c in "/\\\0"):
                        raise ValueError(f"{kind} name {name!r} must not contain '/', '\\' or NUL")
                    prefix = {"switch": "queues_", "vc": "recv_"}.get(kind)  # longest output file
                    if prefix and len(f"{prefix}{name}.csv".encode()) > 255:  # NAME_MAX on Linux
                        raise ValueError(f"{kind} name is too long: {prefix}<name>.csv must fit "
                                         "in 255 bytes of UTF-8")
                    attr, cfg_type = _SECTIONS[kind]
                    current = getattr(scenario, attr).setdefault(name, cfg_type())
                else:
                    raise ValueError(f"unknown section {section!r}")
                if section in seen_sections:
                    raise ValueError(f"duplicate section [{section}]")
                seen_sections.add(section)
                keys = _section_keys(type(current))
                continue

            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"expected 'key = value', got {line!r}")
            key = key.strip()
            if current is None:
                raise ValueError("key outside of any section")
            f = keys.get(key)
            if f is None:
                raise ValueError(f"unknown {kind} key {key!r}")
            slot = (section, f.name)
            if slot in seen_keys:
                if seen_keys[slot] == key:
                    raise ValueError(f"duplicate key {key!r}")
                raise ValueError(f"give {seen_keys[slot]} or {key}, not both")
            seen_keys[slot] = key
            parsed = _parse_value(f, value.strip())
        except ValueError as exc:  # the one place a line's number is given
            raise ScenarioError(f"line {line_no}: {exc}") from None
        if key == "delay_ms":  # kept in us: checked here, so that errors quote the ms
            with error_context(f"link {name}: delay_ms"):
                ms_to_ps(parsed)
            parsed *= 1000.0
        setattr(current, f.name, parsed)

    if not seen_sections:
        return default_scenario()

    _validate(scenario)
    # A VC's sender without a [source.] section runs on the defaults.
    for vc in scenario.vcs.values():
        if vc.path and vc.path[0] not in scenario.switches:
            scenario.sources.setdefault(vc.path[0], SourceCfg())
    for name, cfg in scenario.sources.items():
        with error_context(f"source {name}"):
            scenario.sources[name] = cfg.resolved()
    return scenario


def _validate(scenario: Scenario) -> None:
    """The format's own rules; the engine types check the values."""
    for name, cfg in scenario.links.items():
        if not cfg.from_node or not cfg.to_node:
            raise ScenarioError(f"link {name}: both 'from' and 'to' are required")
    scenario.run.check()


def _render_keys(cfg) -> list[str]:
    """``key = value`` lines of one section in field order; unset values are left out."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None or value == ():
            continue
        if f.name == "cdf":
            num, den = value.as_integer_ratio()  # 1/64, not 0.015625
            value = num if den == 1 else f"{num}/{den}"
        elif f.name == "windows_ms":
            value = ", ".join(f"{lo}:{hi}" for lo, hi in value)
        elif f.name == "path":
            value = ", ".join(value)
        lines.append(f"{_key(f)} = {value}")  # str(float) == repr(float)
    return lines


def render_scenario(scenario: Scenario) -> str:
    """Canonical text for a parsed scenario; parse(render(s)) == s."""
    out = []
    for kind, (attr, _cfg_type) in _SECTIONS.items():
        for name, cfg in getattr(scenario, attr).items():
            out += [f"[{kind}.{name}]", *_render_keys(cfg), ""]
    out += ["[run]", *_render_keys(scenario.run), ""]
    return "\n".join(out)


def to_topology(scenario: Scenario) -> Topology:
    """Convert a scenario to engine units and run the engine's checks on it.

    Raises ScenarioError (``switch <name>: ...``, ``link <name>: ...``) or
    ConfigError (``vc <name>: ...``) if invalid.
    """
    topo = Topology()
    for name, cfg in scenario.sources.items():
        topo.source_params[name] = cfg.to_params()
    for name, cfg in scenario.switches.items():
        with error_context(f"switch {name}"):
            topo.switch_params[name] = cfg.to_params()
    for name, cfg in scenario.links.items():
        with error_context(f"link {name}"):
            spec = LinkSpec(
                rate=_converted(cfg, "rate_mbps"),
                prop_delay=_converted(cfg, "delay_us", us_to_ps),
            )
            topo.add_duplex_link(cfg.from_node, cfg.to_node, spec)
    topo.vcs = tuple(VcSpec(vc_id=name, path=cfg.path) for name, cfg in scenario.vcs.items())
    topo.validate()
    return topo


def bundled_config_text(name: str) -> str:
    """Read a configuration file shipped inside the package."""
    ref = importlib.resources.files("abrsim") / "configs" / name
    if not ref.is_file():
        raise ScenarioError(f"no bundled configuration named {name!r}")
    return ref.read_text(encoding="utf-8")
