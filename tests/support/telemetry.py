"""Telemetry test instruments: an in-memory span sink and a strict
OpenMetrics reader.

:class:`ListSink` collects tracer records in memory for assertions.
:func:`parse_openmetrics` is a deliberately strict reader of the
grammar :func:`repro.telemetry.openmetrics.render_openmetrics` emits
(families must be typed before their samples, bucket counts must be
monotone, the terminator must be present), so the exporter is
validated by an actual round-trip rather than by eyeballing; CI's
telemetry smoke reads a live ``/metrics`` scrape with it too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


class ListSink:
    """Collects records in memory (tests and ad-hoc inspection)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:  # symmetry with JsonlSink
        pass

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """The collected span records, optionally filtered by name."""
        return [
            record for record in self.records
            if record["kind"] == "span"
            and (name is None or record["name"] == name)
        ]

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """The collected event records, optionally filtered by name."""
        return [
            record for record in self.records
            if record["kind"] == "event"
            and (name is None or record["name"] == name)
        ]


#: sample-line grammar: name, optional {labels}, value
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class OpenMetricsParseError(ValueError):
    """The text violated the subset of the grammar we emit."""


@dataclass
class Sample:
    """One parsed sample line."""

    name: str
    labels: Dict[str, str]
    value: float


@dataclass
class MetricFamily:
    """One parsed metric family: its declared type plus its samples."""

    name: str
    type: str
    samples: List[Sample] = field(default_factory=list)

    def sample_value(self, name: str, **labels: str) -> float:
        """The value of the sample matching ``name`` and ``labels``."""
        wanted = {key: str(value) for key, value in labels.items()}
        for sample in self.samples:
            if sample.name == name and sample.labels == wanted:
                return sample.value
        raise KeyError(f"no sample {name}{wanted} in family {self.name}")


#: sample-name suffixes each family type may legally expose
_ALLOWED_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_sum", "_count"),
}


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError as exc:
        raise OpenMetricsParseError(f"bad sample value {text!r}") from exc


def parse_openmetrics(text: str) -> Dict[str, MetricFamily]:
    """Parse OpenMetrics text into families keyed by family name.

    Enforces the invariants the renderer guarantees: every sample
    belongs to a previously-typed family, the sample-name suffix is
    legal for the family type, histogram buckets are cumulative and
    terminated by ``le="+Inf"``, and the exposition ends with
    ``# EOF``.
    """
    families: Dict[str, MetricFamily] = {}
    saw_eof = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line:
            continue
        if saw_eof:
            raise OpenMetricsParseError(
                f"line {lineno}: content after # EOF"
            )
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise OpenMetricsParseError(
                    f"line {lineno}: malformed TYPE line {line!r}"
                )
            _, _, name, family_type = parts
            if family_type not in _ALLOWED_SUFFIXES:
                raise OpenMetricsParseError(
                    f"line {lineno}: unknown family type {family_type!r}"
                )
            if name in families:
                raise OpenMetricsParseError(
                    f"line {lineno}: family {name!r} typed twice"
                )
            families[name] = MetricFamily(name=name, type=family_type)
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT lines are legal noise
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise OpenMetricsParseError(
                f"line {lineno}: malformed sample {line!r}"
            )
        name = match.group("name")
        family = _owning_family(families, name)
        if family is None:
            raise OpenMetricsParseError(
                f"line {lineno}: sample {name!r} precedes its TYPE line"
            )
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            consumed = 0
            for label in _LABEL_RE.finditer(label_text):
                labels[label.group("key")] = _unescape_label_value(
                    label.group("value")
                )
                consumed = label.end()
            rest = label_text[consumed:].strip(", ")
            if rest:
                raise OpenMetricsParseError(
                    f"line {lineno}: malformed labels {label_text!r}"
                )
        family.samples.append(Sample(
            name=name, labels=labels,
            value=_parse_value(match.group("value")),
        ))
    if not saw_eof:
        raise OpenMetricsParseError("missing # EOF terminator")
    for family in families.values():
        _validate_family(family)
    return families


def _owning_family(families: Dict[str, MetricFamily],
                   sample_name: str):
    """Resolve a sample to its family via the type's legal suffixes."""
    for family in families.values():
        for suffix in _ALLOWED_SUFFIXES[family.type]:
            if sample_name == family.name + suffix:
                return family
    return None


def _validate_family(family: MetricFamily) -> None:
    if family.type != "histogram":
        return
    # bucket series must be cumulative per label set and end at +Inf
    series: Dict[Tuple[Tuple[str, str], ...], List[Sample]] = {}
    for sample in family.samples:
        if not sample.name.endswith("_bucket"):
            continue
        key = tuple(sorted(
            (k, v) for k, v in sample.labels.items() if k != "le"
        ))
        series.setdefault(key, []).append(sample)
    for key, samples in series.items():
        counts = [sample.value for sample in samples]
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise OpenMetricsParseError(
                f"histogram {family.name}{dict(key)}: bucket counts "
                f"are not cumulative"
            )
        if samples[-1].labels.get("le") != "+Inf":
            raise OpenMetricsParseError(
                f"histogram {family.name}{dict(key)}: missing "
                f'le="+Inf" bucket'
            )
