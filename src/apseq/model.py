"""Core domain types: AP deployments, RSS scans, and ordered AP signatures.

A *signature* is the sequence of AP ids ordered from strongest to weakest
received signal.  Under a monotone path-loss model this equals the APs
ordered by increasing distance, which is what makes signatures usable as
survey-free location fingerprints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

# RSS value (dBm) standing in for "not detected" in scans and scan files.
UNDETECTED_DBM = -100.0

# A signature: AP ids ordered strongest-first.  Plain tuples so they can key
# fingerprint-map dictionaries directly.
Signature = tuple[int, ...]

# A subset of AP ids, always stored sorted ascending.
SubsetKey = tuple[int, ...]


def _quantize(x: float) -> float:
    """Round to 6 fractional digits (the precision of the text formats).

    Values are quantized at construction time so that write -> parse
    round-trips reproduce fields bit-exactly.
    """
    return float(f"{float(x):.6f}")


@dataclass(frozen=True)
class ApDeployment:
    """Access points with known coordinates inside a rectangular area.

    Coordinates are metres, origin at the lower-left corner of the area.
    Positions are quantized to 6 fractional digits on construction to match
    the on-disk precision of deployment files, and aps is sorted by ap_id.
    """

    width: float
    height: float
    aps: tuple[tuple[int, float, float], ...]  # (ap_id, x, y)

    def __post_init__(self):
        object.__setattr__(self, "width", _quantize(self.width))
        object.__setattr__(self, "height", _quantize(self.height))
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError("deployment area must have finite, positive width and height")
        aps = tuple(
            sorted((int(i), _quantize(x), _quantize(y)) for i, x, y in self.aps)
        )
        object.__setattr__(self, "aps", aps)
        if len(aps) < 2:
            raise ValueError("deployment needs at least 2 APs")
        ids = [i for i, _, _ in aps]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ap_id in deployment")
        if any(i <= 0 for i in ids):
            raise ValueError("ap_id must be a positive integer")
        for i, x, y in aps:
            if not (0.0 <= x <= self.width and 0.0 <= y <= self.height):
                raise ValueError(f"AP {i} lies outside the area")

    @property
    def ap_ids(self) -> tuple[int, ...]:
        """AP ids, sorted ascending."""
        return tuple(i for i, _, _ in self.aps)

    @cached_property
    def ap_id_set(self) -> frozenset[int]:
        """AP ids as a set, built once, for membership tests on the online path."""
        return frozenset(i for i, _, _ in self.aps)

    @property
    def n_aps(self) -> int:
        return len(self.aps)

    def position(self, ap_id: int) -> tuple[float, float]:
        for i, x, y in self.aps:
            if i == ap_id:
                return (x, y)
        raise ValueError(f"unknown ap_id {ap_id}")

    def positions(self, subset: Iterable[int]) -> list[tuple[float, float]]:
        return [self.position(i) for i in subset]


@dataclass(frozen=True)
class RssScan:
    """One aggregated RSS observation: ap_id -> mean dBm.

    Undetected APs either carry ``UNDETECTED_DBM`` or are absent from the
    mapping; both are treated the same by consumers.
    """

    values: Mapping[int, float]

    def detected(self) -> dict[int, float]:
        """The detected portion of the scan (sentinel entries dropped)."""
        return {i: v for i, v in self.values.items() if v != UNDETECTED_DBM}


def subset_key(ids: Iterable[int]) -> SubsetKey:
    """Normalize a collection of AP ids into a sorted SubsetKey."""
    key = tuple(sorted(map(int, ids)))
    if len(key) < 2:
        raise ValueError("AP subset needs at least 2 ids")
    if len(set(key)) != len(key):
        raise ValueError("duplicate AP id in subset")
    return key


def signature_to_text(sig: Signature) -> str:
    """Render a signature as dash-joined ids, e.g. ``3-6-7-2``."""
    return "-".join(map(str, sig))


def parse_signature(text: str) -> Signature:
    """Inverse of :func:`signature_to_text`."""
    fields = text.split("-")
    sig = []
    for f in fields:
        if f == "":
            raise ValueError("empty field in signature text")
        try:
            sig.append(int(f))
        except ValueError:
            raise ValueError(f"non-integer field {f!r} in signature text") from None
    if len(set(sig)) != len(sig):
        raise ValueError("duplicate id in signature text")
    return tuple(sig)


# ----------------------------------------------------------------------------
# Deployment file format:
#
#   APSEQ-DEPLOY v1
#   area <width> <height>
#   ap <id> <x> <y>
#   ...

DEPLOY_HEADER = "APSEQ-DEPLOY v1"


def save_deployment(deployment: ApDeployment, path) -> None:
    with open(path, "w") as fh:
        fh.write(deployment_to_text(deployment))


def deployment_to_text(deployment: ApDeployment) -> str:
    lines = [DEPLOY_HEADER]
    lines.append(f"area {deployment.width:.6f} {deployment.height:.6f}")
    for i, x, y in deployment.aps:
        lines.append(f"ap {i} {x:.6f} {y:.6f}")
    return "\n".join(lines) + "\n"


def load_deployment(path) -> ApDeployment:
    with open(path) as fh:
        return deployment_from_text(fh.read(), source=str(path))


def deployment_from_text(text: str, source: str = "<string>") -> ApDeployment:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != DEPLOY_HEADER:
        raise ValueError(f"{source}: unsupported version (expected {DEPLOY_HEADER!r})")
    area = None
    aps = []
    for ln in lines[1:]:
        kind, *fields = ln.split()
        if kind not in ("area", "ap"):
            raise ValueError(f"{source}: unknown line {ln!r}")
        if kind == "area" and area is not None:
            raise ValueError(f"{source}: duplicate area line")
        try:
            if kind == "area" and len(fields) == 2:
                area = (float(fields[0]), float(fields[1]))
            elif kind == "ap" and len(fields) == 3:
                aps.append((int(fields[0]), float(fields[1]), float(fields[2])))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"{source}: malformed {kind} line {ln!r}") from None
    if area is None:
        raise ValueError(f"{source}: missing area line")
    try:
        return ApDeployment(width=area[0], height=area[1], aps=tuple(aps))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
