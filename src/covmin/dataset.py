"""Dataset loading, validation, cost computation, and page tokenization.

An input is an identified sequence of HTTP actions with the raw page text
recorded for each action and a map of per-relation action counts used as the
cost surrogate. Inputs whose total cost is zero are dropped at load time: they
would never be exercised and cannot contribute to the minimized set.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)

# I-JSON's interoperable integer range is magnitudes up to 2**53 - 1 (RFC
# 7493, section 2.2); every float derived from an int within it is finite.
MAX_SAFE_INT = 2**53 - 1


class ValidationError(ValueError):
    """Raised when a dataset file violates the schema or an invariant."""


@dataclass(frozen=True)
class Action:
    method: str  # "GET" or "POST"
    url_words: tuple[str, ...]
    params: tuple[tuple[str, str | int], ...] = ()

    def __post_init__(self):
        if self.method not in ("GET", "POST"):
            raise ValidationError(f"unknown request method: {self.method!r}")
        if len(self.url_words) < 2:
            raise ValidationError("a URL must consist of at least two words")
        if any((not w) or ("/" in w) for w in self.url_words):
            raise ValidationError("URL words must be non-empty and contain no '/'")


def split_url(url: str) -> tuple[str, ...]:
    """Split a URL string into its word sequence: once on '://', then on '/'."""
    scheme, sep, rest = url.partition("://")
    if not sep:
        raise ValidationError(f"URL without scheme separator: {url!r}")
    words = [scheme] + [w for w in rest.split("/") if w]
    return tuple(words)


@dataclass(frozen=True)
class InputRecord:
    id: int
    actions: tuple[Action, ...]
    outputs: tuple[str, ...]
    mr_action_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.id <= 0:
            raise ValidationError(f"input id must be positive, got {self.id}")
        if not self.actions:
            raise ValidationError(f"input {self.id} has an empty action list")
        if len(self.outputs) != len(self.actions):
            raise ValidationError(
                f"input {self.id}: {len(self.outputs)} outputs for "
                f"{len(self.actions)} actions"
            )
        if any(n < 0 for n in self.mr_action_counts.values()):
            raise ValidationError(f"input {self.id}: negative MR action count")

    def __len__(self) -> int:
        return len(self.actions)


def compute_cost(record: InputRecord) -> int:
    """Total number of actions the considered relations would execute."""
    return sum(record.mr_action_counts.values())


@dataclass(frozen=True)
class Dataset:
    inputs: tuple[InputRecord, ...]
    vulnerabilities: tuple[tuple[str, tuple[frozenset[int], ...]], ...] = ()

    def costs(self) -> dict[int, int]:
        return {rec.id: compute_cost(rec) for rec in self.inputs}

    def by_id(self) -> dict[int, InputRecord]:
        return {rec.id: rec for rec in self.inputs}


def _checked(value, kind, what: str):
    """`value` if it is a `kind` (bool is not an int), else a ValidationError."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValidationError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def _objects(raw: dict, key: str) -> list:
    items = _checked(raw.get(key, []), list, f"{key!r}")
    return [_checked(obj, dict, f"entry of {key!r}") for obj in items]


def _field(obj: dict, key: str, kind, entry: str):
    """`obj[key]` checked to be a `kind`; a missing key or a wrong type is a
    ValidationError naming the `entry`."""
    if key not in obj:
        raise ValidationError(f"{entry} has no {key!r}")
    return _checked(obj[key], kind, f"{entry} {key!r}")


def _parse_param(obj: dict, entry: str) -> tuple[str, str | int]:
    name, type_name = _field(obj, "name", str, entry), _field(obj, "type", str, entry)
    for kind in (str, int):
        if type_name == kind.__name__:
            value = _field(obj, "value", kind, entry)
            if kind is int and abs(value) > MAX_SAFE_INT:
                raise ValidationError(f"{entry} 'value' is outside I-JSON's ±(2**53 - 1)")
            return name, value
    raise ValidationError(f"{entry}: unknown parameter type {type_name!r}")


def _parse_action(obj: dict, entry: str) -> Action:
    return Action(
        method=_field(obj, "method", str, entry),
        url_words=split_url(_field(obj, "url", str, entry)),
        params=tuple(_parse_param(p, f"{entry} parameter {k}")
                     for k, p in enumerate(_objects(obj, "params"))),
    )


def read_json(path, what: str):
    """The JSON value in the file at `path`. A file that is not UTF-8 JSON,
    holds an integer of more digits than Python converts, or nests too deep
    is a ValidationError naming it as the `what` file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed {what} file {path}: {exc}") from exc


def load_dataset(path) -> Dataset:
    """Load and validate a dataset file, dropping zero-cost inputs. Int
    parameter values and the total cost stay within I-JSON's integer range."""
    raw = read_json(path, "dataset")
    _checked(raw, dict, f"top level of {path}")

    records = []
    seen_ids = set()
    dropped = set()
    total_cost = 0
    for index, obj in enumerate(_objects(raw, "inputs")):
        entry = f"{path}: input entry {index}"
        input_id = _field(obj, "id", int, entry)
        counts = _checked(obj.get("mr_action_counts", {}), dict,
                          f"input {input_id} mr_action_counts")
        rec = InputRecord(
            id=input_id,
            actions=tuple(_parse_action(a, f"{entry} action {k}")
                          for k, a in enumerate(_objects(obj, "actions"))),
            outputs=tuple(_checked(out, str, f"input {input_id} output")
                          for out in _field(obj, "outputs", list, entry)),
            mr_action_counts={
                str(k): _checked(v, int, f"input {input_id} MR action count")
                for k, v in counts.items()
            },
        )
        if rec.id in seen_ids:
            raise ValidationError(f"duplicate input id {rec.id}")
        seen_ids.add(rec.id)
        cost = compute_cost(rec)
        total_cost += cost
        if total_cost > MAX_SAFE_INT:
            raise ValidationError(
                f"{path}: input {rec.id} takes the total cost above I-JSON's 2**53 - 1")
        if cost == 0:
            logger.warning("dropping input %d: zero cost, never exercised", rec.id)
            dropped.add(rec.id)
            continue
        records.append(rec)

    vulns = {}
    for index, obj in enumerate(_objects(raw, "vulnerabilities")):
        entry = f"{path}: vulnerability entry {index}"
        vuln_id = _field(obj, "id", str, entry)
        if vuln_id in vulns:
            raise ValidationError(f"duplicate vulnerability id {vuln_id!r}")
        groups = tuple(
            frozenset(_checked(i, int, "detecting group member")
                      for i in _checked(grp, list, "detecting group"))
            for grp in _field(obj, "detecting_groups", list, entry)
        )
        for grp in groups:
            if not grp:
                # An empty group would hold in every selection.
                raise ValidationError(f"vulnerability {vuln_id!r} has an empty detecting group")
            missing = grp - seen_ids
            if missing:
                raise ValidationError(
                    f"vulnerability {vuln_id!r} references unknown inputs {sorted(missing)}"
                )
            zero_cost = grp & dropped
            if zero_cost:
                # The group could never hold once its zero-cost members go.
                raise ValidationError(
                    f"vulnerability {vuln_id!r} references dropped zero-cost inputs "
                    f"{sorted(zero_cost)}"
                )
        vulns[vuln_id] = groups

    return Dataset(inputs=tuple(records), vulnerabilities=tuple(vulns.items()))


# --- page tokens ---

_TAG_RE = re.compile(r"<[^>]*>")
# Keeps the bytes of ASCII digits and lowercase letters, and makes every
# other byte a space.
_WORD_BYTES = bytes(c if chr(c) in "0123456789abcdefghijklmnopqrstuvwxyz" else 32
                    for c in range(256))


@dataclass(frozen=True)
class TokenDoc:
    tokens: tuple[str, ...]


def tokenize(raw: str) -> list[str]:
    """The words of a page: markup stripped, lowercased, the runs of ASCII
    letters and digits. Every other code point, once lowercased, ends a
    word: ASCII encoding makes each non-ASCII one a "?", and the byte
    table makes it and every other byte a space."""
    text = _TAG_RE.sub(" ", raw).lower().encode("ascii", "replace")
    return text.translate(_WORD_BYTES).decode("ascii").split()
