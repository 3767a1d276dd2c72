"""Scenario and run-configuration types for the risk engine.

A scenario fixes a mean-vector family, a dimension, a replication count,
and an estimator description.  Families are either deterministic (the same
theta every replication) or random (theta redrawn per replication from a
least-favorable prior); each adds its theta to the observations in place.
Configurations come from JSON documents; the schema is in the package README.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

import numpy as np

from ..errors import MAX_COUNT, DomainError, check_int, check_real
from ..estimators import EstimatorSpec, resolve_parameters
from ..lowerbound import construct_prior_pair, scale_prior


@dataclass(frozen=True)
class ZeroVector:
    """theta = 0."""

    def add_to(self, y: np.ndarray, rng) -> float:
        return 0.0


@dataclass(frozen=True)
class ConstantAt:
    """Every coordinate equals `value`."""

    value: float

    def __post_init__(self):
        check_real("value", self.value)

    def add_to(self, y: np.ndarray, rng) -> float:
        y += float(self.value)
        return abs(float(self.value))


@dataclass(frozen=True)
class AlternationAtoms:
    """Coordinates drawn iid from a least-favorable prior scaled to [-M, M].

    The pair (nu0, nu1) matches moments to order k; `prior` picks which one
    feeds the scenario.  Redrawn every replication from one multinomial draw
    of the atom counts, coordinates grouped by atom in `positions` order; the
    scaled prior is built once, here.
    """

    k: int
    M: float
    prior: str = "nu1"

    def __post_init__(self):
        if self.prior not in ("nu0", "nu1"):
            raise DomainError(f"prior must be 'nu0' or 'nu1', got {self.prior!r}")
        check_real("M", self.M, above=0.0)
        nu0, nu1, _ = construct_prior_pair(self.k)   # validates k
        object.__setattr__(self, "_scaled", scale_prior(nu0 if self.prior == "nu0" else nu1, self.M))

    def add_to(self, y: np.ndarray, rng) -> float:
        w = np.asarray(self._scaled.weights)
        start = total = 0
        for t, c in zip(self._scaled.positions, rng.multinomial(y.size, w / w.sum()).tolist()):
            y[start:start + c] += t
            start += c
            total += c * abs(t)
        return total / y.size


@dataclass(frozen=True)
class TwoSpike:
    """Sparse pattern: the first `count` coordinates alternate +value, -value,
    the rest are zero."""

    count: int
    value: float

    def __post_init__(self):
        check_int("count", self.count, 1, MAX_COUNT)
        check_real("value", self.value)

    def add_to(self, y: np.ndarray, rng) -> float:
        value = float(self.value)
        y[0:self.count:2] += value
        y[1:self.count:2] -= value
        return self.count * abs(value) / y.size


@dataclass(frozen=True)
class CustomVector:
    """Explicit mean vector."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise DomainError("values must not be empty")
        for v in self.values:
            check_real("values", v)

    def add_to(self, y: np.ndarray, rng) -> float:
        theta = np.array(self.values, dtype=np.float64)
        y += theta
        return float(np.mean(np.abs(theta)))


# Each family's add_to(y, rng) adds its theta in place to y, a float64 vector of
# a length _check_fit accepts, and returns mean |theta|; only random families draw.
# The keys are the JSON config's family kinds.
FAMILIES = {"zero": ZeroVector, "constant": ConstantAt, "alternation": AlternationAtoms,
            "two_spike": TwoSpike, "custom": CustomVector}


def _check_fit(family, n: int) -> None:
    """Raise DomainError unless `family` is one of FAMILIES and fits length n."""
    if not isinstance(family, tuple(FAMILIES.values())):
        raise DomainError(f"unknown theta family {family!r}")
    if isinstance(family, TwoSpike) and family.count > n:
        raise DomainError(f"spike count {family.count} exceeds n = {n}")
    if isinstance(family, CustomVector) and len(family.values) != n:
        raise DomainError(f"custom vector has length {len(family.values)}, scenario n = {n}")


def draw_theta(family, n: int, rng: np.random.Generator) -> np.ndarray:
    """Realize the mean vector, a fresh array on every call: the family's
    add_to on zeros, so it consumes `rng` as a replication does."""
    n = check_int("n", n, 1, MAX_COUNT)
    _check_fit(family, n)
    theta = np.zeros(n)
    family.add_to(theta, rng)
    return theta


@dataclass(frozen=True)
class Scenario:
    id: str
    family: object
    n: int
    replications: int
    estimator: EstimatorSpec

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise DomainError("scenario id must be a nonempty string")
        # stored as Python ints, which the reports carry to JSON
        object.__setattr__(self, "n", check_int("n", self.n, 1, MAX_COUNT))
        object.__setattr__(self, "replications", check_int("replications", self.replications, 2, MAX_COUNT))
        _check_fit(self.family, self.n)
        if not isinstance(self.estimator, EstimatorSpec):
            raise DomainError("estimator must be an EstimatorSpec")


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple[Scenario, ...]
    seed: int
    output_path: str
    format: str = "csv"
    workers: int = 1
    compliance_slack: float = 2.0

    def __post_init__(self):
        if len(self.scenarios) == 0:
            raise DomainError("config needs at least one scenario")
        seen = set()
        for s in self.scenarios:
            if s.id in seen:
                raise DomainError(f"duplicate scenario id {s.id!r}")
            seen.add(s.id)
            try:   # the estimator must run at n; cutoff arithmetic only
                resolve_parameters(s.estimator, s.n)
            except DomainError as e:
                e.args = (f"scenario {s.id!r}: {e.args[0]}",) + e.args[1:]
                raise
        check_int("seed", self.seed, 0, (1 << 64) - 1)
        if not isinstance(self.output_path, str) or not self.output_path:
            raise DomainError(f"output_path must be a nonempty string, got {self.output_path!r}")
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be 'csv' or 'json', got {self.format!r}")
        check_int("workers", self.workers, 1, MAX_COUNT)
        check_real("compliance_slack", self.compliance_slack, above=0.0)


# ---------------------------------------------------------------------------
# JSON configuration

# The JSON keys are the dataclass fields, but for these two names.
_JSON_NAMES = {"K_override": "K", "k_n": "kn"}


def _build(cls, obj, what: str, **parse):
    """`cls` from the JSON object `obj`, whose keys are the JSON names of cls's
    fields; a field with no default is required, and parse[field] turns a
    nested value into the field's value."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object")
    keys = {_JSON_NAMES.get(f.name, f.name): f for f in fields(cls)}
    extra = set(obj) - set(keys)
    if extra:
        raise DomainError(f"unexpected keys {sorted(extra)} in {what}")
    missing = [key for key, f in keys.items() if key not in obj and f.default is MISSING]
    if missing:
        raise DomainError(f"{what} missing keys {missing}")
    return cls(**{f.name: parse[f.name](obj[key]) if f.name in parse else obj[key]
                  for key, f in keys.items() if key in obj})


def _tuple_of(name: str, item=lambda value: value):
    """Parser of a JSON list field into a tuple of item(entry)."""
    def parse(value) -> tuple:
        if not isinstance(value, list):
            raise DomainError(f"{name!r} must be a list")
        return tuple(item(entry) for entry in value)
    return parse


def _parse_family(obj) -> object:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("family must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise DomainError(f"unknown family kind {kind!r}; expected one of {sorted(FAMILIES)}")
    params = {key: value for key, value in obj.items() if key != "kind"}
    return _build(FAMILIES[kind], params, f"family {kind!r}", values=_tuple_of("values"))


def _parse_estimator(obj) -> EstimatorSpec:
    if isinstance(obj, dict) and "seed" in obj:
        raise DomainError("the estimator takes no 'seed' key: the run seed drives the sample split")
    return _build(EstimatorSpec, obj, "estimator")


def _parse_scenario(obj) -> Scenario:
    return _build(Scenario, obj, "scenario", family=_parse_family, estimator=_parse_estimator)


def parse_config(text: str) -> RunConfig:
    """Parse a JSON configuration document into a validated RunConfig."""
    try:
        doc = json.loads(text)
    except ValueError as e:   # also an integer past Python's digit limit
        raise DomainError(f"config is not valid JSON: {e}") from e
    return _build(RunConfig, doc, "config", scenarios=_tuple_of("scenarios", _parse_scenario))


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
