"""Run configuration: clustering choices, grids, and search parameters."""

from __future__ import annotations

import math
import types
import typing
from dataclasses import dataclass

from .dataset import ValidationError, _checked, read_json

# The most DBSCAN grid points (eps values times min_neighbors values) a run
# configuration may ask for; the walk labels each of them in turn.
MAX_GRID_POINTS = 100_000
# The most individuals, n_size + 2 * generations, one component's genetic
# search may evaluate; the search has no other budget.
MAX_SEARCH_INDIVIDUALS = 100_000
# The DBSCAN eps grid runs up to the top of `eps_range` plus this slack.
EPS_SLACK = 1e-9


class HyperParamGrid(typing.NamedTuple):
    """One algorithm's grid, as `RunConfig.grid` reads it off the validated
    run configuration."""

    algo: str  # "kmeans" or "dbscan"
    k_range: tuple[int, int]
    eps_range: tuple[float, float]
    eps_step: float | None  # None: 1.0 for integer matrices else 0.5
    min_neighbors_range: tuple[int, int]


@dataclass(frozen=True)
class RunConfig:
    output_metric: str = "lev"          # lev | bag
    output_algo: str = "dbscan"         # kmeans | dbscan
    action_algo: str = "dbscan"
    shared_threshold: float = 0.8
    k_range: tuple[int, int] = (1, 70)
    eps_range: tuple[float, float] = (2.0, 10.0)
    eps_step: float | None = None
    min_neighbors_range: tuple[int, int] = (1, 5)
    n_size: int = 20
    generations: int = 100

    def __post_init__(self):
        if self.output_metric not in ("lev", "bag"):
            raise ValidationError(f"unknown output metric: {self.output_metric!r}")
        for algo in (self.output_algo, self.action_algo):
            if algo not in ("kmeans", "dbscan"):
                raise ValidationError(f"unknown clustering algorithm: {algo!r}")
        if not 0 < self.shared_threshold <= 1:
            raise ValidationError(f"shared_threshold must be in (0, 1], got {self.shared_threshold}")
        if self.n_size < 2:
            raise ValidationError("population size must be at least 2")
        if self.generations < 0:
            raise ValidationError("generations must be at least 0")
        individuals = self.n_size + 2 * self.generations
        if individuals > MAX_SEARCH_INDIVIDUALS:
            raise ValidationError(f"n_size {self.n_size} and generations {self.generations} "
                                  f"make a search of {individuals} individuals (n_size + 2 * "
                                  f"generations), above the bound of {MAX_SEARCH_INDIVIDUALS}")
        for name, (lo, hi) in (("k_range", self.k_range),
                               ("min_neighbors_range", self.min_neighbors_range)):
            if not 1 <= lo <= hi:
                raise ValidationError(f"{name} must be ordered and start at 1 or more, "
                                      f"got {[lo, hi]}")
        lo, hi = self.eps_range
        if not 0 < lo <= hi < math.inf:
            raise ValidationError("eps_range must be ordered, positive and finite, "
                                  f"got {[lo, hi]}")
        # The DBSCAN walk visits eps values (at 0.5, the finer step, when
        # eps_step is None) times min_neighbors values. A step below the float
        # spacing at the grid's top leaves eps where it is: an endless grid.
        step = 0.5 if self.eps_step is None else self.eps_step
        advances = math.ulp(hi + EPS_SLACK) <= step < math.inf
        mn_lo, mn_hi = self.min_neighbors_range
        eps_points = (hi + EPS_SLACK - lo) // step + 1 if advances else math.inf
        points = eps_points * (mn_hi - mn_lo + 1)
        if points > MAX_GRID_POINTS:
            raise ValidationError(f"eps_range {[lo, hi]}, eps_step {self.eps_step} and "
                                  f"min_neighbors_range {[mn_lo, mn_hi]} make a DBSCAN grid "
                                  f"of {points:g} points, above the bound of {MAX_GRID_POINTS}")

    def grid(self, algo: str) -> HyperParamGrid:
        return HyperParamGrid(
            algo=algo,
            k_range=self.k_range,
            eps_range=self.eps_range,
            eps_step=self.eps_step,
            min_neighbors_range=self.min_neighbors_range,
        )

    def label(self) -> str:
        metric = "L" if self.output_metric == "lev" else "B"
        algo = {"kmeans": "K", "dbscan": "D"}
        return f"{metric}-{algo[self.output_algo]}-{algo[self.action_algo]}"

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(read_json(path, "config"))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """A config from its JSON form: an object of known fields, each of
        its annotated type (JSON lists as tuples)."""
        _checked(data, dict, "config")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        return cls(**{
            key: _typed(value, hints[key], f"config {key!r}")
            for key, value in data.items()
        })


def _typed(value, hint, what: str):
    """`value` checked against a field type: `X | None` takes null, a tuple
    type takes a list of that length, a float an int that `float` takes."""
    if isinstance(hint, types.UnionType):
        if value is None:
            return None
        (hint,) = (h for h in typing.get_args(hint) if h is not type(None))
    if typing.get_origin(hint) is tuple:
        kinds = typing.get_args(hint)
        items = _checked(value, list, what)
        if len(items) != len(kinds):
            raise ValidationError(f"{what} must have {len(kinds)} items, got {value!r}")
        return tuple(_typed(v, k, what) for v, k in zip(items, kinds))
    if hint is float and type(value) is int:
        try:
            float(value)
        except OverflowError:
            raise ValidationError(f"{what} must be float, got an int too large for one") from None
        return value
    return _checked(value, hint, what)
