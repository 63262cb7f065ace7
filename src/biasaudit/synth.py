"""Seeded synthetic fixtures: lognormal response populations, bimodal
mixtures, outlier injection, and group-coded codebook samples.

These generators exist to reproduce known bias mechanisms on demand --
location shift, dispersion shift, bimodality, and a contaminated tail --
each with a deterministic seed so audits over synthetic data are exactly
repeatable. Reconstruction-error style responses are lognormal-ish in
practice, hence the lognormal base family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import ParameterError
from .svm import CodeMatrix

__all__ = [
    "LognormalSpec",
    "MixtureSpec",
    "OutlierSpec",
    "gen_lognormal",
    "gen_mixture",
    "inject_outliers",
    "gen_code_vectors",
    "demo_dataset",
]


@dataclass(frozen=True)
class LognormalSpec:
    """exp(mu + sigma * Z) population for one group."""

    mu: float
    sigma: float
    n: int
    group: str = "synthetic"

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")

    @property
    def expected_mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)


@dataclass(frozen=True)
class MixtureSpec:
    """Weighted lognormal mixture; weights must sum to 1."""

    components: tuple[tuple[float, LognormalSpec], ...]

    def __post_init__(self):
        if not self.components:
            raise ParameterError("mixture needs at least one component")
        for w, _ in self.components:
            if not w > 0:
                raise ParameterError(f"component weights must be > 0, got {w}")
        total = math.fsum(w for w, _ in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"weights must sum to 1, got {total}")


@dataclass(frozen=True)
class OutlierSpec:
    """Multiply a seeded fraction of a sample by offset_factor."""

    fraction: float
    offset_factor: float

    def __post_init__(self):
        if not 0.0 <= self.fraction < 0.5:
            raise ParameterError(f"fraction must be in [0, 0.5), got {self.fraction}")
        if not self.offset_factor > 1.0:
            raise ParameterError(
                f"offset_factor must be > 1, got {self.offset_factor}"
            )


def _rng(seed: int, *key: int) -> np.random.Generator:
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng([seed, *key])


def gen_lognormal(spec: LognormalSpec, seed: int) -> np.ndarray:
    """n draws of exp(mu + sigma * Z), deterministic in seed."""
    z = _rng(seed).standard_normal(spec.n)
    return np.exp(spec.mu + spec.sigma * z)


def gen_mixture(spec: MixtureSpec, seed: int, n: int) -> np.ndarray:
    """n mixture draws. A single-component mixture delegates to
    gen_lognormal with the same seed discipline, so the two agree exactly."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if len(spec.components) == 1:
        base = spec.components[0][1]
        return gen_lognormal(
            LognormalSpec(base.mu, base.sigma, n, base.group), seed
        )
    rng = _rng(seed)
    weights = np.asarray([w for w, _ in spec.components])
    choice = rng.choice(len(spec.components), size=n, p=weights)
    z = rng.standard_normal(n)
    mu = np.asarray([s.mu for _, s in spec.components])[choice]
    sigma = np.asarray([s.sigma for _, s in spec.components])[choice]
    return np.exp(mu + sigma * z)


def inject_outliers(base: Sequence[float], spec: OutlierSpec, seed: int) -> np.ndarray:
    """Scale ceil(fraction * n) seeded positions by offset_factor.

    fraction = 0 returns the input unchanged (as a float array).
    """
    arr = np.asarray(base, dtype=float).copy()
    n = len(arr)
    count = math.ceil(spec.fraction * n)
    if count == 0:
        return arr
    idx = _rng(seed).choice(n, size=count, replace=False)
    arr[idx] *= spec.offset_factor
    return arr


def gen_code_vectors(
    n_per_group: int,
    d: int,
    k: int,
    separability: float,
    seed: int,
    groups: tuple[str, str] = ("alpha", "beta"),
) -> CodeMatrix:
    """Two groups of code vectors with tunable group signal, the first
    group's rows first.

    Each code index is drawn from the group's private half of the codebook
    with probability ``separability`` and from the full codebook otherwise:
    0 gives identically distributed groups, 1 gives disjoint alphabets, and
    intermediate values interpolate the alphabet overlap.
    """
    if n_per_group < 1:
        raise ParameterError(f"n_per_group must be >= 1, got {n_per_group}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if not 0.0 <= separability <= 1.0:
        raise ParameterError(f"separability must be in [0, 1], got {separability}")
    if groups[0] == groups[1]:
        raise ParameterError("groups must be distinct")
    half = k // 2
    rng = _rng(seed)
    blocks = []
    for lo, hi in ((0, half), (half, k)):
        private = rng.integers(lo, hi, size=(n_per_group, d))
        shared = rng.integers(0, k, size=(n_per_group, d))
        use_private = rng.random((n_per_group, d)) < separability
        blocks.append(np.where(use_private, private, shared))
    return CodeMatrix(np.vstack(blocks), [g for g in groups for _ in range(n_per_group)], k)


# Demo population parameters: base location/scale put the response mean near
# typical reconstruction-error magnitudes (~0.027); offsets are large enough
# that every mechanism is visible at n=200 per group.
_DEMO_MU = -3.6
_DEMO_SIGMA = 0.45


def demo_dataset(
    n_per_group: int = 200, seed: int = 12345, with_attacks: bool = True
) -> Dataset:
    """Four-group showcase dataset, one bias mechanism per non-base group.

    alpha: base population; beta: location shift; gamma: same median but
    doubled log-scale; delta: bimodal mixture. Attack responses (when
    present) sit well above the bona fide population for every group.
    """
    if n_per_group < 4:
        raise ParameterError(f"n_per_group must be >= 4, got {n_per_group}")
    ids, groups, bona_fide, responses = [], [], [], []

    def add(group: str, is_bona: bool, vals: np.ndarray, tag: str):
        ids.extend(f"{group}-{tag}-{i:04d}" for i in range(len(vals)))
        groups.extend([group] * len(vals))
        bona_fide.extend([is_bona] * len(vals))
        responses.append(vals)

    bona = {
        "alpha": gen_lognormal(
            LognormalSpec(_DEMO_MU, _DEMO_SIGMA, n_per_group, "alpha"), seed
        ),
        "beta": gen_lognormal(
            LognormalSpec(_DEMO_MU + 0.35, _DEMO_SIGMA, n_per_group, "beta"), seed + 1
        ),
        "gamma": gen_lognormal(
            LognormalSpec(_DEMO_MU, 2 * _DEMO_SIGMA, n_per_group, "gamma"), seed + 2
        ),
        "delta": gen_mixture(
            MixtureSpec(
                (
                    (0.5, LognormalSpec(_DEMO_MU - 0.7, 0.25, 1, "delta")),
                    (0.5, LognormalSpec(_DEMO_MU + 0.7, 0.25, 1, "delta")),
                )
            ),
            seed + 3,
            n_per_group,
        ),
    }
    for group, vals in bona.items():
        add(group, True, vals, "bf")
    if with_attacks:
        for offset, group in enumerate(bona):
            att = gen_lognormal(
                LognormalSpec(_DEMO_MU + 1.8, 0.35, n_per_group, group),
                seed + 100 + offset,
            )
            add(group, False, att, "att")
    return Dataset(ids, groups, bona_fide, np.concatenate(responses))
