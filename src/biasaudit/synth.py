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
from typing import Sequence

import numpy as np

from .data import CodeMatrix, Dataset
from .errors import ParameterError

__all__ = [
    "gen_lognormal",
    "gen_mixture",
    "inject_outliers",
    "gen_code_vectors",
    "demo_dataset",
]


def _rng(seed: int, *key: int) -> np.random.Generator:
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng([seed, *key])


def gen_lognormal(mu: float, sigma: float, n: int, seed: int) -> np.ndarray:
    """n draws of exp(mu + sigma * Z), deterministic in seed."""
    if not sigma > 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    z = _rng(seed).standard_normal(n)
    return np.exp(mu + sigma * z)


def gen_mixture(
    components: Sequence[tuple[float, float, float]], n: int, seed: int
) -> np.ndarray:
    """n draws of a lognormal mixture given as (weight, mu, sigma)
    components, whose weights must sum to 1. A single component delegates
    to gen_lognormal with the same seed discipline, so the two agree exactly."""
    if not components:
        raise ParameterError("mixture needs at least one component")
    for w, _, sigma in components:
        if not w > 0:
            raise ParameterError(f"component weights must be > 0, got {w}")
        if not sigma > 0:
            raise ParameterError(f"sigma must be > 0, got {sigma}")
    total = math.fsum(w for w, _, _ in components)
    if abs(total - 1.0) > 1e-12:
        raise ParameterError(f"weights must sum to 1, got {total}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if len(components) == 1:
        _, mu, sigma = components[0]
        return gen_lognormal(mu, sigma, n, seed)
    rng = _rng(seed)
    weights, mu, sigma = (np.asarray(col) for col in zip(*components))
    choice = rng.choice(len(components), size=n, p=weights)
    z = rng.standard_normal(n)
    return np.exp(mu[choice] + sigma[choice] * z)


def inject_outliers(
    base: Sequence[float], fraction: float, offset_factor: float, seed: int
) -> np.ndarray:
    """Scale ceil(fraction * n) seeded positions by offset_factor.

    fraction = 0 returns the input unchanged (as a float array).
    """
    if not 0.0 <= fraction < 0.5:
        raise ParameterError(f"fraction must be in [0, 0.5), got {fraction}")
    if not offset_factor > 1.0:
        raise ParameterError(f"offset_factor must be > 1, got {offset_factor}")
    arr = np.asarray(base, dtype=float).copy()
    n = len(arr)
    count = math.ceil(fraction * n)
    if count == 0:
        return arr
    idx = _rng(seed).choice(n, size=count, replace=False)
    arr[idx] *= offset_factor
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
# The demo's latent codes: vectors of length 16 over a codebook of 64, each
# index drawn from its group's private half with probability 0.3.
_DEMO_D = 16
_DEMO_K = 64
_DEMO_SEPARABILITY = 0.3


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
        "alpha": gen_lognormal(_DEMO_MU, _DEMO_SIGMA, n_per_group, seed),
        "beta": gen_lognormal(_DEMO_MU + 0.35, _DEMO_SIGMA, n_per_group, seed + 1),
        "gamma": gen_lognormal(_DEMO_MU, 2 * _DEMO_SIGMA, n_per_group, seed + 2),
        "delta": gen_mixture(
            ((0.5, _DEMO_MU - 0.7, 0.25), (0.5, _DEMO_MU + 0.7, 0.25)), n_per_group, seed + 3
        ),
    }
    for group, vals in bona.items():
        add(group, True, vals, "bf")
    if with_attacks:
        for offset, group in enumerate(bona):
            att = gen_lognormal(_DEMO_MU + 1.8, 0.35, n_per_group, seed + 100 + offset)
            add(group, False, att, "att")
    return Dataset(ids, groups, bona_fide, np.concatenate(responses))


def _demo_codes(ds: Dataset, seed: int) -> CodeMatrix:
    """Code vectors for ``demo_dataset(n, seed)``: one generator call per
    pair of its groups in sorted order, (alpha, beta) and (delta, gamma),
    each seeded with ``seed + 500 + idx``. Each code row takes the
    ``sample_id`` of one of its group's bona fide rows, in ``ds`` order."""
    names = ds.groups()
    bona = np.flatnonzero(ds.bona_fide)
    n = len(bona) // len(names)
    parts = [
        gen_code_vectors(
            n, _DEMO_D, _DEMO_K, _DEMO_SEPARABILITY, seed + 500 + idx, (names[idx], names[idx + 1])
        )
        for idx in range(0, len(names) - 1, 2)
    ]
    # the parts hold the groups in sorted order, n rows each, as this stable sort does
    by_group = bona[np.argsort(ds.group_codes[bona], kind="stable")]
    return CodeMatrix(
        np.vstack([p.codes for p in parts]),
        [g for p in parts for g in p.labels()],
        _DEMO_K,
        [ds.sample_ids[i] for i in by_group.tolist()],
    )
