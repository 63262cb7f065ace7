"""Seeded benchmark inputs, generated with numpy alone.

The inputs do not come from ``biasaudit.synth`` or ``save_csv``: a change to
the package's own generators or writers must not change what the benchmark
feeds it. The mechanisms follow the README demo -- a location shift, a doubled
log-scale dispersion, a bimodal mixture and a contaminated tail -- on the
demo's lognormal base population.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MU = -3.6
SIGMA = 0.45
ATTACK_MU = MU + 1.8
ATTACK_SIGMA = 0.35
CODES_D = 16
CODES_K = 64
CODES_SEPARABILITY = 0.3
TAIL_FRACTION = 0.05
TAIL_FACTOR = 4.0


@dataclass(frozen=True)
class Group:
    name: str
    mechanism: str  # base | shift | dispersion | bimodal | tail
    n_bona: int
    n_attack: int


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    dip_replicas: int
    codes: bool

    @property
    def bimodal_groups(self) -> list[str]:
        return [g.name for g in self.groups if g.mechanism == "bimodal"]


def _four(n: int) -> tuple[Group, ...]:
    return (
        Group("alpha", "base", n, n),
        Group("beta", "shift", n, n),
        Group("gamma", "dispersion", n, n),
        Group("delta", "bimodal", n, n),
    )


# Sizes and replica counts put a different stage on top in each workload;
# BENCHMARK.json and README.md say which and why.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quickstart",
            _four(200),
            dip_replicas=10000,
            codes=True,
        ),
        Workload(
            "large-10k",
            # a fifth, smaller group with a contaminated tail and no attacks:
            # a second dip null size and pairs where hter_at is skipped
            (*_four(10000), Group("epsilon", "tail", 2500, 0)),
            dip_replicas=20,
            codes=False,
        ),
    )
}


def _bona_fide(rng: np.random.Generator, mechanism: str, n: int) -> np.ndarray:
    if mechanism == "bimodal":
        centre = np.where(rng.random(n) < 0.5, MU - 0.7, MU + 0.7)
        return np.exp(centre + 0.25 * rng.standard_normal(n))
    mu = MU + 0.35 if mechanism == "shift" else MU
    sigma = 2 * SIGMA if mechanism == "dispersion" else SIGMA
    x = np.exp(mu + sigma * rng.standard_normal(n))
    if mechanism == "tail":
        x[rng.choice(n, size=math.ceil(TAIL_FRACTION * n), replace=False)] *= TAIL_FACTOR
    return x


def generate(w: Workload, seed: int) -> dict:
    """Arrays for every group, deterministic in (workload, seed).

    Returns ``{"bona": {group: array}, "attack": {group: array},
    "codes": {group: int array (n, d)} or None}``.
    """
    bona, attack, codes = {}, {}, {} if w.codes else None
    for gi, g in enumerate(w.groups):
        rng = np.random.default_rng([seed, gi])
        bona[g.name] = _bona_fide(rng, g.mechanism, g.n_bona)
        attack[g.name] = np.exp(ATTACK_MU + ATTACK_SIGMA * rng.standard_normal(g.n_attack))
        if codes is not None:
            # each group has a private half of the codebook, drawn from with
            # probability CODES_SEPARABILITY
            half = CODES_K // 2
            lo, hi = (0, half) if gi % 2 == 0 else (half, CODES_K)
            shape = (g.n_bona, CODES_D)
            private = rng.integers(lo, hi, size=shape)
            shared = rng.integers(0, CODES_K, size=shape)
            codes[g.name] = np.where(rng.random(shape) < CODES_SEPARABILITY, private, shared)
    return {"bona": bona, "attack": attack, "codes": codes}


def responses_csv(data: dict) -> bytes:
    """The response table; floats as shortest round-trip decimals, so the
    values parsed back equal the generated arrays exactly."""
    lines = ["sample_id,group,class,response"]
    for cls, key in (("bonafide", "bona"), ("attack", "attack")):
        for group, values in data[key].items():
            lines.extend(
                f"{group}-{key}-{i:05d},{group},{cls},{float(v)!r}"
                for i, v in enumerate(values)
            )
    return ("\n".join(lines) + "\n").encode()


def codes_csv(codes: dict) -> bytes:
    lines = [f"#K={CODES_K}", "sample_id,group," + ",".join(f"c{i}" for i in range(CODES_D))]
    for group, rows in codes.items():
        lines.extend(
            f"{group}-code-{i:05d},{group}," + ",".join(map(str, row))
            for i, row in enumerate(rows.tolist())
        )
    return ("\n".join(lines) + "\n").encode()


def write_inputs(w: Workload, seed: int, out_dir: Path) -> tuple[dict, dict[str, Path], dict[str, str]]:
    """Write the workload's CSVs; returns (arrays, paths, sha256 by file name)."""
    data = generate(w, seed)
    blobs = {"responses.csv": responses_csv(data)}
    if data["codes"] is not None:
        blobs["codes.csv"] = codes_csv(data["codes"])
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, digests = {}, {}
    for name, blob in blobs.items():
        paths[name] = out_dir / name
        paths[name].write_bytes(blob)
        digests[name] = hashlib.sha256(blob).hexdigest()
    return data, paths, digests
