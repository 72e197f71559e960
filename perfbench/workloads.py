"""Request sequences of the ncgkit benchmark workloads.

A workload is a function of the workload seed that returns one *pass*: the
ordered list of CLI requests a run sends, and repeats while its time lasts.
Every request seed and every generated scenario comes from
``random.Random("<workload>:<seed>")``; the program sees only the argv and
the scenario files written from it.

Golden probes are requests with fixed inputs (shipped scenarios and built-in
scenarios).  Their report digests are recorded in ``references.json``, and
they give each workload a fixed-input part whose cost does not move with the
seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Request:
    argv: Tuple[str, ...]
    scenario: Optional[dict] = None  # generated scenario, passed as --scenario <file>
    golden: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        """Stable identity of the request: argv plus the scenario contents."""
        text = " ".join(self.argv)
        if self.scenario is not None:
            text += " --scenario " + json.dumps(
                self.scenario, sort_keys=True, separators=(",", ":"))
        return text


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 1_000_000))


def exact_identities(rng: random.Random) -> List[Request]:
    # verify-identities costs about 7 to 13 s whatever --trials is, because
    # partition-counts and the deep k=4,5 induction cases dominate it.
    return [
        Request(("verify-identities", "--scenario",
                 "scenarios/identities-smoke.json"), golden=True),
        Request(("verify-identities", "--k-max", "5",
                 "--trials", str(rng.randint(1, 5)), "--seed", _seed(rng))),
        Request(("algebroid", "--seed", _seed(rng))),
        Request(("algebroid", "--trials", str(rng.randint(20, 100)),
                 "--seed", _seed(rng))),
    ]


INDEX_FOCUS = (
    ("sphere2", "bott"), ("sphere2", "bott-dilated"), ("sphere2", "constant"),
    ("sphere2", "zero"), ("torus2", "constant"), ("torus2", "zero"),
)


def jet_index(rng: random.Random) -> List[Request]:
    # The whole geometry x projection x refine grid runs on every pass, in a
    # seeded order, so the pass cost does not depend on the seed.
    grid = [(g, p, r) for r in range(5) for g, p in INDEX_FOCUS]
    rng.shuffle(grid)
    reqs = [Request(("index", "--geometry", g, "--projection", p,
                     "--refine", str(r))) for g, p, r in grid]
    reqs += [
        Request(("index", "--seed", _seed(rng))),
        Request(("chkr-compare", "--seed", _seed(rng))),
        Request(("index",), scenario={
            "kind": "index", "seed": int(_seed(rng)),
            "params": {"geometry": "sphere2", "projection": "bott",
                       "dilation": rng.choice((0.25, 0.5, 0.75)),
                       "refine": 2}}),
        Request(("index", "--scenario", "scenarios/index-bott-refine.json"),
                golden=True),
        Request(("index", "--geometry", "sphere2", "--projection", "bott"),
                golden=True),
    ]
    return reqs


REPHASING_STRATA = ((25, 125), (125, 250), (250, 375), (375, 501))


def exact_classes(rng: random.Random) -> List[Request]:
    # One generated cech scenario per rephasing stratum keeps the total
    # rephasing count, and so the pass cost, nearly fixed across seeds.
    reqs = [
        Request(("dd-class",), scenario={
            "kind": "cech", "seed": int(_seed(rng)),
            "params": {"rephasings": rng.randrange(lo, hi)}})
        for lo, hi in REPHASING_STRATA
    ]
    reqs += [
        Request(("dd-class", "--seed", _seed(rng))),
        Request(("dd-class", "--scenario", "coboundary-s3",
                 "--seed", _seed(rng))),
        Request(("spectral", "--seed", _seed(rng))),
        Request(("dd-class", "--scenario", "pauli-triangle"), golden=True),
        Request(("dd-class", "--scenario", "coboundary-s3"), golden=True),
        Request(("dd-class", "--scenario", "scenarios/cech-rephasings.json"),
                golden=True),
    ]
    return reqs


WORKLOADS: Dict[str, Callable[[random.Random], List[Request]]] = {
    "exact-identities": exact_identities,
    "jet-index": jet_index,
    "exact-classes": exact_classes,
}


def build(workload: str, seed: int) -> List[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
