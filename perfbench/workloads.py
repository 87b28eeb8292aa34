"""The benchmark workloads: their inputs and their operation lists.

Every operation has a `key` under which `references.json` records the
answer gpspec gave when the benchmark was defined.  Inputs are generated
deterministically: generated model files are fixed text and the pointwise
query pool comes from POOL_SEED.  The run seed sets the order in which a
run sends the operations, so every operation any seed produces has a
reference.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

CORPUS = (
    "z", "z12", "z2cube", "z2z2_field", "z2z2_samedeg", "z2z4_g22", "z30",
    "z4_trivial_group", "z4z8", "z6", "z8", "z8z9", "z9z3", "zxz",
)
MODEL_COMMANDS = ("check", "topology", "rho", "pspec")

# Instances beyond the corpus, as (group, ring, module, commands): two
# catalog-heavy ones (Z2^4, 7 s, and Z8^2, 9 s, are left out so that two
# passes fit in a run) and the largest ladder rung, Z32^2, whose prime
# spectrum is enumeration-bound (the BFS and the HNF it calls take about
# 1.6 s of 2.2 s).  The rest of the scale ladder (Z2^4..6, Z16^2, Z360,
# Z8@0 x Z9@1) was measured but does not fit in the run length.
HEAVY = {
    "heavy_z4z8z2": ("Z2", "Z", "Z4@0 x Z8@1 x Z2@0", MODEL_COMMANDS),
    "heavy_z6sq": ("Z2", "Z", "Z6@0 x Z6@0", MODEL_COMMANDS),
    "rung_z32sq": ("Z2", "Z", "Z32@0 x Z32@0", ("spec",)),
}

POOL_SEED = 20211
JSON = ("--format", "json")


# -- generated model files -------------------------------------------------


def _work_path(stem: str) -> str:
    return f"{WORK.relative_to(ROOT).as_posix()}/{stem}.gps"


def generated_files() -> dict[str, str]:
    """Relative path -> text of every model file cli-corpus generates."""
    return {
        _work_path(stem): f"group = {group}\nring = {ring}\nmodule = {module}\n"
        for stem, (group, ring, module, _) in HEAVY.items()
    }


def write_inputs() -> None:
    """Write the generated model files into the work directory."""
    WORK.mkdir(exist_ok=True)
    for rel, text in generated_files().items():
        path = ROOT / rel
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")


def _named(path: Path) -> list[str]:
    return re.findall(r"^submodule (\w+)", path.read_text(encoding="utf-8"), re.M)


def _cli_op(argv) -> dict:
    return {"kind": "cli", "key": " ".join(argv), "argv": list(argv)}


# -- operation lists -------------------------------------------------------


def cli_corpus_ops(seed: int) -> list[dict]:
    """Every corpus model under check/topology/rho/pspec, the extra
    instances under their commands, and radical and variety on every named
    corpus submodule; the seed sets the order."""
    ops = []
    for m in CORPUS:
        for cmd in MODEL_COMMANDS:
            ops.append(_cli_op((cmd, f"models/{m}.gps", *JSON)))
    for stem, (_, _, _, commands) in HEAVY.items():
        for cmd in commands:
            ops.append(_cli_op((cmd, _work_path(stem), *JSON)))
    for m in CORPUS:
        path = f"models/{m}.gps"
        for name in _named(ROOT / path):
            for cmd in ("radical", "variety"):
                ops.append(_cli_op((cmd, path, "--submodule", name, *JSON)))
    random.Random(seed).shuffle(ops)
    return ops


def setup_files() -> list[str]:
    """Model files the cli-corpus processes parse (relative paths)."""
    return [f"models/{m}.gps" for m in CORPUS] + [_work_path(h) for h in HEAVY]


# -- pointwise query pool --------------------------------------------------

QUERY_OPS = (
    "is_graded_prime", "is_graded_primary", "colon", "graded_radical",
    "in_primary_spectrum",
)
GROUPS = ((2,), (2, 2), (3,))
SMALL_FINITE_MAX = 64     # |M| bound for modules with only finite factors over Z
FREE_TORSION_MAX = 16     # |torsion part| bound for modules with a free factor
BIG_MODULUS = (10**6, 10**12)
MAGNITUDES = (10**4, 10**8, 10**12)
FAMILIES = ("small", "free", "bigmod")
MODULES_PER_FAMILY = 12
SUBMODULES_PER_MODULE = 2

# A 31-digit prime: trial division cannot factor or test it in bounded time.
BIG_PRIME = 1000000000000000000000000000057


def _degree(rng, group):
    return [rng.randrange(n) for n in group]


def _small_orders(rng, rank, cap):
    while True:
        orders = [rng.randint(2, 12) for _ in range(rank)]
        size = 1
        for o in orders:
            size *= o
        if size <= cap:
            return orders


def _big(rng, magnitude):
    return rng.randint(magnitude // 2, magnitude)


def _module(rng, family):
    group = list(rng.choice(GROUPS))
    rank = rng.randint(1, 3)
    if family == "small":
        ring = 0
        orders = _small_orders(rng, rank, SMALL_FINITE_MAX)
    elif family == "free":
        ring = 0
        free = rng.randint(1, rank)
        orders = [0] * free + _small_orders(rng, rank - free, FREE_TORSION_MAX)
    else:
        rank = min(rank, 2)
        while True:
            ring = rng.randint(*BIG_MODULUS)
            divs = [d for d in range(2, 1000) if ring % d == 0]
            if divs:
                break
        orders = [ring] + [rng.choice(divs) for _ in range(rank - 1)]
    factors = [[o, _degree(rng, group)] for o in orders]
    return {"ring": ring, "group": group, "factors": factors}


def _generators(rng, module):
    """One or two generators.  Over Z the first may carry one entry of
    magnitude up to 10^12 in a free coordinate; every other free entry is
    at most 3, so quotient exponents stay near 10^13 at most.  Over Z/n an
    entry is either random (small quotient) or n/q times a small factor for
    a small divisor q of n (quotient of order about n/q)."""
    orders = [o for o, _ in module["factors"]]
    free = [i for i, o in enumerate(orders) if o == 0]
    gens = []
    for j in range(rng.randint(1, 2)):
        vec = []
        for o in orders:
            if o == 0:
                vec.append(rng.randint(0, 3))
            elif o > 1000:
                q = rng.choice([d for d in range(2, 1000) if o % d == 0])
                vec.append(rng.randrange(o) if rng.random() < 0.5 else o // q * rng.randint(1, 9))
            else:
                vec.append(rng.randrange(o))
        if j == 0 and free:
            vec[rng.choice(free)] = _big(rng, rng.choice(MAGNITUDES))
        gens.append(vec)
    return gens


def _is_full(module, gens) -> bool:
    """Whether the generators span the whole module (gpspec rejects the
    predicates on M itself); decided with Python integers only."""
    for i, (o, _) in enumerate(module["factors"]):
        g = o
        for v in gens:
            g = gcd(g, v[i])
        if g != 1:
            return False
    return True


def query_pool() -> list[dict]:
    """The fixed pool of pointwise queries, grouped by module."""
    rng = random.Random(POOL_SEED)
    pool = []
    for family in FAMILIES:
        for m in range(MODULES_PER_FAMILY):
            module = _module(rng, family)
            for s in range(SUBMODULES_PER_MODULE):
                gens = _generators(rng, module)
                while _is_full(module, gens):
                    gens = _generators(rng, module)
                for op in QUERY_OPS:
                    pool.append({
                        "kind": "query",
                        "key": f"{family}{m:02d}.N{s}.{op}",
                        "module_id": f"{family}{m:02d}",
                        "family": family,
                        "op": op,
                        "module": module,
                        "gens": gens,
                    })
    return pool


def pointwise_ops(seed: int) -> list[dict]:
    """The whole query pool in seeded order.  Query costs are heavy-tailed
    (a module with a 10^12 entry costs a hundred times one without), so a
    seeded sample of the pool would change the work from seed to seed; the
    order still decides which query pays each cache miss."""
    ops = query_pool()
    random.Random(seed).shuffle(ops)
    return ops


def probe_ops() -> list[dict]:
    """Queries whose modulus has a 31-digit prime factor.  The answers are
    known without gpspec: (p) and (3p) are radical ideals, pZ is prime and
    3pZ is not."""
    free = {"ring": 0, "group": [2], "factors": [[0, [0]]]}
    return [
        {"kind": "query", "key": "probe.pZ.is_graded_prime", "op": "is_graded_prime",
         "module": free, "gens": [[BIG_PRIME]], "expect": "true"},
        {"kind": "query", "key": "probe.3pZ.graded_radical", "op": "graded_radical",
         "module": free, "gens": [[3 * BIG_PRIME]],
         "expect": f"submodule:{3 * BIG_PRIME}Z"},
    ]


def spec_digest(op: dict) -> str:
    """Fingerprint of an operation's inputs, stored with its reference."""
    body = {k: op[k] for k in ("argv", "op", "module", "gens") if k in op}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]
