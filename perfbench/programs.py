"""Seeded mini-HPF inputs for the three benchmark workloads.

Every generator takes a seed and returns plain data -- mini-HPF source
text plus host input images -- so the program under test sees only
generated inputs.  A seed changes offsets, fill values, combine
coefficients, input data and (for ``plan_cold``) which block sizes land
in which group; it never changes how much work one op does, so the
figures of two seeds are comparable.

Each ``check_*`` function asserts a property a workload claims about its
inputs (never an outcome of the timed ops) and raises
:class:`InputError` when the claim does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputError",
    "Workload",
    "Program",
    "fill_warm",
    "plan_cold",
    "exchange_mp",
    "WORKLOADS",
    "check_distinct_layouts",
    "check_warm_plans",
]


class InputError(ValueError):
    """A generated input lacks the property its workload relies on."""


@dataclass(frozen=True)
class Program:
    """One mini-HPF program and the host images it is distributed from."""

    source: str
    inputs: dict[str, np.ndarray]


@dataclass(frozen=True)
class Workload:
    """What one run of the benchmark executes.

    ``groups`` lists the programs of each op; ops cycle through the
    groups in whole cycles.  ``warm`` workloads compile their single
    program once during set-up and replay it in every op; cold ones
    compile every program of the op's group inside the op, after
    clearing the plan caches.
    """

    name: str
    backend: str
    groups: tuple[tuple[Program, ...], ...]
    warm: bool
    stressed: str  # the layer whose share of op time is `dominant_share`


def _value(rng: np.random.Generator) -> str:
    """A fill value whose decimal text is exact in binary."""
    return f"{int(rng.integers(1, 4096)) / 8:.3f}"


def _coef(rng: np.random.Generator) -> str:
    return f"{int(rng.integers(1, 64)) / 16:.4f}"


# ---------------------------------------------------------------------------
# fill_warm: kernels dominate, every plan warm
# ---------------------------------------------------------------------------

FILL_N = 1 << 18
FILL_P = 8


def fill_warm(seed: int) -> Workload:
    """p=8, 2^18-element arrays over Table 2's block sizes {4, 32, 256}
    (identity and affine alignments), fills at Table 2's strides
    {3, 15, 99}, one section copy and one two-term combine."""
    rng = np.random.default_rng([seed, 1])
    n, p = FILL_N, FILL_P
    lo = [int(x) for x in rng.integers(0, 8, size=8)]
    half = n // 2
    source = "\n".join([
        f"PROCESSORS P({p})",
        f"TEMPLATE T4({2 * n + 2})",
        f"TEMPLATE T32({2 * n + 2})",
        f"TEMPLATE T256({n})",
        f"DISTRIBUTE T4(CYCLIC(4)) ONTO P",
        f"DISTRIBUTE T32(CYCLIC(32)) ONTO P",
        f"DISTRIBUTE T256(CYCLIC(256)) ONTO P",
        f"REAL A({n})",
        f"REAL B({n})",
        f"REAL C({n})",
        f"REAL D({n})",
        "ALIGN A(i) WITH T4(i)",
        "ALIGN B(i) WITH T32(2*i+1)",
        "ALIGN C(i) WITH T256(i)",
        "ALIGN D(i) WITH T4(2*i)",
        f"A({lo[0]}:{n - 1}:3) = {_value(rng)}",
        f"B({lo[1]}:{n - 1}:15) = {_value(rng)}",
        f"C({lo[2]}:{n - 1}:99) = {_value(rng)}",
        f"C({lo[3]}:{n - 1}:3) = {_value(rng)}",
        f"D({lo[4]}:{n - 1}:15) = {_value(rng)}",
        f"A({lo[5]}:{n - 1}:99) = {_value(rng)}",
        f"D(0:{half - 1}) = C({lo[6] % 2}:{lo[6] % 2 + 2 * (half - 1)}:2)",
        f"B(0:{half - 1}) = {_coef(rng)}*A({lo[7]}:{lo[7] + half - 1}) "
        f"+ {_coef(rng)}*D({half}:{n - 1})",
    ]) + "\n"
    inputs = {name: rng.standard_normal(n) for name in "ABCD"}
    prog = Program(source, inputs)
    return Workload("fill_warm", "inprocess", ((prog,),), warm=True,
                    stressed="exec")


# ---------------------------------------------------------------------------
# plan_cold: every op compiles new programs against empty plan caches
# ---------------------------------------------------------------------------

COLD_N = 8192
COLD_P = 16
#: Block-size strata; every op compiles one program from each.  Group g
#: takes bin g of the small stratum and bin ``COLD_GROUPS - 1 - g`` of
#: the large one, so every op plans for about the same total k (planning
#: cost grows with k) and ops cost about the same.
COLD_STRATA = ((8, 132), (132, 257))
#: Groups (ops) in one cycle of the pool.
COLD_GROUPS = 16
COLD_COLUMNS = ("7", "99", "k+1", "pk-1", "pk+1")


def _cold_source(rng: np.random.Generator, k: int, stride: int, a: int,
                 s2: int) -> str:
    """One program: A identity-aligned, B aligned by ``a*i+b`` on one
    ``cyclic(k)`` template; a fill at a Table 1 stride, a redistribution
    copy of stride ``s2`` and a two-term combine."""
    n, p = COLD_N, COLD_P
    b = int(rng.integers(0, 7))
    l0, l1, l2 = (int(x) for x in rng.integers(0, 5, size=3))
    count = (n - 1 - l2) // s2 + 1
    return "\n".join([
        f"PROCESSORS P({p})",
        f"TEMPLATE T({a * n + b + 1})",
        f"DISTRIBUTE T(CYCLIC({k})) ONTO P",
        f"REAL A({n})",
        f"REAL B({n})",
        "ALIGN A(i) WITH T(i)",
        f"ALIGN B(i) WITH T({a}*i+{b})",
        f"A({l0}:{n - 1}:{stride}) = {_value(rng)}",
        f"B({l1}:{l1 + count - 1}) = A({l2}:{n - 1}:{s2})",
        f"A(0:{n // 2 - 1}) = {_coef(rng)}*B({n // 2}:{n - 1}) "
        f"+ {_coef(rng)}*A({n // 2}:{n - 1})",
    ]) + "\n"


def plan_cold(seed: int) -> Workload:
    """p=16, 8192-element arrays; a pool of COLD_GROUPS groups of one
    program per stratum of block sizes 8..256.  Fill strides cycle
    through Table 1's columns {7, 99, k+1, pk-1, pk+1}; copy strides and
    alignment coefficients cycle too, so the seed moves only the block
    sizes within their bins, offsets, values and data."""
    rng = np.random.default_rng([seed, 2])
    p = COLD_P
    width = [(hi - lo) / COLD_GROUPS for lo, hi in COLD_STRATA]
    groups = []
    for g in range(COLD_GROUPS):
        programs = []
        for j, (lo, _) in enumerate(COLD_STRATA):
            pos = g if j == 0 else COLD_GROUPS - 1 - g
            k = lo + int((pos + rng.random()) * width[j])
            idx = g * len(COLD_STRATA) + j
            stride = {"7": 7, "99": 99, "k+1": k + 1, "pk-1": p * k - 1,
                      "pk+1": p * k + 1}[COLD_COLUMNS[idx % len(COLD_COLUMNS)]]
            source = _cold_source(rng, k, stride, a=2 + idx % 2, s2=2 + idx % 4)
            inputs = {name: rng.standard_normal(COLD_N) for name in "AB"}
            programs.append(Program(source, inputs))
        groups.append(tuple(programs))
    return Workload("plan_cold", "inprocess", tuple(groups), warm=False,
                    stressed="plancache")


# ---------------------------------------------------------------------------
# exchange_mp: small redistributions where the transport's fixed cost rules
# ---------------------------------------------------------------------------

MP_N = 1000
MP_P = 2
MP_ROUNDS = 3


def exchange_mp(seed: int) -> Workload:
    """p=2 rank processes; MP_ROUNDS rounds of redistribution copies
    between ``cyclic(3)`` and ``cyclic(8)``, a shifted self-copy, a
    combine and two fills, on n=1000 arrays."""
    rng = np.random.default_rng([seed, 3])
    n, p = MP_N, MP_P
    lines = [
        f"PROCESSORS P({p})",
        f"TEMPLATE S({n})",
        f"TEMPLATE T({2 * n + 1})",
        "DISTRIBUTE S(CYCLIC(3)) ONTO P",
        "DISTRIBUTE T(CYCLIC(8)) ONTO P",
        f"REAL A({n})",
        f"REAL B({n})",
        "ALIGN A(i) WITH S(i)",
        "ALIGN B(i) WITH T(2*i+1)",
    ]
    for _ in range(MP_ROUNDS):
        sh = int(rng.integers(1, 9))
        lo = int(rng.integers(0, 4))
        half = n // 2
        lines += [
            f"B(0:{n - 1}) = A(0:{n - 1})",
            f"A({sh}:{n - 1}) = A(0:{n - 1 - sh})",
            f"A(0:{half - 1}:1) = {_coef(rng)}*B({lo}:{lo + half - 1}) "
            f"+ {_coef(rng)}*A({half}:{n - 1})",
            f"B({lo}:{n - 1}:7) = {_value(rng)}",
            f"A({lo}:{n - 1}:5) = {_value(rng)}",
        ]
    source = "\n".join(lines) + "\n"
    inputs = {name: rng.standard_normal(n) for name in "AB"}
    prog = Program(source, inputs)
    return Workload("exchange_mp", "mp", ((prog,),), warm=True,
                    stressed="barrier")


WORKLOADS = {
    "fill_warm": fill_warm,
    "plan_cold": plan_cold,
    "exchange_mp": exchange_mp,
}


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


def check_distinct_layouts(groups_compiled) -> None:
    """Every program of one cold op must map its arrays differently from
    every other program of that op, so that none of its plans or
    schedules can be served from an earlier program's cache entries.

    ``groups_compiled`` holds, per group, the compiled programs."""
    for g, compiled in enumerate(groups_compiled):
        layouts = [
            {arr.descriptor() for arr in prog.arrays.values()}
            for prog in compiled
        ]
        for i in range(len(layouts)):
            for j in range(i):
                shared = layouts[i] & layouts[j]
                if shared:
                    raise InputError(
                        f"group {g}: programs {j} and {i} share "
                        f"{len(shared)} layout descriptor(s)"
                    )


def check_warm_plans(stats: dict) -> None:
    """After set-up, the warm program's plans and schedules must all be
    resident: set-up ran every statement once, so the only way an op
    could miss is a cache too small for the program, which shows as an
    eviction during set-up.  ``stats`` is
    :func:`repro.runtime.plancache.cache_stats` taken after set-up."""
    for name, cache in stats.items():
        if cache["evictions"]:
            raise InputError(
                f"plan cache {name!r} (maxsize {cache['maxsize']}) evicted "
                f"{cache['evictions']} plan(s) during set-up"
            )
