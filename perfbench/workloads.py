"""Request menus and the seeded request sequence of each benchmark workload.

Every workload is a finite menu of ``mahlercf`` argument vectors, grouped into
strata.  A run is a closed loop over *rounds*: each round visits the strata
in a fixed order and draws one request from each with the seeded generator.
Fixing the stratum order keeps the mix of cheap and costly requests the same
from seed to seed (and for a partial last round), so that run-to-run spread
comes from the machine rather than from the draw.  Because the menu is finite,
every request that can be drawn has a recorded reference output
(``references.json``, made by ``make_references.py``).
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

WORKLOADS = ("cf-expand", "cf-certify", "value-certs")

# Percentile reported as req_tail_s.  An 18 s run (at the reference speed,
# run.py) holds two whole rounds of ten requests at the seed commit (a round
# with its reference and set-up samples takes 12 to 14 s at that speed), and
# p60 leaves 8 requests beyond it; with so few requests a run it lies close to
# the median.  It is
# fixed, not recomputed per run, so that a faster program (more requests per
# run) is compared on the same statistic.
TAIL = {"cf-expand": 60, "cf-certify": 60, "value-certs": 60}

# --threads never exceeds the machine's processor count.
THREADS = str(min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``mahlercf <argv...> --no-timestamp``."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        """Reference key: the argv without ``--threads N``, which by contract
        does not change the output."""
        parts = list(self.argv)
        if "--threads" in parts:
            i = parts.index("--threads")
            del parts[i : i + 2]
        return " ".join(parts)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _cf(d: int, n: int, output: str, kind: str = "G") -> tuple[str, ...]:
    argv = ("cf", "--d", str(d), "--n", str(n))
    if kind != "G":
        argv += ("--kind", kind)
    return argv + ("--output", output)


def _product(build, *axes) -> list[tuple[str, ...]]:
    return [build(*combo) for combo in itertools.product(*axes)]


OUTPUTS = ("text", "json")

# Each stratum is a narrow band of sizes with one output format (JSON output
# costs more than text), so that every seed draws nearly the same amount of
# work; the seed varies the exact size and the other parameters.

# -- cf-expand: Euclid expansion, monic normalisation, beta elimination ------

_EXPAND_STRATA = {
    # "g2-100/json" draws cf --d 2 --n 100 or 105 --output json.
    **{f"g{d}-{n}/{o}": [_cf(d, m, o) for m in (n, n + 5)]
       for d in (2, 3) for n in (60, 80, 100, 120, 140, 200, 295) for o in OUTPUTS},
    "shape-break": [_cf(d, n, "text") for d in (4, 5) for n in (20, 25)],
    # Every identity over ranges inside its documented default range.
    "verify": (
        [("verify", "--identity", "bzz", "--n", str(n), "--output", o)
         for n in (60, 80, 100) for o in OUTPUTS]
        + [("verify", "--identity", "theorem1", "--d", str(d), "--m", f"0..{m}", "--output", o)
           for d in (2, 3) for m in (40, 60) for o in OUTPUTS]
        + [("verify", "--identity", name, "--k", f"0..{k}", "--output", o)
           for name in ("lemma5", "prop2", "prop_sum3", "prop_bk") for k in (5, 10)
           for o in OUTPUTS]
    ),
}

# -- cf-certify: F/H/U expansions whose every convergent is rate-checked -----

_CERTIFY_STRATA = {
    # "u2-45/json" draws cf --d 2 --n 45 or 47 --kind U --output json.
    **{f"{kind.lower()}{d}-{n}/{o}": [_cf(d, m, o, kind) for m in (n, n + 2)]
       for kind, d, n, o in (("F", 2, 30, "text"), ("U", 2, 45, "json"), ("U", 3, 25, "json"),
                             ("U", 2, 30, "text"), ("H", 2, 45, "json"), ("F", 3, 30, "text"),
                             ("H", 3, 30, "json"), ("F", 3, 45, "text"))},
    # A floor too shallow for n: expand_family doubles the depth and retries.
    "floored": [_cf(d, 30, "text", kind)[:-2] + ("--floor", "-40")
                for kind in "FHU" for d in (2, 3)],
    # The deepest requests of the workload; d=2 also sets its peak RSS.
    "funceq": _product(
        lambda f, o: ("verify", "--identity", "funceq", "--d", "2", "--floor", str(f),
                      "--output", o),
        (7000, 8000), OUTPUTS,
    ),
}

# -- value-certs: p-adic witnesses, replay, orbit tables, Hensel, numerics ---

# (p, n0, t) of the witness that `witness --a A --d D` finds at the default
# bounds, or None where it exits 1.
WITNESSES = {
    (2, 2): (3, 1, 18), (3, 2): (5, 2, 22), (5, 2): (3, 1, 9), (7, 2): (3, 1, 18),
    (10, 2): (11, 1, 172), (12, 2): (5, 2, 11), (13, 2): (3, 1, 9), (17, 2): (5, 2, 74),
    (19, 2): (5, 1, 11), (26, 2): (17, 3, 104), (30, 2): (17, 3, 104), (37, 2): (5, 2, 11),
    (50, 2): (3, 1, 9), (64, 2): (5, 1, 74), (89, 2): (5, 1, 74), (97, 2): (3, 1, 18),
    (2, 3): (7, 1, 24), (3, 3): (13, 3, 134), (5, 3): (19, 15, 150), (7, 3): (19, 13, 150),
    (10, 3): None, (12, 3): None, (13, 3): None, (17, 3): (19, 13, 150), (19, 3): None,
    (26, 3): (19, 5, 150), (30, 3): (29, 4, 92), (37, 3): (7, 1, 72), (50, 3): None,
    (64, 3): (7, 1, 40), (89, 3): None, (97, 3): None,
}
# Witnesses with t <= 40.  Replay and the Hensel demo rebuild q_t; a small t
# keeps them among the short requests, next to eval.
SHALLOW_WITNESSES = {ad: w for ad, w in WITNESSES.items() if w is not None and w[2] <= 40}


def _witness(a: int, d: int, output: str) -> tuple[str, ...]:
    return ("witness", "--a", str(a), "--d", str(d), "--output", output)


def save_file(a: int, d: int) -> str:
    return f"witness-a{a}-d{d}.json"


def _eval(a: int, d: int, exp: int, terms: int, output: str) -> tuple[str, ...]:
    argv = ("eval", "--a", str(a), "--d", str(d), "--eps", f"1e-{exp}")
    if terms:
        argv += ("--cf-terms", str(terms))
    return argv + ("--output", output)


_VALUE_STRATA = {
    "witness": _product(lambda ad, o: _witness(*ad, o), WITNESSES, OUTPUTS),
    "witness-threads": _product(
        lambda ad, o: _witness(*ad, o) + ("--threads", THREADS), WITNESSES, OUTPUTS
    ),
    "witness-save": [_witness(a, d, "json") + ("--save", save_file(a, d))
                     for a, d in SHALLOW_WITNESSES],
    "witness-tight": _product(
        lambda ad, b: ("witness", "--a", str(ad[0]), "--d", str(ad[1]), "--p-bound", str(b[0]),
                       "--n0-bound", str(b[1]), "--t-bound", str(b[2])),
        WITNESSES, ((7, 4, 40), (11, 6, 40)),
    ),
    **{name: _product(
        lambda p, o: ("table", "--d", "2", "--p-max", str(p), "--output", o),
        p_max, ("text", "json", "csv"),
    ) for name, p_max in (("table-47", (47, 53)), ("table-59", (59, 61)))},
    "demo-hensel": _product(
        lambda ad, m, o: ("demo-hensel", "--a", str(ad[0]), "--d", str(ad[1]),
                          "--p", str(SHALLOW_WITNESSES[ad][0]), "--n0", str(SHALLOW_WITNESSES[ad][1]),
                          "--t", str(SHALLOW_WITNESSES[ad][2]), "--m", str(m), "--output", o),
        SHALLOW_WITNESSES, (2, 3), OUTPUTS,
    ),
    "eval-small": _product(_eval, (2, 3, 10), (2, 3), (12, 30, 100, 300), (0, 10), OUTPUTS),
    "eval-large": _product(_eval, (2, 3, 10), (2, 3), (1000, 1500), (0, 25), OUTPUTS),
    # Values past 4300 digits: the seed commit exits 1 with a ValueError
    # traceback on each.  A timed request must not fail, so no layout draws
    # from here; run.py runs one of them untimed as the defect probe.
    "eval-past-limit": _product(_eval, (2, 3, 10), (2, 3), (4300, 5000, 6000), (0, 10), OUTPUTS),
}

# Stratum of requests that the seed commit gets wrong, per workload.
DEFECT_STRATA = {"value-certs": "eval-past-limit"}

STRATA = {
    "cf-expand": _EXPAND_STRATA,
    "cf-certify": _CERTIFY_STRATA,
    "value-certs": _VALUE_STRATA,
}

# Stratum order of a round; rounds cycle through the layouts of a workload.
# A round holds a band of short requests and a band of long ones, sized so
# that the median and the tail percentile fall inside a band rather than in
# the gap between two, where a one-request shift of rank would move them.
# "replay" replays the file saved earlier in the same round.
LAYOUTS = {
    "cf-expand": (
        ("g2-60/text", "g2-100/json", "verify", "g3-100/text", "shape-break", "g2-120/json",
         "g3-60/text", "g3-80/json", "g2-200/text", "g3-295/json"),
        ("g3-60/json", "g2-100/json", "verify", "g3-100/text", "shape-break", "g2-120/json",
         "g2-60/text", "g3-80/json", "g3-200/json", "g2-295/json"),
    ),
    "cf-certify": (
        ("f2-30/text", "u2-45/json", "funceq", "u3-25/json", "u2-30/text", "h2-45/json",
         "f3-30/text", "floored", "h3-30/json", "f3-45/text"),
    ),
    "value-certs": (
        ("witness", "eval-small", "witness-tight", "demo-hensel", "witness-save", "replay",
         "table-47", "eval-large", "eval-small", "demo-hensel"),
        ("witness-threads", "eval-large", "witness-tight", "demo-hensel", "witness-save",
         "replay", "table-59", "eval-small", "eval-large", "demo-hensel"),
    ),
}


def _replay_of(save_argv: tuple[str, ...]) -> tuple[str, ...]:
    return ("witness", "--replay", save_argv[save_argv.index("--save") + 1])


def menu(workload: str) -> list[Request]:
    """Every request the workload can draw, each once."""
    seen: dict[str, Request] = {}
    for argv in itertools.chain.from_iterable(STRATA[workload].values()):
        seen.setdefault(Request(argv).key, Request(argv))
        if "--save" in argv:
            seen.setdefault(Request(_replay_of(argv)).key, Request(_replay_of(argv)))
    return list(seen.values())


def rounds(workload: str, seed: int):
    """Yield the workload's rounds (lists of requests) forever, seeded."""
    rng = random.Random(f"{workload}:{seed}")
    strata = STRATA[workload]
    layouts = LAYOUTS[workload]
    for index in itertools.count():
        batch: list[Request] = []
        for name in layouts[index % len(layouts)]:
            if name == "replay":
                saved = [r for r in batch if "--save" in r.argv]
                batch.append(Request(_replay_of(saved[-1].argv)))
            else:
                batch.append(Request(rng.choice(strata[name])))
        yield batch


def defect_probe(workload: str, seed: int) -> Request | None:
    """The seeded request of the workload's defect stratum, if it has one."""
    stratum = DEFECT_STRATA.get(workload)
    if stratum is None:
        return None
    return Request(random.Random(f"{workload}:{seed}:probe").choice(STRATA[workload][stratum]))


def traced_requests(workload: str, seed: int) -> list[Request]:
    """The fixed request list of a traced run: one round of every layout."""
    gen = rounds(workload, seed)
    return [req for _ in LAYOUTS[workload] for req in next(gen)]
