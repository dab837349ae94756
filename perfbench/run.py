"""Benchmark of the rlcm toolkit: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload oracle-crosscheck --seed 1 \\
        --seconds 36 --trace 0

A run repeats rounds of the workload until `--seconds` have passed.  Every
round re-imports `rlcm` from `src/` and rebuilds its inputs from the seed
(the set-up), then runs the timed phase on cold program state.  With
`--trace 0` the last line of standard output is a JSON object carrying the
end-to-end metrics; with `--trace 1` the second half of the time runs one
extra round with spans around each module's public functions and the JSON
carries the per-layer metrics instead.  Metric names, units and the layer
each one should move are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
MODULES = ("core", "report", "zoo", "zs", "selfsim", "catalog", "star",
           "regrep", "boundary", "cli")
#: Set-ups per round; all but the last are timed and discarded, so that
#: `setup_s` samples the whole run rather than one moment of it.
SETUPS_PER_ROUND = 3
#: String hashing decides set iteration order inside rlcm, and with it how
#: many candidates a search tries, so it is pinned for counts to repeat.
HASH_SEED = "0"

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"), ("certified_frac", "ratio"),
)
CALLS_AND_SELF = (
    "core.enumerate_ball", "zs.multiply", "zs.left_divide", "zs.right_lcm",
    "zs.matching", "selfsim.ftheta_multiply", "selfsim.ftheta_left_divide",
    "selfsim.ssa_act_word", "selfsim.survey", "zoo.frac_right_lcm",
    "regrep.rep_generator", "regrep.op_compose", "regrep.op_compare",
    "regrep.monomial_op", "star.word_normalize", "star.mono_multiply",
    "star.is_foundation_set", "boundary.affine_compose",
    "boundary.partition_check", "boundary.verify_boundary_suite",
    "catalog.get_semigroup", "catalog.get_zs_descriptor", "cli.run",
)
BRUTE_SPANS = ("core.brute.right_lcm", "core.brute.search",
               "core.brute.mult_map")
WORK_KEYS = ("pairs_certified", "pairs_skipped", "vectors_compared",
             "vectors_escaped", "words", "requests", "frac_steps",
             "known_defects")


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    names = []
    for layer in CALLS_AND_SELF:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [
        ("core.brute.right_lcm_calls", "count"), ("core.brute.self_s", "s"),
        ("core.brute.searches", "count"), ("core.brute.mult_maps", "count"),
        ("core.brute.certified_ratio", "ratio"),
        ("zs.left_divide.hit_ratio", "ratio"),
        ("zoo.frac_right_lcm.steps", "count"),
        ("regrep.op_compare.compared", "count"),
        ("regrep.op_compare.escaped", "count"),
        ("regrep.op_compare.coverage", "ratio"),
    ]
    names += [(f"cli.{verb}.p50_ms", "ms") for verb in workloads.CLI_VERBS]
    names += [(f"work.{key}", "count") for key in WORK_KEYS]
    names += [("trace.overhead_ratio", "ratio"), ("trace.layer_share", "ratio")]
    return names


def load_program():
    """Import every rlcm module afresh, dropping any earlier copy."""
    for name in list(sys.modules):
        if name == "rlcm" or name.startswith("rlcm."):
            del sys.modules[name]
    rl = types.SimpleNamespace(
        **{m: importlib.import_module(f"rlcm.{m}") for m in MODULES})
    rl.modules = [sys.modules["rlcm"]] + [getattr(rl, m) for m in MODULES]
    return rl


def set_up(workload, seed, tiny, tracer=None):
    """Import the program and build the seeded inputs; (seconds, rl, inputs)."""
    setup = workloads.WORKLOADS[workload][0]
    gc.collect()
    t0 = time.perf_counter()
    rl = load_program()
    if tracer is not None:
        tracer.install(rl)
    inputs = setup(rl, random.Random(seed), tiny)
    return time.perf_counter() - t0, rl, inputs


def timed_round(workload, rl, inputs, tracer=None):
    """Run the timed phase, then judge its outputs with the clock and the
    tracer stopped; (seconds, Round)."""
    _, run, check = workloads.WORKLOADS[workload]
    gc.collect()
    if tracer is not None:
        tracer.recording = True
    t0 = time.perf_counter()
    raw = run(rl, inputs)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.recording = False
    return wall, raw if check is None else check(rl, inputs, raw)


def quantile(values, q):
    """The q-quantile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def fingerprint(rnd):
    """Work counts of one round; equal seeds must give equal counts."""
    work = dict.fromkeys(WORK_KEYS, 0)
    work.update(rnd.work)
    work["requests"] = len(rnd.verbs)
    work["failed"] = rnd.count(workloads.FAILED)
    return work


def layer_metrics(tracer, traced_wall, untraced_wall, verb_p50, work):
    t = tracer
    out = {}
    for layer in CALLS_AND_SELF:
        out[f"{layer}.calls"] = t.calls_of(layer)
        out[f"{layer}.self_s"] = t.self_of(layer)
    c = t.counters
    brute_calls = t.calls_of("core.brute.right_lcm")
    ld_calls = t.calls_of("zs.left_divide")
    seen = c["regrep.op_compare.compared"] + c["regrep.op_compare.escaped"]
    out.update({
        "core.brute.right_lcm_calls": brute_calls,
        "core.brute.self_s": t.self_of(*BRUTE_SPANS),
        "core.brute.searches": c["core.brute.searches"],
        "core.brute.mult_maps": len(t.mult_map_keys),
        "core.brute.certified_ratio":
            c["core.brute.certified"] / brute_calls if brute_calls else 0.0,
        "zs.left_divide.hit_ratio":
            c["zs.left_divide.hits"] / ld_calls if ld_calls else 0.0,
        "zoo.frac_right_lcm.steps": c["zoo.frac_right_lcm.steps"],
        "regrep.op_compare.compared": c["regrep.op_compare.compared"],
        "regrep.op_compare.escaped": c["regrep.op_compare.escaped"],
        "regrep.op_compare.coverage":
            c["regrep.op_compare.compared"] / seen if seen else 0.0,
    })
    for verb in workloads.CLI_VERBS:
        out[f"cli.{verb}.p50_ms"] = verb_p50.get(verb, 0.0)
    for key in WORK_KEYS:
        out[f"work.{key}"] = work[key]
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    out["trace.layer_share"] = t.total_self() / traced_wall
    return out


def environment():
    import numpy  # already loaded by rlcm.regrep
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cores": os.cpu_count()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    tiny = args.size == "tiny"

    if not (SRC / "rlcm" / "__init__.py").is_file():
        print(f"error: no rlcm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rl = load_program()
    if Path(rl.modules[0].__file__).resolve().parent != SRC / "rlcm":
        print("error: rlcm was not imported from this checkout",
              file=sys.stderr)
        return 2

    budget = args.seconds / 2 if args.trace else args.seconds
    setups, walls, rounds = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < budget:
        for _ in range(SETUPS_PER_ROUND):
            seconds, rl, inputs = set_up(args.workload, args.seed, tiny)
            setups.append(seconds)
        if not rounds:
            digest = hashlib.sha256(
                repr(inputs["digest"]).encode()).hexdigest()
        wall, rnd = timed_round(args.workload, rl, inputs)
        walls.append(wall)
        rounds.append(rnd)
        del rl, inputs

    first = rounds[0]
    work = fingerprint(first)
    consistent = all(fingerprint(r) == work and r.outcomes == first.outcomes
                     for r in rounds)
    items = len(first.outcomes)
    failed = first.count(workloads.FAILED)
    wall_s = statistics.median(walls)
    latencies_ms = [1e3 * x for r in rounds for x in r.latencies]

    if args.trace:
        tracer = Tracer()
        _, rl, inputs = set_up(args.workload, args.seed, tiny, tracer)
        traced_wall, traced = timed_round(args.workload, rl, inputs, tracer)
        consistent &= fingerprint(traced) == work
        by_verb = {}
        for r in rounds:
            for verb, x in zip(r.verbs, r.latencies):
                by_verb.setdefault(verb, []).append(1e3 * x)
        verb_p50 = {v: statistics.median(xs) for v, xs in by_verb.items()}
        values = layer_metrics(tracer, traced_wall, wall_s, verb_p50, work)
        units = dict(per_layer_names())
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.tsv")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "items_per_s": first.count(workloads.CERTIFIED) / wall_s,
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p95_ms": quantile(latencies_ms, 0.95),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "certified_frac":
                first.count(workloads.CERTIFIED) / items,
        }
        units = dict(END_TO_END)

    for detail in first.failures:
        print(f"FAILED {detail}", file=sys.stderr)
    if not consistent:
        print("error: work counts or outcomes differ between rounds",
              file=sys.stderr)
    print("env " + json.dumps(environment()))
    print("work " + json.dumps({"workload": args.workload, "seed": args.seed,
                                "inputs_sha256": digest, "rounds": len(rounds),
                                "items": items, **work}))
    for name, value in values.items():
        print(f"metric {name} {value} {units[name]}")
    result = {
        "correct": consistent and failed == 0,
        "attempted": items,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
