#!/usr/bin/env python3
"""Benchmark of the flagcohom exact quotient engine.

Run from the repository root:

    python3 perfbench/run.py --workload series-vanishing --seed 1 --seconds 35 --trace 0

One run measures one workload in this process, with no extra threads, and
checks every output. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it is a ``record`` object with the seed, the sample counts, the failure share
and the provenance (commit, Python, nproc, row-kernel backend) that
``perfbench/compare.py`` reads. See ``perfbench/README.md`` for the metrics.

The engine is imported from ``src/`` next to this directory; without it the
runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

clock = time.perf_counter


class EngineMissing(RuntimeError):
    """The engine sources are not next to the benchmark."""


class Engine:
    """The engine's modules, freshly imported."""

    # `verify` is imported lazily by the CLI's verify command; importing it
    # here puts its cost in set-up for every workload alike.
    MODULES = ("flagcohom", "flagcohom.cli", "flagcohom.verify")

    def __init__(self):
        if not (SRC / "flagcohom" / "__init__.py").is_file():
            raise EngineMissing(f"no engine sources under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules if m == "flagcohom" or m.startswith("flagcohom.")]:
            del sys.modules[name]
        try:
            mods = [importlib.import_module(m) for m in self.MODULES]
        except ImportError as exc:
            raise EngineMissing(f"cannot import the engine: {exc}") from exc
        self.pkg, self.cli = mods[0], mods[1]
        if Path(self.pkg.__file__).resolve().parent != SRC / "flagcohom":
            raise EngineMissing(f"imported {self.pkg.__file__}, not the sources under {SRC}")


def run_cli(eng: Engine, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = eng.cli.main(argv)
    return rc, out.getvalue()


# -- workloads -------------------------------------------------------------------


class Workload:
    """One job list, its set-up and its checks.

    build(eng) -> rings                 ring construction and table warming (set-up)
    prepare(eng, rings) -> inputs       untimed: expected values and seeded inputs
    run_pass(eng, rings, inputs, op)    one pass over the job list; op(fn) times one
                                        operation and returns its result
    check(eng, rings, inputs, outputs)  one bool per check on the pass's outputs
    check_once(eng, rings, inputs)      checks made once per run, untimed
    """

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, eng):
        return None

    def check_once(self, eng, rings, inputs):
        return []


class SeriesVanishing(Workload):
    """Three series to cutoff 60 through the CLI; rings zero above degree 8, 12, 9."""

    CUTOFF = 60
    SPACES = (
        ("complex-grassmannian", 2, 4, ""),  # G_2(C^4)
        ("oriented-grassmannian", 1, 3, "even-even"),  # G~_2(R^6), Euler classes priority 1
        ("odd-real-grassmannian", 1, 2, ""),  # G_3(R^6), odd r
    )

    def build(self, eng):
        return [
            eng.cli.build_job({"space": dict(zip(("family", "k", "n", "variant"), s))}, cutoff=self.CUTOFF).ring
            for s in self.SPACES
        ]

    def prepare(self, eng, rings):
        return [
            list(eng.pkg.build_space(eng.pkg.SpaceDescriptor(*s))[1].truncate(self.CUTOFF).coefficients)
            for s in self.SPACES
        ]

    def run_pass(self, eng, rings, expected, op):
        out = []
        for family, k, n, variant in self.SPACES:
            argv = ["series", family, "-k", str(k), "-n", str(n)]
            if variant:
                argv += ["--variant", variant]
            argv += ["--cutoff", str(self.CUTOFF), "--force-large", "--format", "structured"]
            out.append(op(lambda: run_cli(eng, argv)))
        return out

    def check(self, eng, rings, expected, outputs):
        return [
            rc == 0 and json.loads(text)["coefficients"] == want
            for (rc, text), want in zip(outputs, expected)
        ]


class EquivariantFlag(Workload):
    """Series of the torus-equivariant complete flag ring of C^3 to cutoff 16."""

    RANK = 3
    CUTOFF = 16

    def build(self, eng):
        return eng.pkg.equivariant_space("complex", self.RANK, "flag", cutoff=self.CUTOFF)

    def prepare(self, eng, ring):
        # Borel convolution 1/(1-t^2)^r * P(Fl(C^r)), as verify.suite_equivariant checks
        flag = eng.pkg.SpaceDescriptor("complete-flag-complex", 0, self.RANK)
        fibre = eng.pkg.build_space(flag)[1].truncate(self.CUTOFF)
        borel = eng.pkg.ClosedFormSeries.from_factors(den=(2,) * self.RANK).truncate(self.CUTOFF)
        return list(borel.convolve(fibre).coefficients)

    def run_pass(self, eng, ring, expected, op):
        # a fresh ring each pass, so every pass computes every table
        def job():
            ring = eng.pkg.equivariant_space("complex", self.RANK, "flag", cutoff=self.CUTOFF)
            return eng.pkg.series_from_ring(ring, self.CUTOFF)

        return [op(job)]

    def check(self, eng, ring, expected, outputs):
        return [list(ts.coefficients) == expected for ts in outputs]


class VerifySuites(Workload):
    """The four named verify suites at --max-n 4 through the CLI."""

    ARGV = ["verify", "catalog", "odd-identity", "extensions", "equivariant", "--max-n", "4"]
    # A bare `flagcohom verify` runs no suite and still reports success, so the
    # suites are named and the count is pinned.
    EXPECTED_CHECKS = 445

    def prepare(self, eng, rings):
        return f"{self.EXPECTED_CHECKS}/{self.EXPECTED_CHECKS} checks passed"

    def run_pass(self, eng, rings, expected, op):
        return [op(lambda: run_cli(eng, self.ARGV))]

    def check(self, eng, rings, expected, outputs):
        results = []
        for rc, text in outputs:
            lines = text.splitlines()
            results.append(
                rc == 0
                and bool(lines)
                and lines[-1] == expected
                and sum(1 for line in lines if line.startswith("PASS ")) == self.EXPECTED_CHECKS
            )
        return results


def exponent_vectors(degrees, odd, d):
    """Exponent vectors of total degree d (odd generators at most once)."""
    out = []
    exps = [0] * len(degrees)

    def rec(i, remaining):
        if remaining == 0:
            out.append(tuple(exps))
            return
        if i == len(degrees):
            return
        top = remaining // degrees[i]
        if i in odd:
            top = min(top, 1)
        for e in range(top + 1):
            exps[i] = e
            rec(i + 1, remaining - e * degrees[i])
        exps[i] = 0

    rec(0, d)
    return sorted(out)


class NormalFormProducts(Workload):
    """Seeded products of homogeneous elements in rings whose tables are warm."""

    PAIRS_PER_COMBO = 48
    TRIPLES = 24
    MIN_TERMS, MAX_TERMS = 2, 12

    def build(self, eng):
        rings = [
            eng.pkg.equivariant_space("complex", 3, "flag", cutoff=12),
            eng.pkg.build_ring(eng.pkg.SpaceDescriptor("odd-oriented-grassmannian", 1, 3)),  # G~_3(R^8)
        ]
        for ring in rings:
            ring.dimensions()  # warm every degree table
        return rings

    def prepare(self, eng, rings):
        """Seeded pairs and triples; every (ring, degree pair) gets the same count.

        Degrees are those with at least two monomials. The term counts cycle
        through 2..12 (capped by the monomials available), so the seed picks
        only which monomials and which small rational coefficients are used.
        """
        rng = random.Random(self.seed)
        pairs, triples = [], []
        for ring in rings:
            gens = ring.gens
            odd = {i for i, d in enumerate(gens.degrees) if d % 2}
            monos = {
                d: exponent_vectors(gens.degrees, odd, d) for d in range(1, ring.cutoff + 1)
            }
            degs = [d for d, ms in monos.items() if len(ms) >= 2]
            cycle = list(range(self.MIN_TERMS, self.MAX_TERMS + 1))

            def element(d, i):
                ms = monos[d]
                n = min(cycle[i % len(cycle)], len(ms))
                terms = {}
                for e in rng.sample(ms, n):
                    num = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
                    terms[e] = Fraction(num, rng.choice((1, 1, 2, 3)))
                return gens.element(terms)

            combos = [(a, b) for a in degs for b in degs if a <= b and a + b <= ring.cutoff]
            for a, b in combos:
                for i in range(self.PAIRS_PER_COMBO):
                    pairs.append((ring, element(a, i), element(b, i + 5)))
            trios = [(a, b, c) for a in degs for b in degs for c in degs if a + b + c <= ring.cutoff]
            for i in range(self.TRIPLES):
                a, b, c = trios[i % len(trios)]
                triples.append((ring, element(a, i), element(b, i + 3), element(c, i + 7)))
        rng.shuffle(pairs)
        return pairs, triples

    def run_pass(self, eng, rings, inputs, op):
        pairs, _ = inputs
        return [
            (ring, a, b, op(lambda: ring.multiply(a, b)), op(lambda: ring.multiply(b, a)))
            for ring, a, b in pairs
        ]

    def check(self, eng, rings, inputs, outputs):
        results = []
        for ring, a, b, ab, ba in outputs:
            sign = -1 if (a.degree() * b.degree()) % 2 else 1
            results.append(ab == ba * sign)
            d = a.degree() + b.degree()
            basis = {m.exps for m in ring.degree_basis(d)}
            results.append(all(e in basis for e in ab.terms))
        return results

    def check_once(self, eng, rings, inputs):
        """Associativity on the seeded triples."""
        _, triples = inputs
        return [
            ring.multiply(ring.multiply(a, b), c) == ring.multiply(a, ring.multiply(b, c))
            for ring, a, b, c in triples
        ]


WORKLOADS = {
    "series-vanishing": SeriesVanishing,
    "equivariant-flag": EquivariantFlag,
    "verify-suites": VerifySuites,
    "normal-form-products": NormalFormProducts,
}


# -- measurement -------------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(eng: Engine) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": eng.pkg.BACKEND,
    }


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, results):
        self.attempted += len(results)
        self.failed += sum(1 for ok in results if not ok)


def measure(wl, seconds: float):
    """Untraced run: iterations of set-up plus one pass, for `seconds`.

    Every iteration imports the engine afresh and builds its rings (timed as
    set-up), then runs one pass over the job list (timed per operation and as
    a whole). Timings are the 90th percentile over passes: on the 2-CPU
    machine this was measured on, speed switches between levels up to 1.7x
    apart for tens of seconds at a time, so a median moves with the share of
    time spent at each level, while the 90th percentile is set by the slowest
    level the run meets.
    """
    setups: list[float] = []
    passes: list[float] = []
    op_ms: list[list[float]] = []  # per pass, ascending
    iterations: list[float] = []
    checks = Checks()
    started = clock()
    while True:
        begun = clock()
        gc.collect()
        t0 = clock()
        eng = Engine()
        rings = wl.build(eng)
        setups.append(clock() - t0)
        inputs = wl.prepare(eng, rings)
        if not passes:
            checks.add(wl.check_once(eng, rings, inputs))

        samples: list[float] = []

        def op(fn):
            t0 = clock()
            result = fn()
            samples.append((clock() - t0) * 1e3)
            return result

        gc.collect()
        t0 = clock()
        outputs = wl.run_pass(eng, rings, inputs, op)
        passes.append(clock() - t0)
        op_ms.append(sorted(samples))
        checks.add(wl.check(eng, rings, inputs, outputs))
        iterations.append(clock() - begun)
        # no iteration may end after `seconds`, by the median iteration so far
        if clock() - started + statistics.median(iterations) > seconds:
            break

    wall = percentile(sorted(passes), 90)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (wall, "s"),
        "ops_per_s": (len(op_ms[0]) / wall, "1/s"),
        "op_ms.p50": (percentile(sorted(percentile(s, 50) for s in op_ms), 90), "ms"),
        "op_ms.p99": (percentile(sorted(percentile(s, 99) for s in op_ms), 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    info = {
        "passes": len(passes),
        "ops_per_pass": len(op_ms[0]),
        "pass_s": passes,
        "setups_s": setups,
        "median_wall_s": statistics.median(passes),
        "median_op_ms.p50": statistics.median(percentile(s, 50) for s in op_ms),
    }
    return eng, checks, metrics, info


def section(wl, eng, checks, tracer=None):
    """Build, prepare and one pass; returns the seconds of build plus pass."""
    gc.collect()

    def hooks():
        return tracer.active() if tracer else contextlib.nullcontext()

    t0 = clock()
    with hooks():
        rings = wl.build(eng)
    built = clock() - t0
    inputs = wl.prepare(eng, rings)
    t0 = clock()
    with hooks():
        outputs = wl.run_pass(eng, rings, inputs, lambda fn: fn())
    elapsed = built + clock() - t0
    checks.add(wl.check(eng, rings, inputs, outputs))
    return elapsed, rings, inputs


def trace(wl):
    """Traced run: after a warm-up, one traced section between two untraced ones.

    The traced section (build plus one pass) is a fixed amount of work, so
    its counts are exact. The untraced sections give the overhead baseline.
    """
    eng = Engine()
    checks = Checks()
    tracer = spans.Tracer()
    section(wl, eng, checks)  # warm-up: a first section over fresh code runs slower
    before, _, _ = section(wl, eng, checks)
    traced, rings, inputs = section(wl, eng, checks, tracer)
    after, _, _ = section(wl, eng, checks)
    checks.add(wl.check_once(eng, rings, inputs))
    if tracer.missing:
        print(f"hooks not installed (absent from the engine): {', '.join(tracer.missing)}", file=sys.stderr)
    print("\n".join(tracer.summary_lines()), file=sys.stderr)
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    values = tracer.metrics()
    values["trace.overhead_frac"] = traced / statistics.mean((before, after)) - 1
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    info = {"traced_s": traced, "untraced_s": [before, after], "spans": len(tracer.start)}
    return eng, checks, metrics, info


def exact_counts(name: str, seed: int) -> dict:
    """Exact per-layer counts of one traced build plus pass (no time values)."""
    wl = WORKLOADS[name](seed)
    tracer = spans.Tracer()
    section(wl, Engine(), Checks(), tracer)
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("self_s")}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="flagcohom benchmark: one workload per run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            eng, checks, metrics, info = trace(wl)
        else:
            eng, checks, metrics, info = measure(wl, args.seconds)
    except EngineMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": checks.failed / checks.attempted if checks.attempted else 1.0,
        **info,
        "provenance": provenance(eng),
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
