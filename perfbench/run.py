"""dncsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload chain_scale --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
A run times its own setup (and two more in fresh interpreters), runs one
untimed warm-up round, then repeats whole rounds until `--seconds` have
passed and at least two rounds are done.  Every output is checked against references computed apart from
dncsim (see references.py and checks.py).  With `--trace 0` the last line
carries the end-to-end metrics; with `--trace 1` the per-layer metrics, and
the spans go to perfbench/out/.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy loads: runs at two threads on a
# two-core machine spread far more than runs at one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2  # fresh-interpreter setups per run, besides the run's own
MIN_ROUNDS = 2  # measured rounds per run, however long a round takes


def setup(workload: str, seed: int, trace: bool = False):
    """Import dncsim and build round 0.

    Returns (setup seconds, import seconds, round 0, tracer or None).
    """
    t0 = time.perf_counter()
    import dncsim

    t1 = time.perf_counter()
    if not Path(dncsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dncsim was imported from {dncsim.__file__}, not from {SRC}")
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(dncsim)
    rnd = workloads.build_round(workload, seed, 0)
    return time.perf_counter() - t0, t1 - t0, rnd, tracer


def setup_probe(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def reference_values(rnd) -> dict:
    """Reference value or operator for every operation of a round, keyed by id."""
    import references as ref
    from dncsim.geomcircuit import Slice

    refs = {}
    for op in rnd.estimates + rnd.oracles:
        circ = op.synthesis.gamma
        key = id(op.synthesis)
        if key not in refs:
            if circ.n_qubits <= ref.MAX_STATEVECTOR_QUBITS:
                refs[key] = ref.probability_statevector(circ)
            else:
                refs[key] = ref.probability_sweep(circ)
    for op in rnd.encodings:
        sl = Slice(0, *op.cut)
        if op.kind == "sigma":
            refs[id(op)] = ref.sigma_ref(op.circuit, sl)
        else:
            refs[id(op)] = ref.rho_power_ref(op.circuit, sl, op.k, op.side)
    return refs


@dataclass
class RoundResult:
    estimate_s: float = 0.0  # timed estimates (chain_scale leaves out its reach rungs)
    all_estimates_s: float = 0.0  # every a_full call, completed or failed
    completed: int = 0
    oracle_s: float = 0.0
    encoding_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    max_chain: int = 0  # largest [L,1,1] chain estimated within delta


def run_round(rnd, refs, problems: list, failures: dict, tracer=None) -> RoundResult:
    from dncsim import blockenc, dnc, geomcircuit, oracle

    import checks  # imports numpy, so not before setup has timed `import dncsim`

    res = RoundResult()

    def fail(op, exc):
        res.failed += 1
        failures.setdefault(f"{op.label}: {type(exc).__name__}", str(exc)[:160])

    def check(op, message):
        if message is not None:
            problems.append(f"{op.label}: {message}")
        return message is None

    for op in rnd.estimates:
        res.attempted += 1
        s = op.synthesis
        node = dnc.TraceNode("run") if tracer is not None else None
        if tracer is not None:
            tracer.op = op.label
        t0 = time.perf_counter()
        try:
            cfg = dnc.DncConfig(profile="desk", overrides=dict(op.overrides), cap=op.cap)
            est = dnc.a_full(s, None, op.delta, len(s.gamma.dims), config=cfg, trace=node)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            res.all_estimates_s += time.perf_counter() - t0
            fail(op, exc)
            continue
        dt = time.perf_counter() - t0
        res.all_estimates_s += dt
        if op.timed:
            res.estimate_s += dt
        res.completed += 1
        if node is not None:
            tracer.count_leaves(node)
        ok = check(op, checks.check_estimate(est, refs[id(s)], op.delta))
        ok &= check(op, checks.check_known(op.spec["kind"], est, op.delta))
        dims = s.gamma.dims
        if ok and dims[1:] == (1,) * (len(dims) - 1):
            res.max_chain = max(res.max_chain, dims[0])

    for op in rnd.oracles:
        res.attempted += 1
        if tracer is not None:
            tracer.op = op.label
        t0 = time.perf_counter()
        try:
            value = oracle.synthesis_value_exact(op.synthesis, cap=op.cap)
        except Exception as exc:
            res.oracle_s += time.perf_counter() - t0
            fail(op, exc)
            continue
        res.oracle_s += time.perf_counter() - t0
        check(op, checks.check_value(value, refs[id(op.synthesis)]))
        check(op, checks.check_known(op.spec["kind"], value, checks.VALUE_TOL))

    for op in rnd.encodings:
        res.attempted += 1
        if tracer is not None:
            tracer.op = op.label
        own = None
        t0 = time.perf_counter()
        try:
            regions = geomcircuit.cut_regions(op.circuit, geomcircuit.Slice(0, *op.cut))
            if op.kind == "sigma":
                enc = blockenc.build_sigma_encoding(op.circuit, regions)
            else:
                enc = blockenc.build_rho_power_encoding(op.circuit, regions, op.k, side=op.side)
            block = blockenc.encoding_block(enc, cap=op.cap)
            if op.kind == "sigma":  # the oracle's sigma, which verify-encodings compares with
                own = oracle.reduced_state(op.circuit, regions, cap=op.cap).matrix
        except Exception as exc:
            res.encoding_s += time.perf_counter() - t0
            fail(op, exc)
            continue
        res.encoding_s += time.perf_counter() - t0
        tol = checks.SIGMA_TOL if op.kind == "sigma" else checks.POWER_TOL
        check(op, checks.check_block(block, refs[id(op)], tol))
        if own is not None:
            check(op, checks.check_block(block, own, tol))
    return res


def run(args) -> dict:
    samples = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_s, import_s, rnd0, tracer = setup(args.workload, args.seed, bool(args.trace))
    samples.append(setup_s)
    refs0 = reference_values(rnd0)

    problems: list[str] = []
    failures: dict[str, str] = {}
    if tracer is not None:
        tracer.phase = "warmup"
    run_round(rnd0, refs0, problems, failures, tracer)  # untimed warm-up

    results = []
    start = time.perf_counter()
    while True:
        rnd, refs = rnd0, refs0
        if workloads.FRESH_EACH_ROUND[args.workload]:
            if tracer is not None:
                tracer.phase = "prepare"
            rnd = workloads.build_round(args.workload, args.seed, len(results) + 1)
            refs = reference_values(rnd)
        if tracer is not None:
            tracer.start_round()
        results.append(run_round(rnd, refs, problems, failures, tracer))
        if len(results) >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
            break

    for i, x in enumerate(results, 1):
        print(f"round {i}: estimates {x.estimate_s:.4f} s, oracle {x.oracle_s:.4f} s, "
              f"encodings {x.encoding_s:.4f} s")
    for line in problems[:20]:
        print(f"CHECK FAILED {line}")
    for label, message in sorted(failures.items()):
        print(f"operation failed  {label}  {message}")
    total_s = sum(x.all_estimates_s for x in results)
    # Mean per round: desk_corpus draws fresh circuits each round, so the work
    # of one round varies and the mean averages it where a median would not.
    timings = {
        "estimate_s": statistics.fmean(x.estimate_s for x in results),
        "oracle_s": statistics.fmean(x.oracle_s for x in results),
        "encoding_s": statistics.fmean(x.encoding_s for x in results),
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "estimate_s": (timings["estimate_s"], "s"),
            "estimates_per_s": (sum(x.completed for x in results) / total_s, "1/s"),
            "oracle_s": (timings["oracle_s"], "s"),
            "encoding_s": (timings["encoding_s"], "s"),
            "max_chain_qubits": (min(x.max_chain for x in results), "qubits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        import tracing

        layers = tracer.layer_metrics(len(results))
        layers.update(tracer.setup_metrics())
        layers["import_s"] = import_s
        layers.update({f"traced.{name}": value for name, value in timings.items()})
        metrics = {name: (value, tracing.unit(name)) for name, value in layers.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")

    attempted = sum(x.attempted for x in results)
    failed = sum(x.failed for x in results)
    print(f"{args.workload} seed {args.seed}: {len(results)} measured rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    return {
        "correct": not problems and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one setup and exit")
    args = p.parse_args(argv)
    if not (SRC / "dncsim" / "__init__.py").is_file():
        print(f"dncsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_s = setup(args.workload, args.seed)[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
