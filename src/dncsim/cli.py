"""Command-line interface: validate, simulate, verify-encodings, experiment, predict."""
from __future__ import annotations

import argparse
import json
import sys

from . import blockenc, dnc, errmodel, harness, oracle
from .geomcircuit import Slice, cut_regions, load_circuit, validate
from .synthesis import synthesis_of_circuit

CAP_HELP = "qubits of the widest dense tensor a sweep may hold: its live width, not the circuit's size"


def _cmd_validate(args) -> int:
    circ = load_circuit(args.file)
    report = validate(circ)
    if report.ok:
        print(f"ok: {circ.n_qubits} qubits, depth {circ.depth}, dims {list(circ.dims)}")
        return 0
    for v in report.violations:
        print(f"violation: {v}")
    return 1


def _cmd_simulate(args) -> int:
    circ = load_circuit(args.file)
    report = validate(circ)
    if not report.ok:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 1
    s = synthesis_of_circuit(circ)
    trace = dnc.TraceNode("run", {"file": args.file, "delta": args.delta})
    cfg = dnc.DncConfig(calculus=args.calculus, profile=args.profile, cap=args.cap)
    D = args.dim or len(circ.dims)
    est = dnc.a_full(s, None, args.delta, D, config=cfg, trace=trace)
    print(f"estimate: {est:.12g}")
    if args.oracle:
        exact = oracle.synthesis_value_exact(s, cap=args.cap)
        print(f"oracle:   {exact:.12g}")
        print(f"error:    {abs(exact - est):.3e} (delta {args.delta})")
    if args.trace:
        with open(args.trace, "w") as f:
            json.dump(trace.to_dict(), f, indent=1)
        print(f"trace written to {args.trace}")
    return 0


def _cmd_verify_encodings(args) -> int:
    circ = load_circuit(args.file)
    axis, lo, hi = (int(x) for x in args.cut.split(":"))
    regions = cut_regions(circ, Slice(axis, lo, hi))
    rows = []
    enc = blockenc.build_sigma_encoding(circ, regions)
    inter = blockenc.interleave(enc)
    rows.append(("sigma", 1, blockenc.verify_encoding(enc, cap=args.cap), enc.circuit.depth, inter.circuit.depth, 3 * circ.depth))
    for k in range(1, args.k + 1):
        for side in ("F", "B"):
            enc = blockenc.build_rho_power_encoding(circ, regions, k, side=side)
            inter = blockenc.interleave(enc)
            rows.append(
                (
                    f"rho_{side}^{k}",
                    k,
                    blockenc.verify_encoding(enc, cap=args.cap),
                    enc.circuit.depth,
                    inter.circuit.depth,
                    (2 * k + 1) * circ.depth,
                )
            )
    print(f"{'target':<10} {'k':>2} {'deviation':>12} {'depth':>6} {'interleaved':>11} {'budget':>7}")
    worst = 0.0
    for name, k, dev, depth, idepth, budget in rows:
        worst = max(worst, dev)
        print(f"{name:<10} {k:>2} {dev:>12.3e} {depth:>6} {idepth:>11} {budget:>7}")
    return 0 if worst < 1e-8 else 1


def _cmd_experiment(args) -> int:
    with open(args.config) as f:
        config = harness.ExperimentConfig.from_json(json.load(f))
    report = harness.run_experiment(config)
    report.write(config.output_json, config.output_csv)
    for r in report.records:
        status = "ok" if harness.within_delta(r) else "FAIL"
        print(
            f"{status}: {r['label']} delta={r['delta']} oracle={r['oracle']:.6g} "
            f"estimate={r['estimate']:.6g} |err|={r['abs_error']:.3e}"
        )
    return 0 if report.all_within_delta() else 2


def _cmd_predict(args) -> int:
    sched = dnc.schedule(args.n, args.d, args.D, args.delta, profile=args.profile)
    print("schedule:")
    for k, v in vars(sched).items():
        print(f"  {k} = {v}")
    model = sched.error_model(args.n, args.D)
    bound = errmodel.predicted_error(model, sched.eps)
    print(f"predicted error bound: {bound:.6g} (target delta {args.delta})")
    rt = errmodel.predicted_runtime(
        args.n ** (1.0 / args.D), args.D, args.d, args.w, args.delta, model
    )
    print(f"predicted cost: {rt['cost']:.6g} abstract units")
    print(f"call counts: {rt['counts']}")
    print(f"envelope: {rt['envelope']['form']}, fitted constant {rt['envelope']['fit_constant']:.4g}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="dncsim")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a circuit file")
    v.add_argument("file")
    v.set_defaults(func=_cmd_validate)

    s = sub.add_parser("simulate", help="estimate |<0|C|0>|^2 for a circuit file")
    s.add_argument("file")
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--profile", choices=("desk", "paper"), default="desk")
    s.add_argument("--dim", type=int, default=None)
    s.add_argument("--calculus", choices=("exact-spectral", "power-encoding"), default="exact-spectral")
    s.add_argument("--trace", default=None)
    s.add_argument("--oracle", action="store_true", help="also print the dense value")
    s.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP, help=CAP_HELP)
    s.set_defaults(func=_cmd_simulate)

    e = sub.add_parser("verify-encodings", help="check block-encoding identities at a cut")
    e.add_argument("file")
    e.add_argument("--cut", required=True, metavar="axis:lo:hi")
    e.add_argument("--k", type=int, default=2)
    e.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP, help=CAP_HELP)
    e.set_defaults(func=_cmd_verify_encodings)

    x = sub.add_parser("experiment", help="run an experiment config (JSON)")
    x.add_argument("config")
    x.set_defaults(func=_cmd_experiment)

    r = sub.add_parser("predict", help="print schedule, error bound, and cost prediction")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--d", type=int, default=1)
    r.add_argument("--D", type=int, default=3)
    r.add_argument("--delta", type=float, required=True)
    r.add_argument("--w", type=float, default=1.0)
    r.add_argument("--profile", choices=("desk", "paper"), default="paper")
    r.set_defaults(func=_cmd_predict)

    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
