"""Command-line interface.

Mirrors the way the paper's tools are driven in practice ("Using either
method merely requires a few lines of code") as a shell command::

    python -m repro verify original.qasm compiled.qasm --strategy combined
    python -m repro analyze original.qasm compiled.qasm
    python -m repro compile circuit.qasm --device line:5 -o compiled.qasm
    python -m repro stats circuit.qasm
    python -m repro bench --use-case compiled --scale small
    python -m repro fuzz --seed 0 --budget 300 --family clifford_t
    python -m repro serve --workers 4 --cache cache.jsonl
    python -m repro submit original.qasm compiled.qasm
    python -m repro soak --jobs 200 --seed 0

Because OpenQASM 2.0 has no syntax for layout metadata, ``compile`` writes
a JSON sidecar (``<out>.layout.json``) with the initial layout and output
permutation, and ``verify`` picks it up automatically (or via
``--layout``).

Exit codes of ``verify``: 0 = considered equivalent, 1 = proven
non-equivalent, 2 = no information / timeout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.circuit import circuit_from_qasm, circuit_to_qasm
from repro.circuit.circuit import QuantumCircuit


def _load_circuit(path: str, layout_path: Optional[str] = None) -> QuantumCircuit:
    text = Path(path).read_text()
    circuit = circuit_from_qasm(text, name=Path(path).stem)
    sidecar = Path(layout_path) if layout_path else Path(path + ".layout.json")
    if sidecar.exists():
        metadata = json.loads(sidecar.read_text())
        circuit.initial_layout = {
            int(k): v for k, v in metadata.get("initial_layout", {}).items()
        }
        circuit.output_permutation = {
            int(k): v
            for k, v in metadata.get("output_permutation", {}).items()
        }
    return circuit


def _parse_device(spec: str):
    from repro.compile import (
        grid_architecture,
        line_architecture,
        manhattan_architecture,
        ring_architecture,
    )

    if spec == "manhattan":
        return manhattan_architecture()
    kind, _, arg = spec.partition(":")
    if kind == "line":
        return line_architecture(int(arg))
    if kind == "ring":
        return ring_architecture(int(arg))
    if kind == "grid":
        rows, _, cols = arg.partition("x")
        return grid_architecture(int(rows), int(cols))
    raise SystemExit(
        f"unknown device {spec!r} (use manhattan, line:N, ring:N, grid:RxC)"
    )


def _print_statistics(statistics: dict, indent: int = 1) -> None:
    """Print a (possibly nested) statistics dict, one ``key: value`` per line."""
    pad = "  " * indent
    for key, value in sorted(statistics.items()):
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_statistics(value, indent + 1)
        else:
            print(f"{pad}{key}: {value}")


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.ec import Configuration, EquivalenceCheckingManager
    from repro.ec.results import Equivalence

    if args.portfolio and args.strategy != "combined":
        raise SystemExit(
            "--portfolio races the combined schedule; it cannot be used "
            f"with --strategy {args.strategy}"
        )
    circuit1 = _load_circuit(args.circuit1, args.layout1)
    circuit2 = _load_circuit(args.circuit2, args.layout2)
    config_kwargs = {}
    if args.compute_table_size is not None:
        # 0 selects the unbounded dict-backed tables.
        config_kwargs["compute_table_size"] = args.compute_table_size or None
    configuration = Configuration(
        strategy=args.strategy,
        portfolio=args.portfolio,
        static_analysis=not args.no_static_analysis,
        oracle=args.oracle,
        num_simulations=args.simulations,
        stimuli_type=args.stimuli,
        timeout=args.timeout,
        seed=args.seed,
        direct_application=not args.legacy_kernels,
        incremental_zx=not args.legacy_zx_simp,
        array_dd=not args.legacy_dd,
        memory_limit_mb=args.memory_limit,
        max_retries=args.retries,
        num_instantiations=args.instantiations,
        parameterized_symbolic=not args.instantiate_only,
        **config_kwargs,
    )
    if args.isolate:
        from repro.harness import run_check

        result = run_check(circuit1, circuit2, configuration, isolate=True)
    else:
        result = EquivalenceCheckingManager(
            circuit1, circuit2, configuration
        ).run()
    failure = result.failure
    if failure is not None:
        print(
            f"check failed: {failure.get('kind')} "
            f"({failure.get('message')})",
            file=sys.stderr,
        )
    print(f"{result.equivalence.value}  [{result.strategy}]  {result.time:.3f}s")
    if args.verbose:
        _print_statistics(result.statistics)
        active = result.statistics.get("active_qubits")
        if active is not None:
            width = max(circuit1.num_qubits, circuit2.num_qubits)
            print(f"  checked {active} of {width} wires")
    if result.considered_equivalent:
        return 0
    if result.equivalence is Equivalence.NOT_EQUIVALENT:
        return 1
    return 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        analyze_pair,
        circuit_depth,
        format_report,
        interaction_fingerprint,
        profile_gate_set,
    )
    from repro.ec import Configuration

    circuit1 = _load_circuit(args.circuit1, args.layout1)
    if args.circuit2 is None:
        # Single-circuit mode: report the static profile only.
        profile = profile_gate_set(circuit1)
        payload = profile.to_dict()
        payload["depth"] = circuit_depth(circuit1)
        payload["interaction_fingerprint"] = interaction_fingerprint(circuit1)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"circuit:   {circuit1.name} ({circuit1.num_qubits} qubits)")
            _print_statistics(payload)
        return 0
    circuit2 = _load_circuit(args.circuit2, args.layout2)
    configuration = Configuration(timeout=args.timeout, seed=args.seed)
    from repro.circuit.symbolic import (
        circuit_parameters,
        instantiate_circuit,
        is_symbolic_circuit,
    )

    symbolic_block = None
    symbolic_neq = False
    if is_symbolic_circuit(circuit1) or is_symbolic_circuit(circuit2):
        # The structural passes build dense unitaries, so a symbolic
        # pair is analyzed at the all-zeros valuation; the symbolic
        # phase-polynomial comparison (valid for *all* valuations) is
        # reported alongside.
        from repro.analysis.phasepoly import phase_polynomial_check
        from repro.ec.permutations import to_logical_form

        variables = sorted(
            set(circuit_parameters(circuit1))
            | set(circuit_parameters(circuit2))
        )
        num_qubits = max(circuit1.num_qubits, circuit2.num_qubits)
        logical1, _ = to_logical_form(
            circuit1, num_qubits,
            configuration.elide_permutations, configuration.reconstruct_swaps,
        )
        logical2, _ = to_logical_form(
            circuit2, num_qubits,
            configuration.elide_permutations, configuration.reconstruct_swaps,
        )
        verdict, details = phase_polynomial_check(logical1, logical2)
        symbolic_neq = verdict == "not_equivalent"
        symbolic_block = {
            "variables": variables,
            "instantiated_at": "all-zeros valuation",
            "phase_polynomial": {"verdict": verdict, **details},
        }
        zeros = {name: 0.0 for name in variables}
        circuit1 = instantiate_circuit(circuit1, zeros)
        circuit2 = instantiate_circuit(circuit2, zeros)
    report = analyze_pair(circuit1, circuit2, configuration)
    if args.json:
        payload = report.detail_dict()
        if symbolic_block is not None:
            payload["symbolic"] = symbolic_block
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report(report))
        if symbolic_block is not None:
            print("symbolic:")
            _print_statistics(symbolic_block)
    return 1 if (report.is_sound_neq or symbolic_neq) else 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.compile import compile_circuit

    circuit = _load_circuit(args.circuit)
    device = _parse_device(args.device)
    compiled = compile_circuit(
        circuit,
        device,
        layout_method=args.layout_method,
        routing_method=args.routing_method,
        optimization_level=args.optimization_level,
    )
    out_path = Path(args.output)
    out_path.write_text(circuit_to_qasm(compiled))
    sidecar = Path(str(out_path) + ".layout.json")
    sidecar.write_text(
        json.dumps(
            {
                "initial_layout": compiled.initial_layout,
                "output_permutation": compiled.output_permutation,
            },
            indent=2,
        )
    )
    print(
        f"compiled {circuit.name}: {len(circuit)} -> {len(compiled)} gates "
        f"on {device.name}; wrote {out_path} (+ layout sidecar)"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    counts = circuit.count_ops()
    print(f"name:            {circuit.name}")
    print(f"qubits:          {circuit.num_qubits}")
    print(f"gates:           {len(circuit)}")
    print(f"depth:           {circuit.depth()}")
    print(f"two-qubit gates: {circuit.two_qubit_gate_count()}")
    print(f"t gates:         {circuit.t_count()}")
    print(f"non-clifford:    {circuit.non_clifford_count()}")
    print("counts:          " + ", ".join(
        f"{name}={count}" for name, count in sorted(counts.items())
    ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.study import main as study_main

    forwarded = ["--use-case", args.use_case, "--scale", args.scale,
                 "--timeout", str(args.timeout), "--seed", str(args.seed)]
    if args.portfolio:
        forwarded.append("--portfolio")
    if args.isolate:
        forwarded.append("--isolate")
    if args.memory_limit is not None:
        forwarded += ["--memory-limit", str(args.memory_limit)]
    forwarded += ["--retries", str(args.retries)]
    if args.journal:
        forwarded += ["--journal", args.journal]
    if args.resume:
        forwarded.append("--resume")
    return study_main(forwarded)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzSettings, run_fuzz

    settings = FuzzSettings(
        seed=args.seed,
        budget=args.budget,
        family=args.family,
        num_qubits=args.qubits,
        num_gates=args.gates,
        corpus_dir=args.corpus,
        isolate=args.isolate,
        portfolio=args.portfolio,
        check_timeout=args.timeout,
        max_seconds=args.max_seconds,
    )
    outcome = run_fuzz(settings, log=print)
    summary = outcome.describe()
    print(
        f"fuzz[{summary['family']}] seed={summary['seed']}: "
        f"{summary['pairs_run']} pairs in {summary['seconds']}s, "
        f"{summary['disagreements']} disagreement(s), "
        f"{summary['missed_by_simulation']} missed by simulation, "
        f"{summary['leaked_children']} leaked child(ren)"
    )
    for disagreement in outcome.disagreements:
        print(f"  repro: {disagreement.path}")
    return outcome.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import RetryPolicy
    from repro.service import (
        PoolConfig,
        QuarantineStore,
        ServiceServer,
        VerdictCache,
        WorkerPool,
    )

    pool = WorkerPool(
        PoolConfig(
            workers=args.workers,
            memory_mb=args.memory_limit,
            max_jobs_per_worker=args.max_jobs_per_worker,
            max_worker_rss_mb=args.max_worker_rss,
            queue_depth=args.queue_depth,
            restart_backoff=RetryPolicy(
                max_retries=0,
                backoff_base=0.05,
                backoff_max=2.0,
                jitter=0.5,
                jitter_seed=args.seed,
            ),
        ),
        cache=VerdictCache(args.cache) if args.cache else None,
        quarantine=QuarantineStore(args.quarantine)
        if args.quarantine
        else None,
    )
    server = ServiceServer(pool, args.socket)
    server.install_signal_handlers()
    server.start()
    print(
        f"repro service: {args.workers} worker(s) on {args.socket} "
        f"(queue depth {args.queue_depth}); Ctrl-C drains and exits"
    )
    server.serve_forever()
    counters = pool.counters.counters
    print(
        "repro service: drained and stopped "
        f"({counters.get('service.jobs_completed', 0)} job(s) served, "
        f"{counters.get('cache.hit', 0)} cache hit(s), "
        f"{counters.get('service.quarantined', 0)} quarantined)"
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.ec import Configuration
    from repro.service import ServiceClient

    if len(args.circuits) % 2 != 0:
        raise SystemExit(
            "submit expects an even number of circuits (pairs of "
            "original/compiled QASM files)"
        )
    pairs = [
        (_load_circuit(args.circuits[i]), _load_circuit(args.circuits[i + 1]))
        for i in range(0, len(args.circuits), 2)
    ]
    configuration = Configuration(timeout=args.timeout, seed=args.seed)
    with ServiceClient(args.socket) as client:
        results = client.submit_batch(pairs, configuration)
    worst = 0
    for (index, result) in enumerate(results):
        name1 = args.circuits[2 * index]
        name2 = args.circuits[2 * index + 1]
        print(f"{name1} vs {name2}: {result['equivalence']}")
        equivalence = result["equivalence"]
        if equivalence == "not_equivalent":
            worst = max(worst, 1)
        elif equivalence in ("no_information", "timeout"):
            worst = max(worst, 2)
    return worst


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.service import SoakSettings, run_soak

    report = run_soak(
        SoakSettings(
            seed=args.seed,
            jobs=args.jobs,
            workers=args.workers,
            fault_rate=args.fault_rate,
            poison_pairs=args.poison_pairs,
            check_timeout=args.timeout,
        ),
        log=print,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Equivalence checking paradigms case-study toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check two QASM circuits")
    verify.add_argument("circuit1")
    verify.add_argument("circuit2")
    verify.add_argument(
        "--strategy",
        default="combined",
        choices=(
            "construction", "alternating", "simulation", "zx", "combined",
            "stabilizer", "state", "analysis", "parameterized",
        ),
    )
    verify.add_argument(
        "--instantiations", type=int, default=8, metavar="N",
        help="seeded random valuations for the parameterized strategy's "
        "instantiation fallback",
    )
    verify.add_argument(
        "--instantiate-only", action="store_true",
        help="skip the symbolic phase-polynomial/ZX paths of the "
        "parameterized strategy (instantiate-only baseline)",
    )
    verify.add_argument(
        "--portfolio", action="store_true",
        help="race all applicable strategies as concurrent sandboxed "
        "children; first sound verdict wins (requires --strategy combined)",
    )
    verify.add_argument(
        "--no-static-analysis", action="store_true",
        help="skip the static analysis pre-pass (sound NEQ short-circuit "
        "and strategy advisor) in front of the configured checker",
    )
    verify.add_argument(
        "--oracle", default="proportional",
        choices=("naive", "proportional", "lookahead", "compilation_flow"),
    )
    verify.add_argument("--simulations", type=int, default=16)
    verify.add_argument(
        "--stimuli", default="classical",
        choices=("classical", "local_quantum", "global_quantum"),
    )
    verify.add_argument("--timeout", type=float, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--layout1", default=None)
    verify.add_argument("--layout2", default=None)
    verify.add_argument(
        "--legacy-kernels", action="store_true",
        help="disable the direct gate-application fast path (A/B baseline)",
    )
    verify.add_argument(
        "--legacy-zx-simp", action="store_true",
        help="disable the incremental worklist ZX simplifier and use the "
        "rescan-to-fixpoint drivers (A/B baseline)",
    )
    verify.add_argument(
        "--legacy-dd", action="store_true",
        help="use the object-based DD engine instead of the array-native "
        "node store with batched stimuli (A/B baseline)",
    )
    verify.add_argument(
        "--compute-table-size", type=int, default=None,
        metavar="SLOTS",
        help="slots per DD compute table (default: package default; "
        "0 = unbounded dict tables)",
    )
    verify.add_argument(
        "--isolate", action="store_true",
        help="run the check in a sandboxed subprocess with a hard "
        "(SIGKILL) timeout and the --memory-limit ceiling",
    )
    verify.add_argument(
        "--memory-limit", type=int, default=None, metavar="MB",
        help="address-space headroom for the isolated check, in MiB",
    )
    verify.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="bounded retries of transient (crash/worker-lost) failures",
    )
    verify.add_argument("-v", "--verbose", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis of one circuit (profile) or a pair "
        "(sound pre-checks + strategy advice; exit 1 = proven "
        "non-equivalent, 0 otherwise)",
    )
    analyze.add_argument("circuit1")
    analyze.add_argument("circuit2", nargs="?", default=None)
    analyze.add_argument("--layout1", default=None)
    analyze.add_argument("--layout2", default=None)
    analyze.add_argument("--timeout", type=float, default=None)
    analyze.add_argument("--seed", type=int, default=None)
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the full nested report as JSON",
    )
    analyze.set_defaults(func=_cmd_analyze)

    compile_cmd = sub.add_parser("compile", help="compile a QASM circuit")
    compile_cmd.add_argument("circuit")
    compile_cmd.add_argument("--device", default="manhattan")
    compile_cmd.add_argument("-o", "--output", required=True)
    compile_cmd.add_argument(
        "--layout-method", default="greedy", choices=("trivial", "greedy")
    )
    compile_cmd.add_argument(
        "--routing-method", default="basic", choices=("basic", "lookahead")
    )
    compile_cmd.add_argument("--optimization-level", type=int, default=1)
    compile_cmd.set_defaults(func=_cmd_compile)

    stats = sub.add_parser("stats", help="print circuit statistics")
    stats.add_argument("circuit")
    stats.set_defaults(func=_cmd_stats)

    bench = sub.add_parser("bench", help="run the Table 1 harness")
    bench.add_argument(
        "--use-case", default="both",
        choices=("compiled", "optimized", "both"),
    )
    bench.add_argument("--scale", default="small", choices=("small", "paper"))
    bench.add_argument("--timeout", type=float, default=60.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--portfolio", action="store_true",
        help="run the t_dd cells as a concurrent strategy portfolio "
        "(race sandboxed checkers, first sound verdict wins)",
    )
    bench.add_argument(
        "--isolate", action="store_true",
        help="run every cell in a sandboxed subprocess (hard timeout)",
    )
    bench.add_argument(
        "--memory-limit", type=int, default=None, metavar="MB",
        help="address-space headroom per isolated cell, in MiB",
    )
    bench.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="bounded retries of transient failures",
    )
    bench.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint completed cells to a JSONL journal",
    )
    bench.add_argument(
        "--resume", action="store_true",
        help="restore completed cells from --journal",
    )
    bench.set_defaults(func=_cmd_bench)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the checkers (exit 0 = all agreed, "
        "2 = minimized repro written)",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--budget", type=int, default=100, metavar="N",
        help="number of labeled pairs to generate and cross-check",
    )
    fuzz.add_argument(
        "--family", default="clifford_t",
        choices=(
            "clifford", "clifford_t", "rotations", "ancilla",
            "parameterized",
        ),
    )
    fuzz.add_argument(
        "--qubits", type=int, default=None,
        help="fix the data-qubit count (default: sampled per family)",
    )
    fuzz.add_argument(
        "--gates", type=int, default=None,
        help="fix the base gate count (default: sampled per family)",
    )
    fuzz.add_argument(
        "--corpus", default="corpus", metavar="DIR",
        help="directory for minimized repros and the corpus journal",
    )
    fuzz.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-check timeout in seconds",
    )
    fuzz.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="wall-clock cap for the whole campaign",
    )
    fuzz.add_argument(
        "--isolate", action="store_true",
        help="run every oracle check in a sandboxed subprocess",
    )
    fuzz.add_argument(
        "--portfolio", action="store_true",
        help="add the concurrent strategy portfolio as an extra oracle "
        "participant and cross-check its verdicts",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    serve = sub.add_parser(
        "serve",
        help="run the supervised checking service on a local socket "
        "(long-lived worker pool + verdict cache + poison quarantine)",
    )
    serve.add_argument(
        "--socket", default="repro-service.sock", metavar="PATH",
        help="AF_UNIX socket path the service listens on",
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--queue-depth", type=int, default=1024,
        help="bound on unresolved jobs; beyond it submissions are "
        "rejected with a retry-after hint",
    )
    serve.add_argument(
        "--cache", default=None, metavar="PATH",
        help="persist the verdict cache to this JSONL journal",
    )
    serve.add_argument(
        "--quarantine", default=None, metavar="PATH",
        help="persist poison-pair records to this JSONL journal",
    )
    serve.add_argument(
        "--memory-limit", type=int, default=None, metavar="MB",
        help="address-space headroom per worker, in MiB",
    )
    serve.add_argument(
        "--max-jobs-per-worker", type=int, default=64,
        help="recycle a worker after this many jobs",
    )
    serve.add_argument(
        "--max-worker-rss", type=float, default=1024.0, metavar="MB",
        help="recycle a worker whose resident set exceeds this",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="seed of the deterministic restart-backoff jitter",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit QASM circuit pairs to a running service "
        "(exit codes as verify, worst verdict wins)",
    )
    submit.add_argument(
        "circuits", nargs="+",
        help="an even list of QASM files: original1 compiled1 ...",
    )
    submit.add_argument("--socket", default="repro-service.sock")
    submit.add_argument("--timeout", type=float, default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.set_defaults(func=_cmd_submit)

    soak = sub.add_parser(
        "soak",
        help="deterministic chaos campaign against the service "
        "(exit 0 = all invariants held)",
    )
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--jobs", type=int, default=200)
    soak.add_argument("--workers", type=int, default=4)
    soak.add_argument("--fault-rate", type=float, default=0.15)
    soak.add_argument("--poison-pairs", type=int, default=2)
    soak.add_argument(
        "--timeout", type=float, default=5.0,
        help="cooperative per-check timeout during the soak",
    )
    soak.add_argument(
        "--json", action="store_true",
        help="print the full audited report as JSON",
    )
    soak.set_defaults(func=_cmd_soak)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
