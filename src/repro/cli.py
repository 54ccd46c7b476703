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
non-equivalent, 2 = no information / timeout.  A bad option value or an
input file that is missing or not valid QASM is one ``repro <command>:
error:`` line on stderr and exit status 2, in every command that reads
circuits; so is a ``compile`` input that already carries a layout and a
``submit`` whose ``--socket`` no server listens on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.circuit import circuit_from_qasm, circuit_to_qasm
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm import layout_from_json


class _UnreadableInput(Exception):
    """An input file that cannot be read or parsed; :func:`main` reports
    it as one ``error:`` line with exit status 2."""

    @classmethod
    def of(cls, path: object, error: Exception) -> "_UnreadableInput":
        reason = error.strerror if isinstance(error, OSError) else None
        return cls(f"{path}: {reason or error}")


def _load_circuit(path: str, layout_path: Optional[str] = None) -> QuantumCircuit:
    """Read a QASM file and its layout: ``layout_path`` when given, else
    the ``<path>.layout.json`` sidecar when there is one.

    Raises:
        _UnreadableInput: A file is missing or unreadable, the QASM is
            malformed (or names an invalid operation), or the layout is
            not what :func:`~repro.circuit.qasm.layout_from_json` reads.
    """
    try:
        text = Path(path).read_text()
        circuit = circuit_from_qasm(text, name=Path(path).stem)
    except (OSError, ValueError) as error:  # ValueError includes QasmError
        raise _UnreadableInput.of(path, error) from error
    sidecar = Path(layout_path) if layout_path else Path(path + ".layout.json")
    if layout_path or sidecar.exists():
        try:
            circuit.initial_layout, circuit.output_permutation = (
                layout_from_json(json.loads(sidecar.read_text()))
            )
        except (OSError, ValueError) as error:
            raise _UnreadableInput.of(sidecar, error) from error
    return circuit


#: ``--device`` values besides ``manhattan``: ``line:N``, ``ring:N`` and
#: ``grid:RxC``, each size a positive integer.
_DEVICE_RE = re.compile(
    r"(line|ring):([1-9][0-9]*)|grid:([1-9][0-9]*)x([1-9][0-9]*)"
)


def _parse_device(spec: str):
    """The coupling map ``--device`` names; ``ValueError`` if none."""
    from repro.compile import (
        grid_architecture,
        line_architecture,
        manhattan_architecture,
        ring_architecture,
    )

    if spec == "manhattan":
        return manhattan_architecture()
    match = _DEVICE_RE.fullmatch(spec)
    if match is None:
        raise ValueError(
            f"unknown device {spec!r} (use manhattan, line:N, ring:N or "
            "grid:RxC, with positive sizes)"
        )
    kind, size, rows, cols = match.groups()
    if kind == "line":
        return line_architecture(int(size))
    if kind == "ring":
        return ring_architecture(int(size))
    return grid_architecture(int(rows), int(cols))


def _print_statistics(statistics: dict, indent: int = 1) -> None:
    """Print a (possibly nested) statistics dict, one ``key: value`` per line."""
    pad = "  " * indent
    for key, value in sorted(statistics.items()):
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_statistics(value, indent + 1)
        else:
            print(f"{pad}{key}: {value}")


def _usage_error(command: str, message: object) -> int:
    """Report a bad option value or an unreadable input file the way
    argparse reports a bad option: one line, exit status 2."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return 2


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.ec import Configuration, EquivalenceCheckingManager
    from repro.ec.results import Equivalence

    configuration = Configuration(
        strategy=args.strategy,
        portfolio=args.portfolio,
        static_analysis=not args.no_static_analysis,
        oracle=args.oracle,
        num_simulations=args.simulations,
        stimuli_type=args.stimuli,
        timeout=args.timeout,
        seed=args.seed,
        memory_limit_mb=args.memory_limit,
        max_retries=args.retries,
        num_instantiations=args.instantiations,
        parameterized_symbolic=not args.instantiate_only,
    )
    try:
        configuration.validate()
    except ValueError as exc:
        return _usage_error("verify", exc)
    circuit1 = _load_circuit(args.circuit1, args.layout1)
    circuit2 = _load_circuit(args.circuit2, args.layout2)
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
        format_report,
        interaction_fingerprint,
        profile_gate_set,
    )

    if args.timeout is not None and not args.timeout > 0:
        return _usage_error(
            "analyze", f"--timeout must be positive, got {args.timeout!r}"
        )
    circuit1 = _load_circuit(args.circuit1, args.layout1)
    if args.circuit2 is None:
        # Single-circuit mode: report the static profile only.
        profile = profile_gate_set(circuit1)
        payload = profile.to_dict()
        payload["depth"] = circuit1.depth()
        payload["interaction_fingerprint"] = interaction_fingerprint(circuit1)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"circuit:   {circuit1.name} ({circuit1.num_qubits} qubits)")
            _print_statistics(payload)
        return 0
    circuit2 = _load_circuit(args.circuit2, args.layout2)
    from repro.circuit.symbolic import (
        circuit_parameters,
        instantiate_circuit,
        is_symbolic_circuit,
    )
    from repro.ec.permutations import logical_pair
    from repro.errors import CheckTimeout

    deadline = (
        None if args.timeout is None else time.monotonic() + args.timeout
    )
    pair = logical_pair(circuit1, circuit2)
    symbolic_block = None
    symbolic_neq = False
    if is_symbolic_circuit(circuit1) or is_symbolic_circuit(circuit2):
        # The structural passes build dense unitaries, so a symbolic
        # pair is analyzed at the all-zeros valuation; the symbolic
        # phase-polynomial comparison (valid for *all* valuations) is
        # reported alongside.
        from repro.analysis.phasepoly import phase_polynomial_check

        variables = sorted(
            set(circuit_parameters(circuit1))
            | set(circuit_parameters(circuit2))
        )
        verdict, details = phase_polynomial_check(
            pair.circuit1, pair.circuit2
        )
        symbolic_neq = verdict == "not_equivalent"
        symbolic_block = {
            "variables": variables,
            "instantiated_at": "all-zeros valuation",
            "phase_polynomial": {"verdict": verdict, **details},
        }
        zeros = {name: 0.0 for name in variables}
        pair = dataclasses.replace(
            pair,
            circuit1=instantiate_circuit(pair.circuit1, zeros),
            circuit2=instantiate_circuit(pair.circuit2, zeros),
        )
    try:
        report = analyze_pair(pair, deadline)
    except CheckTimeout:
        print(
            f"repro analyze: timed out after {args.timeout} s",
            file=sys.stderr,
        )
        return 2
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

    try:
        device = _parse_device(args.device)
    except ValueError as error:
        return _usage_error("compile", error)
    circuit = _load_circuit(args.circuit)
    if circuit.num_qubits > device.num_qubits:
        return _usage_error(
            "compile",
            f"{args.circuit}: {circuit.num_qubits} qubits do not fit on "
            f"{device.name} ({device.num_qubits} qubits)",
        )
    try:
        compiled = compile_circuit(
            circuit,
            device,
            layout_method=args.layout_method,
            routing_method=args.routing_method,
            optimization_level=args.optimization_level,
        )
    except ValueError as error:
        # an input the compiler refuses, e.g. one that already carries a
        # layout (``compile``'s own output with its sidecar)
        return _usage_error("compile", f"{args.circuit}: {error}")
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
    from repro.bench.study import run, validate_options

    try:
        validate_options(args)
    except ValueError as error:
        return _usage_error("bench", error)
    return run(args)


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
    try:
        settings.validate()
    except ValueError as error:
        return _usage_error("fuzz", error)
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
    from repro.service import (
        PoolConfig,
        QuarantineStore,
        ServiceServer,
        VerdictCache,
        WorkerPool,
    )

    config = PoolConfig(
        workers=args.workers,
        memory_mb=args.memory_limit,
        max_jobs_per_worker=args.max_jobs_per_worker,
        max_worker_rss_mb=args.max_worker_rss,
        queue_depth=args.queue_depth,
        restart_backoff=dataclasses.replace(
            PoolConfig().restart_backoff, jitter_seed=args.seed
        ),
    )
    try:
        config.validate()
    except ValueError as error:
        return _usage_error("serve", error)
    pool = WorkerPool(
        config,
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
        return _usage_error(
            "submit",
            "needs an even number of circuits (pairs of original/compiled "
            f"QASM files), got {len(args.circuits)}",
        )
    pairs = [
        (_load_circuit(args.circuits[i]), _load_circuit(args.circuits[i + 1]))
        for i in range(0, len(args.circuits), 2)
    ]
    configuration = Configuration(timeout=args.timeout, seed=args.seed)
    try:
        client = ServiceClient(args.socket)
    except OSError as error:
        return _usage_error(
            "submit",
            f"cannot reach the service at {args.socket}: "
            f"{error.strerror or error}",
        )
    with client:
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

    settings = SoakSettings(
        seed=args.seed,
        jobs=args.jobs,
        workers=args.workers,
        fault_rate=args.fault_rate,
        poison_pairs=args.poison_pairs,
        check_timeout=args.timeout,
    )
    try:
        settings.validate()
    except ValueError as error:
        return _usage_error("soak", error)
    report = run_soak(settings, log=print)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.ok else 1


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser; ``command`` is the sub-command to be run."""
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
        help="race the plan's lanes as sandboxed children, two at a "
        "time; first sound verdict wins (requires --strategy combined)",
    )
    verify.add_argument(
        "--no-static-analysis", action="store_true",
        help="skip the static analysis pre-pass (sound NEQ short-circuit "
        "and the Clifford proof that puts the stabilizer lane first) in "
        "front of the configured checker; combined then runs every lane "
        "but stabilizer",
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
        "(sound pre-checks + the check plan; exit 1 = proven "
        "non-equivalent, 0 otherwise)",
    )
    analyze.add_argument("circuit1")
    analyze.add_argument("circuit2", nargs="?", default=None)
    analyze.add_argument("--layout1", default=None)
    analyze.add_argument("--layout2", default=None)
    analyze.add_argument(
        "--timeout", type=float, default=None,
        help="deadline of the static passes in seconds (exit 2 when hit)",
    )
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
    compile_cmd.add_argument(
        "--optimization-level", type=int, default=1, choices=(0, 1, 2)
    )
    compile_cmd.set_defaults(func=_cmd_compile)

    stats = sub.add_parser("stats", help="print circuit statistics")
    stats.add_argument("circuit")
    stats.set_defaults(func=_cmd_stats)

    # The sub-command is the study's own parser, built only when the
    # command is `bench`: importing repro.bench loads the compiler
    # (networkx) into every process.
    parents = []
    if command == "bench":
        from repro.bench.study import build_parser as study_parser

        parents.append(study_parser(add_help=False))
    bench = sub.add_parser(
        "bench",
        help="run the Table 1 harness (exit 1 when a verdict is wrong)",
        parents=parents,
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except _UnreadableInput as error:
        return _usage_error(args.command, error)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
