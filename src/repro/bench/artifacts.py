"""Export / import of the benchmark set as OpenQASM files.

The paper's full benchmark set is published as an archive of QASM files
("All benchmarks are provided in the form of QASM files"); this module
reproduces that artifact: :func:`export_benchmarks` materializes the
case-study instances as ``<name>/<config>.qasm`` files with JSON layout
sidecars and a manifest, and :func:`load_benchmark_pair` reads a pair back
for checking — so the study can be re-run from disk by any OpenQASM
consumer, exactly like the original artifact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.suite import (
    BenchmarkInstance,
    CONFIGURATIONS,
    compiled_benchmarks,
    optimized_benchmarks,
)
from repro.circuit import circuit_from_qasm, circuit_to_qasm
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm import layout_from_json

MANIFEST_NAME = "MANIFEST.json"


def _write_circuit(path: Path, circuit: QuantumCircuit) -> None:
    path.write_text(circuit_to_qasm(circuit))
    if circuit.initial_layout or circuit.output_permutation:
        sidecar = path.with_suffix(path.suffix + ".layout.json")
        sidecar.write_text(
            json.dumps(
                {
                    "initial_layout": circuit.initial_layout,
                    "output_permutation": circuit.output_permutation,
                },
                indent=2,
            )
        )


def _read_circuit(path: Path) -> QuantumCircuit:
    circuit = circuit_from_qasm(path.read_text(), name=path.stem)
    sidecar = path.with_suffix(path.suffix + ".layout.json")
    if sidecar.exists():
        try:
            circuit.initial_layout, circuit.output_permutation = (
                layout_from_json(json.loads(sidecar.read_text()))
            )
        except ValueError as error:
            raise ValueError(f"{sidecar}: {error}") from error
    return circuit


def export_benchmarks(
    directory, scale: str = "small", seed: int = 0,
    use_cases: Tuple[str, ...] = ("compiled", "optimized"),
) -> Dict[str, List[str]]:
    """Write the benchmark suite as QASM files; returns the manifest.

    Layout on disk::

        <directory>/<use_case>/<benchmark>/original.qasm
        <directory>/<use_case>/<benchmark>/equivalent.qasm (+ sidecar)
        <directory>/<use_case>/<benchmark>/gate_missing.qasm ...
        <directory>/MANIFEST.json
    """
    root = Path(directory)
    manifest: Dict[str, List[str]] = {}
    for use_case in use_cases:
        instances = (
            compiled_benchmarks(scale=scale, seed=seed)
            if use_case == "compiled"
            else optimized_benchmarks(scale=scale, seed=seed)
        )
        manifest[use_case] = []
        for instance in instances:
            folder = root / use_case / instance.name
            folder.mkdir(parents=True, exist_ok=True)
            _write_circuit(folder / "original.qasm", instance.original)
            for config, variant in instance.variants.items():
                _write_circuit(folder / f"{config}.qasm", variant)
            manifest[use_case].append(instance.name)
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return manifest


def load_benchmark_pair(
    directory, use_case: str, name: str, config: str = "equivalent"
) -> Tuple[QuantumCircuit, QuantumCircuit]:
    """Read one ``(original, variant)`` pair back from an exported set."""
    if config not in CONFIGURATIONS:
        raise ValueError(f"unknown configuration {config!r}")
    folder = Path(directory) / use_case / name
    if not folder.is_dir():
        raise FileNotFoundError(f"no exported benchmark at {folder}")
    return (
        _read_circuit(folder / "original.qasm"),
        _read_circuit(folder / f"{config}.qasm"),
    )


def load_manifest(directory) -> Dict[str, List[str]]:
    """Read the manifest of an exported benchmark set."""
    return json.loads((Path(directory) / MANIFEST_NAME).read_text())
