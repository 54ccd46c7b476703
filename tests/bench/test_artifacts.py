"""Tests for benchmark artifact export/import (`repro.bench.artifacts`)."""

import json

import pytest

from repro.bench.artifacts import (
    MANIFEST_NAME,
    export_benchmarks,
    load_benchmark_pair,
    load_manifest,
)
from repro.bench.algorithms import ghz_state
from repro.circuit import circuit_to_qasm
from repro.ec import Configuration, EquivalenceCheckingManager


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    directory = tmp_path_factory.mktemp("benchmarks")
    manifest = export_benchmarks(
        directory, scale="small", seed=0, use_cases=("optimized",)
    )
    return directory, manifest


class TestExport:
    def test_manifest_structure(self, exported):
        directory, manifest = exported
        assert "optimized" in manifest
        assert len(manifest["optimized"]) == 6
        assert (directory / MANIFEST_NAME).exists()
        assert load_manifest(directory) == manifest

    def test_files_on_disk(self, exported):
        directory, manifest = exported
        name = manifest["optimized"][0]
        folder = directory / "optimized" / name
        assert (folder / "original.qasm").exists()
        for config in ("equivalent", "gate_missing", "flipped_cnot"):
            assert (folder / f"{config}.qasm").exists()

    def test_qasm_is_parseable_by_header(self, exported):
        directory, manifest = exported
        name = manifest["optimized"][0]
        text = (directory / "optimized" / name / "original.qasm").read_text()
        assert text.startswith("OPENQASM 2.0;")


class TestRoundtrip:
    def test_equivalent_pair_verifies(self, exported):
        directory, manifest = exported
        name = next(n for n in manifest["optimized"] if "qft" in n)
        original, variant = load_benchmark_pair(
            directory, "optimized", name, "equivalent"
        )
        result = EquivalenceCheckingManager(
            original, variant, Configuration(strategy="combined", seed=0)
        ).run()
        assert result.considered_equivalent

    def test_broken_pair_fails(self, exported):
        directory, manifest = exported
        name = next(n for n in manifest["optimized"] if "qft" in n)
        original, variant = load_benchmark_pair(
            directory, "optimized", name, "gate_missing"
        )
        result = EquivalenceCheckingManager(
            original, variant, Configuration(strategy="combined", seed=0)
        ).run()
        assert not result.considered_equivalent

    def test_unknown_configuration_rejected(self, exported):
        directory, manifest = exported
        with pytest.raises(ValueError):
            load_benchmark_pair(
                directory, "optimized", manifest["optimized"][0], "scrambled"
            )

    def test_missing_benchmark_rejected(self, exported):
        directory, _ = exported
        with pytest.raises(FileNotFoundError):
            load_benchmark_pair(directory, "optimized", "nonexistent")


class TestLayoutSidecars:
    """Sidecars are read by :func:`repro.circuit.qasm.layout_from_json`,
    the same decoder as ``repro verify`` and the service."""

    @staticmethod
    def _export(directory, sidecar):
        folder = directory / "compiled" / "ghz_2"
        folder.mkdir(parents=True)
        text = circuit_to_qasm(ghz_state(2))
        (folder / "original.qasm").write_text(text)
        (folder / "equivalent.qasm").write_text(text)
        (folder / "equivalent.qasm.layout.json").write_text(sidecar)
        return folder / "equivalent.qasm.layout.json"

    @pytest.mark.parametrize(
        "sidecar, layout",
        [
            ('{"initial_layout": {"0": 1, "1": 0}}', {0: 1, 1: 0}),
            ('{"initial_layout": null, "output_permutation": null}', {}),
        ],
        ids=["one section", "null sections"],
    )
    def test_a_section_may_be_absent_or_null(self, tmp_path, sidecar, layout):
        self._export(tmp_path, sidecar)
        _, variant = load_benchmark_pair(tmp_path, "compiled", "ghz_2")
        assert variant.initial_layout == layout
        assert variant.output_permutation == {}

    @pytest.mark.parametrize(
        "sidecar",
        ["[1, 2]", '{"initial_layout": {"0": 1.9, "1": 0.2}}'],
        ids=["top-level list", "float value"],
    )
    def test_malformed_sidecar_names_its_file(self, tmp_path, sidecar):
        path = self._export(tmp_path, sidecar)
        with pytest.raises(ValueError) as raised:
            load_benchmark_pair(tmp_path, "compiled", "ghz_2")
        assert str(raised.value).startswith(f"{path}: ")
