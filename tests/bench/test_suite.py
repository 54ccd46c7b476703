"""Tests for benchmark-suite construction and the study harness."""

import pytest

from repro.bench.suite import (
    BenchmarkInstance,
    CONFIGURATIONS,
    compiled_benchmarks,
    optimized_benchmarks,
)
from repro.bench.study import CellResult, _judge, markdown_row, run_instance
from repro.compile.architectures import line_architecture
from repro.ec.results import Equivalence


@pytest.fixture(scope="module")
def small_compiled():
    # a tiny device keeps this fast; the suite only needs structure here
    return compiled_benchmarks(scale="small", seed=0)


class TestSuiteConstruction:
    def test_compiled_suite_shape(self, small_compiled):
        assert len(small_compiled) == 6
        for instance in small_compiled:
            assert set(instance.variants) == set(CONFIGURATIONS)
            assert instance.use_case == "compiled"
            assert instance.size_variant > 0

    def test_compiled_variants_differ(self, small_compiled):
        instance = small_compiled[0]
        equivalent = instance.variants["equivalent"]
        assert (
            len(instance.variants["gate_missing"]) == len(equivalent) - 1
        )
        assert (
            instance.variants["flipped_cnot"].operations
            != equivalent.operations
        )

    def test_optimized_suite_shape(self):
        instances = optimized_benchmarks(scale="small", seed=0)
        assert len(instances) == 6
        names = [i.name for i in instances]
        assert any("urf" in n for n in names)
        assert any("plus" in n for n in names)
        assert any("hwb" in n for n in names)

    def test_optimized_originals_keep_mct(self):
        instances = optimized_benchmarks(scale="small", seed=0)
        urf = next(i for i in instances if "urf" in i.name)
        assert any(len(op.controls) >= 2 for op in urf.original)
        # the optimized variant is in the device basis
        for op in urf.variants["equivalent"]:
            assert len(op.controls) <= 1

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            compiled_benchmarks(scale="huge")
        with pytest.raises(ValueError):
            optimized_benchmarks(scale="huge")


class TestStudyHarness:
    def test_judge(self):
        assert _judge(Equivalence.EQUIVALENT, True) is True
        assert _judge(Equivalence.EQUIVALENT, False) is False
        assert _judge(Equivalence.NOT_EQUIVALENT, False) is True
        assert _judge(Equivalence.PROBABLY_EQUIVALENT, True) is True
        assert _judge(Equivalence.NO_INFORMATION, False) is None
        assert _judge(Equivalence.TIMEOUT, True) is None

    def test_cell_render(self):
        cell = CellResult(1.234, Equivalence.EQUIVALENT, False, True)
        assert cell.render(60) == "1.23"
        timeout_cell = CellResult(60, Equivalence.TIMEOUT, True, None)
        assert timeout_cell.render(60) == ">60"
        wrong = CellResult(0.5, Equivalence.EQUIVALENT, False, False)
        assert wrong.render(60).endswith("!")
        unknown = CellResult(0.5, Equivalence.NO_INFORMATION, False, None)
        assert unknown.render(60).endswith("?")

    def test_run_instance_smoke(self):
        """End-to-end: one tiny instance through both methods x 3 configs."""
        from repro.bench import algorithms
        from repro.compile import compile_circuit
        from repro.bench.errors import flip_random_cnot, remove_random_gate

        original = algorithms.ghz_state(3)
        compiled = compile_circuit(original, line_architecture(4))
        instance = BenchmarkInstance(
            "ghz_3",
            "compiled",
            original,
            {
                "equivalent": compiled,
                "gate_missing": remove_random_gate(compiled, seed=1),
                "flipped_cnot": flip_random_cnot(compiled, seed=1),
            },
        )
        row = run_instance(instance, timeout=30, seed=0)
        assert len(row.cells) == 6
        equivalent_dd = row.cells["equivalent/dd"]
        assert equivalent_dd.correct is True
        gate_missing_dd = row.cells["gate_missing/dd"]
        assert gate_missing_dd.correct is True  # proved NOT equivalent
        # the ZX method never *wrongly* accepts
        for config in CONFIGURATIONS:
            assert row.cells[f"{config}/zx"].correct is not False
        # rendering does not crash
        assert row.name in markdown_row(row, 30)
