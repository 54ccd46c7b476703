"""Configuration of an equivalence check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Deviation of the Hilbert-Schmidt fidelity, or of one column's
#: fidelity, from 1 beyond which a DD or column check counts the
#: circuits as non-equivalent.
FIDELITY_THRESHOLD = 1e-8


@dataclass
class Configuration:
    """Tunable knobs of :class:`repro.ec.EquivalenceCheckingManager`.

    The permutation handling of Section 4.1 is not a knob: every check
    reconstructs SWAPs and absorbs them into the tracked permutation
    (:func:`repro.ec.permutations.logical_pair`).  Nor are these; each is
    a module constant:

    * :data:`repro.dd.array_package.COMPUTE_TABLE_CAP`, the DD
      compute-table bound;
    * :data:`repro.dd.complex_table.DEFAULT_TOLERANCE`, the tolerance of
      every DD package's complex table;
    * :data:`FIDELITY_THRESHOLD`, the fidelity deviation of the DD and
      column verdicts;
    * :data:`repro.harness.race.STARTING_LANES`, the lanes a portfolio
      race starts at once (each further lane starts when one ends
      without a sound verdict).

    Retries back off by :class:`repro.errors.RetryPolicy`'s default
    base, and instantiated parameterized checks run in-process.  Nor is
    failure handling: :meth:`EquivalenceCheckingManager.run` degrades a
    failure into a result, ``check`` raises it.

    Attributes:
        strategy: ``"construction"``, ``"alternating"``, ``"simulation"``,
            ``"zx"``, ``"combined"`` (the paper's QCEC setup) or
            ``"stabilizer"`` (exact Clifford-only pre-check; a
            reproduction extension), ``"state"`` (equivalence of the
            prepared states from ``|0...0>`` only) or ``"analysis"``
            (static passes only — sound verdicts or
            ``NO_INFORMATION``, see :mod:`repro.analysis`).
        static_analysis: Run the static analysis pre-pass before any
            checker (default).  A sound non-equivalence witness
            short-circuits the check to ``NOT_EQUIVALENT``, and a proof
            that both circuits are Clifford puts the ``stabilizer`` lane
            first in the plan both executors of ``combined`` run (the
            sequential schedule and the portfolio race;
            :func:`repro.ec.portfolio.plan`).  Without the pre-pass (CLI
            ``--no-static-analysis``) the plan has no ``stabilizer``
            lane.
        oracle: Gate-selection oracle of the alternating scheme —
            ``"naive"`` (strict 1:1 alternation), ``"proportional"``
            (alternation weighted by the gate-count ratio, QCEC's default
            for unknown circuit relations), ``"lookahead"`` (greedily
            pick the side whose application keeps the DD smaller) or
            ``"compilation_flow"`` (per-gate decomposition-cost profile,
            the dedicated oracle for verifying compilation results —
            reference [38] of the paper).
        num_simulations: Random-stimuli runs for the simulation strategy
            (the paper runs "a sequence of 16 simulation runs").
        stimuli_type: Family of random stimuli — ``"classical"`` (basis
            states, QCEC's default), ``"local_quantum"`` (random product
            stabilizer states) or ``"global_quantum"`` (random entangled
            stabilizer states); see :mod:`repro.ec.stimuli` / [45].
        timeout: Wall-clock budget in seconds (None = unlimited); mirrors
            the paper's 1 h hard timeout, scaled to reproduction sizes.
        trace_sizes: Record the intermediate DD size after every gate
            application (drives the Fig. 4-style experiments).  Without
            it, an alternating result's ``max_dd_size`` is the size
            where the proof stopped, not the peak, unless the oracle is
            ``lookahead``.
        seed: Seed for the simulation strategy's random stimuli.
        memory_limit_mb: Address-space headroom in MiB for sandboxed
            execution via :mod:`repro.harness` (None = inherit).  Only
            enforced when the check runs isolated.
        max_retries: Bounded retries of *transient* failures (crashed or
            lost workers) in :func:`repro.harness.run_check`.
        portfolio: Race the plan's lanes as sandboxed children, two
            at a time, instead of running the ``combined`` schedule
            sequentially; the first *sound* verdict wins and the losers
            are SIGKILLed (see :mod:`repro.ec.portfolio`).  Only
            meaningful with ``strategy="combined"``.
        num_instantiations: Seeded random valuations drawn by the
            ``parameterized`` strategy's instantiation fallback when the
            symbolic paths stay undecided (mqt-qcec defaults to a
            comparable small count; every instantiation dispatches one
            full concrete check).
        parameterized_symbolic: Try the symbolic phase-polynomial and
            symbolic ZX paths before instantiating (default).  ``False``
            measures the instantiate-only baseline.
    """

    strategy: str = "combined"
    static_analysis: bool = True
    oracle: str = "proportional"
    num_simulations: int = 16
    stimuli_type: str = "classical"
    timeout: Optional[float] = None
    trace_sizes: bool = False
    seed: Optional[int] = None
    memory_limit_mb: Optional[int] = None
    max_retries: int = 1
    portfolio: bool = False
    num_instantiations: int = 8
    parameterized_symbolic: bool = True

    @staticmethod
    def _require_positive_number(name: str, value: object) -> None:
        """A clear error for non-numeric or non-positive knobs."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"{name} must be a number, got {type(value).__name__} "
                f"{value!r}"
            )
        if value != value:  # NaN never compares, so check explicitly
            raise ValueError(f"{name} must be a number, got NaN")
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")

    @staticmethod
    def _require_int(
        name: str, value: object, minimum: Optional[int] = None
    ) -> None:
        """An int that is not a bool, at least ``minimum`` when given."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"{name} must be an integer, got {type(value).__name__} "
                f"{value!r}"
            )
        if minimum is not None and value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, got {value!r}")

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings or on a field of
        the wrong type (a client's payload can set every field)."""
        strategies = {
            "construction", "alternating", "simulation", "zx", "combined",
            "stabilizer", "state", "analysis", "parameterized",
        }
        if self.strategy not in strategies:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.oracle not in (
            "naive", "proportional", "lookahead", "compilation_flow",
        ):
            raise ValueError(f"unknown oracle {self.oracle!r}")
        for name in (
            "static_analysis", "trace_sizes", "portfolio",
            "parameterized_symbolic",
        ):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        self._require_int("num_simulations", self.num_simulations, 1)
        from repro.ec.stimuli import STIMULI_TYPES

        if self.stimuli_type not in STIMULI_TYPES:
            raise ValueError(f"unknown stimuli type {self.stimuli_type!r}")
        if self.timeout is not None:
            self._require_positive_number("timeout", self.timeout)
        if self.seed is not None:
            self._require_int("seed", self.seed)
        if self.memory_limit_mb is not None:
            self._require_int("memory_limit_mb", self.memory_limit_mb, 1)
        self._require_int("max_retries", self.max_retries, 0)
        if self.portfolio and self.strategy != "combined":
            raise ValueError(
                "portfolio racing replaces the sequential combined "
                f"schedule and requires strategy='combined', not "
                f"{self.strategy!r}"
            )
        self._require_int("num_instantiations", self.num_instantiations, 1)
