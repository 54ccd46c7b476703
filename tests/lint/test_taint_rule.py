"""Fixture tests for the ``soundness-taint`` dataflow rule."""

import shutil
from pathlib import Path

from repro.lint.engine import run_lint
from repro.lint.rules import SoundnessTaintRule

from tests.lint.conftest import lint_with

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestExplicitFlows:
    def test_rng_draw_reaching_result_kwarg_is_flagged(self, fake_tree):
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(circ, rng):
                    cost = rng.random()
                    return EquivalenceCheckingResult(
                        Equivalence.EQUIVALENT, cost=cost
                    )
                """
            }
        )
        findings = lint_with(root, SoundnessTaintRule())
        assert [f.rule for f in findings] == ["soundness-taint"]
        assert findings[0].line == 3
        assert "data flow" in findings[0].message
        assert "Equivalence.EQUIVALENT" in findings[0].message

    def test_deterministic_verdict_is_clean(self, fake_tree):
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(c1, c2):
                    if structurally_equal(c1, c2):
                        return Equivalence.EQUIVALENT
                    return Equivalence.NOT_EQUIVALENT
                """
            }
        )
        assert lint_with(root, SoundnessTaintRule()) == []

    def test_modules_outside_scope_are_exempt(self, fake_tree):
        root = fake_tree(
            {
                "analysis/demo.py": """\
                def check(circ, rng):
                    cost = rng.random()
                    return EquivalenceCheckingResult(
                        Equivalence.EQUIVALENT, cost=cost
                    )
                """
            }
        )
        assert lint_with(root, SoundnessTaintRule()) == []


class TestImplicitFlows:
    def test_verdict_under_probabilistic_branch_is_flagged(self, fake_tree):
        # The laundering shape: agreement of random stimuli decides a
        # positive proof.  No tainted value flows *into* the verdict —
        # only the branch condition is probabilistic.
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(c1, c2, rng):
                    s = generate_stimulus(rng, 4)
                    if simulate(c1, s) == simulate(c2, s):
                        return Equivalence.EQUIVALENT
                    return Equivalence.PROBABLY_EQUIVALENT
                """
            }
        )
        findings = lint_with(root, SoundnessTaintRule())
        assert [f.rule for f in findings] == ["soundness-taint"]
        assert findings[0].line == 4
        assert "probabilistic branch condition" in findings[0].message

    def test_refutation_without_witness_is_flagged(self, fake_tree):
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(c1, c2, rng):
                    s = generate_stimulus(rng, 4)
                    if mismatch(c1, c2, s):
                        return Equivalence.NOT_EQUIVALENT
                    return Equivalence.PROBABLY_EQUIVALENT
                """
            }
        )
        findings = lint_with(root, SoundnessTaintRule())
        assert [f.rule for f in findings] == ["soundness-taint"]
        assert findings[0].line == 4
        assert "refuting" in findings[0].message


class TestWitnessBit:
    def test_witnessed_refutation_is_sound(self, fake_tree):
        # A fidelity mismatch on a random stimulus is a deterministic
        # proof of non-equivalence: prob+witness excuses NOT_EQUIVALENT.
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(c1, c2, rng):
                    s = generate_stimulus(rng, 4)
                    f = fidelity(s)
                    if f < 0.5:
                        return Equivalence.NOT_EQUIVALENT
                    return Equivalence.PROBABLY_EQUIVALENT
                """
            }
        )
        assert lint_with(root, SoundnessTaintRule()) == []

    def test_witness_never_excuses_a_positive_proof(self, fake_tree):
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(c1, c2, rng):
                    s = generate_stimulus(rng, 4)
                    f = fidelity(s)
                    if f > 0.999:
                        return Equivalence.EQUIVALENT
                    return Equivalence.PROBABLY_EQUIVALENT
                """
            }
        )
        findings = lint_with(root, SoundnessTaintRule())
        assert [f.rule for f in findings] == ["soundness-taint"]
        assert findings[0].line == 5
        assert "positively proven" in findings[0].message

    def test_overlap_phase_spread_refutation_is_sound(self, fake_tree):
        # Two random stimuli whose overlaps differ in phase refute
        # equivalence: inner_product is a witness extractor.
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(pkg, c1, c2, rng):
                    overlaps = []
                    for _ in range(2):
                        s = generate_stimulus(rng, 4)
                        a, b = simulate(c1, s), simulate(c2, s)
                        overlaps.append(pkg.inner_product(a, b))
                    if abs(sum(overlaps)) < 2 * (1 - 1e-8):
                        return Equivalence.NOT_EQUIVALENT
                    return Equivalence.PROBABLY_EQUIVALENT
                """
            }
        )
        assert lint_with(root, SoundnessTaintRule()) == []

    def test_overlap_agreement_never_proves_equivalence(self, fake_tree):
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(pkg, c1, c2, rng):
                    overlaps = []
                    for _ in range(2):
                        s = generate_stimulus(rng, 4)
                        a, b = simulate(c1, s), simulate(c2, s)
                        overlaps.append(pkg.inner_product(a, b))
                    if abs(sum(overlaps) / 2 - 1) < 1e-12:
                        return Equivalence.EQUIVALENT
                    return Equivalence.PROBABLY_EQUIVALENT
                """
            }
        )
        findings = lint_with(root, SoundnessTaintRule())
        assert [f.rule for f in findings] == ["soundness-taint"]
        assert findings[0].line == 8
        assert "positively proven" in findings[0].message


class TestSanitizer:
    def test_dispatching_on_a_verdict_attribute_is_clean(self, fake_tree):
        # Reading ``.equivalence`` off a result declassifies: the ladder
        # was already enforced where the result was constructed.
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(circ, rng):
                    result = run_sim(circ, rng.random())
                    if result.equivalence is Equivalence.EQUIVALENT:
                        return Equivalence.EQUIVALENT
                    return Equivalence.NOT_EQUIVALENT
                """
            }
        )
        assert lint_with(root, SoundnessTaintRule()) == []


class TestInterprocedural:
    def test_taint_flows_through_a_helper_return(self, fake_tree):
        # The syntactic engine could never see this: the probabilistic
        # source is hidden behind a module-local helper call.
        root = fake_tree(
            {
                "ec/demo.py": """\
                def draw(rng, width):
                    return generate_stimulus(rng, width)

                def check(c1, c2, rng):
                    s = draw(rng, 3)
                    if simulate(c1, s) == simulate(c2, s):
                        return Equivalence.EQUIVALENT
                    return Equivalence.PROBABLY_EQUIVALENT
                """
            }
        )
        findings = lint_with(root, SoundnessTaintRule())
        assert [f.rule for f in findings] == ["soundness-taint"]
        assert findings[0].line == 7


class TestContainerMutation:
    def test_appended_stimuli_taint_the_batch(self, fake_tree):
        # The batched-simulation shape: stimuli accumulate in a list and
        # the list (not any single stimulus) feeds the comparison.
        root = fake_tree(
            {
                "ec/demo.py": """\
                def check(c1, c2, rng):
                    stimuli = []
                    for _ in range(8):
                        stimuli.append(generate_stimulus(rng, 4))
                    outs = simulate_batch(c1, c2, stimuli)
                    if outs_agree(outs):
                        return Equivalence.EQUIVALENT
                    return Equivalence.PROBABLY_EQUIVALENT
                """
            }
        )
        findings = lint_with(root, SoundnessTaintRule())
        assert [f.rule for f in findings] == ["soundness-taint"]
        assert findings[0].line == 7


class TestLaunderingDemo:
    def test_promoting_probable_to_proven_in_the_real_tree_is_caught(
        self, tmp_path
    ):
        # Seeded-defect demo: copy the real source tree, apply the exact
        # one-token soundness laundering edit the rule exists to catch —
        # the simulation checker claiming EQUIVALENT where it reports
        # PROBABLY_EQUIVALENT — and assert the rule fires on the edited
        # file (the unedited tree is clean, per TestRealTreeIsClean).
        destination = tmp_path / "src" / "repro"
        shutil.copytree(
            REPO_ROOT / "src" / "repro",
            destination,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        target = destination / "ec" / "sim_checker.py"
        source = target.read_text()
        assert "Equivalence.PROBABLY_EQUIVALENT" in source
        target.write_text(
            source.replace(
                "Equivalence.PROBABLY_EQUIVALENT", "Equivalence.EQUIVALENT"
            )
        )
        all_findings = run_lint(tmp_path, rules=[SoundnessTaintRule()]).findings
        # A single-rule run leaves every other rule's suppressions
        # unmatched (stale-allow); only the taint verdicts matter here.
        findings = [f for f in all_findings if f.rule == "soundness-taint"]
        assert findings, "laundering edit went undetected"
        assert all(f.path == target for f in findings)
