import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference_checker as reference
from pdl4.cli import run
from pdl4.fourval import FourValue
from pdl4.oracle import DEFAULT_CEILING, OracleError
from pdl4.semantics import load_model, parse_model, serialize_model
from pdl4.syntax import parse_formula, render

DATA = Path(__file__).parent / "data"
EXAMPLE = str(DATA / "example1.model")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProve:
    def test_k_axiom_proved(self, capsys):
        code, out, _ = invoke(
            capsys, "prove", "--formula", "[a](p->q) -> ([a]p -> [a]q)"
        )
        assert code == 0
        assert out.startswith("PROVED")

    def test_refuted_emits_countermodel(self, capsys):
        code, out, _ = invoke(capsys, "prove", "--formula", "p | !p")
        assert code == 1
        assert out.startswith("REFUTED")
        assert "worlds:" in out

    def test_machine_output_round_trips(self, capsys):
        code, out, _ = invoke(
            capsys, "prove", "--formula", "p | !p", "--format", "machine"
        )
        assert code == 1
        verdict, _, block = out.partition("\n")
        assert verdict == "REFUTED"
        assert serialize_model(parse_model(block)) == block

    def test_countermodel_feeds_back_through_check(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys,
            "prove",
            "--assume",
            "p | q",
            "--formula",
            "q",
            "--format",
            "machine",
        )
        assert code == 1
        model_path = tmp_path / "counter.model"
        model_path.write_text(out.partition("\n")[2])
        code, _, _ = invoke(capsys, "check", "--model", str(model_path), "--formula", "p | q")
        assert code == 0
        code, _, _ = invoke(capsys, "check", "--model", str(model_path), "--formula", "q")
        assert code == 1

    def test_assume_repeatable(self, capsys):
        code, out, _ = invoke(
            capsys, "prove", "--assume", "p", "--assume", "p -> q", "--formula", "q"
        )
        assert code == 0

    def test_transcript(self, capsys):
        code, out, _ = invoke(
            capsys, "prove", "--formula", "p & q -> p", "--transcript"
        )
        assert code == 0
        assert "==>" in out

    def test_step_limit_exhaustion_is_exit_2(self, capsys):
        code, _, err = invoke(
            capsys,
            "prove",
            "--formula",
            "[a](p->q) -> ([a]p -> [a]q)",
            "--steps",
            "2",
        )
        assert code == 2
        assert "limit" in err

    def test_env_step_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("PDL4_MAX_STEPS", "2")
        code, _, err = invoke(
            capsys, "prove", "--formula", "[a](p->q) -> ([a]p -> [a]q)"
        )
        assert code == 2

    def test_parse_error_is_exit_2(self, capsys):
        code, _, err = invoke(capsys, "prove", "--formula", "p &")
        assert code == 2
        assert "parse" in err

    def test_namespace_clash_is_exit_2(self, capsys):
        # same name as action and proposition
        code, _, err = invoke(capsys, "prove", "--formula", "<p>p")
        assert code == 2
        assert "disjoint" in err

    def test_missing_formula_is_exit_2(self, capsys):
        code, _, err = invoke(capsys, "prove")
        assert code == 2


class TestValid:
    def test_valid_subcommand(self, capsys):
        code, out, _ = invoke(capsys, "valid", "--formula", "~false")
        assert code == 0 and out.startswith("PROVED")
        code, out, _ = invoke(capsys, "valid", "--formula", "!false -> false")
        assert code == 1

    def test_hypotheses_are_rejected_by_the_parser(self, capsys):
        for argv in (["valid", "--assume", "p", "--formula", "p"], ["valid", "--assertions", "F"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2


class TestAssertionFiles:
    def test_assert_query(self, capsys, tmp_path):
        path = tmp_path / "job.assertions"
        path.write_text("# hypotheses\nassert: ~p\nquery: ~<a*>p\n")
        code, out, _ = invoke(capsys, "prove", "--assertions", str(path))
        assert code == 0

    def test_deny_lines(self, capsys, tmp_path):
        path = tmp_path / "job.assertions"
        path.write_text("assert: p | q\ndeny: p\ndeny: q\nquery: false\n")
        code, out, _ = invoke(capsys, "prove", "--assertions", str(path))
        assert code == 1  # satisfiable: refutation with countermodel

    def test_duplicate_query_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.assertions"
        path.write_text("query: p\nquery: q\n")
        code, _, err = invoke(capsys, "prove", "--assertions", str(path))
        assert code == 2

    def test_unknown_directive_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.assertions"
        path.write_text("expect: p\n")
        code, _, err = invoke(capsys, "prove", "--assertions", str(path))
        assert code == 2

    def test_oracle_accepts_assertions(self, capsys, tmp_path):
        path = tmp_path / "job.assertions"
        path.write_text("assert: p\nquery: q\n")
        code, out, _ = invoke(capsys, "oracle", "--assertions", str(path))
        assert code == 1
        assert "worlds:" in out


class TestCheck:
    def test_per_world_and_global(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "--model", EXAMPLE, "--formula", "@'l p & @'l !p"
        )
        assert code == 0
        assert out.count(": yes") == 6  # five worlds plus the global line

    def test_failing_formula(self, capsys):
        code, out, _ = invoke(capsys, "check", "--model", EXAMPLE, "--formula", "p")
        assert code == 1
        assert "global: no" in out

    def test_machine_format(self, capsys):
        code, out, _ = invoke(
            capsys,
            "check",
            "--model",
            EXAMPLE,
            "--formula",
            "@'j p",
            "--format",
            "machine",
        )
        assert code == 0
        assert "global 1" in out

    def test_missing_model_file(self, capsys):
        code, _, err = invoke(capsys, "check", "--model", "no-such.model", "--formula", "p")
        assert code == 2

    def test_output_matches_world_by_world_reference(self, capsys):
        model = load_model(EXAMPLE)
        texts = ["p", "!<a>'j", "[a*](p -> <a>q)", "<(q?;a)*>!p", "@'i <a+a;a>'k"]
        for fmt in ("text", "machine"):
            argv = ["check", "--model", EXAMPLE, "--format", fmt]
            expected = []
            for text in texts:
                argv += ["--formula", text]
                f = parse_formula(text)
                values = [reference.satisfies(model, w, f) for w in sorted(model.worlds)]
                everywhere = all(values)
                if fmt == "machine":
                    expected.append(f"check {render(f)}")
                    expected += [f"{w} {int(v)}" for w, v in zip(sorted(model.worlds), values)]
                    expected.append(f"global {int(everywhere)}")
                else:
                    expected.append(f"formula: {render(f)}")
                    expected += [
                        f"  {w}: {'yes' if v else 'no'}"
                        for w, v in zip(sorted(model.worlds), values)
                    ]
                    expected.append(f"  global: {'yes' if everywhere else 'no'}")
            code, out, _ = invoke(capsys, *argv)
            assert code == 1
            assert out == "\n".join(expected) + "\n"

    def test_atom_outside_signature_is_exit_2(self, capsys):
        # the left disjunct holds everywhere, so a short-circuit skips zz
        code, _, err = invoke(
            capsys, "check", "--model", EXAMPLE, "--formula", "(p | ~p) | zz"
        )
        assert code == 2
        assert "unknown proposition 'zz'" in err


class TestDiagram:
    def test_example_prints_thirteen_sorted_lines(self, capsys):
        code, out, _ = invoke(capsys, "diagram", "--model", EXAMPLE)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13
        assert lines == sorted(lines)
        assert "@'l !p" in lines and "@'m 'm" in lines

    def test_unnamed_model_rejected(self, capsys, tmp_path):
        path = tmp_path / "bare.model"
        path.write_text("worlds: u v\nname 'i = u\n")
        code, _, err = invoke(capsys, "diagram", "--model", str(path))
        assert code == 2
        assert "unnamed" in err


class TestExitStatus:
    def test_deep_formula_is_an_input_error(self, capsys):
        code, _, err = invoke(capsys, "prove", "--formula", "!" * 3000 + "p")
        assert code == 2
        assert "nested too deeply" in err

    def test_deep_formula_past_the_parser_is_an_input_error(self, capsys, tmp_path):
        # the parser reads a flat conjunction in a loop; the checker, the
        # prover and the oracle recurse down its 3,000-deep spine
        model = tmp_path / "all_p.model"
        model.write_text("worlds: w0 w1\nprop p pos: w0 w1\nprop p neg:\n")
        formula = " & ".join(["p"] * 3000)
        for argv in (("check", "--model", str(model)), ("valid",), ("oracle",)):
            code, _, err = invoke(capsys, *argv, "--formula", formula)
            assert code == 2, argv
            assert err == "error: input nested too deeply\n"

    def test_parse_error_echo_is_truncated(self, capsys):
        code, _, err = invoke(capsys, "valid", "--formula", "!" * 3000 + "p")
        assert code == 2
        assert len(err) < 200
        assert "(3001 characters)" in err and "nested too deeply" in err

    def test_internal_error_is_not_refuted(self, capsys):
        # the extracted model fails a root here, a known prover defect
        code, out, err = invoke(
            capsys, "prove", "--assume", "<(<a>p)?*>p", "--formula", "p"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: CountermodelError: extracted model fails root")

    def test_any_prover_defect_is_an_internal_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("planted")

        monkeypatch.setattr("pdl4.tableau.prove_from_roots", broken)
        code, out, err = invoke(capsys, "prove", "--formula", "p")
        assert (code, out) == (3, "")
        assert err == "internal error: KeyError: 'planted'\n"

    def test_oracle_self_check_is_an_internal_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise OracleError("planted witness fails a root")

        monkeypatch.setattr("pdl4.oracle.find_model", broken)
        code, out, err = invoke(capsys, "oracle", "--formula", "p")
        assert (code, out) == (3, "")
        assert err == "internal error: OracleError: planted witness fails a root\n"


class TestOracle:
    def test_countermodel_found(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--formula", "p | !p")
        assert code == 1
        assert out.startswith("worlds:")

    def test_none_up_to_bound(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--formula", "p | ~p")
        assert code == 0
        assert out.strip() == "NONE-UP-TO-BOUND"

    def test_ceiling_is_exit_2(self, capsys):
        # 16 models at one world hold no countermodel; the 64 the scan
        # would read at two exceed the ceiling
        code, _, err = invoke(
            capsys,
            "oracle",
            "--formula",
            "<a>p -> p",
            "--max-worlds",
            "3",
            "--ceiling",
            "20",
        )
        assert code == 2
        assert "too large" in err and "64 at 2 worlds" in err

    def test_ceiling_counts_the_scanned_space(self, capsys):
        # the raw four-world space holds 4,398,096,850,960 models; the scan
        # reads 4 of the 8 components under one nomination, 2^20 models
        code, out, _ = invoke(
            capsys,
            "oracle",
            "--formula",
            "p | <a*;(a+a)>@'i 'i -> @'i (p & p -> p -> 'i)",
            "--max-worlds",
            "4",
        )
        assert code == 0
        assert out.strip() == "NONE-UP-TO-BOUND"

    def test_default_ceiling(self, capsys):
        with pytest.raises(SystemExit):
            run(["oracle", "--help"])
        assert f"(default {DEFAULT_CEILING})" in capsys.readouterr().out
        # four worlds fit under the default; the 2^30 models of five do not
        code, out, err = invoke(capsys, "oracle", "--formula", "[a]p | ~[a]p", "--max-worlds", "5")
        assert (code, out) == (2, "")
        assert f"1073741824 at 5 worlds exceeds ceiling {DEFAULT_CEILING}" in err

    def test_randomized_mode(self, capsys):
        code, out, _ = invoke(
            capsys, "oracle", "--formula", "p | !p", "--samples", "200", "--seed", "3"
        )
        assert code == 1

    def test_nonpositive_world_bound_is_usage_error(self, capsys, monkeypatch):
        code, out, err = invoke(capsys, "oracle", "--formula", "p | !p", "--max-worlds", "0")
        assert (code, out) == (2, "")
        monkeypatch.setenv("PDL4_MAX_WORLDS", "0")
        code, out, err = invoke(capsys, "oracle", "--formula", "p | !p")
        assert (code, out) == (2, "")
        assert "max_worlds" in err

    def test_nonpositive_sample_count_is_usage_error(self, capsys):
        for count in ("0", "-3"):
            code, out, err = invoke(capsys, "oracle", "--formula", "p | ~p", "--samples", count)
            assert code == 2
            assert out == ""
            assert "sample_count" in err


def child(script, *args, flags=()):
    """Run a script in a fresh interpreter that sees this process's path."""
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
    )


SHARED = ["pdl4", "pdl4.cli", "pdl4.fourval", "pdl4.semantics", "pdl4.syntax"]


@pytest.mark.parametrize(
    "argv, engine",
    [
        (["check", "--model", EXAMPLE, "--formula", "p"], []),
        (["diagram", "--model", EXAMPLE], []),
        (["valid", "--formula", "~false"], ["pdl4.tableau"]),
        (["prove", "--formula", "p"], ["pdl4.tableau"]),
        (["oracle", "--formula", "p"], ["pdl4.oracle"]),
    ],
    ids=["check", "diagram", "valid", "prove", "oracle"],
)
def test_each_command_loads_only_its_engine(argv, engine):
    # numpy is listed too, so a command that loads it fails here
    script = (
        "import sys; from pdl4.cli import run; run(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.startswith(('pdl4', 'numpy'))))"
    )
    done = child(script, *argv)
    assert done.stdout.splitlines()[-1] == repr(sorted(SHARED + engine)), done.stderr


# Every name that pdl4/__init__.py imported from its home module before the
# exports were made lazy.
EXPORTS = {
    "fourval": "FourValue VALUES cneg4 designated imp4 join_t leq_k leq_t meet_t neg4",
    "oracle": "CeilingExceeded EnumerationSpec OracleError countermodel_search "
    "enumerate_models find_model search_space_size",
    "semantics": "CompositeProgramError FourModel Model ModelError ProgramDenotation diagram "
    "from_four_model globally_satisfies interpret_program load_model parse_model satisfies "
    "satisfying_worlds serialize_model to_four_model value4",
    "syntax": "And At Atomic Bottom Box Choice Diamond Formula Implies Neg Nominal Or "
    "ParseError Program PropVar Seq SignedFormula Signature Star Test actions_of cneg "
    "fischer_ladner_closure iff nominals_of parse_formula parse_program propositions_of "
    "render render_program top",
    "tableau": "Branch BranchFormula BranchStatus CountermodelError ProofStats TableauError "
    "TableauLimits TableauResult classify extract_model initialize prove_consequence "
    "prove_from_roots prove_validity working_closure",
}


def test_package_exports_resolve_to_their_home_modules():
    import pdl4

    for module, names in EXPORTS.items():
        home = importlib.import_module(f"pdl4.{module}")
        for name in names.split():
            assert name in pdl4.__all__ and name in dir(pdl4), name
            assert getattr(pdl4, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        pdl4.no_such_name
    script = (
        "import sys, pdl4; lazy = 'pdl4.tableau' not in sys.modules; "
        "pdl4.tableau.prove_from_roots; from pdl4 import *; "
        "print(lazy, [name for name in pdl4.__all__ if name not in globals()])"
    )
    done = child(script)
    assert done.stdout == "True []\n", done.stderr


def test_selftest_is_green(capsys):
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("ok ") for line in lines)


PLANTED_FAULT = "FAIL four-valued algebra laws: !!x = x fails at f"


def test_selftest_reports_a_planted_fault(capsys, monkeypatch):
    monkeypatch.setattr("pdl4.invariants.neg4", lambda value: FourValue.T)
    code, out, _ = invoke(capsys, "selftest")
    assert code == 1
    assert out.splitlines()[0] == PLANTED_FAULT


def test_selftest_checks_under_optimize():
    # under -O every assert is stripped; the laws must check without them
    script = (
        "import sys, pdl4.invariants, pdl4.cli; from pdl4.fourval import FourValue; "
        "pdl4.invariants.neg4 = lambda value: FourValue.T; "
        "sys.exit(pdl4.cli.run(['selftest']))"
    )
    done = child(script, flags=["-O"])
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[0] == PLANTED_FAULT
