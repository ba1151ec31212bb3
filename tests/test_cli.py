import os
import subprocess
import sys
from pathlib import Path

import reference_checker as reference
from pdl4.cli import run
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
        assert err.startswith("internal error: extracted model fails root")


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
        code, _, err = invoke(
            capsys,
            "oracle",
            "--formula",
            "[a][b](p -> q)",
            "--max-worlds",
            "3",
            "--ceiling",
            "1000",
        )
        assert code == 2
        assert "too large" in err

    def test_randomized_mode(self, capsys):
        code, out, _ = invoke(
            capsys, "oracle", "--formula", "p | !p", "--samples", "200", "--seed", "3"
        )
        assert code == 1

    def test_nonpositive_sample_count_is_usage_error(self, capsys):
        for count in ("0", "-3"):
            code, out, err = invoke(capsys, "oracle", "--formula", "p | ~p", "--samples", count)
            assert code == 2
            assert out == ""
            assert "sample_count" in err


def test_startup_does_not_import_numpy():
    script = "import sys, pdl4, pdl4.cli; assert 'numpy' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()


def test_selftest_is_green(capsys):
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("ok ") for line in lines)
