"""cli: `python -m pdl4.cli` child processes on fixed small inputs, one at a
time.  Interpreter start-up and imports are most of each command's time,
so this workload measures what a user of the `pdl4` command waits for."""
from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pdl4 import cli
from pdl4.semantics import globally_satisfies, parse_model, serialize_model
from pdl4.syntax import SignedFormula, parse_formula, render

import corpus
from fourread import FourReading

EXPECTED_FAILURES: set[str] = set()

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_MODEL = ROOT / "tests" / "data" / "example1.model"
# Acceptance criterion 1: the diagram of the example model.
EXAMPLE_DIAGRAM = sorted([
    "@'i <a>'j", "@'l <a>'k", "@'i !<a>'j", "@'i !<a>'k", "@'j p", "@'k !q", "@'l p",
    "@'l !p", "@'i 'i", "@'j 'j", "@'k 'k", "@'l 'l", "@'m 'm",
])
CHECK_FORMULAS = [["@'l p & @'l !p", "@'i !<a>'k"], ["!<a>'k", "[a]p | <a>!q"]]
ASSERTIONS = (["~p", "~q"], ["p"], "~<a*>(p | q)")
ORACLE_CALLS = [
    ([], "p | !p", 1),
    (["~p"], "~<a*>p", 0),
]
PROBES = 5
# A round runs the 20 commands this many times: 120 operations over about
# 30 s.  With three passes (17 s) the machine's load, which moves child
# start-up by a quarter within minutes, moved the median of whole runs by
# as much.
PASSES = 6
# Commands run once, untimed, before the timed phase.
WARM_UP = 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def generate(seed: int, out: Path) -> None:
    model = parse_model(EXAMPLE_MODEL.read_text(encoding="utf-8"))
    model_path = out / "example1.model"
    model_path.write_text(serialize_model(model), encoding="utf-8")
    hyps, denied, query = ASSERTIONS
    lines = [f"assert: {render(parse_formula(h))}" for h in hyps]
    lines += [f"deny: {render(parse_formula(d))}" for d in denied]
    lines.append(f"query: {render(parse_formula(query))}")
    assertions_path = out / "job.assertions"
    assertions_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model_arg = str(model_path.relative_to(ROOT))

    commands = []  # (kind, expected exit, checked formula texts, argv)
    reading = FourReading(model)
    for texts in CHECK_FORMULAS:
        formulas = [render(parse_formula(t)) for t in texts]
        holds = all(all(reading.bits(parse_formula(t))) for t in formulas)
        argv = ["check", "--model", model_arg, "--format", "machine"]
        for text in formulas:
            argv += ["--formula", text]
        commands.append(("check", 0 if holds else 1, formulas, argv))
    commands.append(("diagram", 0, [], ["diagram", "--model", model_arg]))
    for goal in corpus.validity_set():
        commands.append(("valid", 0, [render(goal)], ["valid", "--formula", render(goal)]))
    for goal in corpus.non_validity_set():
        argv = ["prove", "--formula", render(goal), "--format", "machine"]
        commands.append(("prove", 1, [render(goal)], argv))
    argv = ["prove", "--assertions", str(assertions_path.relative_to(ROOT))]
    commands.append(("assertions", 0, [], argv))
    for hyps, goal, expected in ORACLE_CALLS:
        texts = [render(parse_formula(h)) for h in hyps] + [render(parse_formula(goal))]
        argv = ["oracle", "--max-worlds", "2"]
        for text in texts[:-1]:
            argv += ["--assume", text]
        argv += ["--formula", texts[-1]]
        commands.append(("oracle", expected, texts, argv))
    random.Random(seed).shuffle(commands)
    manifest = []
    for k, (kind, expected, texts, argv) in enumerate(commands):
        name = f"cmd{k:02d}"
        (out / f"{name}.argv").write_text("\n".join(argv) + "\n", encoding="utf-8")
        manifest.append("\t".join([name, kind, str(expected), *texts]))
    (out / "commands.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")


def setup(indir: Path):
    ops = []
    for line in (indir / "commands.tsv").read_text(encoding="utf-8").splitlines():
        name, kind, expected, *texts = line.split("\t")
        argv = (indir / f"{name}.argv").read_text(encoding="utf-8").splitlines()
        ops.append((name, kind, int(expected), texts, argv))
    return {"ops": ops, "peak_kb": 0}


def round_ops(state):
    return state["ops"] * PASSES


def op_id(op) -> str:
    return op[0]


def warm_up(state) -> None:
    for op in state["ops"][:WARM_UP]:
        _spawn(["-m", "pdl4.cli", *op[4]])


def _spawn(args: list[str]) -> tuple[int, str, int]:
    """Run a child to completion; returns its exit status, its standard
    output and its own peak resident set size in KiB."""
    with tempfile.TemporaryFile() as errors:
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=errors,
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8"), usage.ru_maxrss


def run(state, op):
    code, out, peak_kb = _spawn(["-m", "pdl4.cli", *op[4]])
    state["peak_kb"] = max(state["peak_kb"], peak_kb)
    return code, out


def peak_rss_kb(state) -> int:
    return state["peak_kb"]


def _refutes(block: str, hyps: list[str], goal: str) -> bool:
    model = parse_model(block)
    roots = [SignedFormula(parse_formula(h)) for h in hyps]
    roots.append(SignedFormula(parse_formula(goal), minus=True))
    return all(globally_satisfies(model, sf) for sf in roots)


def check(state, op, output, seed: int) -> str | None:
    name, kind, expected, texts, argv = op
    code, out = output
    if code != expected:
        return f"{name} ({' '.join(argv)}): exit {code}, expected {expected}"
    lines = out.splitlines()
    if kind == "diagram" and lines != EXAMPLE_DIAGRAM:
        return f"{name}: the diagram is not criterion 1's 13 statements"
    if kind in ("valid", "assertions") and not out.startswith("PROVED"):
        return f"{name}: expected PROVED, got {out[:40]!r}"
    if kind == "prove":
        verdict, _, block = out.partition("\n")
        if verdict != "REFUTED" or not _refutes(block, [], texts[0]):
            return f"{name}: REFUTED output whose countermodel does not refute {texts[0]}"
    if kind == "oracle" and code == 1 and not _refutes(out, texts[:-1], texts[-1]):
        return f"{name}: the oracle's countermodel does not refute {texts[-1]}"
    if kind == "check":
        model = parse_model((ROOT / argv[argv.index("--model") + 1]).read_text(encoding="utf-8"))
        reading = FourReading(model)
        expected_lines = []
        for text in texts:
            bits = reading.bits(parse_formula(text))
            expected_lines.append(f"check {text}")
            expected_lines += [f"{w} {int(b)}" for w, b in zip(reading.worlds, bits)]
            expected_lines.append(f"global {int(all(bits))}")
        if lines != expected_lines:
            return f"{name}: per-world answers differ from the four-valued reading"
    return None


def _mean_child_ms(args: list[str]) -> float:
    total = 0.0
    for _ in range(PROBES):
        started = time.perf_counter()
        _spawn(args)
        total += time.perf_counter() - started
    return 1e3 * total / PROBES


def trace(state, tracer, seed: int):
    """Interpreter and import probes, then each command run in-process."""
    with tracer.span("cli.interpreter"):
        interpreter_ms = _mean_child_ms(["-c", "pass"])
    with tracer.span("cli.import"):
        import_ms = _mean_child_ms(["-c", "import pdl4.cli"]) - interpreter_ms
    outputs = {}
    for op in state["ops"]:
        out, err = io.StringIO(), io.StringIO()
        with tracer.span("cli.run", op[0]):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(op[4])
        outputs[op[0]] = (code, out.getvalue())
    metrics = {
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "cli.run_ms": 1e3 * tracer.seconds("cli.run") / len(state["ops"]),
    }
    return outputs, set(), metrics
