"""Fast tests of the benchmark itself: every workload at a tiny size with
its checks passing, and every checker rejecting a planted wrong answer.

    python3 -m pytest perfbench/tests -q
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT, ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import check_deep  # noqa: E402
import cli_commands  # noqa: E402
import corpus  # noqa: E402
import oracle_exhaustive  # noqa: E402
import prove_corpus  # noqa: E402
import run as bench  # noqa: E402
from common import OpFailed, Tracer, tail  # noqa: E402
from pdl4.semantics import Model, serialize_model  # noqa: E402
from pdl4.syntax import render  # noqa: E402

SEED = 3


def _prepared(module, tmp_path):
    module.generate(SEED, tmp_path)
    return module.setup(tmp_path)


def _run_and_check(module, state, ops):
    outputs = {module.op_id(op): module.run(state, op) for op in ops}
    errors = [module.check(state, op, outputs[module.op_id(op)], SEED) for op in ops]
    assert errors == [None] * len(ops)
    return outputs


def _one_world(props: dict) -> Model:
    """A one-world model over p, q and action a, with the given (pos, neg)
    membership of w0 for each proposition."""
    return Model(
        frozenset({"w0"}), {"a": frozenset()}, {"a": frozenset()}, {},
        {p: frozenset({"w0"}) if pos else frozenset() for p, (pos, _) in props.items()},
        {p: frozenset({"w0"}) if neg else frozenset() for p, (_, neg) in props.items()},
    )


# ---------------------------------------------------------------------------
# Inputs


def test_generation_is_seeded(tmp_path, monkeypatch):
    monkeypatch.setattr(check_deep, "OPS", 30)
    for module in (prove_corpus, oracle_exhaustive, check_deep):
        first, second = tmp_path / f"{module.__name__}1", tmp_path / f"{module.__name__}2"
        first.mkdir()
        second.mkdir()
        module.generate(SEED, first)
        module.generate(SEED, second)
        for path in first.rglob("*"):
            if path.is_file():
                assert path.read_text() == (second / path.relative_to(first)).read_text()


def test_prove_corpus_texts_parse_back_to_the_gate_problems(tmp_path):
    state = _prepared(prove_corpus, tmp_path)
    gate = corpus.consequence_corpus()
    for pid, tag, goal, hyps in state:
        if tag == "corpus":
            gate_hyps, gate_goal = gate[int(pid[1:])]
            assert (goal, hyps) == (render(gate_goal), [render(h) for h in gate_hyps])
    assert len(state) == 227


# ---------------------------------------------------------------------------
# Each workload at a tiny size


def test_prove_corpus_small(tmp_path):
    state = _prepared(prove_corpus, tmp_path)
    ops = [op for op in state if op[0] not in prove_corpus.EXPECTED_FAILURES][:40]
    ops += [op for op in state if op[1] in ("valid", "invalid", "blocking")]
    _run_and_check(prove_corpus, state, ops)
    reproducer = next(op for op in state if op[1] == "reproducer")
    with pytest.raises(OpFailed):
        prove_corpus.run(state, reproducer)


def test_oracle_small(tmp_path):
    state = _prepared(oracle_exhaustive, tmp_path)
    tags = {op[1] for op in state}
    assert tags == {"fixed", "scan-pa", "scan-pia"}
    ops = [op for op in state if op[1] == "fixed"][:40]
    outputs = _run_and_check(oracle_exhaustive, state, ops)
    assert any(w is None for w in outputs.values()) and any(w is not None for w in outputs.values())


def test_check_deep_small(tmp_path, monkeypatch):
    monkeypatch.setattr(check_deep, "OPS", 60)
    monkeypatch.setattr(check_deep, "MODELS_PER_COUNT", 2)
    state = _prepared(check_deep, tmp_path)
    assert {op[1] for op in state["ops"]} == set(check_deep.DEPTHS)
    chains = [op for op in state["ops"] if op[0].startswith("chain")]
    assert len(chains) == check_deep.CHAIN_PASSES * len(check_deep.chains())
    _run_and_check(check_deep, state, state["ops"])


def test_check_deep_chains_do_not_depend_on_the_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(check_deep, "OPS", 12)
    monkeypatch.setattr(check_deep, "MODELS_PER_COUNT", 1)
    chains = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        check_deep.generate(seed, tmp_path / str(seed))
        state = check_deep.setup(tmp_path / str(seed))
        chains.append(sorted(
            (op[1], op[3], serialize_model(op[2]))
            for op in state["ops"] if op[0].startswith("chain")
        ))
    assert chains[0] == chains[1]


def test_check_deep_depth_is_exact():
    import random

    from pdl4.syntax import Box, Diamond

    def depth(f):
        own = 1 if isinstance(f, (Box, Diamond)) else 0
        children = [getattr(f, name) for name in ("body", "left", "right") if hasattr(f, name)]
        return own + max((depth(c) for c in children), default=0)

    rng = random.Random(SEED)
    for d in check_deep.DEPTHS:
        assert depth(check_deep.random_deep_formula(rng, d)) == d


@pytest.fixture
def cli_state(tmp_path, monkeypatch):
    """The cli workload generated under a scratch root holding the example
    model and a link to the sources."""
    monkeypatch.setattr(cli_commands, "ROOT", tmp_path)
    data = tmp_path / "tests" / "data"
    data.mkdir(parents=True)
    data.joinpath("example1.model").write_text(cli_commands.EXAMPLE_MODEL.read_text())
    monkeypatch.setattr(cli_commands, "EXAMPLE_MODEL", data / "example1.model")
    (tmp_path / "src").symlink_to(ROOT / "src")
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    cli_commands.generate(SEED, inputs)
    return cli_commands.setup(inputs)


def _first_of_each_kind(state):
    kinds = {}
    for op in state["ops"]:
        kinds.setdefault(op[1], op)
    return kinds


def test_cli_small(cli_state):
    kinds = _first_of_each_kind(cli_state)
    assert set(kinds) == {"check", "diagram", "valid", "prove", "assertions", "oracle"}
    _run_and_check(cli_commands, cli_state, list(kinds.values()))
    assert cli_commands.peak_rss_kb(cli_state) > 0


# ---------------------------------------------------------------------------
# Planted wrong answers


def test_prove_check_rejects_flipped_verdicts(tmp_path):
    state = _prepared(prove_corpus, tmp_path)
    valid = next(op for op in state if op[1] == "valid")
    gap = _one_world({"p": (False, False), "q": (False, False)})
    assert prove_corpus.check(state, valid, ("refuted", gap, 0), SEED) is not None
    invalid = next(op for op in state if op[1] == "invalid")
    assert prove_corpus.check(state, invalid, ("proved", None, 0), SEED) is not None
    # A corpus problem the prover refutes, reported as proved: the sampled
    # search finds a countermodel.
    refuted = next(
        op for op in state
        if op[1] == "corpus" and op[0] not in prove_corpus.EXPECTED_FAILURES
        and prove_corpus.run(state, op)[0] == "refuted"
    )
    assert prove_corpus.check(state, refuted, ("proved", None, 0), SEED) is not None


def test_prove_check_rejects_a_countermodel_satisfying_the_goal(tmp_path):
    state = _prepared(prove_corpus, tmp_path)
    excluded_middle = next(op for op in state if op[2] == "p | !p")
    verdict, model, blocked = prove_corpus.run(state, excluded_middle)
    assert prove_corpus.check(state, excluded_middle, (verdict, model, blocked), SEED) is None
    both = _one_world({"p": (True, False)})
    assert prove_corpus.check(state, excluded_middle, ("refuted", both, 0), SEED) is not None


def test_blocking_check_requires_a_blocked_existential(tmp_path):
    state = _prepared(prove_corpus, tmp_path)
    blocking = next(op for op in state if op[1] == "blocking")
    assert prove_corpus.check(state, blocking, ("proved", None, 0), SEED) is not None


def test_oracle_check_rejects_wrong_witnesses(tmp_path):
    from pdl4.oracle import enumerate_models

    state = _prepared(oracle_exhaustive, tmp_path)
    ops = [op for op in state if op[1] == "fixed"]
    with_witness = next(op for op in ops if oracle_exhaustive.run(state, op) is not None)
    without = next(op for op in ops if oracle_exhaustive.run(state, op) is None)
    # A search with a witness reported as having none: the prover refutes it
    # with a small countermodel.
    assert oracle_exhaustive.check(state, with_witness, None, SEED) is not None
    # A search without a witness handed some model of its signature.
    _, _, hyps, goal = without
    planted = next(enumerate_models(oracle_exhaustive._spec(hyps, goal)))
    assert "fails a root" in oracle_exhaustive.check(state, without, planted, SEED)


def test_oracle_check_rejects_a_non_minimal_witness(tmp_path):
    state = _prepared(oracle_exhaustive, tmp_path)
    op, witness = next(
        (op, witness) for op in state
        if op[1] == "fixed" and not op[2] and "'" not in render(op[3])
        and (witness := oracle_exhaustive.run(state, op)) is not None
        and len(witness.worlds) == 1
    )
    # Two bisimilar copies of a one-world witness satisfy the same
    # nominal-free roots, but are not world-minimal.
    (w,) = witness.worlds
    worlds = (w, "w9")

    def copy_rel(rel):
        return {a: {(u, v) for u in worlds for v in worlds} if pairs else set()
                for a, pairs in rel.items()}

    def copy_val(val):
        return {p: set(worlds) if members else set() for p, members in val.items()}

    doubled = Model(frozenset(worlds), copy_rel(witness.pos_rel), copy_rel(witness.neg_rel),
                    {}, copy_val(witness.pos_val), copy_val(witness.neg_val))
    assert "not world-minimal" in oracle_exhaustive.check(state, op, doubled, SEED)


def test_check_deep_rejects_a_wrong_bit(tmp_path, monkeypatch):
    monkeypatch.setattr(check_deep, "OPS", 12)
    monkeypatch.setattr(check_deep, "MODELS_PER_COUNT", 1)
    state = _prepared(check_deep, tmp_path)
    for op in state["ops"]:
        bits = check_deep.run(state, op)
        flipped = (not bits[0],) + bits[1:]
        assert check_deep.check(state, op, flipped, SEED) is not None


def test_cli_check_rejects_wrong_answers(cli_state):
    kinds = _first_of_each_kind(cli_state)
    check_op = kinds["check"]
    code, out = cli_commands.run(cli_state, check_op)
    assert cli_commands.check(cli_state, check_op, (code, out), SEED) is None
    lines = out.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("w"))
    world, bit = lines[k].split()
    lines[k] = f"{world} {1 - int(bit)}"
    assert cli_commands.check(cli_state, check_op, (code, "\n".join(lines) + "\n"), SEED)
    short = "\n".join(cli_commands.EXAMPLE_DIAGRAM[1:]) + "\n"
    assert cli_commands.check(cli_state, kinds["diagram"], (0, short), SEED)
    assert cli_commands.check(cli_state, kinds["valid"], (1, "REFUTED\n"), SEED)
    excluded_middle = next(op for op in cli_state["ops"] if op[3] == ["p | !p"])
    satisfying = serialize_model(_one_world({"p": (True, True)}))
    assert cli_commands.check(cli_state, excluded_middle, (1, "REFUTED\n" + satisfying), SEED)


# ---------------------------------------------------------------------------
# Helpers


def test_tail_leaves_ten_beyond():
    assert tail(list(range(1, 41))) == (75.0, 30)
    pct, value = tail(list(range(1, 4001)))
    assert (pct, value) == (99.75, 3990)


class _Stub:
    """A workload whose operation "bad" fails and whose known failure is
    "known"."""

    EXPECTED_FAILURES = {"known"}

    @staticmethod
    def round_ops(state):
        return ["ok", "known", "bad"]

    @staticmethod
    def op_id(op):
        return op

    @staticmethod
    def run(state, op):
        if op != "ok":
            raise OpFailed(op)
        return 1

    @staticmethod
    def check(state, op, output, seed):
        return None


def test_an_unexpected_failure_makes_the_run_incorrect():
    ops, _, failed, outputs, drift, _ = bench.measured_phase(_Stub, None, 0)
    assert failed == ["known", "bad"] and drift == []
    errors = bench.check_all(_Stub, None, ops, outputs, failed, SEED)
    assert errors == ["bad: failed, and it is not a known failure"]
    assert bench.check_all(_Stub, None, ops, outputs, ["known"], SEED) == []


def test_tracer_records_parents_and_operations(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", "op1"):
        with tracer.span("inner") as inner:
            pass
    tracer.count("things", 3)
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == "op1"
    assert inner[2] >= inner[1]
    tracer.dump(tmp_path / "trace.jsonl")
    assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == 3
