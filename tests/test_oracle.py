import os
import random
import subprocess
import sys
from itertools import product
from math import prod

import pytest

import pdl4.oracle as oracle
from pdl4.generators import random_formula
from pdl4.oracle import (
    CeilingExceeded,
    EnumerationSpec,
    countermodel_search,
    enumerate_models,
    find_model,
    search_space_size,
)
from pdl4.semantics import Model, ModelError, globally_satisfies, serialize_model
from pdl4.syntax import (
    Formula,
    Neg,
    Program,
    PropVar,
    SignedFormula,
    Signature,
    parse_formula,
)


class TestEnumeration:
    def test_single_world_one_prop(self):
        spec = EnumerationSpec(
            Signature(frozenset({"p"}), frozenset({"i"}), frozenset()), 1
        )
        models = list(enumerate_models(spec))
        assert len(models) == 4
        assert search_space_size(spec) == 4

    def test_single_world_one_action(self):
        spec = EnumerationSpec(
            Signature(frozenset(), frozenset(), frozenset({"a"})), 1
        )
        assert len(list(enumerate_models(spec))) == 4

    def test_two_world_space(self):
        spec = EnumerationSpec(
            Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"})), 2
        )
        two_world = [m for m in enumerate_models(spec) if len(m.worlds) == 2]
        assert len(two_world) == 2 * 16 * 16 * 4 * 4 == 8192

    def test_stream_matches_closed_form(self):
        spec = EnumerationSpec(
            Signature(frozenset({"p"}), frozenset({"i", "j"}), frozenset()), 2
        )
        assert len(list(enumerate_models(spec))) == search_space_size(spec)

    def test_worlds_are_canonical(self):
        spec = EnumerationSpec(Signature(frozenset({"p"}), frozenset(), frozenset()), 2)
        for m in enumerate_models(spec):
            assert m.worlds <= {"w0", "w1"}

    def test_randomized_stream_is_deterministic(self):
        sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"}))
        runs = [
            [
                serialize_model(m)
                for m in enumerate_models(
                    EnumerationSpec(sig, 3, sample_count=25, seed=99)
                )
            ]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert len(runs[0]) == 25

    def test_ceiling_enforced(self):
        sig = Signature(frozenset({"p", "q"}), frozenset(), frozenset({"a", "b"}))
        spec = EnumerationSpec(sig, 3, ceiling=1000)
        with pytest.raises(CeilingExceeded):
            list(enumerate_models(spec))
        # the search counts what it scans: the raw 256 models at one world,
        # then 2^24 at two, since this root reads every component
        everything = parse_formula("false & <a><b>(p & q) & !<a><b>(p & q)")
        with pytest.raises(CeilingExceeded, match="16777216 at 2 worlds"):
            find_model([SignedFormula(everything)], spec)
        with pytest.raises(CeilingExceeded, match="256 at 1 world exceeds"):
            find_model([SignedFormula(PropVar("p"))], EnumerationSpec(sig, 3, ceiling=255))
        # two nominals have 2 canonical nominations of 4 at two worlds
        named = Signature(frozenset({"p"}), frozenset({"i", "j"}), frozenset())
        with pytest.raises(CeilingExceeded, match="32 at 2 worlds"):
            find_model([parse_formula("false & p & !p")], EnumerationSpec(named, 2, ceiling=31))

    @pytest.mark.parametrize(
        "sig, n",
        [
            (Signature(frozenset("pq"), frozenset("ij"), frozenset("ab")), 1),
            (Signature(frozenset("p"), frozenset("i"), frozenset("a")), 2),
        ],
    )
    def test_stream_counts_up_in_canonical_order(self, sig, n):
        # a model's digits, most significant first: each nominal's world,
        # then a positive and a negative mask per action and per proposition,
        # names sorted within each kind
        nominals, actions, props = (
            sorted(names) for names in (sig.nominals, sig.actions, sig.propositions)
        )
        radices = [n] * len(nominals)
        radices += [1 << n * n] * 2 * len(actions) + [1 << n] * 2 * len(props)
        models = [m for m in enumerate_models(EnumerationSpec(sig, n)) if len(m.worlds) == n]
        assert len(models) == prod(radices)
        for index, model in enumerate(models):
            digits = []
            for radix in reversed(radices):
                index, digit = divmod(index, radix)
                digits.insert(0, digit)
            masks = iter(digits[len(nominals):])
            relations = {a: (next(masks), next(masks)) for a in actions}
            valuations = {p: (next(masks), next(masks)) for p in props}
            naming = dict(zip(nominals, digits))
            assert model == _reference_model(n, naming, relations, valuations)

    def test_samples_draw_components_in_canonical_order(self):
        sig = Signature(frozenset("pq"), frozenset("ij"), frozenset("ab"))
        rng = random.Random(5)
        for model in enumerate_models(EnumerationSpec(sig, 3, sample_count=20, seed=5)):
            n = rng.randint(1, 3)
            naming = {i: rng.randrange(n) for i in "ij"}
            relations = {a: (rng.getrandbits(n * n), rng.getrandbits(n * n)) for a in "ab"}
            valuations = {p: (rng.getrandbits(n), rng.getrandbits(n)) for p in "pq"}
            assert model == _reference_model(n, naming, relations, valuations)

    def test_max_worlds_validated(self):
        with pytest.raises(ValueError):
            EnumerationSpec(Signature(), 0)

    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_count_validated(self, count):
        with pytest.raises(ValueError):
            EnumerationSpec(Signature(), 3, sample_count=count)


class TestCountermodelSearch:
    def test_paracomplete_witness(self):
        goal = parse_formula("p | !p")
        spec = EnumerationSpec.for_formulas([goal], 3)
        model = countermodel_search([], goal, spec)
        assert model is not None
        assert len(model.worlds) == 1
        assert model.pos_val["p"] == frozenset()
        assert model.neg_val["p"] == frozenset()

    def test_classical_excluded_middle_has_none(self):
        goal = parse_formula("p | ~p")
        spec = EnumerationSpec.for_formulas([goal], 3)
        assert countermodel_search([], goal, spec) is None

    def test_negated_diamond_not_valid(self):
        goal = parse_formula("!<a>p")
        spec = EnumerationSpec.for_formulas([goal], 3)
        model = countermodel_search([], goal, spec)
        assert model is not None
        # the enumeration-first witness is the all-empty single world
        assert len(model.worlds) == 1
        assert model.pos_rel["a"] == frozenset()
        assert model.neg_rel["a"] == frozenset()
        assert not globally_satisfies(model, goal)

    def test_world_minimality(self):
        # no single world can satisfy <a>p while refuting p at the same spot
        goal = parse_formula("<a>p -> p")
        spec = EnumerationSpec.for_formulas([goal], 3)
        model = countermodel_search([], goal, spec)
        assert model is not None
        assert len(model.worlds) == 2

    def test_hypotheses_constrain_search(self):
        spec = EnumerationSpec.for_formulas([parse_formula("p"), parse_formula("q")], 2)
        model = countermodel_search([parse_formula("p")], parse_formula("q"), spec)
        assert model is not None
        assert globally_satisfies(model, parse_formula("p"))
        assert not globally_satisfies(model, parse_formula("q"))

    def test_randomized_mode_finds_witness(self):
        goal = parse_formula("p | !p")
        spec = EnumerationSpec.for_formulas([goal], 3, sample_count=400, seed=5)
        model = countermodel_search([], goal, spec)
        assert model is not None
        assert not globally_satisfies(model, goal)


def _reference_model(n, naming, relations, valuations):
    """The model on w0..w(n-1) with each nominal's world and a (positive,
    negative) pair of bit masks per action and proposition; bit u*n+v of a
    relation mask is the pair (wu, wv)."""
    w = [f"w{k}" for k in range(n)]

    def pairs(mask):
        return frozenset((w[k // n], w[k % n]) for k in range(n * n) if mask >> k & 1)

    def members(mask):
        return frozenset(w[k] for k in range(n) if mask >> k & 1)

    return Model(
        frozenset(w),
        {a: pairs(pos) for a, (pos, _) in relations.items()},
        {a: pairs(neg) for a, (_, neg) in relations.items()},
        {i: w[k] for i, k in naming.items()},
        {p: members(pos) for p, (pos, _) in valuations.items()},
        {p: members(neg) for p, (_, neg) in valuations.items()},
    )


def _first_plain_match(roots, spec):
    """The reference: the first enumerated model satisfying every root."""
    for model in enumerate_models(spec):
        if all(globally_satisfies(model, sf) for sf in roots):
            return model
    return None


def _random_roots(rng, sig):
    roots = [SignedFormula(random_formula(rng, sig, rng.randint(1, 4)), minus=True)]
    if rng.getrandbits(1):
        roots.insert(0, SignedFormula(random_formula(rng, sig, rng.randint(1, 3))))
    return roots


def _drop_negations(node):
    """The formula or program with every Neg node replaced by its body."""
    if isinstance(node, Neg):
        return _drop_negations(node.body)
    if not isinstance(node, (Formula, Program)):
        return node
    return type(node)(*(_drop_negations(getattr(node, name)) for name in node.__match_args__))


def _is_restricted_growth(nomination):
    top = -1
    for w in nomination:
        if w > top + 1:
            return False
        top = max(top, w)
    return True


class TestBitslicedScan:
    @pytest.mark.parametrize("nominals", ["", "i", "ij", "ijk"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_canonical_nominations_are_the_restricted_growth_strings(self, nominals, n):
        sig = Signature(frozenset(), frozenset(nominals), frozenset())
        canonical = oracle._canonical_nominations(sig, n)
        assert canonical == [
            t for t in oracle._nominations(sig, n) if _is_restricted_growth(t)
        ]
        assert len(canonical) == oracle._canonical_count(len(nominals), n)
        if nominals == "ijk":
            assert len(canonical) == [1, 4, 5, 5][n - 1]

    def test_chunks_match_checker_on_full_space(self, monkeypatch):
        # at the default size one chunk covers each nomination; at 3 bits
        # the bits above the chunk are constants taken from its number.
        # The scan visits the models whose nomination is canonical: 'i at w0.
        sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"}))
        full = {(name, negated) for name in ("p", "a") for negated in (False, True)}
        rng = random.Random(9)
        for chunk_bits, n in product((oracle._CHUNK_BITS, 3), (1, 2)):
            monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
            size = 1 << min(oracle._layout(sig, n, full)[1], chunk_bits)
            models = [
                m for m in enumerate_models(EnumerationSpec(sig, n))
                if len(m.worlds) == n and m.naming["i"] == "w0"
            ]
            for _ in range(30):
                sf = SignedFormula(
                    random_formula(rng, sig, rng.randint(1, 4)),
                    minus=bool(rng.getrandbits(1)),
                )
                truth = []
                for base, good in oracle._chunks([sf], sig, n, full, set(), 1 << 20):
                    assert base == len(truth)
                    truth.extend(bool(good >> m & 1) for m in range(size))
                assert truth == [globally_satisfies(m, sf) for m in models], str(sf)

    def test_first_witness_matches_plain_enumeration(self):
        sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"}))
        rng = random.Random(8)
        found = 0
        for _ in range(25):
            roots = _random_roots(rng, sig)
            spec = EnumerationSpec(sig, 2)
            model = find_model(roots, spec)
            assert model == _first_plain_match(roots, spec), [str(r) for r in roots]
            found += model is not None
        assert 0 < found < 25

    @pytest.mark.parametrize("chunk_bits", [2, 3])
    @pytest.mark.parametrize(
        "sig, max_worlds",
        [
            (Signature(frozenset({"p"}), frozenset({"i"}), frozenset()), 3),
            (Signature(frozenset({"p"}), frozenset({"i", "j"}), frozenset()), 3),
            (Signature(frozenset(), frozenset({"i"}), frozenset({"a"})), 2),
        ],
    )
    def test_small_chunks_keep_the_first_witness(self, monkeypatch, chunk_bits, sig, max_worlds):
        # many chunks per nomination put chunk boundaries and nominal
        # offsets in the witness index under test
        monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
        rng = random.Random(chunk_bits * 10 + max_worlds)
        found = 0
        for _ in range(30):
            roots = _random_roots(rng, sig)
            spec = EnumerationSpec(sig, max_worlds)
            model = find_model(roots, spec)
            assert model == _first_plain_match(roots, spec), [str(r) for r in roots]
            found += model is not None and len(model.worlds) > 1
        assert found

    def test_three_nominals_keep_the_first_witness(self):
        # at three worlds the scan skips 22 of the 27 nominations; the
        # first root keeps some nominals apart, so witnesses need more worlds
        sig = Signature(frozenset({"p"}), frozenset({"i", "j", "k"}), frozenset())
        apart = [
            parse_formula(f)
            for f in ("~@'j 'k", "~@'i 'j & ~@'j 'k", "~@'i 'j & ~@'i 'k & ~@'j 'k")
        ]
        rng = random.Random(33)
        found = 0
        for _ in range(40):
            roots = [SignedFormula(rng.choice(apart))] + _random_roots(rng, sig)
            spec = EnumerationSpec(sig, 3)
            model = find_model(roots, spec)
            assert model == _first_plain_match(roots, spec), [str(r) for r in roots]
            found += model is not None and len(model.worlds) == 3
        assert found

    @pytest.mark.parametrize("chunk_bits", [2, 3])
    @pytest.mark.parametrize(
        "sig",
        [
            Signature(frozenset({"p", "q"}), frozenset({"i", "j"}), frozenset()),
            Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"b"})),
        ],
    )
    def test_pruned_scan_keeps_the_first_witness(self, monkeypatch, chunk_bits, sig):
        # the spec's signature has names no root reads, and negation-free
        # roots read one polarity of p, so the scan above one world skips
        # components that the first witness must still have at 0
        monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
        roots_sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset())
        rng = random.Random(40 + chunk_bits)
        found = 0
        for _ in range(30):
            roots = _random_roots(rng, roots_sig)
            if rng.getrandbits(1):
                roots = [
                    SignedFormula(_drop_negations(r.formula), r.minus) for r in roots
                ]
            spec = EnumerationSpec(sig, 2)
            model = find_model(roots, spec)
            assert model == _first_plain_match(roots, spec), [str(r) for r in roots]
            found += model is not None and len(model.worlds) > 1
        assert found

    def test_problem_150_reads_one_polarity(self):
        # the corpus's 50.3M-model scan reads pos_val p and pos_rel a only,
        # so three worlds lay out 3 + 9 bits under each nomination
        goal = parse_formula("p | <a*;(a+a)>@'i 'i -> @'i (p & p -> p -> 'i)")
        roots = [SignedFormula(goal, minus=True)]
        sig = Signature.of(roots)
        reads = set()
        full = {(name, negated) for name in ("p", "a") for negated in (False, True)}
        for _ in oracle._chunks(roots, sig, 1, full, reads, 1 << 20):
            pass
        assert reads == {("p", False), ("a", False)}
        assert oracle._layout(sig, 3, frozenset(reads))[1] == 12
        assert search_space_size(EnumerationSpec(sig, 3)) == 50_339_856

    def test_names_outside_the_signature_are_refused(self):
        props = EnumerationSpec(Signature(frozenset({"p"}), frozenset(), frozenset()), 2)
        # p is an action here, so its valuation must not be read off the
        # relation's bits
        actions = EnumerationSpec(Signature(frozenset(), frozenset(), frozenset({"p"})), 2)
        cases = ((props, "q"), (props, "<a>p"), (props, "@'i p"), (actions, "p & false"))
        for spec, text in cases:
            with pytest.raises(ModelError):
                find_model([SignedFormula(parse_formula(text))], spec)
            # the one-world pass labels every root, even after one that no
            # model satisfies
            with pytest.raises(ModelError):
                roots = [SignedFormula(parse_formula(f)) for f in ("false", text)]
                find_model(roots, spec)


def test_search_runs_without_numpy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from pdl4.oracle import EnumerationSpec, countermodel_search\n"
        "from pdl4.syntax import parse_formula\n"
        "def search(text):\n"
        "    goal = parse_formula(text)\n"
        "    return countermodel_search([], goal, EnumerationSpec.for_formulas([goal], 3))\n"
        "assert len(search('<a>p -> p').worlds) == 2\n"
        "assert search('p | ~p') is None\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()
