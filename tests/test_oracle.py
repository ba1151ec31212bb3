import random
from math import prod

import numpy as np
import pytest

import pdl4.oracle as oracle
from pdl4 import _vector
from pdl4.generators import random_formula
from pdl4.oracle import (
    CeilingExceeded,
    EnumerationSpec,
    countermodel_search,
    enumerate_models,
    find_model,
    search_space_size,
)
from pdl4.semantics import globally_satisfies, serialize_model
from pdl4.syntax import (
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
        with pytest.raises(CeilingExceeded):
            find_model([SignedFormula(PropVar("p"))], spec)

    def test_max_worlds_validated(self):
        with pytest.raises(ValueError):
            EnumerationSpec(Signature(), 0)


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


class TestVectorisedPath:
    def test_vector_and_plain_scans_agree(self, monkeypatch):
        sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"}))
        rng = random.Random(8)
        for _ in range(25):
            goal = random_formula(rng, sig, rng.randint(1, 4))
            roots = [SignedFormula(goal, minus=True)]
            spec = EnumerationSpec(sig, 2)
            monkeypatch.setattr(oracle, "VECTOR_THRESHOLD", 1 << 60)
            plain = find_model(roots, spec)
            monkeypatch.setattr(oracle, "VECTOR_THRESHOLD", 1)
            vectorised = find_model(roots, spec)
            if plain is None:
                assert vectorised is None
            else:
                assert vectorised == plain

    def test_vector_block_matches_checker_on_full_space(self):
        sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"}))
        rng = random.Random(9)
        for n in (1, 2):
            radii = oracle._radices(sig, n)
            total = prod(radii)
            models = [
                m for m in enumerate_models(EnumerationSpec(sig, n)) if len(m.worlds) == n
            ]
            block = _vector._VectorBlock(
                sig, n, np.arange(total, dtype=np.int64), _vector._rows_table(n)
            )
            for _ in range(30):
                sf = SignedFormula(
                    random_formula(rng, sig, rng.randint(1, 4)),
                    minus=bool(rng.getrandbits(1)),
                )
                vec = block.holds_globally(sf)
                ref = np.array([globally_satisfies(m, sf) for m in models])
                assert np.array_equal(vec, ref), str(sf)

    def test_vector_block_matches_checker_on_sampled_indices(self):
        # three-world blocks are too large to sweep against the reference,
        # so compare on a seeded sample of model indices
        sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"}))
        rng = random.Random(10)
        n = 3
        radii = oracle._radices(sig, n)
        total = prod(radii)
        indices = np.array(sorted(rng.randrange(total) for _ in range(400)), dtype=np.int64)
        block = _vector._VectorBlock(sig, n, indices, _vector._rows_table(n))
        models = []
        for index in indices:
            combo = []
            rest = int(index)
            for k in range(len(radii)):
                digit, rest = divmod(rest, prod(radii[k + 1:]))
                combo.append(digit)
            models.append(oracle._decode(sig, n, combo))
        for _ in range(25):
            sf = SignedFormula(
                random_formula(rng, sig, rng.randint(1, 4)),
                minus=bool(rng.getrandbits(1)),
            )
            vec = block.holds_globally(sf)
            ref = np.array([globally_satisfies(m, sf) for m in models])
            assert np.array_equal(vec, ref), str(sf)
