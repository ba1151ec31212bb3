import hashlib
import random

from pdl4.generators import random_formula, random_model
from pdl4.oracle import EnumerationSpec, countermodel_search
from pdl4.semantics import globally_satisfies, serialize_model
from pdl4.syntax import (
    And,
    At,
    Atomic,
    Bottom,
    Box,
    Choice,
    Diamond,
    Implies,
    Neg,
    Nominal,
    Or,
    PropVar,
    Seq,
    SignedFormula,
    Signature,
    Star,
    Test,
    fischer_ladner_closure,
    parse_formula,
    render,
)
from pdl4.tableau import (
    ROOT_ORIGIN,
    BranchStatus,
    TableauLimits,
    _conclude,
    classify,
    extract_model,
    initialize,
    prove_consequence,
    prove_from_roots,
    prove_validity,
)
from tableau_steps import apply_rules_step, inclusion

p, q = PropVar("p"), PropVar("q")
a, b = Atomic("a"), Atomic("b")


def saturate(roots, step_bound=20_000, max_branches=None):
    """Drive the single-step interface to all terminal branches (or to the
    first max_branches of them, for inputs whose full tableau is large)."""
    stack = [initialize(roots)]
    finished = []
    steps = 0
    while stack:
        branch = stack.pop()
        while True:
            steps += 1
            assert steps < step_bound, "saturation runaway"
            if branch.closed:
                finished.append(branch)
                break
            out = apply_rules_step(branch)
            if len(out) == 2:
                stack.append(out[1])
                continue
            if classify(branch).kind != "unfinished":
                finished.append(branch)
                break
        if max_branches is not None and len(finished) >= max_branches:
            break
    return finished


class TestInitialize:
    def test_minus_root_gets_fresh_prefix(self):
        branch = initialize([SignedFormula(p, minus=True)])
        assert branch.contains(SignedFormula(p, minus=True))
        [terminal] = saturate([SignedFormula(p, minus=True)])
        assert terminal.contains(SignedFormula(At("t0", p), minus=True))
        assert terminal.generation["t0"] == ROOT_ORIGIN

    def test_satisfaction_statement_kept_as_is(self):
        branch = initialize([At("i", p)])
        assert branch.contains(SignedFormula(At("i", p)))
        [terminal] = saturate([At("i", p)])
        # no prefixing beyond the self-equality axiom
        bodies = [bf.statement for bf in terminal.formulas]
        assert SignedFormula(At("i", Nominal("i"))) in bodies
        assert len(bodies) == 2

    def test_empty_root_is_terminal_open(self):
        branch = initialize([])
        assert classify(branch) == BranchStatus("open")


class TestRuleApplications:
    def test_conjunction_rule(self):
        [terminal] = saturate([At("i", And(p, q))])
        assert terminal.contains(SignedFormula(At("i", p)))
        assert terminal.contains(SignedFormula(At("i", q)))

    def test_diamond_star_split(self):
        star = Diamond(Star(a), p)
        branches = saturate([At("i", star)])
        fulfilled = [
            br for br in branches if br.contains(SignedFormula(At("i", p)))
        ]
        deferred = [
            br
            for br in branches
            if br.contains(SignedFormula(At("i", p), minus=True))
            and br.contains(SignedFormula(At("i", Diamond(a, star))))
        ]
        assert fulfilled and deferred

    def test_minus_nominal_gives_inequality(self):
        [terminal] = saturate([SignedFormula(At("i", Nominal("j")), minus=True)])
        assert terminal.contains(SignedFormula(At("i", Neg(Nominal("j")))))

    def test_duplicate_additions_suppressed(self):
        for branch in saturate([At("i", And(p, p)), At("i", p)]):
            statements = [bf.statement for bf in branch.formulas]
            assert len(statements) == len(set(statements))

    def test_destructive_rules_fire_once(self):
        for branch in saturate([At("i", And(And(p, q), And(p, q)))]):
            seen = {}
            for bf in branch.formulas:
                assert bf.statement not in seen
                seen[bf.statement] = bf.destructive_applied

    def test_statements_stay_in_working_closure(self):
        # the insertion-time guard raises on any statement escaping the
        # closure, so exploring a slice of a rich tableau exercises it
        roots = [
            parse_formula("<a*>(p & [b](q | 'i))"),
            SignedFormula(parse_formula("[(a+b);(p?)*]~q"), minus=True),
        ]
        branches = saturate(roots, max_branches=40)
        assert branches

    def test_per_nominal_statement_bound(self):
        roots = [
            SignedFormula(parse_formula("~p")),
            SignedFormula(parse_formula("~<a*>p"), minus=True),
        ]
        closure = fischer_ladner_closure(roots)
        for branch in saturate(roots):
            bound = 2 * len(branch.closure) + 3 * len(branch.nominal_order)
            for nominal in branch.nominal_order:
                plain = [
                    bf.statement.formula.body
                    for bf in branch.formulas
                    if isinstance(bf.statement.formula, At)
                    and not bf.statement.minus
                    and bf.statement.formula.nominal == nominal
                ]
                relational = [
                    f
                    for f in plain
                    if (isinstance(f, Diamond) and isinstance(f.body, Nominal))
                    or (isinstance(f, Neg) and isinstance(f.body, Box))
                ]
                assert len(plain) - len(relational) <= bound
            assert closure <= branch.closure


class TestInclusion:
    def test_statement_poor_nominal_included_in_earlier(self):
        # i carries only statements that j also carries, and j is older
        [terminal] = saturate([At("j", p), At("i", Nominal("j"))])
        assert inclusion("i", "j", terminal)
        assert not inclusion("j", "i", terminal)

    def test_extra_statement_breaks_inclusion(self):
        [terminal] = saturate([At("j", q), At("i", p)])
        assert not inclusion("i", "j", terminal)

    def test_definitional_inclusion_matches_engine_check(self):
        roots = [
            SignedFormula(parse_formula("~p")),
            SignedFormula(parse_formula("~<a*>p"), minus=True),
        ]
        for branch in saturate(roots):
            for i in branch.nominal_order:
                for j in branch.nominal_order:
                    assert inclusion(i, j, branch) == branch.included_in(i, j)

    def test_first_occurrence_follows_nominal_order(self):
        roots = [
            SignedFormula(parse_formula("~p")),
            SignedFormula(parse_formula("~<a*>p"), minus=True),
        ]
        for branch in saturate(roots):
            for k, nominal in enumerate(branch.nominal_order):
                assert branch.first_occurrence(nominal) == k

    def test_loop_check_blocks_star_expansion(self):
        result = prove_consequence(
            [parse_formula("~p")], parse_formula("~<a*>p")
        )
        assert result.proved
        assert result.stats.blocked_existentials >= 1

    def test_blocked_nominal_present_on_ignorable_branch(self):
        roots = [
            SignedFormula(parse_formula("~p")),
            SignedFormula(parse_formula("~<a*>p"), minus=True),
        ]
        branches = saturate(roots)
        ignorable = [
            br for br in branches if classify(br).kind == "ignorable"
        ]
        assert ignorable
        assert any(
            inclusion(i, j, br)
            for br in ignorable
            for i in br.nominal_order
            for j in br.nominal_order
        )


class TestClassification:
    def test_clash_closes(self):
        [branch] = saturate([At("i", p), SignedFormula(At("i", p), minus=True)])
        assert branch.closed
        assert classify(branch) == BranchStatus("closed")

    def test_self_inequality_closes(self):
        [branch] = saturate([At("i", Neg(Nominal("i")))])
        assert classify(branch).kind == "closed"

    def test_falsum_and_denied_verum_close(self):
        [branch] = saturate([At("i", Bottom())])
        assert classify(branch).kind == "closed"
        [branch] = saturate([SignedFormula(At("i", Neg(Bottom())), minus=True)])
        assert classify(branch).kind == "closed"

    def test_ignorable_diamond_star(self):
        roots = [
            SignedFormula(parse_formula("~p")),
            SignedFormula(parse_formula("~<a*>p"), minus=True),
        ]
        statuses = [classify(br) for br in saturate(roots)]
        kinds = {s.kind for s in statuses}
        assert kinds == {"closed", "ignorable"}
        ignorable = next(s for s in statuses if s.kind == "ignorable")
        assert ignorable.ignorable_kind == "dia-star"
        assert ignorable.witness is not None
        star = Diamond(Star(a), p)
        assert ignorable.ignorable_formula == star


class TestExtraction:
    def test_smallest_open_branch(self):
        [branch] = saturate([At("i", p)])
        model = extract_model(branch)
        assert model.worlds == frozenset({"i"})
        assert model.naming == {"i": "i"}
        assert model.pos_val["p"] == frozenset({"i"})
        assert model.neg_val["p"] == frozenset()
        assert model.pos_rel == {}

    def test_relational_literal_becomes_edge(self):
        [branch] = saturate([At("i", Diamond(a, Nominal("j")))])
        model = extract_model(branch)
        assert ("i", "j") in model.pos_rel["a"]

    def test_equalities_merge_worlds(self):
        [branch] = saturate([At("i", Nominal("j")), At("j", p)])
        model = extract_model(branch)
        assert len(model.worlds) == 1
        assert model.naming["i"] == model.naming["j"]
        assert globally_satisfies(model, At("i", p))

    def test_extraction_on_non_open_branch_is_callers_problem(self):
        # classify first; extraction itself only needs the branch data
        [branch] = saturate([At("i", p)])
        assert classify(branch).kind == "open"

    def test_blocked_nominal_routes_to_including_world(self):
        # p & <a>p forces an infinite chain without the loop check; the
        # blocked successor must land on the world of its includer,
        # closing the self-loop
        result = prove_consequence(
            [parse_formula("p & <a>p")], parse_formula("false")
        )
        assert result.refuted
        assert result.stats.blocked_existentials >= 1
        model = result.countermodel
        assert len(model.worlds) == 1
        (world,) = model.worlds
        assert (world, world) in model.pos_rel["a"]
        assert globally_satisfies(model, parse_formula("p & <a>p"))

    def test_denied_inequality_forces_shared_world(self):
        result = prove_from_roots(
            [SignedFormula(parse_formula("@'i !'j"), minus=True)]
        )
        assert result.refuted
        naming = result.countermodel.naming
        assert naming["i"] == naming["j"]

    def test_equality_hypothesis_transfers_transitions(self):
        result = prove_consequence(
            [parse_formula("@'i 'j"), parse_formula("@'i <a>'k")],
            parse_formula("@'j <a>'k"),
        )
        assert result.proved

    def test_equated_nominal_shares_its_partners_world(self):
        result = prove_consequence([parse_formula("@'i 'j")], parse_formula("@'i p"))
        assert result.refuted
        naming = result.countermodel.naming
        assert naming["i"] == naming["j"]

    def test_quotient_merges_unblocked_equals(self):
        # i and j keep distinct non-literal statements, so neither is
        # included in the other; the equality must merge them in the model
        hypotheses = [
            parse_formula("@'i 'j"),
            parse_formula("@'j (p & q)"),
            parse_formula("@'i (p | q)"),
        ]
        result = prove_consequence(hypotheses, parse_formula("false"))
        assert result.refuted
        model = result.countermodel
        assert model.naming["i"] == model.naming["j"]
        for hypothesis in hypotheses:
            assert globally_satisfies(model, hypothesis)

    def test_refuted_result_carries_open_branch(self):
        result = prove_validity(parse_formula("p | !p"))
        assert result.open_branch is not None
        assert classify(result.open_branch).kind == "open"

    def test_single_step_interface_reaches_same_verdicts(self):
        # full saturation through apply_rules_step agrees with the engine:
        # refuted iff some terminal branch is open
        rng = random.Random(83)
        sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"}))
        from pdl4.syntax import Star as StarNode, _children

        def stars(node):
            own = 1 if isinstance(node, StarNode) else 0
            return own + sum(stars(child) for child in _children(node))

        checked = 0
        while checked < 20:
            goal = random_formula(rng, sig, rng.randint(1, 3))
            if stars(goal) > 1:
                continue
            checked += 1
            roots = [SignedFormula(goal, minus=True)]
            verdict = prove_from_roots(roots).verdict
            statuses = {classify(b).kind for b in saturate(roots)}
            assert ("open" in statuses) == (verdict == "refuted"), render(goal)


class TestProver:
    def test_k_axiom(self):
        result = prove_validity(parse_formula("[a](p -> q) -> ([a]p -> [a]q)"))
        assert result.proved

    def test_excluded_middle_refuted_with_gap_witness(self):
        result = prove_validity(parse_formula("p | !p"))
        assert result.refuted
        model = result.countermodel
        assert len(model.worlds) == 1
        assert model.pos_val["p"] == frozenset()
        assert model.neg_val["p"] == frozenset()

    def test_classical_excluded_middle_proved(self):
        assert prove_validity(parse_formula("p | ~p")).proved

    def test_sequence_biconditional(self):
        f = parse_formula("(<a;b>p -> <a><b>p) & (<a><b>p -> <a;b>p)")
        assert prove_validity(f).proved

    def test_modal_nonduality_refuted(self):
        f = parse_formula("(!<a>p -> [a]!p) & ([a]!p -> !<a>p)")
        result = prove_validity(f)
        assert result.refuted
        assert not globally_satisfies(result.countermodel, f)

    def test_verum(self):
        assert prove_validity(parse_formula("~false")).proved

    def test_consequence_uses_hypotheses_globally(self):
        assert prove_consequence([parse_formula("p")], parse_formula("[a]p")).proved
        assert prove_consequence([], parse_formula("p -> [a]p")).refuted

    def test_countermodels_satisfy_all_roots(self):
        rng = random.Random(13)
        sig = Signature(frozenset({"p", "q"}), frozenset({"i"}), frozenset({"a"}))
        refuted = 0
        for _ in range(40):
            delta = [random_formula(rng, sig, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
            goal = random_formula(rng, sig, rng.randint(1, 3))
            result = prove_consequence(delta, goal)
            if result.refuted:
                refuted += 1
                for hypothesis in delta:
                    assert globally_satisfies(result.countermodel, hypothesis)
                assert not globally_satisfies(result.countermodel, goal)
        assert refuted > 0

    def test_proved_results_have_no_small_countermodel(self):
        rng = random.Random(17)
        sig = Signature(frozenset({"p"}), frozenset(), frozenset({"a"}))
        proved = 0
        for _ in range(25):
            delta = [random_formula(rng, sig, rng.randint(1, 3))]
            goal = random_formula(rng, sig, rng.randint(1, 3))
            result = prove_consequence(delta, goal)
            if result.proved:
                proved += 1
                spec = EnumerationSpec.for_formulas(delta + [goal], 3)
                assert countermodel_search(delta, goal, spec) is None
        assert proved > 0

    def test_step_limit_reported(self):
        result = prove_validity(
            parse_formula("[a](p -> q) -> ([a]p -> [a]q)"),
            TableauLimits(max_steps=2),
        )
        assert result.exhausted

    def test_time_limit_reported(self):
        result = prove_validity(
            parse_formula("[a](p -> q) -> ([a]p -> [a]q)"),
            TableauLimits(time_limit=0.0),
        )
        assert result.exhausted

    def test_termination_on_deep_corpus(self):
        # 200 deeper inputs, generous bound, no exhaustion
        from pdl4.syntax import Star as StarNode, _children

        def stars(node):
            own = 1 if isinstance(node, StarNode) else 0
            return own + sum(stars(child) for child in _children(node))

        rng = random.Random(29)
        sig = Signature(frozenset({"p", "q"}), frozenset({"i"}), frozenset({"a", "b"}))

        def draw(depth):
            while True:
                f = random_formula(rng, sig, depth, program_depth=2)
                if stars(f) <= 1:
                    return f

        limits = TableauLimits(max_steps=500_000)
        for _ in range(200):
            delta = [draw(rng.randint(1, 6)) for _ in range(rng.randint(0, 2))]
            goal = draw(rng.randint(1, 6))
            result = prove_consequence(delta, goal, limits)
            assert not result.exhausted, (list(map(render, delta)), render(goal))

    def test_reserved_namespace_avoids_user_nominals(self):
        goal = parse_formula("@'t0 p | !p")
        result = prove_validity(goal)
        assert result.refuted
        assert "t0" in result.countermodel.naming

    def test_transcript_is_deterministic_and_shaped(self):
        goal = parse_formula("<a>p -> <a>(p | q)")
        first = prove_validity(goal, transcript=True)
        second = prove_validity(goal, transcript=True)
        assert first.transcript == second.transcript
        assert any("==>" in line for line in first.transcript)
        assert any(line.startswith("[b0]") for line in first.transcript)

    def test_deny_roots_supported(self):
        roots = [
            SignedFormula(parse_formula("p | q")),
            SignedFormula(parse_formula("p"), minus=True),
            SignedFormula(parse_formula("q"), minus=True),
        ]
        result = prove_from_roots(roots)
        # p | q global with both disjuncts failing somewhere is satisfiable
        assert result.refuted
        model = result.countermodel
        assert globally_satisfies(model, roots[0].formula)
        assert not globally_satisfies(model, roots[1].formula)
        assert not globally_satisfies(model, roots[2].formula)

    def test_nominal_free_roots_are_prefixed_at_one_world(self):
        for text, worlds in (("p", 1), ("<a>p", 2)):
            root = SignedFormula(parse_formula(text))
            result = prove_from_roots([root])
            assert result.refuted, text
            assert globally_satisfies(result.countermodel, root.formula), text
            assert len(result.countermodel.worlds) == worlds, text
        assert prove_from_roots([SignedFormula(Bottom())]).proved


class TestBackjumping:
    def test_clash_below_an_irrelevant_split_prunes_its_sibling(self):
        # (q | r) splits first; the clash on p or s rests only on the
        # second split, so the r column is never explored.
        roots = [
            SignedFormula(At("i", Or(q, PropVar("r")))),
            SignedFormula(At("i", Or(p, PropVar("s")))),
            SignedFormula(At("i", p), minus=True),
            SignedFormula(At("i", PropVar("s")), minus=True),
        ]
        result = prove_from_roots(roots, transcript=True)
        assert result.proved
        assert result.stats.pruned_branches == 1
        assert result.stats.closed_branches == 2
        assert sum("pruned" in line for line in result.transcript) == 1

    def test_clash_resting_on_the_split_explores_its_sibling(self):
        roots = [
            SignedFormula(At("i", Or(p, q))),
            SignedFormula(At("i", p), minus=True),
            SignedFormula(At("i", q), minus=True),
        ]
        result = prove_from_roots(roots)
        assert result.proved
        assert result.stats.pruned_branches == 0
        assert result.stats.closed_branches == 2

    def test_statements_at_a_fresh_nominal_carry_its_existentials_mask(self):
        # <a>q is expanded in the right column of the split at level 1
        # (mask 1), so every statement naming its fresh nominal rests on
        # that split, the premise-free self-equality axiom included.
        [right] = [
            branch
            for branch in saturate([SignedFormula(At("i", Or(p, Diamond(a, q))))])
            if "t0" in branch.generation
        ]
        assert right.nominal_deps["t0"] == 1
        assert right.index[SignedFormula(At("t0", Nominal("t0")))].deps == 1
        assert right.index[SignedFormula(At("t0", q))].deps == 1

    def test_pruned_proofs_have_no_two_world_countermodel(self):
        rng = random.Random(4_170)
        sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"}))
        proved = pruned = 0
        for _ in range(300):
            delta = [random_formula(rng, sig, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
            goal = random_formula(rng, sig, rng.randint(1, 4))
            result = prove_consequence(delta, goal, TableauLimits(max_steps=20_000))
            if result.proved:  # a refutation's countermodel is verified already
                proved += 1
                pruned += result.stats.pruned_branches > 0
                spec = EnumerationSpec.for_formulas(delta + [goal], 2)
                assert countermodel_search(delta, goal, spec) is None, (
                    list(map(render, delta)), render(goal))
        assert proved > 50 and pruned >= 5


# Rule-local soundness: for a premise that holds globally, some conclusion
# column must hold globally too.  Existential rules are exercised through
# the end-to-end countermodel checks instead, since their conclusions
# mention a nominal the model does not yet name.
_RULE_INSTANCES = [
    # premise, columns (each a list of signed statements)
    (SignedFormula(At("i", And(p, q))), [[SignedFormula(At("i", p)), SignedFormula(At("i", q))]]),
    (SignedFormula(At("i", Or(p, q))), [[SignedFormula(At("i", p))], [SignedFormula(At("i", q))]]),
    (
        SignedFormula(At("i", Implies(p, q))),
        [[SignedFormula(At("i", p), minus=True)], [SignedFormula(At("i", q))]],
    ),
    (
        SignedFormula(At("i", Neg(And(p, q)))),
        [[SignedFormula(At("i", Neg(p)))], [SignedFormula(At("i", Neg(q)))]],
    ),
    (
        SignedFormula(At("i", Neg(Or(p, q)))),
        [[SignedFormula(At("i", Neg(p))), SignedFormula(At("i", Neg(q)))]],
    ),
    (
        SignedFormula(At("i", Neg(Implies(p, q)))),
        [[SignedFormula(At("i", Neg(p)), minus=True), SignedFormula(At("i", Neg(q)))]],
    ),
    (SignedFormula(At("i", Neg(Neg(p)))), [[SignedFormula(At("i", p))]]),
    (
        SignedFormula(At("i", And(p, q)), minus=True),
        [
            [SignedFormula(At("i", p), minus=True)],
            [SignedFormula(At("i", q), minus=True)],
        ],
    ),
    (
        SignedFormula(At("i", Or(p, q)), minus=True),
        [
            [
                SignedFormula(At("i", p), minus=True),
                SignedFormula(At("i", q), minus=True),
            ]
        ],
    ),
    (
        SignedFormula(At("i", Implies(p, q)), minus=True),
        [[SignedFormula(At("i", p)), SignedFormula(At("i", q), minus=True)]],
    ),
    (
        SignedFormula(At("i", Neg(Implies(p, q))), minus=True),
        [
            [SignedFormula(At("i", Neg(p)))],
            [SignedFormula(At("i", Neg(q)), minus=True)],
        ],
    ),
    (SignedFormula(At("i", At("j", p))), [[SignedFormula(At("j", p))]]),
    (SignedFormula(At("i", Neg(At("j", p)))), [[SignedFormula(At("j", Neg(p)))]]),
    (
        SignedFormula(At("i", Box(Seq(a, b), p))),
        [[SignedFormula(At("i", Box(a, Box(b, p))))]],
    ),
    (
        SignedFormula(At("i", Neg(Diamond(Seq(a, b), p))), minus=True),
        [[SignedFormula(At("i", Neg(Diamond(a, Diamond(b, p)))), minus=True)]],
    ),
    (
        SignedFormula(At("i", Diamond(Test(q), p))),
        [[SignedFormula(At("i", And(q, p)))]],
    ),
    (
        SignedFormula(At("i", Box(Star(a), p))),
        [
            [
                SignedFormula(At("i", p)),
                SignedFormula(At("i", Box(a, Box(Star(a), p)))),
            ]
        ],
    ),
    (
        SignedFormula(At("i", Diamond(Star(a), p))),
        [
            [SignedFormula(At("i", p))],
            [
                SignedFormula(At("i", p), minus=True),
                SignedFormula(At("i", Diamond(a, Diamond(Star(a), p)))),
            ],
        ],
    ),
    (
        SignedFormula(At("i", Neg(Diamond(Star(a), p)))),
        [
            [
                SignedFormula(At("i", Neg(p))),
                SignedFormula(At("i", Neg(Diamond(a, Diamond(Star(a), p))))),
            ]
        ],
    ),
    (
        SignedFormula(At("i", Box(Star(a), p)), minus=True),
        [
            [SignedFormula(At("i", p), minus=True)],
            [
                SignedFormula(At("i", p)),
                SignedFormula(At("i", Box(a, Box(Star(a), p))), minus=True),
            ],
        ],
    ),
    (
        SignedFormula(At("i", Neg(And(p, q))), minus=True),
        [
            [
                SignedFormula(At("i", Neg(p)), minus=True),
                SignedFormula(At("i", Neg(q)), minus=True),
            ]
        ],
    ),
    (
        SignedFormula(At("i", Neg(Or(p, q))), minus=True),
        [
            [SignedFormula(At("i", Neg(p)), minus=True)],
            [SignedFormula(At("i", Neg(q)), minus=True)],
        ],
    ),
    (
        SignedFormula(At("i", Neg(Neg(p))), minus=True),
        [[SignedFormula(At("i", p), minus=True)]],
    ),
    (
        SignedFormula(At("i", Nominal("j")), minus=True),
        [[SignedFormula(At("i", Neg(Nominal("j"))))]],
    ),
    (
        SignedFormula(At("i", Neg(Nominal("j"))), minus=True),
        [[SignedFormula(At("i", Neg(Neg(Nominal("j")))))]],
    ),
    (
        SignedFormula(At("i", Neg(At("j", p))), minus=True),
        [[SignedFormula(At("j", Neg(p)), minus=True)]],
    ),
    (
        SignedFormula(At("i", Diamond(Choice(a, b), p))),
        [[SignedFormula(At("i", Or(Diamond(a, p), Diamond(b, p))))]],
    ),
    (
        SignedFormula(At("i", Box(Test(q), p)), minus=True),
        [[SignedFormula(At("i", Implies(q, p)), minus=True)]],
    ),
    (
        SignedFormula(At("i", Neg(Diamond(Seq(a, b), p)))),
        [[SignedFormula(At("i", Neg(Diamond(a, Diamond(b, p)))))]],
    ),
    (
        SignedFormula(At("i", Neg(Box(Choice(a, b), p)))),
        [[SignedFormula(At("i", Neg(And(Box(a, p), Box(b, p)))))]],
    ),
    # star rules with negation in front of the modality; the non-branching
    # diamond form is the unfolding the closure forces
    (
        SignedFormula(At("i", Neg(Diamond(Star(a), p)))),
        [
            [
                SignedFormula(At("i", Neg(p))),
                SignedFormula(At("i", Neg(Diamond(a, Diamond(Star(a), p))))),
            ]
        ],
    ),
    (
        SignedFormula(At("i", Diamond(Star(a), p)), minus=True),
        [
            [
                SignedFormula(At("i", p), minus=True),
                SignedFormula(At("i", Diamond(a, Diamond(Star(a), p))), minus=True),
            ]
        ],
    ),
    (
        SignedFormula(At("i", Neg(Box(Star(a), p)))),
        [
            [SignedFormula(At("i", Neg(p)))],
            [
                SignedFormula(At("i", Neg(p)), minus=True),
                SignedFormula(At("i", Neg(Box(a, Box(Star(a), p))))),
            ],
        ],
    ),
    (
        SignedFormula(At("i", Neg(Box(Star(a), p))), minus=True),
        [
            [
                SignedFormula(At("i", Neg(p)), minus=True),
                SignedFormula(At("i", Neg(Box(a, Box(Star(a), p)))), minus=True),
            ]
        ],
    ),
    (
        SignedFormula(At("i", Neg(Diamond(Star(a), p))), minus=True),
        [
            [SignedFormula(At("i", Neg(p)), minus=True)],
            [
                SignedFormula(At("i", Neg(p))),
                SignedFormula(
                    At("i", Neg(Diamond(a, Diamond(Star(a), p)))), minus=True
                ),
            ],
        ],
    ),
    # the two-premise rules
    (
        [SignedFormula(At("i", Box(a, p))), SignedFormula(At("i", Diamond(a, Nominal("j"))))],
        [[SignedFormula(At("j", p))]],
    ),
    (
        [
            SignedFormula(At("i", Neg(Diamond(a, p)))),
            SignedFormula(At("i", Neg(Box(a, Neg(Nominal("j")))))),
        ],
        [[SignedFormula(At("j", Neg(p)))]],
    ),
    (
        [
            SignedFormula(At("i", Diamond(a, p)), minus=True),
            SignedFormula(At("i", Diamond(a, Nominal("j")))),
        ],
        [[SignedFormula(At("j", p), minus=True)]],
    ),
    (
        [
            SignedFormula(At("i", Neg(Box(a, p))), minus=True),
            SignedFormula(At("i", Neg(Box(a, Neg(Nominal("j")))))),
        ],
        [[SignedFormula(At("j", Neg(p)), minus=True)]],
    ),
    (
        [SignedFormula(At("i", Nominal("j"))), SignedFormula(At("i", p))],
        [[SignedFormula(At("j", p))]],
    ),
]


def test_rule_local_soundness():
    rng = random.Random(71)
    sig = Signature(frozenset({"p", "q"}), frozenset({"i", "j"}), frozenset({"a", "b"}))
    hits = 0
    for _ in range(250):
        model = random_model(rng, sig, 3)
        for premises, columns in _RULE_INSTANCES:
            premise_list = premises if isinstance(premises, list) else [premises]
            if all(globally_satisfies(model, sf) for sf in premise_list):
                hits += 1
                assert any(
                    all(globally_satisfies(model, sf) for sf in column)
                    for column in columns
                ), [str(sf) for sf in premise_list]
    assert hits > 100


def test_rule_table_gives_the_listed_columns():
    # The single-premise instances list each rule's conclusion columns in
    # the order the prover adds them.
    checked = 0
    for premises, columns in _RULE_INSTANCES:
        if isinstance(premises, list):
            continue
        _, built, parents = _conclude(premises, lambda: "t0")
        assert built == columns, str(premises)
        assert parents == {}
        checked += 1
    assert checked == 35


# (verdict, steps, branches, fresh nominals, sha256 of the transcript lines
# joined by newlines, serialized countermodel) for fast problems of the
# acceptance gate's consequence corpus, keyed by corpus index, under the
# default limits.  The counts and models were recorded before formula nodes
# cached their hashes, the digests before one rule table replaced the
# per-decoration rule functions; any change to rule names, rule order or the
# loop-check moves them.  Rows 2, 53, 82, 105, 110, 155, 157, 166 and 174
# were re-recorded, with fewer steps, when backjumping began to prune.
_GOLDEN = {
    0: ("refuted", 8, 3, 1,
        "5ea6d6b93be7be38acf010d1b7148bec5d0c47b4dd81fbd03b37c4d3a93b05b0", (
        "worlds: t0\n"
        "name 't0 = t0\n"
        "prop p pos: t0\n"
        "prop p neg:\n"
        "prop q pos:\n"
        "prop q neg:\n"
    )),
    1: ("refuted", 25, 9, 1,
        "f79d4662874869d78b043b4166b885416f9690848bb8623a72a8998ed6b7c5e5", (
        "worlds: i\n"
        "name 'i = i\n"
        "name 't0 = i\n"
        "action a pos:\n"
        "action a neg: (i,i)\n"
    )),
    2: ("refuted", 80, 12, 5,
        "81b6694c88ff22d8878877cd86cc5906ee0ac8b4b8410973fe866d8c5f005af5", (
        "worlds: i t0 t1 t2\n"
        "name 'i = i\n"
        "name 't0 = t0\n"
        "name 't1 = t1\n"
        "name 't2 = t2\n"
        "name 't3 = t1\n"
        "name 't4 = t2\n"
        "action a pos: (i,t1) (t0,t2) (t1,t1) (t2,t2)\n"
        "action a neg: (i,i) (i,t0) (i,t1) (i,t2) (t0,i) (t0,t0) (t0,t1) (t0,t2) "
        "(t1,i) (t1,t0) (t1,t1) (t1,t2) (t2,i) (t2,t0) (t2,t1) (t2,t2)\n"
        "prop p pos: i t1\n"
        "prop p neg: t1 t2\n"
    )),
    15: ("proved", 51, 2, 6,
        "720fbacb12952760b303097744bcb69b8b0966a49a615dfa77bac0801d71a26f", None),
    53: ("refuted", 53, 15, 2,
        "1e9514505d284c001aa7ba613d1eb31166431e9bee3482638c1cd9cc90a9445e", (
        "worlds: i t0 t1\n"
        "name 'i = i\n"
        "name 't0 = t0\n"
        "name 't1 = t1\n"
        "action a pos: (i,t1)\n"
        "action a neg: (i,i) (i,t0) (i,t1) (t0,i) (t0,t0) (t0,t1) (t1,i) (t1,t0) "
        "(t1,t1)\n"
    )),
    66: ("refuted", 24, 6, 4,
        "4e5912db2bbb07a640a4470254490fa23dc9173be3aef8ce4251151e269574be", (
        "worlds: i t1\n"
        "name 'i = i\n"
        "name 't0 = i\n"
        "name 't1 = t1\n"
        "name 't2 = t1\n"
        "name 't3 = t1\n"
        "action a pos: (i,t1) (t1,t1)\n"
        "action a neg: (i,i) (i,t1) (t1,i) (t1,t1)\n"
        "prop p pos:\n"
        "prop p neg:\n"
    )),
    73: ("refuted", 125, 23, 9,
        "708fe25414655f7e9bf43ea2bc061ec9d613972dba4a72139b88ff4e98a83004", (
        "worlds: i t0 t3\n"
        "name 'i = i\n"
        "name 't0 = t0\n"
        "name 't1 = i\n"
        "name 't2 = i\n"
        "name 't3 = t3\n"
        "name 't4 = t3\n"
        "name 't5 = i\n"
        "name 't6 = t3\n"
        "name 't7 = i\n"
        "name 't8 = t3\n"
        "action a pos: (i,i) (i,t3) (t0,i) (t0,t3) (t3,i) (t3,t3)\n"
        "action a neg: (i,i) (i,t0) (i,t3) (t0,i) (t0,t0) (t0,t3) (t3,i) (t3,t0) "
        "(t3,t3)\n"
    )),
    82: ("proved", 15, 2, 1,
        "19b05c3645f38991f7f7074c1ba67bf080efde11886789223630d7f5b1cc2957", None),
    105: ("proved", 325, 76, 7,
        "1e82d63e4ada212efbad993f892679b3e68c1a859ede4ea97493f842449b4e72", None),
    109: ("refuted", 63, 9, 4,
        "57d13a85b4f762437e66bc2c2fcb7cdf32c194f5e3574d10531b36a2eb037727", (
        "worlds: i t0\n"
        "name 'i = i\n"
        "name 't0 = t0\n"
        "name 't1 = i\n"
        "name 't2 = i\n"
        "name 't3 = i\n"
        "action a pos: (i,i) (t0,i)\n"
        "action a neg: (i,i) (i,t0) (t0,i) (t0,t0)\n"
    )),
    110: ("proved", 273, 49, 70,
        "4b310a88e290a428c5ea7f372d83695ffd414ce2660e8ee6916d3e946c3b3945", None),
    114: ("refuted", 31, 5, 3,
        "502899fcfb41e13baf14416a36394046f43a0e66eab5214bdac89ae3d4a2b484", (
        "worlds: i t0 t1\n"
        "name 'i = i\n"
        "name 't0 = t0\n"
        "name 't1 = t1\n"
        "name 't2 = t0\n"
        "action a pos:\n"
        "action a neg: (i,i) (i,t0) (t0,i) (t0,t0) (t0,t1) (t1,i)\n"
        "prop p pos:\n"
        "prop p neg:\n"
    )),
    146: ("refuted", 54, 14, 7,
        "0a4550bd259e7aac78e4482f41df416d69eeedbd6006a42aced2f030b629b6c8", (
        "worlds: i t0 t1 t3\n"
        "name 'i = i\n"
        "name 't0 = t0\n"
        "name 't1 = t1\n"
        "name 't2 = t1\n"
        "name 't3 = t3\n"
        "name 't4 = t1\n"
        "name 't5 = i\n"
        "name 't6 = t1\n"
        "action a pos: (i,t1) (t0,t1) (t1,t1) (t1,t3) (t3,i) (t3,t1)\n"
        "action a neg: (i,i) (i,t0) (i,t1) (i,t3) (t0,i) (t0,t0) (t0,t1) (t0,t3) "
        "(t1,i) (t1,t0) (t1,t1) (t1,t3) (t3,i) (t3,t0) (t3,t1) (t3,t3)\n"
        "prop p pos: i\n"
        "prop p neg:\n"
    )),
    147: ("refuted", 34, 3, 3,
        "19de62cc16e4c261d60709c016a2483b6b49f06e5a44f6c621a850d2fde40bf0", (
        "worlds: t0 t1\n"
        "name 't0 = t0\n"
        "name 't1 = t1\n"
        "name 't2 = t1\n"
        "action a pos:\n"
        "action a neg: (t0,t0) (t1,t0)\n"
        "prop p pos: t1\n"
        "prop p neg: t0 t1\n"
    )),
    154: ("refuted", 45, 10, 6,
        "37ff61c10c921714d5d95ac08908e5505d703f7a7a082e2fec7630bcfe49da48", (
        "worlds: i t0 t1 t4\n"
        "name 'i = i\n"
        "name 't0 = t0\n"
        "name 't1 = t1\n"
        "name 't2 = t1\n"
        "name 't3 = t1\n"
        "name 't4 = t4\n"
        "name 't5 = t1\n"
        "action a pos: (i,t1) (t0,t1) (t1,t1) (t1,t4) (t4,t1)\n"
        "action a neg: (i,i) (i,t0) (i,t1) (i,t4) (t0,i) (t0,t0) (t0,t1) (t0,t4) "
        "(t1,i) (t1,t0) (t1,t1) (t1,t4) (t4,i) (t4,t0) (t4,t1) (t4,t4)\n"
        "prop p pos: t4\n"
        "prop p neg:\n"
    )),
    155: ("refuted", 24, 3, 3,
        "1d0696fdbddc52365c00ccd2e3f61cb1b8a193289b83ffec41f83761bec86b74", (
        "worlds: t0\n"
        "name 't0 = t0\n"
        "action a pos:\n"
        "action a neg: (t0,t0)\n"
        "prop p pos: t0\n"
        "prop p neg:\n"
    )),
    157: ("proved", 85, 16, 4,
        "4ab2fa3ff48a7817b6bbc048b4654019586ebadabd78ddac295447e4b5420b8b", None),
    158: ("refuted", 114, 1, 11,
        "e47bdb4787678143a46e6365d1456a79143711fd37f459e39688ebf8c740496d", (
        "worlds: i t0 t1 t2 t4 t6 t7\n"
        "name 'i = i\n"
        "name 't0 = t0\n"
        "name 't1 = t1\n"
        "name 't10 = t4\n"
        "name 't2 = t2\n"
        "name 't3 = t1\n"
        "name 't4 = t4\n"
        "name 't5 = t2\n"
        "name 't6 = t6\n"
        "name 't7 = t7\n"
        "name 't8 = t7\n"
        "name 't9 = t1\n"
        "action a pos: (i,t1) (t0,t2) (t1,t1) (t1,t2) (t1,t4) (t2,t2) (t2,t6) "
        "(t4,t7) (t6,t7) (t7,t1) (t7,t2) (t7,t4) (t7,t6) (t7,t7)\n"
        "action a neg: (i,i) (i,t0) (i,t1) (i,t2) (i,t4) (i,t6) (i,t7) (t0,i) "
        "(t0,t0) (t0,t1) (t0,t2) (t0,t4) (t0,t6) (t0,t7) (t1,i) (t1,t0) (t1,t1) "
        "(t1,t2) (t1,t4) (t1,t6) (t1,t7) (t2,i) (t2,t0) (t2,t1) (t2,t2) (t2,t4) "
        "(t2,t6) (t2,t7) (t4,i) (t4,t0) (t4,t1) (t4,t2) (t4,t4) (t4,t6) (t4,t7) "
        "(t6,i) (t6,t0) (t6,t1) (t6,t2) (t6,t4) (t6,t6) (t6,t7) (t7,i) (t7,t0) "
        "(t7,t1) (t7,t2) (t7,t4) (t7,t6) (t7,t7)\n"
        "prop p pos: t4 t6 t7\n"
        "prop p neg:\n"
    )),
    166: ("proved", 35, 9, 2,
        "43bb86b22a83ba7a170abb66c838b0f5efa9b76d2421521f3c619004f56d83ad", None),
    174: ("proved", 73, 5, 5,
        "d0e366f2916426e1d0f98af11562f2d24b7181c8d9e0af73162706c5433da9c0", None),
    193: ("proved", 35, 6, 2,
        "af5451223e9d226e8cfb66a67de1567a95f42f3070db5b9524ef025205e03dbf", None),
}


def test_gate_corpus_golden():
    from test_acceptance import _consequence_corpus

    corpus = _consequence_corpus()
    for index, expected in _GOLDEN.items():
        hypotheses, goal = corpus[index]
        result = prove_consequence(hypotheses, goal, transcript=True)
        stats = result.stats
        model = result.countermodel
        observed = (
            result.verdict,
            stats.steps,
            stats.branches,
            stats.fresh_nominals,
            hashlib.sha256("\n".join(result.transcript).encode()).hexdigest(),
            None if model is None else serialize_model(model),
        )
        assert observed == expected, index
