"""Four-valued dynamic hybrid logic toolkit: parsing, finite-model
checking under non-dual paraconsistent semantics, a terminating tableau
prover with countermodel extraction, and a brute-force model-search
oracle for cross-validation.

The public names below are loaded from their home module on first use
(PEP 562), so ``import pdl4`` compiles no engine that is not asked for."""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
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
    "tableau": "Branch BranchStatus CountermodelError ProofStats TableauError "
    "TableauLimits TableauResult classify extract_model initialize prove_consequence "
    "prove_from_roots prove_validity",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(home, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
