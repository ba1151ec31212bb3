"""The acceptance gate's prover inputs, taken from the gate itself
(`tests/test_acceptance.py`), plus the benchmark's one extra problem."""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from tests.test_acceptance import (  # noqa: E402,F401
    BLOCKING_FAMILY,
    _consequence_corpus as consequence_corpus,
    _non_validity_set as non_validity_set,
    _validity_set as validity_set,
)

PROBLEM_6 = 6
# A consequence that holds (a starred test is reflexive) but whose
# refutation search extracts a model that fails a root.
REPRODUCER = (["<(<a>p)?*>p"], "p")
