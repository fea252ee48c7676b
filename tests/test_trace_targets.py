"""The bench's traced rounds wrap the package functions they can find.

``bench/tracing.py`` looks its targets up by name and reports a name it
cannot find as absent; its rows for that name then read 0.  This test
pins the set of absent names, so that a rename which blanks a traced
row fails here instead of passing unseen.  Each expected name says
which ROADMAP item hooks it again.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPECTED_ABSENT = {
    # ROADMAP item 5 (benchmark v2) wraps ``Evaluator.charge``, which
    # replaced ``Evaluator.evaluate`` and sees every decode.
    "budget.evaluate",
    # ROADMAP item 5 times the renamed ``*_moves`` neighbourhoods as
    # generators, which replaced the ``*_search`` functions.
    "localsearch.swap",
    "localsearch.mirror",
    "localsearch.farey",
    "localsearch.nelder_mead",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bench_finds_every_target_but_the_listed_ones():
    tracing = _tracing()
    with tracing.instrument(tracing.Tracer()) as absent:
        assert set(absent) == EXPECTED_ABSENT
        assert len(absent) == len(EXPECTED_ABSENT)
