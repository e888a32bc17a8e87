"""The benchmark's tracer (perfbench/spans.py) replaces layer functions where
their callers look them up as module attributes.  A refactor that drops or
renames one of those attributes breaks ``perfbench/run.py --trace 1``; this
test catches that in the main suite rather than only in the benchmark's own
self-tests.  Skipped when perfbench is not in the checkout."""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.exists():
        pytest.skip(f"no tracer at {SPANS}")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        pytest.skip(f"cannot import the tracer: {exc}")
    return module


def test_tracer_installs_and_restores_every_site(spans):
    from quadbound import campaign

    sites = [(module, attr) for module, attr, _ in spans._SITES]
    sites += [(module, "as_function") for module in spans._AS_FUNCTION_CALLERS]
    originals = [getattr(module, attr) for module, attr in sites]
    tracer = spans.Tracer()
    with tracer.install():
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
        campaign.run_verify(trials=1, seed=3)
    for (module, attr), original in zip(sites, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    metrics = tracer.metrics()
    for name in ("campaign.run_verify", "expr.eval", "convexity.certify_convex",
                 "rules.lhs_value", "oracle.integrate"):
        assert metrics[f"{name}.calls"][0] > 0, name
    assert metrics["expr.eval.points"][0] > 0
