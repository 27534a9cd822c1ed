"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import inspect
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _bindings():
    """Every attribute install() may touch: module globals and the
    dictionaries of the three wrapped classes."""
    from ksalgebra.csa import GaloisModuleAlgebra, StructureAlgebra
    from ksalgebra.exactfield import FieldElem

    owners = tr.ksalgebra_modules() + [StructureAlgebra, GaloisModuleAlgebra, FieldElem]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_install_wraps_and_uninstall_restores_every_original():
    before = _bindings()
    uninstall = tr.install(tr.Tracer())
    try:
        during = _bindings()
        changed = [k for k in before if during[k] is not before[k]]
        assert len(changed) > 100
        assert all(inspect.isfunction(during[k]) for k in changed)
    finally:
        uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_report_under_tracing_is_byte_identical():
    plan = wl.make_plan("family", 0)
    i = next(i for i in range(9) if plan.label(i) == "2,1,1")
    plain = plan.render(plan.run(i))
    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    try:
        traced = plan.render(plan.run(i))
    finally:
        uninstall()
    assert traced == plain
    assert wl.sha256(plain) == wl.load_digests()["family"]["2,1,1"]
    assert tracer.counts["exactfield.mul_n.q2"] > 0
    assert tracer.calls_of("csa.build_ZG") == 1


def test_input_generation_is_a_pure_function_of_the_seed():
    assert wl.symbol_inputs(7, 64) == wl.symbol_inputs(7, 64)
    assert wl.symbol_inputs(7, 64) != wl.symbol_inputs(8, 64)
    for name in ("family", "rank4"):
        a, b, c = wl.make_plan(name, 3), wl.make_plan(name, 3), wl.make_plan(name, 4)
        labels = lambda p: [p.label(i) for i in range(40)]  # noqa: E731
        assert labels(a) == labels(b)
        assert labels(a) != labels(c)
    assert wl.make_plan("cubic", 1).form == wl.make_plan("cubic", 2).form


def test_epochs_visit_the_whole_pool():
    order = wl.epoch_order(len(wl.FAMILY_POOL), 5, epochs=3)
    n = len(wl.FAMILY_POOL)
    for e in range(3):
        assert sorted(order[e * n:(e + 1) * n]) == list(range(n))


def test_every_pool_input_has_a_pinned_digest():
    digests = wl.load_digests()
    assert set(digests["family"]) == {wl.family_label(t) for t in wl.FAMILY_POOL}
    assert set(digests["rank4"]) == {wl.rank4_label(e) for e in wl.RANK4_POOL}
    assert set(digests["cubic"]) == {"cyclic_cubic"}
    assert {"2,1,1", "5,1,2", "13,2,3"} <= set(digests["family"])


def test_wrong_pinned_digest_is_a_failed_operation():
    plan = wl.make_plan("family", 0)
    label = plan.label(0)
    wrong = {"family": {label: "0" * 64}}
    _, failure = wl.run_checked(plan, 0, wrong)
    assert failure is not None and label in failure
    _, ok = wl.run_checked(plan, 0, wl.load_digests())
    assert ok is None


def test_domain_error_is_a_failed_operation_naming_its_input():
    from ksalgebra.errors import RouteDisagreement

    class Broken(wl.Plan):
        def label(self, i):
            return f"input-{i}"

        def run(self, i):
            raise RouteDisagreement("routes disagree")

    _, failure = wl.run_checked(Broken("family", 0), 4, {})
    assert "input-4" in failure and "RouteDisagreement" in failure


def test_symbol_checks_pass_and_catch_a_wrong_ramification_set():
    plan = wl.make_plan("symbols", 2)
    for i in range(50):
        assert plan.run(i) == [], plan.label(i)
    br = plan.brauer
    a, b, a2, support = plan.inputs[0]
    s = br.rational_symbol(a, b)
    ram = br.ramification(s)
    wrong = br.RamificationSet(ram.places ^ {2, br.INF})
    problems = wl.check_symbol(br, a, b, a2, support, wrong, br.reduced_symbol(s), br.is_definite(s))
    assert any("ramification" in p for p in problems)


def test_traced_counts_repeat_exactly():
    plan = wl.make_plan("symbols", 9)

    def counts():
        tracer = tr.Tracer()
        uninstall = tr.install(tracer)
        try:
            for i in range(40):
                plan.run(i)
        finally:
            uninstall()
        return run.layer_metrics(tracer), tracer.counts

    (m1, c1), (m2, c2) = counts(), counts()
    assert c1 == c2
    assert {k: v for k, v in m1.items() if not k.endswith(("_s", "_us"))} == {
        k: v for k, v in m2.items() if not k.endswith(("_s", "_us"))
    }
    assert m1["brauer.hilbert_n"] > 0


def test_speed_probe_samples_and_restores_the_alarm():
    import signal

    def before_handler(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, before_handler)
    try:
        with speed.SpeedProbe() as probe:
            mark = probe.mark()
            t_end = time.perf_counter() + 0.1
            while time.perf_counter() < t_end:
                sum(range(1000))
            busy = probe.elapsed(mark)
            factor = probe.factor(mark)
        assert len(probe.samples) >= speed.MIN_PROBES
        assert 0 < busy < 0.1 and abs(busy + probe.spent - 0.1) < 0.02
        expected = speed.NOMINAL_S * len(probe.samples) / sum(probe.samples)
        assert factor == pytest.approx(expected)
        assert signal.getsignal(signal.SIGALRM) is before_handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)


def test_factor_runs_missing_probes_in_line():
    probe = speed.SpeedProbe()  # timer not started
    mark = probe.mark()
    assert probe.factor(mark) > 0
    assert len(probe.samples) == speed.MIN_PROBES


def test_window_runs_whole_epochs_of_the_same_inputs():
    class Counting(wl.Plan):
        epoch = 3

        def label(self, i):
            return str(i % 3)

        def run(self, i):
            return None

        def check(self, i, out, digests, render=None):
            return None

    with speed.SpeedProbe() as probe:
        w = run.measure_window(Counting("family", 0), 0.05, {}, probe)
    assert len(w["ref"]) % 3 == 0 and len(w["ref"]) == len(w["wall"])
    assert sorted(set(w["labels"])) == ["0", "1", "2"]
    assert w["labels"].count("0") == w["labels"].count("2")
    assert w["window_s"] >= 0.05


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (20, None), (40, 75), (100, 90), (1000, 99), (20000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    tail = run.tail_percentile([float(i) for i in range(n)])
    if expected is None:
        assert tail is None
    else:
        assert tail[0] == expected
        assert n - tail[1] - 1 >= 10
