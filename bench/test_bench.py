"""Self-tests of the benchmark: its checks, its tracer, and its declared metrics.

They run on windows far smaller than the benchmark's so that they stay quick.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import iwa.distributions as distributions
import iwa.scalars as scalars
import iwa.series as series
import iwa.signed as signed
import run
import spans
from iwa.distributions import Distribution
from iwa.series import IwasawaElement, Series
from iwa.signed import SignedQuadruple
from workloads import WORKLOADS, GapReject, LogIdentity, Roundtrip, observing

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def tampered(elem: IwasawaElement) -> IwasawaElement:
    """The element with 1 added to the constant term of its first component."""
    comps = list(elem.components)
    comps[0] = comps[0] + Series.constant(1, elem.prec)
    return IwasawaElement(elem.prec, comps, elem.u)


def shallow(elem: IwasawaElement, digits: int = 3) -> IwasawaElement:
    """The element with every coefficient cut to absolute precision
    ``digits``: still equal to the seed there, but below the quotient floor."""
    return IwasawaElement(elem.prec, [c.reduce_abs(digits) for c in elem.components], elem.u)


def one_op(workload, seed=1):
    workload.warm()
    workload.build_inputs()
    case = workload.cases[0]
    inp = workload.prepare(case, random.Random(seed))
    return case, inp, workload.op(case, inp)


class TestChecks:
    def test_roundtrip_accepts_the_seed_and_rejects_a_tampered_quotient(self):
        w = Roundtrip(cases=[(5, 0, "theoremA", 16)])
        case, s, out = one_op(w)
        assert w.check(case, s, out)[0] == []
        bad = SignedQuadruple(out.bf_plus, out.bf_minus, tampered(out.bf_dot), out.bf_circ)
        problems, _ = w.check(case, s, bad)
        assert problems == ["dot: factor_signed did not return the seed"]

    def test_roundtrip_rejects_a_quotient_below_the_digit_floor(self):
        w = Roundtrip(cases=[(5, 0, "theoremA", 16)])
        case, s, out = one_op(w)
        bad = SignedQuadruple(out.bf_plus, out.bf_minus, shallow(out.bf_dot), out.bf_circ)
        problems, digits = w.check(case, s, bad)
        assert digits["dot"] == 3
        assert problems == ["dot: 3 digits kept, below the floor of 5"]

    def test_roundtrip_exempts_only_the_known_lost_digits(self):
        w = Roundtrip()
        assert w.digit_floor((5, 1, "lemmaFactorisation", 64), "dot") is None
        assert w.digit_floor((5, 1, "lemmaFactorisation", 64), "plus") == 5
        assert w.digit_floor((5, 1, "theoremA", 64), "circ") == 5

    def test_gap_check_rejects_a_flipped_verdict_and_a_tampered_quotient(self):
        w = GapReject(cases=[(0, 16, False)])
        case, inp, (report, seen) = one_op(w)
        assert w.check(case, inp, (report, seen))[0] == []

        rows = [dict(r) for r in report["rows"]]
        minus = next(i for i, r in enumerate(rows) if r["sign"] == "minus")
        rows[minus]["ok"] = True
        problems, _ = w.check(case, inp, ({**report, "rows": rows}, seen))
        assert "minus row was not rejected" in problems
        assert "minus: verdict disagrees with the division" in problems

        dot = next(i for i, r in enumerate(report["rows"]) if r["sign"] == "dot")
        forged = list(seen)
        forged[dot] = Distribution(tampered(seen[dot].body), seen[dot].order_tag)
        problems, _ = w.check(case, inp, (report, forged))
        assert problems == ["dot: quotient is not the seed"]

        forged[dot] = Distribution(shallow(seen[dot].body), seen[dot].order_tag)
        problems, _ = w.check(case, inp, (report, forged))
        assert problems == ["dot: 3 digits kept, below the floor of 5"]

    def test_log_identity_check_rejects_a_shallow_confirmation(self):
        w = LogIdentity(cases=[(5, 1, 16)])
        case, inp, rep = one_op(w)
        assert w.check(case, inp, rep) == ([], {"zero_confirmed_to": 20})
        problems, _ = w.check(case, inp, {**rep, "zero_confirmed_to": 19})
        assert problems == ["zero_confirmed_to: 19 digits kept, below the floor of 20"]


class TestTracer:
    BOUND = (
        (signed, "divide_exact"),
        (signed, "factor_signed"),
        (distributions, "divide_exact"),
        (series, "divide_series"),
        (series, "_k_mul"),
        (series.Series, "__mul__"),
        (series.Series, "__rmul__"),
        (scalars.PadicScalar, "__init__"),
        (scalars, "teichmuller"),
    )

    def test_wrappers_are_removed(self):
        before = [getattr(owner, attr) for owner, attr in self.BOUND]
        tracer = spans.Tracer()
        with tracer.installed():
            during = [getattr(owner, attr) for owner, attr in self.BOUND]
            with observing(signed, "divide_exact"):
                pass
        for (owner, attr), old, new in zip(self.BOUND, before, during):
            assert new is not old, f"{attr} was not wrapped"
            assert getattr(owner, attr) is old, f"{attr} was not restored"

    def test_spans_nest_and_self_time_excludes_children(self):
        tracer = spans.Tracer()
        w = Roundtrip(cases=[(5, 0, "theoremA", 16)])
        w.warm()
        s = w.prepare(w.cases[0], random.Random(3))
        with tracer.installed(), tracer.span("op"):
            w.op(w.cases[0], s)
        by_id = {sp.sid: sp for sp in tracer.spans}
        for sp in tracer.spans:
            if sp.parent is not None:
                parent = by_id[sp.parent]
                assert parent.start <= sp.start <= sp.end <= parent.end
        summary = tracer.summary()
        assert summary["op.calls"] == 1
        assert summary["distributions.divide_exact.calls"] == 4
        assert summary["series.divide_series.self_s"] <= summary["series.divide_series.total_s"]
        assert summary["op.self_s"] < summary["op.total_s"]

    @pytest.mark.parametrize(
        "workload",
        [
            Roundtrip(cases=[(5, 0, "theoremA", 16), (5, 1, "lemmaFactorisation", 16)]),
            LogIdentity(cases=[(5, 1, 16)]),
        ],
        ids=lambda w: w.name,
    )
    def test_layer_counts_repeat_across_traced_runs(self, workload):
        def counts():
            workload.warm()
            tracers = [spans.Tracer() for _ in workload.cases]
            ops, _ = run.run_ops(workload, random.Random(5), 0, tracers)
            metrics, _ = run.per_layer(ops, workload, tracers, spans.Tracer())
            return {
                name: value
                for name, value in metrics.items()
                if run.PER_LAYER[name].startswith("count")
            }

        first = counts()
        assert first["distributions.divide_exact.calls"] > 0 or first[
            "pollack.pollack_log.calls"
        ] > 0
        assert counts() == first


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads(BENCHMARK.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
