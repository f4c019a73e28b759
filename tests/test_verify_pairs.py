"""``make verify-pairs``' verdict on the lane outputs of two checkouts."""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
LANE = "== lane {}\nscenario 0 ok\n{}\nall invariants held\n"


def _lanes(verify_pairs, *lanes) -> dict:
    return verify_pairs.lanes("campaign header\n" + "".join(
        LANE.format(name, detail) for name, detail in lanes))


def test_new_lane_is_listed_apart_and_the_rest_still_gate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    verify_pairs = importlib.import_module("verify_pairs")
    parent = _lanes(verify_pairs, ("default", "hops 10"), ("ports", "hops 7"))

    report, status = verify_pairs.compare(
        parent, _lanes(verify_pairs, ("default", "hops 10"),
                       ("ports", "hops 7"), ("ghost", "hops 3")))
    assert status == 0
    assert [line.split() for line in report] == [
        ["default", "identical", "(3", "lines)"],
        ["ports", "identical", "(3", "lines)"],
        ["ghost", "new,", "not", "compared", "(3", "lines)"],
        ["verify-pairs:", "every", "lane", "identical"]]

    report, status = verify_pairs.compare(
        parent, _lanes(verify_pairs, ("default", "hops 10"),
                       ("ports", "hops 8"), ("ghost", "hops 3")))
    assert status == 1
    assert report[1].split()[:5] == ["ports", "DIFFERENT", "at", "line", "2:"]
    assert report[-1] == "\nverify-pairs: 1 of 2 lanes differ"

    report, status = verify_pairs.compare(
        parent, _lanes(verify_pairs, ("default", "hops 10")))
    assert status == 1
    assert report[1].split() == ["ports", "MISSING", "on", "the", "change",
                                 "side"]

    # A parent that printed no lane at all proves nothing.
    assert verify_pairs.compare({}, parent)[1] == 1
