"""The parity tool on small slices of its probes: a digest of each kind of
probe agrees with itself, a changed class is a disagreement that names its
check, and digests of different probes are refused."""

import json

import parity
import pytest


def _slice(name):
    """Two checks of the probe ``name``."""
    cases = parity.PROBES[name].cases()
    if name == "lam0_neg":
        return [cases[0]._replace(k=2)]
    if name == "oracle_sweep":
        return [next(argv for argv in cases if argv[argv.index("--k") + 1] == "2")]
    return cases[:2]


@pytest.fixture(scope="module", params=["lam0_neg", "scan", "oracle_sweep"])
def digest(request):
    return parity.digest(request.param, _slice(request.param))


def _write(path, digest):
    path.write_text(json.dumps(digest))
    return str(path)


def test_a_slice_holds_two_checks_of_its_probe(digest):
    import oscoul

    assert len(digest["records"]) == 2
    assert digest["package"] in oscoul.__file__
    assert all("class" in record for record in digest["records"].values())


def test_a_digest_agrees_with_itself(digest, tmp_path, capsys):
    path = _write(tmp_path / "a.json", digest)
    assert parity.compare(path, path) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "agree"


def test_a_changed_class_is_a_disagreement_naming_its_check(digest, tmp_path, capsys):
    changed = json.loads(json.dumps(digest))
    key, record = next(iter(changed["records"].items()))
    record["class"] = "accuracy or order" if record["class"] == "pass" else "pass"
    a, b = _write(tmp_path / "a.json", digest), _write(tmp_path / "b.json", changed)
    assert parity.compare(a, b) == 1
    out = capsys.readouterr().out
    assert key in out and out.splitlines()[-1] == "1 disagreements"


def test_digests_of_different_probes_are_refused(digest, tmp_path, capsys):
    other = dict(digest, probe="pos")
    a, b = _write(tmp_path / "a.json", digest), _write(tmp_path / "b.json", other)
    assert parity.compare(a, b) == 2
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_a_sweep_slice_of_each_picture_agrees_with_itself(tmp_path, capsys):
    # one state of a weighted, a flat and a Euclidean oscillator call, whose
    # argv reads --omega and no --lambda
    cases = parity.PROBES["sweep"].cases()
    picks = [
        next(c for c in cases if pick(c))._replace(k=1)
        for pick in (lambda c: c.model == "nlo", lambda c: c.ordering == "mm",
                     lambda c: c.model == "osc")
    ]
    digest = parity.digest("sweep", picks)
    records = digest["records"]
    assert len(records) == 3
    assert all(r["class"] == "pass" and r["expected"] is None for r in records.values())
    assert "--omega 1" in list(records)[2] and "--lambda" not in list(records)[2]
    path = _write(tmp_path / "a.json", digest)
    assert parity.compare(path, path) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "agree"


@pytest.mark.parametrize(
    "channel,n_r,reason",
    [
        (parity.Channel("nlo", 2, -0.3, 0.5, 0, 5), 0, parity.ITEM1),
        (parity.Channel("clike", 2.5, 0.3, 1.0, 0.0, 2), 1, parity.ITEM1_POS),
        (parity.Channel("pdm-coulomb", 3.0, 0.1, 1.0, 0.0, 5, "mm"), 2, parity.ITEM2),
        (parity.Channel("coulomb", 4.0, 0.0, 1.0, 0.5, 5), 0, parity.ITEM3),
        (parity.Channel("pdm-osc", 2, 1e-10, 1.0, 1, 3, "bd"), 0, parity.ITEM3),
        (parity.Channel("coulomb", 4.0, 0.0, 1.0, 0.5, 5), 1, None),
    ],
    ids=["item1-singular-end", "item1-pos", "item2", "item3-weighted", "item3-flat", "pass"],
)
def test_expected_miss_names_each_item_on_a_known_check(channel, n_r, reason):
    assert parity.expected_miss(channel, n_r) == reason
