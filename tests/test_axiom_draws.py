"""Axiom-harness draws: the window decoder against numpy's Generator, and bench-scale pins."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxitop import FAMILIES, check_axioms
from proxitop.proximity import (
    BLOCK,
    DescriptiveSpace,
    _Draws,
    feature_map_from_config,
    random_space,
    sample_region_pairs,
)

# (lo, hi) ranges for integers; the ranges just above 2**31 reject about half
# of all 32-bit draws, and (0, 1) makes no draw at all
_RANGES = [
    (0, 1), (0, 2), (0, 3), (0, 6), (0, 12), (0, 30), (0, 37), (0, 1000),
    (0, 2**31 + 1), (0, 3 * 2**30), (0, 2**32 - 1), (0, 2**32), (2, 4),
]


def _per_point_sample(rng, m):
    # one Generator.random() call per decision, in the order the decoder reads
    # them: the member row and the interior row of a labeled sample of m points
    member, interior = [], []
    for _ in range(m):
        inside = rng.random() < 0.55
        member.append(inside)
        interior.append(inside and rng.random() < 0.6)
    return member, interior


def _assert_decoded(draws, samples):
    # the flags of the decoder's window are the samples' rows, in order; a
    # new window begins
    member, interior = draws.decisions()
    assert member.tolist() == [f for row, _ in samples for f in row]
    assert interior.tolist() == [f for _, row in samples for f in row]


# runs of one call kind, a labeled sample of m points or an integer range;
# a window opens before every other run, so windows hold samples and integer
# draws interleaved, and the longest sequences cross several BLOCK reads
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    runs=st.lists(
        st.tuples(st.sampled_from([1, 2, 7, 70]) | st.sampled_from(_RANGES), st.integers(1, 400)),
        max_size=16,
    ),
)
def test_draws_match_the_numpy_generator(seed, runs):
    draws, rng = _Draws(seed), np.random.default_rng(seed)
    samples = []
    for i, (call, repeat) in enumerate(runs):
        if i % 2 == 0:
            _assert_decoded(draws, samples)
            samples = []
        for _ in range(repeat):
            if isinstance(call, int):
                draws.chain(call)
                samples.append(_per_point_sample(rng, call))
            else:
                assert draws.integers(*call) == rng.integers(*call)
    _assert_decoded(draws, samples)


@pytest.mark.parametrize("m", [1, 30, BLOCK])
def test_sample_labeled_takes_more_than_a_block_at_once(m):
    # one window of six labeled samples, each followed by an integer draw
    draws, rng = _Draws(m), np.random.default_rng(m)
    samples = []
    for _ in range(6):
        draws.chain(m)
        samples.append(_per_point_sample(rng, m))
        assert draws.integers(0, m) == rng.integers(m)
    _assert_decoded(draws, samples)


@pytest.mark.parametrize("lo, hi", [(0, 0), (3, 2), (0, 2**32 + 1)])
def test_draws_refuse_ranges_outside_32_bits(lo, hi):
    with pytest.raises(ValueError, match=r"range must be 1\.\.2\*\*32"):
        _Draws(0).integers(lo, hi)


# -- reports pinned at bench scale ---------------------------------------------


def _grid_space(m):
    # m distinct points of a centred half-unit grid, drawn like the bench's
    # axiom spaces, with even-coords features
    rng = np.random.default_rng(m)
    side = max(6, int(np.ceil(np.sqrt(2 * m))))
    cells = rng.choice(side * side, size=m, replace=False)
    pts = (np.stack([cells // side, cells % side], axis=1) - side // 2).astype(float) * 0.5
    return DescriptiveSpace(pts, feature_map_from_config({"name": "even-coords", "dim": 2}))


def _lopsided(a, b):
    return a is not None and b is not None and tuple(a.points[0]) < tuple(b.points[0])


_RELATIONS = {"always": lambda a, b: True, "never": lambda a, b: False, "lopsided": _lopsided}

# sha256 of json.dumps(report.to_dict(), sort_keys=True) for
# check_axioms(_grid_space(m), family, trials=1000, seed=m + 1, relation=...),
# taken with one Generator call per draw. Injected relations fail on most
# trials, so every draw shows in the trial numbers and witnesses; m = 70
# gives masks wider than a machine word.
BENCH_SCALE_PINS = {
    (30, "Lodato-descriptive", "always"): "a8158eaf051f3ca4d4337e1891b6c81f6692c5fe15aace6d034212d5e4d72ba4",
    (30, "Lodato-descriptive", "never"): "6d21229dfd7a8f863287eecb3af5474a67f6d0fde73116eec856fca7cbb11200",
    (30, "Lodato-descriptive", "lopsided"): "48740315afb6a2d4b8a34cf8e33018f2ca90774df9e4700aaff80b92f2e4e1fa",
    (30, "strong", "always"): "4b3d9e5cf12784b18d3bce888d089bc1964ae4b3e3b26f8236a4dc98b920039a",
    (30, "strong", "never"): "0685a47264684cc3fd02f552d64089f13543be3198ad004bb7f8f6f4db85fc4e",
    (30, "strong", "lopsided"): "967543a4f2da5402f19ae15e58716ef8158c51853a646116b6db1d66fa18c30c",
    (30, "descriptive-strong", "always"): "b39b3c4ea361add4fda6568dfb247f475b9c410276137513f18d57664a7da4a5",
    (30, "descriptive-strong", "never"): "542e966fbf76decde829376c904b1eec5d77bf5e54298d3830b545b57cd69a96",
    (30, "descriptive-strong", "lopsided"): "02dc58f96d4c2a0171b6b1efcd5c025e1f885116620b71b855744203bd65582d",
    (70, "Lodato-descriptive", "always"): "5bca7a18ec6ff76b43c8bef60e3a1ae159830128db52792ddc2a74bb6d8770bc",
    (70, "Lodato-descriptive", "never"): "b720c2aceacd7e272f27aaac39d3227352ec86a6438c16625eb018f12c3833eb",
    (70, "Lodato-descriptive", "lopsided"): "e4fb7dd453dc2b0eb96ae5beb6f4d98270067e28d90d75124bf9b53d1707e46e",
    (70, "strong", "always"): "1513808aa3890341e44e4f803fb55f673c1a9a09dec13959cae76fefca54fd2b",
    (70, "strong", "never"): "cbe88c60f05feefe52cb669f6b52acee539fe05528a4cf8cc82ac881d24dd4e8",
    (70, "strong", "lopsided"): "831fd2c62232a118dfe629a624bde96f8dd426a1153403d2904c723800b85bf4",
    (70, "descriptive-strong", "always"): "d0e263ec52eb0f9902cde64ab48d7ad9a9c3d9a7d6a77e8ce9e0de7ca3ed6dfc",
    (70, "descriptive-strong", "never"): "f8b92ba5ca0ecd63f0127b600e0acec6fac5a09b31c2f09be4d678dd8413a8c7",
    (70, "descriptive-strong", "lopsided"): "178ae6aaa0fc3f3cba454c2c086b430e0197faa39f3519ff7a67898adedcd48f",
}


@pytest.mark.parametrize("case", sorted(BENCH_SCALE_PINS), ids=lambda c: "-".join(map(str, c)))
def test_bench_scale_report_is_pinned(case):
    m, family, relation = case
    rep = check_axioms(_grid_space(m), family, trials=1000, seed=m + 1, relation=_RELATIONS[relation])
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_SCALE_PINS[case]


def test_sample_region_pairs_are_pinned():
    # sha256 over the point and interior bytes of every region, in order
    h = hashlib.sha256()
    for a, b in sample_region_pairs(random_space(3, size=12), 200, seed=5):
        for r in (a, b):
            h.update(r.points.tobytes())
            h.update(r.interior.tobytes())
    assert h.hexdigest() == "0346ef74bebc535f8e87e778a99cef5a45e70a7a20b7709f532dbe9648c4f0cf"


@pytest.mark.parametrize("family", FAMILIES)
def test_numpy_integer_trials_give_a_json_report(family):
    rep = check_axioms(random_space(0, size=4), family, trials=np.int64(3))
    assert json.loads(json.dumps(rep.to_dict()))["trials"] == 3
