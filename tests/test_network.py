import json
import math

import numpy as np
import pytest

import ridgeless as r
from helpers import evaluate_network_reference, random_dataset, random_pl
from ridgeless.network import ReluNetwork, evaluate_network, from_json, to_json
from ridgeless.plfun import canonical, evaluate, structurally_equal, tv_of_derivative


def fd_net():
    d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3)])
    return r.pl_to_network(r.connect_the_dots(d))


class TestCost:
    def test_zero_units(self):
        assert r.cost(ReluNetwork(a=2.0, b=1.0, units=())) == 0.0

    def test_single_balanced_unit(self):
        assert r.cost(ReluNetwork(a=0.0, b=0.0, units=((1.0, 0.0, 1.0),))) == 1.0

    def test_fixture_net(self):
        assert r.cost(fd_net()) == 2.0


class TestSynthesis:
    def test_relu(self):
        relu = canonical((0.0, 0.0), 0.0, [(0.0, 1.0)])
        net = r.pl_to_network(relu)
        assert net.units.tolist() == [[1.0, 0.0, 1.0]]
        assert net.a == 0.0 and net.b == 0.0

    def test_affine(self):
        line = canonical((0.0, 4.0), -3.0, [])
        net = r.pl_to_network(line)
        assert net.units.shape == (0, 3) and net.a == -3.0 and net.b == 4.0

    def test_fixture_units(self):
        net = fd_net()
        assert net.units.tolist() == [[1.0, -1.0, 1.0], [1.0, -2.0, 1.0]]
        assert net.a == 0.0 and net.b == 0.0

    def test_negative_jump_unit_sign(self):
        f = canonical((0.0, 0.0), 1.0, [(2.0, -4.0)])
        ((w1, b1, w2),) = r.pl_to_network(f).units
        assert w1 == 2.0 and b1 == -4.0 and w2 == -2.0

    def test_ragged_units_rejected(self):
        for units in ([[1, 2, 3], [1, 2]], [[1, 2]], [[1, 2, 3, 4]], [1, 2, 3]):
            with pytest.raises(ValueError, match=r"units must be rows \(w1, b1, w2\)"):
                ReluNetwork(0.0, 0.0, units)

    def test_units_are_read_only(self):
        units = r.pl_to_network(canonical((0.0, 0.0), 1.0, [(2.0, -4.0)])).units
        with pytest.raises(ValueError, match="read-only"):
            units[0, 0] = 5.0


class TestExtraction:
    def test_round_trip_fixture(self):
        d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3)])
        f = r.connect_the_dots(d)
        assert structurally_equal(r.network_to_pl(r.pl_to_network(f)), f)

    def test_negative_first_layer_weight(self):
        net = ReluNetwork(a=0.0, b=0.0, units=((-1.0, 0.0, 1.0),))  # max(0, -x)
        f = r.network_to_pl(net)
        assert f.left_slope == -1.0
        ((xi, c),) = f.breakpoints
        assert xi == 0.0 and c == 1.0

    def test_cancelling_units_merge_to_affine(self):
        net = ReluNetwork(a=1.0, b=0.5, units=((1.0, -1.0, 2.0), (1.0, -1.0, -2.0)))
        f = r.network_to_pl(net)
        assert f.breakpoints == ()
        assert evaluate(f, 10.0) == 10.5

    def test_dead_unit_folds_into_bias(self):
        net = ReluNetwork(a=1.0, b=0.0, units=((0.0, 3.0, 2.0),))  # constant 6
        f = r.network_to_pl(net)
        assert f.breakpoints == ()
        assert evaluate(f, 0.0) == 6.0 and evaluate(f, 1.0) == 7.0

    def test_round_trip_random_members(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ch = r.characterize(random_dataset(rng))
            f = r.sample_member(ch, 5)
            back = r.network_to_pl(r.pl_to_network(f))
            assert structurally_equal(back, f, rtol=1e-12)


class TestAnchor:
    """network_to_pl's anchor value and evaluate_network are the unit-by-unit sum, bit for bit."""

    @staticmethod
    def random_net(rng, k: int) -> ReluNetwork:
        w1 = rng.normal(size=k) * rng.choice([0.0, 1.0], size=k, p=[0.2, 0.8])  # dead units too
        b1, w2 = rng.normal(size=k), rng.normal(size=k)
        units = tuple(zip(w1.tolist(), b1.tolist(), w2.tolist()))
        return ReluNetwork(a=float(rng.normal()), b=float(rng.normal()), units=units)

    def test_equals_evaluate_network(self):
        rng = np.random.default_rng(17)
        nets = [self.random_net(rng, int(k)) for k in rng.integers(0, 20, size=300)]
        nets += [self.random_net(rng, 10**4), ReluNetwork(a=-2.0, b=0.5, units=())]
        signs = np.sign([w1 for net in nets for w1, _, _ in net.units])
        assert {-1.0, 0.0, 1.0} <= set(signs.tolist())
        grid = np.linspace(-3.0, 3.0, 257)
        for net in nets:
            at0 = evaluate_network_reference(net, 0.0)
            assert r.network_to_pl(net).anchor[1].hex() == at0.hex(), net.units
            for x in (0.0, -0.7, np.array(1.3)):
                assert evaluate_network(net, x).hex() == evaluate_network_reference(net, x).hex()
            got, want = evaluate_network(net, grid), evaluate_network_reference(net, grid)
            assert got.shape == want.shape == grid.shape
            assert list(map(float.hex, got.tolist())) == list(map(float.hex, want.tolist()))


class TestEvaluateNetwork:
    def test_pure_linear(self):
        assert r.evaluate_network(ReluNetwork(a=2.0, b=1.0, units=()), 3.0) == 7.0

    def test_relu_unit(self):
        net = ReluNetwork(a=0.0, b=0.0, units=((1.0, 0.0, 1.0),))
        assert r.evaluate_network(net, -1.0) == 0.0

    def test_fixture_at_half_integer(self):
        assert r.evaluate_network(fd_net(), 2.5) == 2.0

    def test_vectorized(self):
        out = r.evaluate_network(fd_net(), np.array([0.0, 1.5, 3.0]))
        assert np.array_equal(out, [0.0, 0.5, 3.0])


class TestRealizationGuarantees:
    def test_exact_realization_on_grid(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            d = random_dataset(rng)
            ch = r.characterize(d)
            f = r.sample_member(ch, 21)
            net = r.pl_to_network(f)
            grid = np.linspace(d.xs[0] - 1.0, d.xs[-1] + 1.0, 1000)
            fx = evaluate(f, grid)
            zx = r.evaluate_network(net, grid)
            assert np.max(np.abs(zx - fx)) <= 1e-9 * (1.0 + np.max(np.abs(fx)))

    def test_cost_equals_tv(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            f = random_pl(rng)
            net = r.pl_to_network(f)
            tv = tv_of_derivative(f)
            assert r.cost(net) == pytest.approx(tv, rel=1e-12, abs=1e-15)

    def test_cost_equals_family_minimum(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            ch = r.characterize(random_dataset(rng))
            f = r.sample_member(ch, 33)
            assert r.cost(r.pl_to_network(f)) == pytest.approx(
                ch.minimal_tv, rel=1e-12, abs=1e-12)

    def test_unbalanced_nets_cost_more(self):
        """Rescaling a unit keeps the function but raises the cost."""
        rng = np.random.default_rng(18)
        for _ in range(20):
            ch = r.characterize(random_dataset(rng))
            f = r.sample_member(ch, 44)
            net = r.pl_to_network(f)
            lam = rng.uniform(1.5, 4.0, size=len(net.units))
            units = tuple(
                (w1 * l, b1 * l, w2 / l) for (w1, b1, w2), l in zip(net.units, lam)
            )
            # pad with a cancelling pair: function unchanged, cost strictly up
            units += ((1.0, 0.0, 0.5), (1.0, 0.0, -0.5))
            skewed = ReluNetwork(a=net.a, b=net.b, units=units)
            grid = np.linspace(ch.dataset.xs[0] - 1, ch.dataset.xs[-1] + 1, 200)
            assert np.allclose(r.evaluate_network(skewed, grid), evaluate(f, grid),
                               rtol=0, atol=1e-9)
            extracted = r.network_to_pl(skewed)
            tv = tv_of_derivative(extracted)
            assert r.cost(skewed) >= tv - 1e-9  # AM-GM per unit
            assert tv >= ch.minimal_tv - 1e-9 * max(1.0, ch.minimal_tv)
            assert r.cost(skewed) > r.cost(net)


class TestJson:
    def test_round_trip(self):
        net = fd_net()
        again = from_json(to_json(net))
        assert (again.a, again.b) == (net.a, net.b) and np.array_equal(again.units, net.units)

    def test_wire_format(self):
        net = ReluNetwork(a=1.0, b=-2.0, units=((0.5, 0.25, -4.0),))
        assert json.loads(to_json(net)) == {
            "a": 1.0, "b": -2.0, "units": [[0.5, 0.25, -4.0]]}

    def test_imports_negative_w1(self):
        net = from_json('{"a": 0, "b": 0, "units": [[-2, 1, 3]]}')
        assert net.units.tolist() == [[-2.0, 1.0, 3.0]]
        assert r.evaluate_network(net, 0.0) == 3.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ReluNetwork(a=math.inf, b=0.0, units=())
