import numpy as np
import pytest

from tokengate.checks import check_policies
from tokengate.gates import (
    Buffer,
    DeltaGate,
    Gate,
    Policy,
    StgtGate,
    threshold_indices,
    top_r_indices,
)


class TestPolicy:
    @pytest.mark.parametrize("r", [2.5, True])
    def test_budget_must_be_an_integer(self, r):
        with pytest.raises(ValueError, match="budget"):
            Policy("top_r", r=r)
        policy = Policy("top_r", r=4)
        with pytest.raises(ValueError, match="budget"):
            policy.set_budget(r)
        assert policy.r == 4

    def test_numpy_integer_budget_accepted(self):
        policy = Policy("top_r", r=np.int64(3))
        policy.set_budget(np.int32(5))
        assert policy.r == 5

    @pytest.mark.parametrize("kind, h", [("top_r", -0.5), ("top_r", "x"),
                                         ("top_r", True), ("threshold", "x"),
                                         ("threshold", True)])
    def test_h_is_checked_under_either_kind(self, kind, h):
        with pytest.raises(ValueError, match="h must be a nonnegative number"):
            Policy(kind, r=4, h=h)

    @pytest.mark.parametrize("h", [float("nan"), -0.5])
    def test_threshold_must_be_a_nonnegative_number(self, h):
        # norms > nan is always False, so a NaN threshold would select nothing
        with pytest.raises(ValueError, match="nonnegative"):
            Policy("threshold", h=h)
        with pytest.raises(ValueError, match="nonnegative"):
            threshold_indices([1.0, 2.0], h)


class TestTopR:
    def test_hand_case(self):
        np.testing.assert_array_equal(top_r_indices([0.0, 1.0, 2.0, 0.0], 2),
                                      [1, 2])

    def test_tie_break_by_index(self):
        np.testing.assert_array_equal(top_r_indices([1.0, 1.0, 1.0], 2), [0, 1])

    def test_saturation(self):
        np.testing.assert_array_equal(top_r_indices([3.0, 1.0], 5), [0, 1])

    def test_r_zero(self):
        assert top_r_indices([1.0, 2.0], 0).size == 0

    def test_against_oracle(self):
        # ties, r = 0 and r > n included; the sweep also covers threshold
        assert check_policies(300, seed=0)[1]


class TestThreshold:
    def test_hand_case(self):
        np.testing.assert_array_equal(threshold_indices([0.0, 1.0, 2.0], 0.5),
                                      [1, 2])

    def test_strict_exceedance_at_zero(self):
        assert threshold_indices([0.0, 0.0], 0.0).size == 0

    def test_against_oracle(self):
        # norms equal to the threshold included; the sweep also covers top_r
        assert check_policies(300, seed=1)[1]


def test_fresh_stores_are_zero():
    stores = [cls(3, 2, Policy()).u for cls in (Gate, DeltaGate, StgtGate)]
    for store in stores + [Buffer(3, 2).b]:
        assert store.dtype == np.float64 and store.flags.c_contiguous
        np.testing.assert_array_equal(store, np.zeros((3, 2)))


class TestGate:
    def test_first_call_selects_all(self):
        gate = Gate(3, 2, Policy("top_r", r=1))
        c = np.arange(6.0).reshape(3, 2)
        idx, picked = gate(c)
        np.testing.assert_array_equal(idx, [0, 1, 2])
        np.testing.assert_array_equal(picked, c)
        np.testing.assert_array_equal(gate.u, c)

    @pytest.mark.parametrize("cls", [Gate, DeltaGate, StgtGate])
    def test_first_call_takes_zero_rows_too(self, cls):
        # the zero rows equal the zero reference, yet the first call takes them
        gate = cls(3, 2, Policy("top_r", r=1))
        c = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(gate(c)[0], [0, 1, 2])
        np.testing.assert_array_equal(gate.u, c)

    # the min(r, 3) largest of three changes, the tie of 1 and 4 by index
    @pytest.mark.parametrize("r, want", [(1, [3]), (2, [1, 3]), (3, [1, 3, 4]),
                                         (5, [1, 3, 4])])
    def test_never_picks_an_unchanged_token(self, r, want):
        gate = Gate(5, 2, Policy("top_r", r=r))
        u0 = np.arange(10.0).reshape(5, 2)
        gate(u0)
        c = u0.copy()
        c[[1, 3, 4]] += [[0.0, 1.0], [3.0, 0.0], [0.0, 1.0]]  # norms 1, 3, 1
        idx, picked = gate(c)
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(picked, c[idx])
        np.testing.assert_array_equal(gate.u[[0, 2]], u0[[0, 2]])

    def test_worked_example(self):
        gate = Gate(4, 2, Policy("top_r", r=2))
        u0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        gate(u0)  # the first call establishes the references
        c = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        idx, picked = gate(c)
        np.testing.assert_array_equal(idx, [1, 2])
        np.testing.assert_array_equal(picked, [[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(
            gate.u, [[0.0, 0.0], [2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])

    def test_no_change_selects_by_tie_break(self):
        # only the stgt gate fills its budget with unchanged tokens, by
        # index; a plain gate and a delta gate below a full budget take none
        c = np.ones((3, 2))
        for cls, want in ((Gate, []), (DeltaGate, []), (StgtGate, [0])):
            gate = cls(3, 2, Policy("top_r", r=1))
            gate(c)
            np.testing.assert_array_equal(gate(c)[0], want)
            np.testing.assert_array_equal(gate.u, c)

    # two changed tokens of four; an stgt gate fills its budget with
    # unchanged ones by index, a delta gate only at a budget of every token
    @pytest.mark.parametrize("r, want", [(0, []), (2, [2, 3]), (3, [0, 2, 3]),
                                         (6, [0, 1, 2, 3]), (4, [0, 1, 2, 3])])
    @pytest.mark.parametrize("cls", [DeltaGate, StgtGate])
    def test_budget_filling_gates_take_min_r_n(self, cls, r, want):
        gate = cls(4, 1, Policy("top_r", r=r))
        gate(np.zeros((4, 1)))
        idx = gate(np.array([[0.0], [0.0], [1.0], [2.0]]))[0]
        if cls is DeltaGate and r < 4:
            want = [i for i in want if i in (2, 3)]   # the changed tokens only
        np.testing.assert_array_equal(idx, want)

    def test_reference_consistency(self):
        rng = np.random.default_rng(2)
        gate = Gate(8, 4, Policy("top_r", r=3))
        gate(rng.normal(size=(8, 4)))
        for _ in range(5):
            before = gate.u.copy()
            c = rng.normal(size=(8, 4))
            idx, _ = gate(c)
            for i in range(8):
                if i in idx:
                    np.testing.assert_array_equal(gate.u[i], c[i])
                else:
                    np.testing.assert_array_equal(gate.u[i], before[i])

    def test_error_accumulates_linearly(self):
        # a token that is never selected accumulates t * delta worth of error
        delta = np.array([0.3, -0.4])  # norm 0.5
        gate = Gate(2, 2, Policy("top_r", r=1))
        base = np.array([[100.0, 100.0], [0.0, 0.0]])
        gate(base)
        for t in range(1, 6):
            c = base.copy()
            c[1] += t * delta  # token 0 has huge reference, stays selected? no:
            c[0] += t * np.array([10.0, 0.0])  # keep token 0 the top pick
            gate(c)
            residual = np.linalg.norm(c[1] - gate.u[1])
            np.testing.assert_allclose(residual, t * 0.5, rtol=1e-12)

    def test_shape_mismatch(self):
        gate = Gate(3, 2, Policy("top_r", r=1))
        gate(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            gate(np.zeros((4, 2)))

    def test_determinism(self):
        def run():
            gate = Gate(5, 3, Policy("top_r", r=2))
            sequence = []
            rng = np.random.default_rng(7)
            for _ in range(4):
                idx, _ = gate(rng.normal(size=(5, 3)))
                sequence.append(idx.tolist())
            return sequence

        assert run() == run()


class TestDeltaGate:
    def test_worked_example(self):
        gate = DeltaGate(2, 2, Policy("top_r", r=1))
        gate(np.array([[0.0, 0.0], [1.0, 0.0]]))
        idx, u, changes = gate(np.array([[0.0, 0.0], [3.0, 0.0]]))
        np.testing.assert_array_equal(idx, [1])
        np.testing.assert_array_equal(u, [[0.0, 0.0], [3.0, 0.0]])
        np.testing.assert_array_equal(changes, [[2.0, 0.0]])

    def test_first_call_reports_input_as_change(self):
        gate = DeltaGate(2, 2, Policy("top_r", r=1))
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        idx, u, changes = gate(c)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(u, c)
        np.testing.assert_array_equal(changes, c)

    def test_no_change_zero_deltas(self):
        # below a full budget nothing is picked; at one, every token, with
        # zero changes
        for r, want in ((2, []), (3, [0, 1, 2])):
            gate = DeltaGate(3, 2, Policy("top_r", r=r))
            c = np.arange(6.0).reshape(3, 2)
            gate(c)
            idx, _, changes = gate(c)
            np.testing.assert_array_equal(idx, want)
            np.testing.assert_array_equal(changes, np.zeros((len(want), 2)))

    def test_forced_full(self):
        gate = DeltaGate(3, 2, Policy("top_r", r=1))
        c0 = np.zeros((3, 2))
        gate(c0)
        c1 = np.arange(6.0).reshape(3, 2)
        changes = gate.forced(c1, np.arange(3))
        np.testing.assert_array_equal(gate.u, c1)
        np.testing.assert_array_equal(changes, c1 - c0)

    def test_forced_empty(self):
        gate = DeltaGate(3, 2, Policy("top_r", r=1))
        c0 = np.ones((3, 2))
        gate(c0)
        changes = gate.forced(np.zeros((0, 2)), np.empty(0, int))
        np.testing.assert_array_equal(gate.u, c0)
        assert changes.shape == (0, 2)

    def test_forced_takes_gathered_rows(self):
        gate = DeltaGate(3, 2, Policy("top_r", r=1))
        gate.overwrite(np.ones((3, 2)), np.arange(3))
        with pytest.raises(ValueError):
            gate.forced(np.ones((3, 2)), np.array([1]))
        np.testing.assert_array_equal(gate.u, np.ones((3, 2)))
        changes = gate.forced(np.full((1, 2), 4.0), np.array([1]))
        np.testing.assert_array_equal(changes, [[3.0, 3.0]])
        np.testing.assert_array_equal(gate.u, [[1.0, 1.0], [4.0, 4.0], [1.0, 1.0]])

    @pytest.mark.parametrize("idx", [[0.5], [1.0], np.array([False, True])],
                             ids=["fraction", "integral-float", "bool-mask"])
    def test_forced_takes_integer_indices_only(self, idx):
        gate = DeltaGate(2, 2, Policy("top_r", r=1))
        with pytest.raises(ValueError, match="indices must be integers"):
            gate.forced(np.ones((1, 2)), idx)
        np.testing.assert_array_equal(gate.u, np.zeros((2, 2)))

    def test_forced_matches_forward_on_same_indices(self):
        u0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        c = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        free = DeltaGate(4, 2, Policy("top_r", r=2))
        free(u0)
        idx, u_free, ch_free = free(c)
        forced = DeltaGate(4, 2, Policy("top_r", r=2))
        forced(u0)
        ch_forced = forced.forced(c[idx], idx)
        np.testing.assert_array_equal(u_free, forced.u)
        np.testing.assert_array_equal(ch_free, ch_forced)

    @pytest.mark.parametrize("width", [1, 130])
    @pytest.mark.parametrize("picks", ["none", "some", "all"])
    @pytest.mark.parametrize("layout", ["transposed", "column-slice", "rows"])
    def test_overwrite_equals_the_fancy_write(self, width, picks, layout):
        # a source that is not C-contiguous is written in column blocks
        n = 9
        rng = np.random.default_rng(width)
        idx = {"none": np.empty(0, np.int64), "some": np.array([0, 3, 4, 8]),
               "all": np.arange(n)}[picks]
        source = {
            "transposed": lambda: rng.normal(size=(width, idx.size)).T,
            "column-slice": lambda: rng.normal(size=(idx.size, width + 3))[:, 2:-1],
            "rows": lambda: rng.normal(size=(idx.size, width)),
        }[layout]()
        if layout != "rows" and idx.size > 1 and width > 1:
            assert not source.flags.c_contiguous
        gate = DeltaGate(n, width, Policy("top_r", r=1))
        gate.overwrite(rng.normal(size=(n, width)), np.arange(n))
        store = gate.u
        want = store.copy()
        want[idx] = source
        gate.overwrite(source, idx)
        assert gate.u is store
        np.testing.assert_array_equal(gate.u, want)


class TestBuffer:
    def test_first_write_initializes(self):
        buf = Buffer(2, 2)
        tokens = np.arange(4.0).reshape(2, 2)
        np.testing.assert_array_equal(buf(np.arange(2), tokens), tokens)

    def test_partial_first_write_leaves_other_rows_zero(self):
        buf = Buffer(3, 2)
        out = buf(np.array([1]), np.ones((1, 2)))
        np.testing.assert_array_equal(out, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])

    def test_empty_write_no_change(self):
        buf = Buffer(2, 1)
        buf(np.arange(2), np.zeros((2, 1)))
        out = buf(np.empty(0, int), np.empty((0, 1)))
        np.testing.assert_array_equal(out, np.zeros((2, 1)))

    def test_partial_write(self):
        buf = Buffer(2, 1)
        buf(np.arange(2), np.zeros((2, 1)))
        out = buf(np.array([1]), np.array([[9.0]]))
        np.testing.assert_array_equal(out, [[0.0], [9.0]])

    @pytest.mark.parametrize("idx", [np.array([False, True]), [1.7, 2.2]],
                             ids=["bool-mask", "floats"])
    def test_integer_indices_only(self, idx):
        buf = Buffer(3, 2)
        with pytest.raises(ValueError, match="indices must be integers"):
            buf(idx, np.ones((2, 2)))
        np.testing.assert_array_equal(buf.b, np.zeros((3, 2)))

    def test_empty_list_is_an_empty_index_set(self):
        buf = Buffer(2, 1)
        np.testing.assert_array_equal(buf([], np.empty((0, 1))), np.zeros((2, 1)))

    def test_size_mismatch(self):
        buf = Buffer(2, 1)
        buf(np.arange(2), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            buf(np.array([0]), np.ones((2, 1)))


class TestStgtGate:
    def test_first_call_selects_all(self):
        gate = StgtGate(3, 2, Policy("top_r", r=1))
        c = np.ones((3, 2))
        idx, picked = gate(c)
        np.testing.assert_array_equal(idx, [0, 1, 2])
        np.testing.assert_array_equal(picked, c)

    def test_static_after_first_call(self):
        gate = StgtGate(3, 2, Policy("top_r", r=2))
        c = np.arange(6.0).reshape(3, 2)
        gate(c)
        idx, picked = gate(c)
        assert idx.size == 2  # zero-error tokens still fill the budget
        np.testing.assert_array_equal(picked, c[idx])

    def test_drift_error_never_accumulates(self):
        """Two-gate simulation: under constant drift the lossy gate's
        per-frame error norm stays at one step's worth forever, while the
        reference gate's worst error grows until the budget rotates through
        all tokens."""
        n, width, r = 4, 2, 1
        delta = np.array([0.06, 0.08])  # norm 0.1
        base = np.arange(n * width, dtype=float).reshape(n, width)

        lossy = StgtGate(n, width, Policy("top_r", r=r))
        referenced = Gate(n, width, Policy("top_r", r=r))
        lossy(base)
        referenced(base)

        lossy_max, ref_max = [], []
        for t in range(1, 10):
            frame = base + t * delta
            lossy_max.append(np.linalg.norm(lossy.u - frame, axis=1).max())
            ref_max.append(np.linalg.norm(referenced.u - frame, axis=1).max())
            lossy(frame)
            referenced(frame)

        np.testing.assert_allclose(lossy_max, 0.1, rtol=1e-9)
        # frames 2..5: the stalest token's error is t * ||delta||
        np.testing.assert_allclose(ref_max[:4], [0.1, 0.2, 0.3, 0.4], rtol=1e-9)
        # after a full rotation the reference error stays bounded at n steps
        np.testing.assert_allclose(ref_max[4:], 0.4, rtol=1e-9)

    def test_state_is_overwritten_every_frame(self):
        # in place: the reference is one array object across calls
        gate = StgtGate(2, 1, Policy("top_r", r=1))
        store = gate.u
        gate(np.array([[0.0], [0.0]]))
        c = np.array([[5.0], [6.0]])
        gate(c)
        assert gate.u is store
        np.testing.assert_array_equal(gate.u, c)
