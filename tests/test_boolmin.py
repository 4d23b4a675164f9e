import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelike.boolmin import (
    And,
    Const,
    CoverBudgetExceeded,
    Implicant,
    MinimalForm,
    Not,
    Or,
    Var,
    Xor,
    canonical_key,
    eval_bool,
    format_expr,
    leaf_count,
    make_and,
    make_not,
    make_or,
    make_xor,
    minimal_cover,
    minimal_form,
    minimize,
    minimize_detailed,
    prime_implicants,
    xor_extract,
)
from lifelike.rules import TruthTable, elementary, gol_truth_table, index_to_cells

from oracles import (
    covers,
    cube_key,
    parity_split_table,
    petrick_naive,
    prime_implicants_qm,
    product_expr,
    random_table,
    to_expr,
)


def exhaustive_equal(expr, tt: TruthTable) -> bool:
    return all(
        eval_bool(expr, index_to_cells(i, tt.arity)) == tt.outputs[i]
        for i in range(1 << tt.arity)
    )


class TestSmartConstructors:
    def test_not_cancels(self):
        assert make_not(make_not(Var(0))) == Var(0)

    def test_not_consts(self):
        assert make_not(Const(0)) == Const(1)

    def test_and_flattens_and_dedups(self):
        e = make_and([Var(0), make_and([Var(1), Var(0)])])
        assert isinstance(e, And)
        assert set(e.children) == {Var(0), Var(1)}

    def test_and_annihilator(self):
        assert make_and([Var(0), Const(0)]) == Const(0)

    def test_or_identity(self):
        assert make_or([Var(2), Const(0)]) == Var(2)

    def test_xor_pair_cancellation(self):
        assert make_xor([Var(0), Var(1), Var(0)]) == Var(1)

    def test_xor_odd_constant_becomes_not(self):
        e = make_xor([Var(0), Var(1), Const(1)])
        assert isinstance(e, Not)
        assert isinstance(e.child, Xor)

    def test_single_child_collapses(self):
        assert make_or([Var(3)]) == Var(3)
        assert make_and([Var(3)]) == Var(3)


class TestCanonicalKey:
    def test_literals_sort_before_compounds(self):
        lit = canonical_key(Var(8))
        compound = canonical_key(make_xor([Var(0), Var(1)]))
        assert lit < compound

    def test_negated_literal_is_still_literal(self):
        assert canonical_key(make_not(Var(0)))[0] == 0

    def test_children_sorted(self):
        e1 = make_and([Var(1), Var(0)])
        e2 = make_and([Var(0), Var(1)])
        assert e1 == e2


class TestFormatExpr:
    def test_elementary_aliases(self):
        e = make_or([make_and([make_not(Var(0)), Var(1)]), make_xor([Var(0), Var(2)])])
        assert format_expr(e, 3) == "(!p & q) | (p ^ r)"

    def test_moore_variables(self):
        e = make_and([Var(0), make_not(Var(8))])
        assert format_expr(e, 9) == "x0 & !x8"

    def test_constants(self):
        assert format_expr(Const(0), 3) == "0"
        assert format_expr(Const(1), 3) == "1"


class TestPrimeImplicants:
    def test_rule_90_primes(self):
        # f = p ^ r: minterm pairs merge along q into !p&r and p&!r.
        primes = prime_implicants(elementary(90))
        assert set(primes) == frozenset(
            {Implicant(mask=0b101, value=0b001), Implicant(mask=0b101, value=0b100)}
        )

    def test_constant_one(self):
        tt = TruthTable(2, (1, 1, 1, 1))
        primes = prime_implicants(tt)
        assert len(primes) == 1
        assert next(iter(primes)).mask == 0

    def test_arity_zero(self):
        assert set(prime_implicants(TruthTable(0, (1,)))) == {Implicant(0, 0)}

    def test_constant_zero_raises(self):
        with pytest.raises(ValueError, match="constant-0"):
            prime_implicants(TruthTable(3, (0,) * 8))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_matches_quine_mccluskey(self, arity, density, seed):
        rng = np.random.default_rng(seed)
        outputs = rng.random(1 << arity) < density
        outputs[rng.integers(1 << arity)] = True
        tt = TruthTable(arity, tuple(int(b) for b in outputs))
        assert set(prime_implicants(tt)) == prime_implicants_qm(tt)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 9), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_primes_come_in_cube_key_order(self, arity, density, seed):
        rng = np.random.default_rng(seed)
        outputs = rng.random(1 << arity) < density
        outputs[rng.integers(1 << arity)] = True
        primes = prime_implicants(TruthTable(arity, tuple(int(b) for b in outputs)))
        assert isinstance(primes, tuple)
        keys = [cube_key(p, arity) for p in primes]
        assert keys == sorted(set(keys))

    @pytest.mark.parametrize("arity", range(10))
    def test_constant_one_and_single_minterm_match_quine_mccluskey(self, arity):
        size = 1 << arity
        for outputs in ((1,) * size, tuple(int(i == size - 1) for i in range(size))):
            tt = TruthTable(arity, outputs)
            assert set(prime_implicants(tt)) == prime_implicants_qm(tt)

    def test_cover_is_exact_for_known_cyclic_table(self):
        # Classic cyclic function: no essential primes, exact cover size 3.
        outputs = [0] * 16
        for m in (1, 3, 4, 5, 10, 11, 12, 14):
            outputs[m] = 1
        tt = TruthTable(4, tuple(outputs))
        primes = prime_implicants(tt)
        cover = minimal_cover(list(primes), tt, "exact")
        assert all(any(covers(p, m) for p in cover) for m in tt.onset)
        greedy = minimal_cover(list(primes), tt, "greedy")
        assert len(cover) <= len(greedy)


class TestMinimalCover:
    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_primes_missing_an_essential_prime_raise(self, mode):
        # Rule 94's on-set is {1, 2, 3, 4, 6}; only !p & r covers minterm 1.
        tt = elementary(94)
        primes = [p for p in prime_implicants(tt) if p != Implicant(mask=0b101, value=0b001)]
        with pytest.raises(ValueError, match="do not cover"):
            minimal_cover(list(primes), tt, mode)

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_no_primes_raise(self, mode):
        with pytest.raises(ValueError, match="do not cover"):
            minimal_cover([], elementary(94), mode)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(5, 9),
        st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7, 0.9]),
        st.integers(0, 2**32 - 1),
    )
    def test_exact_matches_frozenset_petrick(self, arity, density, seed):
        rng = np.random.default_rng(seed)
        outputs = rng.random(1 << arity) < density
        outputs[rng.integers(1 << arity)] = True
        tt = TruthTable(arity, tuple(int(b) for b in outputs))
        primes = list(prime_implicants(tt))
        try:
            expected = petrick_naive(primes, tt)
        except CoverBudgetExceeded as exc:
            with pytest.raises(CoverBudgetExceeded) as got:
                minimal_cover(primes, tt, "exact")
            assert str(got.value) == str(exc)
        else:
            assert minimal_cover(primes, tt, "exact") == expected


class TestImplicant:
    def test_covers(self):
        # Cube 1-0 over 3 vars: p fixed 1, q free, r fixed 0.
        imp = Implicant(mask=0b101, value=0b100)
        assert covers(imp, 0b100) and covers(imp, 0b110)
        assert not covers(imp, 0b101)

    def test_literal_count(self):
        assert Implicant(mask=0b101, value=0b100).literal_count == 2

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Implicant(mask=0b001, value=0b010)

    def test_to_expr(self):
        imp = Implicant(mask=0b101, value=0b100)
        assert format_expr(to_expr(imp, 3), 3) == "p & !r"


class TestXorExtract:
    def test_pure_parity_rule_150(self):
        e = minimize(elementary(150), "exact")
        assert isinstance(e, Xor)
        assert e.children == (Var(0), Var(1), Var(2))

    def test_rule_90(self):
        e = minimize(elementary(90), "exact")
        assert e == make_xor([Var(0), Var(2)])

    def test_rewrites_exact_cover_of_rule_94(self):
        tt = elementary(94)
        cover = minimal_cover(list(prime_implicants(tt)), tt, "exact")
        form = MinimalForm(3, (), False, xor_extract(cover, 3), "exact")
        assert format_expr(form.to_expr(), 3) == "(!p & q) | (p ^ r)"

    def test_extraction_never_breaks_semantics(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=16))
            tt = TruthTable(4, bits)
            expr = minimize(tt, "exact")
            assert exhaustive_equal(expr, tt)


class TestMinimalForm:
    def test_constant_tables_have_no_terms(self):
        assert minimal_form(elementary(0), "exact") == MinimalForm(3, (), False, (), "exact")
        assert minimal_form(elementary(255), "greedy") == MinimalForm(3, (), True, (), "greedy")

    def test_parity_rules_are_split_variables(self):
        assert minimal_form(elementary(150), "exact") == MinimalForm(3, (0, 1, 2), False, (), "exact")
        assert minimal_form(elementary(105), "exact") == MinimalForm(3, (0, 1, 2), True, (), "exact")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9),
        st.floats(0, 1),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["exact", "greedy", "auto"]),
    )
    def test_products_in_form_order_are_the_children_make_or_returns(
        self, arity, density, seed, split, mode
    ):
        tt = random_table(arity, density, seed, split)
        try:
            form = minimal_form(tt, mode)
        except CoverBudgetExceeded:
            return
        assert list(form.splits) == sorted(set(form.splits))
        products = [product_expr(*term, arity) for term in form.terms]
        core = make_or(products)
        if len(products) > 1:
            assert core.children == tuple(products)
        elif products:
            assert core == products[0]
        assert exhaustive_equal(form.to_expr(), tt)


class TestMinimize:
    @pytest.mark.parametrize(
        "rule,expected",
        [
            (90, "p ^ r"),
            (128, "p & q & r"),
            (150, "p ^ q ^ r"),
            (160, "p & r"),
            (204, "q"),
            (250, "p | r"),
            (252, "p | q"),
            (254, "p | q | r"),
            (94, "(!p & q) | (p ^ r)"),
        ],
    )
    def test_printed_minimal_forms(self, rule, expected):
        assert format_expr(minimize(elementary(rule), "exact"), 3) == expected

    def test_constant_rules(self):
        assert minimize(elementary(0)) == Const(0)
        assert minimize(elementary(255)) == Const(1)

    def test_modes_reported(self):
        _, mode = minimize_detailed(elementary(110), "exact")
        assert mode == "exact"
        _, mode = minimize_detailed(elementary(110), "greedy")
        assert mode == "greedy"

    def test_unknown_mode_rejected_for_constant_table(self):
        with pytest.raises(ValueError):
            minimize_detailed(elementary(0), "fast")

    def test_auto_falls_back_to_greedy_when_budget_exceeded(self):
        rng = np.random.default_rng(0)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=512))
        tt = TruthTable(9, bits)
        expr, mode = minimize_detailed(tt, "auto")
        assert mode in ("exact", "greedy")
        assert eval_bool(expr, index_to_cells(0, 9)) == tt.outputs[0]

    def test_parity_split_is_taken_before_covering(self):
        # Covering the whole table would exceed the exact budget; only the
        # cofactor g of tt = x0 ^ g is covered.
        tt = parity_split_table(0)
        expr, used = minimize_detailed(tt, "exact")
        assert used == "exact"
        assert format_expr(expr, 9).startswith("x0 ^ ")
        assert minimize_detailed(tt, "auto") == (expr, "exact")
        assert exhaustive_equal(expr, tt)

    def test_gol_exact_cover(self):
        expr, mode = minimize_detailed(gol_truth_table(), "auto")
        assert mode == "exact"
        tt = gol_truth_table()
        rng = np.random.default_rng(3)
        for idx in rng.integers(0, 512, size=200):
            cells = index_to_cells(int(idx), 9)
            assert eval_bool(expr, cells) == tt.outputs[idx]

    @given(st.integers(0, 255), st.sampled_from(["exact", "greedy"]))
    @settings(max_examples=60, deadline=None)
    def test_semantics_preserved_elementary(self, rule, mode):
        tt = elementary(rule)
        assert exhaustive_equal(minimize(tt, mode), tt)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_semantics_preserved_arity5(self, bits):
        tt = TruthTable(5, tuple((bits >> i) & 1 for i in range(32)))
        assert exhaustive_equal(minimize(tt, "exact"), tt)

    @given(st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_xor_form_never_larger_than_or_of_and(self, rule):
        tt = elementary(rule)
        if not tt.onset:
            return
        primes = prime_implicants(tt)
        cover = minimal_cover(list(primes), tt, "exact")
        plain = make_or([to_expr(c, 3) for c in cover])
        assert leaf_count(minimize(tt, "exact")) <= leaf_count(plain)

    def test_deterministic(self):
        a = minimize(elementary(110), "exact")
        b = minimize(elementary(110), "exact")
        assert a == b
        assert format_expr(a, 3) == format_expr(b, 3)


def _moore_table(density: float, seed: int) -> TruthTable:
    rng = np.random.default_rng([round(10 * density), seed])
    return TruthTable(9, tuple(int(b) for b in rng.random(512) < density))


def _digest(tt: TruthTable, mode: str) -> str:
    """sha256 prefix of repr(expr) + used mode, or of the budget message."""
    try:
        expr, used = minimize_detailed(tt, mode)
        text = repr(expr) + used
    except CoverBudgetExceeded as exc:
        text = str(exc)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (exact, greedy, auto) digests, recorded before the Shannon parity split
# moved ahead of covering; seeds 3 and 4 of the denser tables were
# recorded before Petrick products became int bitmasks. "elementary"
# hashes the digests of rules 0-255; (density, seed) keys are random 9-ary
# tables.
GOLDEN_MINIMIZE = {
    "elementary": ("e729f195c20eee4a", "36d736f11e1ab57b", "e729f195c20eee4a"),
    "gol": ("f3307c4396c7343a", "b0ce1fe1555d9401", "f3307c4396c7343a"),
    (0.1, 0): ("92dee2a85f3353f2", "bcc62dafe190fc28", "92dee2a85f3353f2"),
    (0.1, 1): ("f996165449907924", "8a69580ad0e82caa", "f996165449907924"),
    (0.1, 2): ("6e2c6ee10618d62d", "d139d3416fb8808b", "6e2c6ee10618d62d"),
    (0.1, 3): ("e571c57915ca6132", "047d560719d8643c", "e571c57915ca6132"),
    (0.1, 4): ("1cce68fcfa0b4837", "c10bc339680f934a", "1cce68fcfa0b4837"),
    (0.3, 0): ("84cff28a2e489ad2", "44274f735281af68", "44274f735281af68"),
    (0.3, 1): ("84cff28a2e489ad2", "3193e256fede5455", "3193e256fede5455"),
    (0.3, 2): ("c8aa682d8a133573", "28ebb4006423a954", "c8aa682d8a133573"),
    (0.3, 3): ("84cff28a2e489ad2", "3bb484dcde8957d8", "3bb484dcde8957d8"),
    (0.3, 4): ("84cff28a2e489ad2", "6e3ec3ef450598ed", "6e3ec3ef450598ed"),
    (0.5, 0): ("84cff28a2e489ad2", "e9b924146f58f7f1", "e9b924146f58f7f1"),
    (0.5, 1): ("84cff28a2e489ad2", "2df925cb61b02596", "2df925cb61b02596"),
    (0.5, 2): ("84cff28a2e489ad2", "ba171652d0976aff", "ba171652d0976aff"),
    (0.5, 3): ("84cff28a2e489ad2", "a1cc4b5010007956", "a1cc4b5010007956"),
    (0.5, 4): ("84cff28a2e489ad2", "cbcd0f817fa6bb9b", "cbcd0f817fa6bb9b"),
    (0.7, 0): ("84cff28a2e489ad2", "7cfcd92fdfb9847d", "7cfcd92fdfb9847d"),
    (0.7, 1): ("84cff28a2e489ad2", "5a5093a59fbb16ed", "5a5093a59fbb16ed"),
    (0.7, 2): ("84cff28a2e489ad2", "6afecb571f5df454", "6afecb571f5df454"),
    (0.7, 3): ("84cff28a2e489ad2", "3e36e9dbb26c82a0", "3e36e9dbb26c82a0"),
    (0.7, 4): ("84cff28a2e489ad2", "5405d631e9fc3d62", "5405d631e9fc3d62"),
    (0.9, 0): ("84cff28a2e489ad2", "995d084b86bc9c2b", "995d084b86bc9c2b"),
    (0.9, 1): ("84cff28a2e489ad2", "06e100eacf6bb396", "06e100eacf6bb396"),
    (0.9, 2): ("84cff28a2e489ad2", "5755d5ca20350b65", "5755d5ca20350b65"),
    (0.9, 3): ("84cff28a2e489ad2", "1d3dc866e8a81da8", "1d3dc866e8a81da8"),
    (0.9, 4): ("84cff28a2e489ad2", "7a02ef614d8e6dd5", "7a02ef614d8e6dd5"),
}


class TestMinimizeGolden:
    @pytest.mark.parametrize("case", list(GOLDEN_MINIMIZE), ids=str)
    def test_reproduces_recorded_digests(self, case):
        modes = ("exact", "greedy", "auto")
        if case == "elementary":
            got = tuple(
                hashlib.sha256(
                    "".join(_digest(elementary(r), m) for r in range(256)).encode()
                ).hexdigest()[:16]
                for m in modes
            )
        else:
            tt = gol_truth_table() if case == "gol" else _moore_table(*case)
            got = tuple(_digest(tt, m) for m in modes)
        assert got == GOLDEN_MINIMIZE[case]
