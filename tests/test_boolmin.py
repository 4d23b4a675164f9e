import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelike.boolmin import (
    CoverBudgetExceeded,
    MinimalForm,
    _product_key,
    minimal_cover,
    minimal_form,
    prime_implicants,
    xor_extract,
)
from lifelike.rules import TruthTable, elementary, gol_truth_table, index_to_cells

from oracles import (
    covers,
    cube_key,
    eval_form_naive,
    parity_split_table,
    petrick_naive,
    prime_implicants_qm,
    random_table,
    row_cells,
)


def exhaustive_equal(form: MinimalForm, tt: TruthTable) -> bool:
    return eval_form_naive(form, row_cells(tt.arity)).tolist() == list(tt.outputs)


class TestCanonicalKey:
    def test_literals_sort_before_compounds(self):
        lit = _product_key((0b1, 0b1, ()), 9)  # x8
        compound = _product_key((0, 0, ((0, 1),)), 9)  # x0 ^ x1
        assert lit < compound

    def test_negated_literal_is_still_literal(self):
        assert _product_key((1 << 8, 0, ()), 9)[0] == 0  # !x0

    def test_children_sorted(self):
        tt = elementary(94)
        cover = minimal_cover(list(prime_implicants(tt)), tt, "exact")
        assert xor_extract(cover, 3) == xor_extract(cover[::-1], 3)


class TestFormatExpr:
    def test_elementary_aliases(self):
        form = MinimalForm(3, (), False, ((0b110, 0b010, ()), (0, 0, ((0, 2),))), "exact")
        assert form.format() == "(!p & q) | (p ^ r)"
        assert form.leaf_count == 4

    def test_moore_variables(self):
        form = MinimalForm(9, (), False, ((0b100000001, 0b100000000, ()),), "exact")
        assert form.format() == "x0 & !x8"

    def test_constants(self):
        assert MinimalForm(3, (), False, (), "exact").format() == "0"
        assert MinimalForm(3, (), True, (), "exact").format() == "1"


class TestPrimeImplicants:
    def test_rule_90_primes(self):
        # f = p ^ r: minterm pairs merge along q into !p&r and p&!r.
        primes = prime_implicants(elementary(90))
        assert set(primes) == {(0b101, 0b001), (0b101, 0b100)}

    def test_constant_one(self):
        tt = TruthTable(2, (1, 1, 1, 1))
        primes = prime_implicants(tt)
        assert len(primes) == 1
        assert primes[0][0] == 0  # the mask: every variable free

    def test_arity_zero(self):
        assert prime_implicants(TruthTable(0, (1,))) == ((0, 0),)

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
        primes = [p for p in prime_implicants(tt) if p != (0b101, 0b001)]
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
        cube = (0b101, 0b100)
        assert covers(cube, 0b100) and covers(cube, 0b110)
        assert not covers(cube, 0b101)

    def test_to_expr(self):
        mask, value = 0b101, 0b100
        assert MinimalForm(3, (), False, ((mask, value, ()),), "exact").format() == "p & !r"


class TestXorExtract:
    def test_pure_parity_rule_150(self):
        form = minimal_form(elementary(150), "exact")
        assert (form.format(), form.leaf_count) == ("p ^ q ^ r", 3)

    def test_rule_90(self):
        assert minimal_form(elementary(90), "exact") == MinimalForm(3, (0, 2), False, (), "exact")

    def test_rewrites_exact_cover_of_rule_94(self):
        tt = elementary(94)
        cover = minimal_cover(list(prime_implicants(tt)), tt, "exact")
        form = MinimalForm(3, (), False, xor_extract(cover, 3), "exact")
        assert form.format() == "(!p & q) | (p ^ r)"

    def test_extraction_never_breaks_semantics(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=16))
            tt = TruthTable(4, bits)
            assert exhaustive_equal(minimal_form(tt, "exact"), tt)


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
    def test_terms_come_in_product_key_order(self, arity, density, seed, split, mode):
        # Split forms shift their cofactor's terms; the order must survive.
        tt = random_table(arity, density, seed, split)
        try:
            form = minimal_form(tt, mode)
        except CoverBudgetExceeded:
            return
        assert list(form.splits) == sorted(set(form.splits))
        keys = [_product_key(term, arity) for term in form.terms]
        assert keys == sorted(set(keys))
        assert exhaustive_equal(form, tt)


def _eval_printed(text: str, arity: int) -> np.ndarray:
    """Evaluate printed CLI-grammar text as Python over every table row."""
    names = ("p", "q", "r") if arity == 3 else tuple(f"x{j}" for j in range(arity))
    rows = np.arange(1 << arity)
    env = {name: rows >> (arity - 1 - j) & 1 for j, name in enumerate(names)}
    # Python's & binds tighter than ^, so a negated name keeps its own
    # parentheses; a ! before "(" negates a parenthesized operand.
    source = re.sub(r"!(\w+)", r"(1 ^ \1)", text).replace("!", "1 ^ ")
    return np.broadcast_to(eval(source, {"__builtins__": {}}, env), rows.shape)


class TestPrintedText:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 9),
        st.floats(0, 1),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["exact", "greedy", "auto"]),
    )
    def test_printed_text_evaluates_to_the_table(self, arity, density, seed, split, mode):
        tt = random_table(arity, density, seed, split and arity > 0)
        try:
            form = minimal_form(tt, mode)
        except CoverBudgetExceeded:
            return
        assert _eval_printed(form.format(), arity).tolist() == list(tt.outputs)

    def test_every_elementary_rule(self):
        for rule in range(256):
            text = minimal_form(elementary(rule), "exact").format()
            assert _eval_printed(text, 3).tolist() == list(elementary(rule).outputs), rule


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
            (15, "!p"),
            (195, "!(p ^ q)"),
            (105, "!(p ^ q ^ r)"),
        ],
    )
    def test_printed_minimal_forms(self, rule, expected):
        assert minimal_form(elementary(rule), "exact").format() == expected

    def test_constant_rules(self):
        assert minimal_form(elementary(0)).format() == "0"
        assert minimal_form(elementary(255)).format() == "1"

    def test_modes_reported(self):
        assert minimal_form(elementary(110), "exact").cover_mode == "exact"
        assert minimal_form(elementary(110), "greedy").cover_mode == "greedy"

    def test_unknown_mode_rejected_for_constant_table(self):
        with pytest.raises(ValueError):
            minimal_form(elementary(0), "fast")

    def test_auto_falls_back_to_greedy_when_budget_exceeded(self):
        rng = np.random.default_rng(0)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=512))
        tt = TruthTable(9, bits)
        form = minimal_form(tt, "auto")
        assert form.cover_mode in ("exact", "greedy")
        assert eval_form_naive(form, index_to_cells(0, 9)) == tt.outputs[0]

    def test_parity_split_is_taken_before_covering(self):
        # Covering the whole table would exceed the exact budget; only the
        # cofactor g of tt = x0 ^ g is covered.
        tt = parity_split_table(0)
        form = minimal_form(tt, "exact")
        assert form.cover_mode == "exact"
        assert form.format().startswith("x0 ^ ")
        assert minimal_form(tt, "auto") == form
        assert exhaustive_equal(form, tt)

    def test_gol_exact_cover(self):
        form = minimal_form(gol_truth_table(), "auto")
        assert form.cover_mode == "exact"
        tt = gol_truth_table()
        rng = np.random.default_rng(3)
        for idx in rng.integers(0, 512, size=200):
            cells = index_to_cells(int(idx), 9)
            assert eval_form_naive(form, cells) == tt.outputs[idx]

    @given(st.integers(0, 255), st.sampled_from(["exact", "greedy"]))
    @settings(max_examples=60, deadline=None)
    def test_semantics_preserved_elementary(self, rule, mode):
        tt = elementary(rule)
        assert exhaustive_equal(minimal_form(tt, mode), tt)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_semantics_preserved_arity5(self, bits):
        tt = TruthTable(5, tuple((bits >> i) & 1 for i in range(32)))
        assert exhaustive_equal(minimal_form(tt, "exact"), tt)

    @given(st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_xor_form_never_larger_than_or_of_and(self, rule):
        tt = elementary(rule)
        if not tt.onset:
            return
        primes = prime_implicants(tt)
        cover = minimal_cover(list(primes), tt, "exact")
        plain = sum(mask.bit_count() for mask, _ in cover)
        assert minimal_form(tt, "exact").leaf_count <= plain

    def test_deterministic(self):
        a = minimal_form(elementary(110), "exact")
        b = minimal_form(elementary(110), "exact")
        assert a == b
        assert a.format() == b.format()


def _moore_table(density: float, seed: int) -> TruthTable:
    rng = np.random.default_rng([round(10 * density), seed])
    return TruthTable(9, tuple(int(b) for b in rng.random(512) < density))


def _digest(tt: TruthTable, mode: str) -> str:
    """sha256 prefix of repr(form), which holds the used cover mode, or of
    the budget message."""
    try:
        text = repr(minimal_form(tt, mode))
    except CoverBudgetExceeded as exc:
        text = str(exc)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (exact, greedy, auto) digests of repr(form), recorded at the commit
# before the expression tree was removed, where the earlier repr(expr) +
# used-mode digests (kept since the Shannon parity split moved ahead of
# covering) also passed. "elementary" hashes the digests of rules 0-255;
# (density, seed) keys are random 9-ary tables.
GOLDEN_MINIMIZE = {
    'elementary': ('dfbe56d74d05b92c', '5ef56b68689d205d', 'dfbe56d74d05b92c'),
    'gol': ('7d06a5cb8a19bf0c', '76193486165525f8', '7d06a5cb8a19bf0c'),
    (0.1, 0): ('aeb4c1216a3b0557', '8c5450151167e4e7', 'aeb4c1216a3b0557'),
    (0.1, 1): ('19005eba03c5d344', '134fc1fbaa931f31', '19005eba03c5d344'),
    (0.1, 2): ('8f05434c853246b3', '416288143e5faeb0', '8f05434c853246b3'),
    (0.1, 3): ('1649db8e889e6c0d', 'e5f8528717122598', '1649db8e889e6c0d'),
    (0.1, 4): ('6e9bbf4679e3ed60', '6af44ce18fdab4c6', '6e9bbf4679e3ed60'),
    (0.3, 0): ('84cff28a2e489ad2', '1de232b7dc7039c1', '1de232b7dc7039c1'),
    (0.3, 1): ('84cff28a2e489ad2', 'a7b416c894ca8e33', 'a7b416c894ca8e33'),
    (0.3, 2): ('2708830342113de1', '1391603b2c88d84b', '2708830342113de1'),
    (0.3, 3): ('84cff28a2e489ad2', '024069e87a533a08', '024069e87a533a08'),
    (0.3, 4): ('84cff28a2e489ad2', 'dd085e6e901e37ad', 'dd085e6e901e37ad'),
    (0.5, 0): ('84cff28a2e489ad2', '29244c66d05d05eb', '29244c66d05d05eb'),
    (0.5, 1): ('84cff28a2e489ad2', 'f48f3837c651f9f1', 'f48f3837c651f9f1'),
    (0.5, 2): ('84cff28a2e489ad2', '3914e179182cf57d', '3914e179182cf57d'),
    (0.5, 3): ('84cff28a2e489ad2', '3d4da19235a6eddc', '3d4da19235a6eddc'),
    (0.5, 4): ('84cff28a2e489ad2', '7e3513207d171cbe', '7e3513207d171cbe'),
    (0.7, 0): ('84cff28a2e489ad2', 'c5a199ca48c1ea28', 'c5a199ca48c1ea28'),
    (0.7, 1): ('84cff28a2e489ad2', 'e997b7ad60058bd7', 'e997b7ad60058bd7'),
    (0.7, 2): ('84cff28a2e489ad2', '7adcd75da446c9a1', '7adcd75da446c9a1'),
    (0.7, 3): ('84cff28a2e489ad2', 'f5cc03d7cf4f40ab', 'f5cc03d7cf4f40ab'),
    (0.7, 4): ('84cff28a2e489ad2', 'f33f1c872e616965', 'f33f1c872e616965'),
    (0.9, 0): ('84cff28a2e489ad2', 'b79312fe8770912a', 'b79312fe8770912a'),
    (0.9, 1): ('84cff28a2e489ad2', '686e03ef303e5292', '686e03ef303e5292'),
    (0.9, 2): ('84cff28a2e489ad2', '23bfa44ea6333c0d', '23bfa44ea6333c0d'),
    (0.9, 3): ('84cff28a2e489ad2', '3bca520d39968b32', '3bca520d39968b32'),
    (0.9, 4): ('84cff28a2e489ad2', '2d1ebef37f786901', '2d1ebef37f786901'),
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
