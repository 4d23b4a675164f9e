"""Acceptance gate: one test per release criterion, each printing an
explicit pass/fail line with the measured values."""
import math
import time

import numpy as np
import pytest

from lifelike.boolmin import minimal_form
from lifelike.catalog import write_catalog
from lifelike.cli import main
from lifelike.heval import rule_profile, validate_h
from lifelike.measures import (
    GOL_TARGET,
    DynamicParams,
    correlation,
    distance,
    dynamic_measure,
    static_measure,
)
from lifelike.rules import elementary, gol_truth_table, state_of
from lifelike.search import run_ga
from lifelike.simulator import random_lattice, step, m_field

from oracles import DESK, DESK_DIGEST, catalog_digest, eval_form_naive, row_cells, step_naive


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_h_constraint_suite():
    start = time.time()
    results = validate_h()
    elapsed = time.time() - start
    failed = [r.name for r in results if not r.passed]
    report(
        "criterion 1 (operator-table constraint suite)",
        not failed and elapsed < 1.0,
        f"{len(results)} constraints, failures={failed}, {elapsed:.2f}s",
    )


def test_criterion_02_rule_94_end_to_end():
    tt = elementary(94)
    form = minimal_form(tt, "exact").format()
    mtable = tuple(rule_profile(tt, "exact").mcodes.tolist())
    me = static_measure(rule_profile(tt, "exact")).as_tuple()
    ok = (
        form == "(!p & q) | (p ^ r)"
        and mtable == (1, 4, 4, 4, 4, 2, 4, 2)
        and me == (0.0, 12.5, 62.5, 25.0)
    )
    report(
        "criterion 2 (rule 94 end-to-end)",
        ok,
        f"form={form!r}, mtable={mtable}, static={me}",
    )


def test_criterion_03_printed_minimal_forms():
    expected = {
        90: "p ^ r",
        128: "p & q & r",
        150: "p ^ q ^ r",
        160: "p & r",
        204: "q",
        250: "p | r",
        252: "p | q",
        254: "p | q | r",
    }
    got = {r: minimal_form(elementary(r), "exact").format() for r in expected}
    mismatches = {r: got[r] for r in expected if got[r] != expected[r]}
    report(
        "criterion 3 (printed minimal forms of 8 reference rules)",
        not mismatches,
        f"mismatches={mismatches}" if mismatches else "all 8 forms match",
    )


def test_criterion_04_semantic_soundness_exhaustive():
    start = time.time()
    bad = []
    for rule in range(256):
        tt = elementary(rule)
        profile = rule_profile(tt, "exact")
        semantics = eval_form_naive(profile.form, row_cells(3)).tolist() == list(tt.outputs)
        projection = (
            tuple(state_of(int(c)) for c in profile.mcodes) == tt.outputs
        )
        if not (semantics and projection):
            bad.append(rule)
    elapsed = time.time() - start
    report(
        "criterion 4 (all 256 elementary rules: semantics + state projection)",
        not bad and elapsed < 10.0,
        f"failing rules={bad}, {elapsed:.2f}s",
    )


def test_criterion_05_gol_static_measure():
    me = static_measure(rule_profile(gol_truth_table(), "exact"))
    growth_exact = me.growth == pytest.approx(140 / 512 * 100, abs=1e-9)
    sums = me.decrease + me.growth + me.chaoticity
    dev_dec = abs(me.decrease - 4.68)
    dev_cha = abs(me.chaoticity - 67.96)
    ok = (
        me.stability == 0.0
        and growth_exact
        and sums == pytest.approx(100.0)
        and dev_dec <= 2.0
        and dev_cha <= 2.0
    )
    report(
        "criterion 5 (Game of Life static measure)",
        ok,
        f"static={me.as_tuple()}, deviation decrease={dev_dec:.2f}, "
        f"chaoticity={dev_cha:.2f} (reference 4.68/67.96, tolerance 2.0)",
    )


def test_criterion_06_gol_dynamic_measure():
    start = time.time()
    md = dynamic_measure(
        rule_profile(gol_truth_table()),
        DynamicParams(runs=30, dims=(100, 100), max_steps=100, density=0.5, seed=0),
    )
    elapsed = time.time() - start
    reference = {"stability": 0.0, "decrease": 75.23, "growth": 11.37, "chaoticity": 13.38}
    deviations = {
        k: abs(getattr(md, k) - v) for k, v in reference.items()
    }
    ok = all(d <= 3.0 for d in deviations.values()) and elapsed < 120.0
    report(
        "criterion 6 (Game of Life dynamic measure)",
        ok,
        f"dynamic={md.as_tuple()}, deviations={ {k: round(v, 2) for k, v in deviations.items()} }, "
        f"{elapsed:.1f}s (tolerance 3.0, limit 120s)",
    )


def test_criterion_07_distance_correlation_oracles():
    published = {
        "found-1": ((0, 4.88, 33.01, 62.11), (0, 78.88, 9.06, 12.06), 9.32, -0.34),
        "found-2": ((0, 2.54, 33.01, 64.45), (0, 84.80, 5.92, 9.28), 13.68, -0.40),
        "found-3": ((0, 3.91, 30.47, 65.63), (0, 90.54, 4.00, 5.53), 19.13, -0.42),
        "self-replicator": ((0, 3.32, 34.96, 61.72), (0, 90.63, 3.77, 5.61), 21.31, -0.45),
    }

    def features(me, md):
        return (me[3], me[1], me[2], me[0], md[3], md[1], md[2], md[0])

    failures = []
    gol_corr = correlation((0, 4.68, 27.34, 67.96), (0, 75.23, 11.37, 13.38))
    if abs(gol_corr - (-0.29)) > 0.01:
        failures.append(f"gol corr {gol_corr:.4f}")
    for name, (me, md, want_d, want_c) in published.items():
        d = distance(features(me, md), GOL_TARGET)
        c = correlation(me, md)
        if abs(d - want_d) > 0.02:
            failures.append(f"{name} distance {d:.4f} vs {want_d}")
        if abs(c - want_c) > 0.01:
            failures.append(f"{name} corr {c:.4f} vs {want_c}")
    report(
        "criterion 7 (published distance/correlation oracles)",
        not failures,
        f"failures={failures}" if failures else
        f"4 distances within 0.02, 5 correlations within 0.01 (gol corr {gol_corr:.3f})",
    )


def test_criterion_08_simulator_oracles():
    tt = gol_truth_table()
    checks = {}

    blinker = np.zeros((5, 5), dtype=np.uint8)
    blinker[2, 1:4] = 1
    b1 = step(blinker, tt)
    checks["blinker period 2"] = (
        not np.array_equal(blinker, b1) and np.array_equal(blinker, step(b1, tt))
    )

    glider = np.zeros((12, 12), dtype=np.uint8)
    for i, j in ((0, 1), (1, 2), (2, 0), (2, 1), (2, 2)):
        glider[i, j] = 1
    c = glider
    for _ in range(4):
        c = step(c, tt)
    checks["glider +(1,1) at t=4"] = np.array_equal(
        c, np.roll(np.roll(glider, 1, axis=0), 1, axis=1)
    )

    rng = np.random.default_rng(0)
    profile = rule_profile(tt)
    projection = True
    engines = True
    for _ in range(100):
        lattice = random_lattice((20, 20), float(rng.uniform(0.05, 0.95)), rng)
        nxt = step(lattice, tt)
        states = np.vectorize(state_of)(m_field(lattice, profile)).astype(np.uint8)
        projection &= bool(np.array_equal(states, nxt))
    checks["projection invariant on 100 random lattices"] = projection
    for _ in range(5):
        lattice = random_lattice((10, 13), 0.5, rng)
        engines &= bool(np.array_equal(step(lattice, tt), step_naive(lattice, tt)))
    checks["vectorized vs naive engine"] = engines

    failed = [k for k, ok in checks.items() if not ok]
    report("criterion 8 (simulator oracles)", not failed, f"failed={failed or 'none'}")


def test_criterion_09_ga_desk_scale(tmp_path):
    start = time.time()
    best_per_gen = []
    records_a = run_ga(DESK, progress=lambda g, ind: best_per_gen.append(ind.fitness))
    records_b = run_ga(DESK)
    elapsed = time.time() - start

    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_catalog(records_a, path_a)
    write_catalog(records_b, path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    pinned = catalog_digest(records_a) == DESK_DIGEST
    non_increasing = all(
        b <= a or (math.isinf(a) and math.isinf(b))
        for a, b in zip(best_per_gen, best_per_gen[1:])
    )
    constraint_clean = all(r.me[0] == 0.0 and r.md[0] == 0.0 for r in records_a)
    ok = (
        identical and pinned and non_increasing and constraint_clean and records_a
        and elapsed < 300.0
    )
    report(
        "criterion 9 (desk-scale genetic search, pop 8 x 30 generations)",
        bool(ok),
        f"records={len(records_a)}, byte-identical={identical}, pinned digest={pinned}, "
        f"best-fitness non-increasing={non_increasing}, stability-clean={constraint_clean}, "
        f"{elapsed:.1f}s for both runs (limit 300s)",
    )


def test_criterion_10_seeded_cli_determinism(capsys, tmp_path):
    commands = [
        ["dynamic", "elem:110", "--runs", "3", "--size", "48", "--steps", "20", "--seed", "7"],
        ["dynamic", "moore2d:0", "--runs", "2", "--size", "24x24", "--steps", "10", "--seed", "1"],
        [
            "search", "--pop", "4", "--gens", "2", "--runs", "2", "--size", "24x24",
            "--steps", "10", "--seed", "5", "--out", str(tmp_path / "c.jsonl"),
        ],
        ["simulate", "elem:90", "--size", "40", "--steps", "12", "--seed", "3",
         "--out", str(tmp_path / "sim")],
    ]
    mismatched = []
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            outputs.append(captured.out)
        if outputs[0] != outputs[1]:
            mismatched.append(argv[0])
    report(
        "criterion 10 (seeded commands byte-identical)",
        not mismatched,
        f"mismatched={mismatched or 'none'} over {len(commands)} commands x 2 runs",
    )
