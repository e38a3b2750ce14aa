"""Quick checks of the benchmark itself: its oracle, its wrappers, its exit.

The traced requests here are a cheap slice of each workload's first round;
the full runs and their figures are recorded in README.md.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

cli = harness.import_cli()

# M11 = <(1..11), (3 7 11 8)(4 10 5 6)> in the ATLAS's 1-based points
M11_GENERATORS = ["(0 1 2 3 4 5 6 7 8 9 10)", "(2 6 10 7)(3 9 4 5)"]


def _psl2_prime_generators(q: int) -> list[str]:
    """z -> z + 1, z -> l^2 z and z -> -1/z on P^1(F_q), infinity = q."""
    lam = next(a for a in range(2, q) if len({pow(a, k, q) for k in range(q - 1)}) == q - 1)
    maps = [
        [(z + 1) % q for z in range(q)] + [q],
        [lam * lam * z % q for z in range(q)] + [q],
        [q if z == 0 else -pow(z, -1, q) % q for z in range(q)] + [0],
    ]
    return [workloads._cycles(m) for m in maps]


def _all_generators() -> dict[str, list[str]]:
    return {**workloads.GROUP_POOL, "PSL2(13)": _psl2_prime_generators(13),
            "M11": M11_GENERATORS}


def test_oracle_group_facts_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = _all_generators()
    assert set(gens) == set(oracle.GROUP_FACTS)
    rng = workloads.random.Random(0)
    for name, facts in oracle.GROUP_FACTS.items():
        for presentation in (gens[name], workloads.relabel(gens[name], facts.degree, rng)):
            g = combinatorics.PermutationGroup([
                combinatorics.Permutation(workloads._images(c, facts.degree))
                for c in presentation])
            assert g.order() == facts.order, name
            two = g.is_transitive() and len(g.stabilizer(0).orbit(1)) == facts.degree - 1
            assert two == facts.doubly_transitive, name


def test_heart_facts_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    m11 = combinatorics.PermutationGroup(
        [combinatorics.Permutation(workloads._images(c, 11)) for c in M11_GENERATORS])
    assert oracle.family_heart_facts("M", 11, 7).order == m11.order()
    psl = combinatorics.PermutationGroup(
        [combinatorics.Permutation(workloads._images(c, 14)) for c in _psl2_prime_generators(13)])
    assert oracle.family_heart_facts("PSL2", 14, 5).order == psl.order()
    assert oracle.family_heart_facts("A", 12, 3).heart_dim == 10


def _slice(workload, keep) -> list[workloads.Request]:
    return [r for r in workload.round(0) if keep(r)]


def _send_all(requests):
    return [harness.send(cli.main, r, 0) for r in requests]


# counters the traced run must show on the workload the README assigns them to
ASSIGNED = {
    "analyze-groups": ["verdict.dispatch.self_s", "groups.chain.calls", "groups.chain.self_s",
                       "groups.index_search.calls", "groups.index_search.table_answers",
                       "groups.subgroup_classes.calls", "groups.subgroup_classes.memo_hits",
                       "groups.subgroup_classes.classes", "groups.subgroup_classes.self_s",
                       "groups.compositions"],
    "heart-family": ["modules.meataxe.calls", "modules.meataxe.attempts",
                     "modules.meataxe.self_s", "modules.spin.calls", "modules.commutant.calls",
                     "modules.commutant.self_s", "modules.commutant.system_mb",
                     "linalg.rref.calls", "linalg.rref.cells", "linalg.rref.self_s",
                     "linalg.charpoly.calls", "linalg.charpoly.self_s",
                     "gfpoly.factor_squarefree.self_s", "simplicity.decide.calls",
                     "simplicity.decide.self_s"],
    "analyze-poly": ["cli.self_s", "gfpoly.distinct_degree.calls",
                     "gfpoly.distinct_degree.self_s", "gfpoly.pow_mod.calls",
                     "probe.classify_galois.calls", "probe.classify_galois.self_s",
                     "probe.primes_sampled", "probe.discriminant.calls",
                     "probe.discriminant.self_s", "fields.is_prime.calls",
                     "fields.is_prime.self_s"],
}
PREDICTED_ZEROS = {
    "analyze-groups": ["probe.classify_galois.calls"],
    "heart-family": ["groups.subgroup_classes.calls", "probe.classify_galois.calls"],
    "analyze-poly": ["groups.subgroup_classes.calls", "modules.commutant.calls"],
}
CHEAP = {
    "analyze-groups": lambda r: r.meta["group"] in ("A5", "S5", "PSL2(13)", "M11"),
    "heart-family": lambda r: r.key[:2] in (("S", 10), ("M", 11), ("PSL2", 14)),
    "analyze-poly": lambda r: len(r.meta["coeffs"]) == 6,
}


def test_every_named_counter_is_reported():
    named = {m for ms in ASSIGNED.values() for m in ms} | {"cli.import_s"}
    assert named == set(spans.PER_LAYER)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_slice_counters_zeros_and_outputs(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=7, workdir=tmp_path)
    requests = _slice(workload, CHEAP[name])
    tracer = spans.Tracer()
    with tracer.instrument():
        assert tracer.unwrapped_references() == []
        traced = _send_all(requests)
    untraced = _send_all(requests)
    for a, b in zip(traced, untraced):
        assert a.rc in workload.ok_codes and a.error is None
        assert (a.stdout, a.cert) == (b.stdout, b.cert)
    if name != "analyze-poly" or importlib.util.find_spec("sympy"):  # poly checks use sympy
        assert workload.check(traced) == []
    layer = tracer.summary(len(traced))
    for metric in ASSIGNED[name]:
        assert layer.get(metric, 0) > 0, metric
    for metric in PREDICTED_ZEROS[name]:
        assert layer.get(metric, 0) == 0, metric


def test_wrappers_reach_names_imported_elsewhere():
    import numpy as np
    from heartproof import modules, probe, simplicity, verdict

    bound_by_name = [(verdict, "exists_subgroup_of_index_dividing"),
                     (simplicity, "exists_subgroup_of_index_dividing"),
                     (modules, "subgroup_classes"), (probe, "is_prime"), (verdict, "is_prime")]
    originals = [getattr(m, k) for m, k in bound_by_name]
    tracer = spans.Tracer()
    with tracer.instrument():
        assert all(getattr(m, k) is not f for (m, k), f in zip(bound_by_name, originals))
        # kernel_basis, bound by name in modules, reaches the wrapped rref
        modules.kernel_basis(np.array([[1, 2], [3, 4]]), 5)
        assert tracer.counters["linalg.rref.cells"] == 4
    assert all(getattr(m, k) is f for (m, k), f in zip(bound_by_name, originals))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "analyze-poly",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gauge_scales_by_the_probes_near_the_interval():
    gauge = speed.Gauge("python")
    # probes at 0.0 .. 1.9 s: twice the reference time before 1 s, the reference after
    gauge.times = [i / 10 for i in range(20)]
    gauge.probes = [2 * gauge.reference_s] * 10 + [gauge.reference_s] * 10
    assert gauge.scaled(0.2, 0.1, 0.2) == pytest.approx(0.1)
    assert gauge.scaled(0.2, 1.6, 1.7) == pytest.approx(0.2)
    # a window with fewer than MIN_PROBES probes falls back to the nearest ones
    assert gauge.scaled(1.0, 30.0, 31.0) == pytest.approx(1.0)
