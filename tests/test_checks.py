"""The verify suite's checks against the dense routes they replaced, and its contract.

check_hermiticity reads only F's hermiticity and check_split_current_consistency
only N diagonal entries per eps.  The dense routes below read every N x N kernel
the two checks used to read; what the slim checks leave out is exactly 0 by
construction (test_modeops holds the guarantees), so the results must agree bit
for bit.  The continuity, split-continuity and gradient-form checks read their
kernels in blocks of rows; their dense routes build each kernel over the whole
slot grid and compare it with _kernel_distance, vacuum values included.
"""

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pointsplit import checks, cli, modeops
from pointsplit.checks import (
    TOL,
    CheckResult,
    _commute_diagonal,
    _result,
    check_continuity,
    check_gradient_form,
    check_hermiticity,
    check_split_continuity,
    check_split_current_consistency,
    check_split_renormalization,
    check_spinors,
    run_verify_suite,
)
from pointsplit.fock import _first_positron, n_slots_for
from pointsplit.lattice import ID2, SIGMA_X, LatticeConfig, spinor
from pointsplit.modeops import (
    _boulware_kernel,
    _field_kernel,
    _gradient_kernel,
    _kernel_vev,
    _mode_table,
    _plane_wave,
    _Rows,
    _split_hamiltonian_diagonal,
    _worst,
    smeared_kernel,
)
from pointsplit.trigpoly import TrigPoly

from oracles import _kernel_distance, continuity_pairwise_residual, spinor_residuals

ROOT = Path(__file__).resolve().parents[1]

LATTICES = st.builds(
    LatticeConfig,
    mass=st.floats(0.05, 5.0) | st.sampled_from([1, 2, 1e10]),
    delta_p=st.floats(0.1, 3.0) | st.sampled_from([0.25, 1, 16]),
    n_max=st.integers(1, 8),
)
EPS_VALUES = st.lists(st.floats(-3.0, 3.0) | st.just(0.0), min_size=1, max_size=3)


def dense_hermiticity(cfg: LatticeConfig, eps_values, f: TrigPoly):
    """Every kernel the check used to read: the split Hamiltonians at 0 and each
    eps as np.diag matrices, rho's kernel and F's band scattered into a dense one."""
    rows, cols, values = smeared_kernel(f, cfg)
    smeared = np.zeros((n_slots_for(cfg.n_max),) * 2, dtype=complex)
    smeared[rows, cols] = values
    kernels = [np.diag(_split_hamiltonian_diagonal(cfg, eps)) for eps in (0.0, *eps_values)]
    kernels += [_field_kernel(_plane_wave(cfg, 0.0), ID2, _Rows(cfg)), smeared]
    residuals = [_kernel_distance(k, k.conj().T, cfg) for k in kernels]
    return _result("hermiticity", _worst(residuals))


def dense_split_current_consistency(cfg: LatticeConfig, eps_values):
    """The eps = 0 comparison of the corrected and unsplit current kernels, and
    the vacuum values off the full kernels psi'(z +- eps) sigma_x psi(z)."""
    rows = _Rows(cfg)
    corrected = _boulware_kernel(0.0, _plane_wave(cfg, 0.0), rows)
    residuals = [_kernel_distance(corrected, _field_kernel(_plane_wave(cfg, 0.0), SIGMA_X, rows), cfg)]
    for eps in eps_values:
        plus, minus = (_field_kernel(_plane_wave(cfg, g), SIGMA_X, rows) for g in (+eps, -eps))
        residuals.append(abs(0.5 * (_kernel_vev(np.diagonal(plus), cfg) + _kernel_vev(np.diagonal(minus), cfg))))
    return _result("split_current_consistency", _worst(residuals))


@st.composite
def _lattices_and_skewed_smearings(draw):
    """A lattice and a TrigPoly on its box whose c_{-n} sits off conj(c_n) by
    1e-13 to 5e-13 in its real part and up to 5e-13 in its imaginary part,
    inside TrigPoly's 1e-12 symmetry tolerance, so F's hermiticity residual
    reads nonzero; c_0 may carry an imaginary part as well."""
    cfg = draw(LATTICES)
    skew, amplitude = st.floats(-5e-13, 5e-13), st.floats(-1.0, 1.0)
    coeffs = {0: complex(draw(amplitude), draw(skew))}
    for n in draw(st.sets(st.integers(1, 2 * cfg.n_max), min_size=1, max_size=3)):
        c = complex(draw(amplitude), draw(amplitude))
        off = draw(st.floats(1e-13, 5e-13)) * draw(st.sampled_from([-1, 1]))
        coeffs[n], coeffs[-n] = c, c.conjugate() + complex(off, draw(skew))
    return cfg, TrigPoly(cfg.box_length, coeffs)


SKEWED = (
    LatticeConfig(0.7, 1.3, 4),
    TrigPoly(2 * math.pi / 1.3, {
        0: 0.2 + 3e-13j, 1: 0.5 + 0.2j, -1: 0.5 - 0.2j + 4e-13, 3: -0.1j, -3: 0.1j - 5e-13j
    }),
)


@given(_lattices_and_skewed_smearings(), EPS_VALUES)
@example(SKEWED, [0.3, 0.9])
@settings(max_examples=150, deadline=None)
def test_hermiticity_equals_the_dense_route_bit_for_bit(case, eps_values):
    cfg, f = case
    slim = check_hermiticity(cfg, f)
    assert slim == dense_hermiticity(cfg, eps_values, f)
    assert slim.residual > 0  # the skew shows, so the routes agree on more than zeros


@given(LATTICES, EPS_VALUES)
@example(LatticeConfig(1.0, 16.0, 32), [0.3, 0.9])
@example(LatticeConfig(1e10, 1.0, 3), [0.3])
@settings(max_examples=150, deadline=None)
def test_split_current_consistency_equals_the_dense_route_bit_for_bit(cfg, eps_values):
    assert check_split_current_consistency(cfg, eps_values) == dense_split_current_consistency(cfg, eps_values)


def test_slim_checks_build_no_dense_kernel():
    """At n_max 512 (N = 2050) one dense float64 sandwich alone is 32 MiB; each
    check must stay far below that."""
    cfg = LatticeConfig(1.0, 1.0, 512)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
    for check in (lambda: check_hermiticity(cfg, f), lambda: check_split_current_consistency(cfg, [0.3, 0.9])):
        tracemalloc.start()
        try:
            result = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 16 * 2**20, f"{result.name} peaked at {peak / 2**20:.1f} MiB"


# -- spinor identities --------------------------------------------------------


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 40))
@example(0.0032400388466084285, 0.0017830873055899937, 24)  # 3.331e-16 through BLAS, 2.220e-16 elementwise
@settings(max_examples=200, deadline=None)
def test_spinor_check_equals_the_per_mode_oracle_bit_for_bit(mass, delta_p, n_max):
    cfg = LatticeConfig(mass, delta_p, n_max)
    assert check_spinors(cfg).residual.hex() == _worst(spinor_residuals(cfg)).hex()


# one spinor of mode j = 2 broken, u+ = (norm, w * norm) or u- = (-w * norm, norm): a component's sign
# flipped, the spinor scaled off unit norm, u- made (w * norm, norm), or u- tilted by 1e-6 u+.  Correct
# spinors are orthogonal to the last bit, so only the last two read that identity; where E < 1/2, as
# here (p = 0.2, E = 0.224), the tilt breaks it by 1e-6 and the eigenvector and completeness by less
BROKEN_SPINORS = {
    "electron sign flipped": (+1, lambda u: u * [1, -1]),
    "electron scaled": (+1, lambda u: u * (1 + 1e-9)),
    "positron made (w norm, norm)": (-1, lambda u: u * [-1, 1]),
    "positron tilted toward electron": (-1, lambda u: u + 1e-6 * np.array([u[1], -u[0]])),
}


@pytest.mark.parametrize("lam, breaking", BROKEN_SPINORS.values(), ids=BROKEN_SPINORS)
def test_spinor_check_fails_on_a_broken_spinor(monkeypatch, lam, breaking):
    """Each broken table fails the check, whose residual is the oracle's on the same broken spinor."""
    cfg, j = LatticeConfig(0.1, 0.1, 3), 2
    table = _mode_table(cfg)
    slot = j + cfg.n_max + (0 if lam == +1 else _first_positron(cfg.n_max))
    u = table.u.copy()
    u[slot] = breaking(u[slot])
    monkeypatch.setattr(checks, "_mode_table", lambda _: table._replace(u=u))

    def broken_spinor(lam_, j_, cfg_):
        sp = spinor(lam_, j_, cfg_)
        return dataclasses.replace(sp, u=breaking(sp.u)) if (lam_, j_) == (lam, j) else sp

    result = check_spinors(cfg)
    assert not result.passed
    assert result.residual.hex() == _worst(spinor_residuals(cfg, broken_spinor)).hex()


def test_renormalization_check_fails_when_bilinear_flips_the_positron_diagonal(monkeypatch):
    """The check compares _bilinear's normal ordering of the split Hamiltonian's diagonal with the
    engine's, word by word: a _bilinear whose d'd diagonal has the wrong sign fails it, by 2 |E cos|."""
    cfg, eps_values = LatticeConfig(1.0, 1.0, 2), [0.3, 0.9]
    assert check_split_renormalization(cfg, eps_values).passed
    bilinear = modeops._bilinear

    def flipped(entries, cfg_):
        op = bilinear(entries, cfg_)
        for (cre, ann), c in op.terms.items():
            if cre == ann and cre and cre[0] >= _first_positron(cfg_.n_max):
                op.terms[cre, ann] = -c
        return op

    monkeypatch.setattr(modeops, "_bilinear", flipped)
    result = check_split_renormalization(cfg, eps_values)
    assert not result.passed
    assert result.residual == pytest.approx(2 * math.sqrt(5) * math.cos(2 * 0.3), rel=1e-12)


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded from its file without importing the benchmark as a package."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_verify_checks() -> set:
    return _perfbench_module("validate").VERIFY_CHECKS


def test_verify_suite_reports_exactly_the_tolerance_table_in_order():
    cfg = LatticeConfig(1.0, 1.0, 2)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
    names = [r.name for r in run_verify_suite(cfg, [0.3, 0.9], f)]
    assert names == list(TOL)
    assert set(names) == _benchmark_verify_checks()


# -- kernel identities in row blocks ---------------------------------------------


def dense_pairwise_residual(cfg: LatticeConfig) -> float:
    """u_a' [ (h_a - h_b) + (p_b - p_a) sigma_x ] u_b over the whole slot grid at once."""
    rows, p = _Rows(cfg), _mode_table(cfg).p
    d = _commute_diagonal(_split_hamiltonian_diagonal(cfg, 0.0), rows.sandwich(ID2), rows)
    d = d + (p[None, :] - p[:, None]) * rows.sandwich(SIGMA_X)
    return _worst([np.hypot(d.real, d.imag).max()])


def complex_i_d_dz(kernel: np.ndarray, cfg: LatticeConfig) -> np.ndarray:
    """i d/dz of a whole kernel by the complex rule K[a,b] -> i(p_b - p_a) K[a,b], times i, not
    through modeops' real-valued one."""
    p = _mode_table(cfg).p
    return 1j * (kernel * (1j * (p[None, :] - p[:, None])))


def dense_continuity(cfg: LatticeConfig, corrupt_sign: bool):
    rows = _Rows(cfg)
    h = _split_hamiltonian_diagonal(cfg, 0.0)
    if corrupt_sign:
        h[_first_positron(cfg.n_max) :] *= -1
    e = _plane_wave(cfg, 0.0)
    commuted = _commute_diagonal(h, _field_kernel(e, ID2, rows), rows)
    residuals = [0.0 if corrupt_sign else dense_pairwise_residual(cfg)]
    residuals.append(_kernel_distance(commuted, complex_i_d_dz(_field_kernel(e, SIGMA_X, rows), cfg), cfg))
    return _result("continuity", _worst(residuals))


def dense_split_residual(cfg: LatticeConfig, eps_values, other_side) -> float:
    rows = _Rows(cfg)
    rho = _field_kernel(_plane_wave(cfg, 0.0), ID2, rows)
    commuted = (_commute_diagonal(_split_hamiltonian_diagonal(cfg, eps), rho, rows) for eps in eps_values)
    return _worst(_kernel_distance(k, other_side(eps, rows), cfg) for eps, k in zip(eps_values, commuted))


def dense_split_continuity(cfg: LatticeConfig, eps_values):
    def other_side(eps, rows):
        return complex_i_d_dz(_boulware_kernel(eps, _plane_wave(cfg, eps), rows), cfg)

    residual = dense_split_residual(cfg, eps_values, other_side)
    return _result("split_continuity_defining_relation", residual)


def dense_gradient_form(cfg: LatticeConfig, eps_values):
    residual = dense_split_residual(cfg, eps_values, lambda eps, rows: _gradient_kernel(_plane_wave(cfg, eps), rows))
    return _result("split_commutator_gradient_form", residual)


def _bits(result):
    return (result.name, result.passed, result.residual.hex(), result.tolerance, result.detail)


@given(LATTICES, EPS_VALUES, st.integers(1, 3), st.booleans())
@example(LatticeConfig(0.7, 1.3, 2), [0.3, 0.9], 3, False)  # N = 10: blocks of 3, 3, 3 and 1 rows
@example(LatticeConfig(1.0, 16.0, 8), [0.3, 0.9], 3, True)  # N = 34: the last block holds 1 row
@example(LatticeConfig(1e10, 1.0, 3), [0.3], 3, False)  # N = 14: the last block holds 2 rows
@example(LatticeConfig(1.0, 1000.0, 2), [0.3], 3, False)  # verify --delta-p 1000: round-off of E_max/L
@example(LatticeConfig(1e10, 1.0, 2), [0.3], 2, True)  # verify --mass 1e10
@example(LatticeConfig(1.0, 32.0, 32), [0.3], 3, False)  # verify --n-max 32 --delta-p 32: N = 130
@settings(max_examples=150, deadline=None)
def test_kernel_checks_in_row_blocks_equal_the_dense_routes_bit_for_bit(cfg, eps_values, height, corrupt_sign):
    """With a byte budget just short of `height` + 1 rows at 16 bytes an entry, the
    kernel checks read their kernels in blocks of `height` rows, 1 to 3, the last
    one ragged wherever `height` does not divide N, and each result, read in float64,
    equals the complex dense route's to the bit."""
    n = n_slots_for(cfg.n_max)
    blocks = []

    class RecordedRows(_Rows):
        def __init__(self, cfg, start=0, stop=None):
            super().__init__(cfg, start, stop)
            blocks.append(len(range(n)[start:stop]))

    with (
        mock.patch.object(checks, "BLOCK_BYTES", 16 * n * (height + 1) - 1),
        mock.patch.object(checks, "_Rows", RecordedRows),
    ):
        assert _bits(check_continuity(cfg, corrupt_sign)) == _bits(dense_continuity(cfg, corrupt_sign))
        assert _bits(check_split_continuity(cfg, eps_values)) == _bits(dense_split_continuity(cfg, eps_values))
        assert _bits(check_gradient_form(cfg, eps_values)) == _bits(dense_gradient_form(cfg, eps_values))
        assert continuity_pairwise_residual(cfg).hex() == dense_pairwise_residual(cfg).hex()
    per_check = [height] * (n // height) + [n % height] * (n % height > 0)
    assert blocks == per_check * 4


@pytest.mark.parametrize(
    "check",
    [
        lambda cfg, eps_values: check_continuity(cfg),
        check_split_continuity,
        check_gradient_form,
    ],
    ids=["continuity", "split_continuity", "gradient_form"],
)
def test_kernel_checks_build_each_plane_wave_once_however_many_blocks(check):
    """A block does only its O(rows x N) work: the plane waves e(eps) over all N slots are
    built once per eps and handed to the blocks, so N in 5 blocks of 8 rows builds them
    as often as N in one block, at most once per eps; 0.0 and -0.0 are two eps."""
    cfg, eps_values = LatticeConfig(0.7, 1.3, 8), [0.3, 0.9, 0.0, -0.0]
    n = n_slots_for(cfg.n_max)
    built = []

    def plane_wave(cfg, x):
        built.append(x.hex())
        return _plane_wave(cfg, x)

    def calls(block_bytes):
        built.clear()
        with (
            mock.patch.object(checks, "BLOCK_BYTES", block_bytes),
            mock.patch.object(checks, "_plane_wave", plane_wave),
            mock.patch.object(modeops, "_plane_wave", plane_wave),
        ):
            bits = _bits(check(cfg, eps_values))
        return bits, list(built)

    assert n == 34 and checks.BLOCK_BYTES >= 16 * n * n
    whole, blocked = calls(checks.BLOCK_BYTES), calls(16 * n * 8)
    assert blocked == whole
    assert len(blocked[1]) <= len(eps_values)


# A dense complex N x N kernel at n_max 512 (N = 2050) is 64 MiB.  Read in row blocks
# of 1 MiB, the kernel checks trace 6.5-8.8 MiB; with whole kernels they traced 289-385 MiB.
KERNEL_CHECK_PEAK_BYTES = 32 * 2**20


@pytest.mark.parametrize(
    "check",
    [
        lambda cfg: check_continuity(cfg),
        lambda cfg: check_split_continuity(cfg, [0.3, 0.9]),
        lambda cfg: check_gradient_form(cfg, [0.3, 0.9]),
    ],
    ids=["continuity", "split_continuity", "gradient_form"],
)
def test_kernel_checks_never_hold_a_dense_kernel(check):
    cfg = LatticeConfig(1.0, 1.0, 512)
    tracemalloc.start()
    try:
        result = check(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < KERNEL_CHECK_PEAK_BYTES, f"{result.name} peaked at {peak / 2**20:.1f} MiB"


def test_verify_keeps_no_kernel_alive_after_it_returns(tmp_path):
    """What verify at n_max 256 leaves allocated when it returns: the mode tables and the
    CAR sweep's integers, far below one N x N float64 sandwich (8.0 MiB at N = 1026)."""
    argv = ["verify", "--n-max", "256", "--eps", "0.3", "--eps", "0.9", "--out", str(tmp_path / "v.json")]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2**20, f"verify left {grown / 2**20:.1f} MiB allocated"


# Filled by perfbench/run.py itself, not by the tracer's spans.
HARNESS_METRICS = {"wall_s", "top_rung_s", "reference_s", "failed_frac", "trace.overhead_frac"}


def test_every_per_layer_metric_name_resolves_under_the_tracer():
    """perfbench/run.py --trace 1 raises "not produced by the tracer" for a per-layer
    metric that is neither a counter key nor '<module>.<function>.<stat>' of a public
    pointsplit function, so renaming or privatizing such a function breaks the benchmark."""
    spans = _perfbench_module("spans")
    traced = set(spans.public_functions().values())  # cli, imported above, loads every module the tracer wraps
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    unresolved = [
        name
        for name in names
        if name not in HARNESS_METRICS and name not in spans.COUNTER_KEYS and name.rsplit(".", 1)[0] not in traced
    ]
    assert unresolved == []


TRACED_RUNS = [
    ["vacuum", "--n-max", "3", "--eps", "2"],
    ["verify", "--n-max", "1", "--eps", "0.7"],
    ["anomaly", "--n-max", "4", "--f-harmonic", "1:0.5:0", "--eps", "0.05", "--eps", "0.3"],
    ["kernel", "--eps", "0.05", "--eps", "0.3"],
    ["derive"],
]


def test_the_benchmark_tracer_runs_every_subcommand(tmp_path):
    """perfbench/run.py --trace 1 installs spans.Tracer in a fresh interpreter and reads its
    counters off each wrapped call's arguments, so a signature change that breaks a counter
    fails here, not only in the benchmark.  The tracer times only public functions, so each
    exact anomaly route must stay public and run once per anomaly run to keep its span, and
    the split-current value, the finite difference and the kernel asymptote once per eps."""
    code = (
        "import contextlib, importlib.util, io, json, sys\n"
        "import pointsplit.cli as cli\n"
        "spec = importlib.util.spec_from_file_location('spans', sys.argv[1])\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "codes = []\n"
        "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
        "    tracer.invocation = i\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv + ['--out', f'{sys.argv[3]}/{i}.json']))\n"
        "print(json.dumps({'codes': codes, 'spans': [(s[0], s[4], s[5]) for s in tracer.spans]}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", code, str(ROOT / "perfbench" / "spans.py"), json.dumps(TRACED_RUNS), str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(TRACED_RUNS)
    counts = [counts for name, _, counts in result["spans"] if name == "groundstate.ground_state_bruteforce"]
    assert counts == [{"groundstate.enumerated_states": 2**14}]
    anomaly_run = [i for i, argv in enumerate(TRACED_RUNS) if argv[0] == "anomaly"]
    for route in ("anomaly.double_commutator_direct", "anomaly.double_commutator_spectral"):
        assert [inv for name, inv, _ in result["spans"] if name == route] == anomaly_run
    for command, layer in (
        ("anomaly", "anomaly.split_commutator_integral"),
        ("anomaly", "anomaly.finite_difference_limit"),
        ("kernel", "anomaly.kernel_asymptote"),
    ):
        per_eps = [i for i, argv in enumerate(TRACED_RUNS) if argv[0] == command for _ in range(argv.count("--eps"))]
        assert len(per_eps) == 2
        assert [inv for name, inv, _ in result["spans"] if name == layer] == per_eps


def test_each_check_row_is_its_fields_in_order_and_serves_both_tables(tmp_path):
    cfg = LatticeConfig(1.0, 1.0, 1)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
    results = run_verify_suite(cfg, [0.3], f)
    assert cli._COLUMNS["checks"] == [field.name for field in dataclasses.fields(CheckResult)]
    out = tmp_path / "verify.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--n-max", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"] == report["tables"]["checks"] and len(report["checks"]) == 10
    assert report["checks"] == [dataclasses.asdict(result) for result in results]
