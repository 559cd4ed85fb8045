"""Command-line driver: experiment registry, report files, exit codes."""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drcz import cli
from drcz.benchmarking import CliffordGroup
from drcz.cli import EXPERIMENTS, _circuit_bell_reference, main, run_experiment
from drcz.config import DeviceConfig
from drcz.error_channels import CZ4, postselected_fidelity, qutrit_gate_channel
from drcz.gate import derive_gate_params
from drcz.tomography import setting_unitary

SRC = Path(__file__).resolve().parents[1] / "src"

EXPECTED_NAMES = {
    "gate-unitary", "error-budget", "bell-tomography", "repeated-cz",
    "rb", "irb", "irb-accuracy", "leakage-propagation", "calibration",
    "bitflip", "limits",
}


def _load(out_dir, name):
    return json.loads((out_dir / f"{name}.json").read_text())


def test_experiment_registry():
    assert set(EXPERIMENTS) == EXPECTED_NAMES
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("frequency-comb", DeviceConfig.default(), ".")


def test_gate_unitary_report(tmp_path):
    paths = run_experiment("gate-unitary", DeviceConfig.default(), tmp_path)
    assert [p.suffix for p in paths] == [".csv", ".json", ".txt"]
    assert all(p.exists() for p in paths)
    doc = _load(tmp_path, "gate-unitary")
    assert doc["t_swap_us"] == pytest.approx(0.11820330969267138, rel=1e-12)
    assert doc["t_wait_us"] == pytest.approx(0.21292251812189816, rel=1e-12)
    assert doc["gate_duration_us"] == pytest.approx(0.44932913750724096, rel=1e-12)
    assert doc["swapback_pump_phase_rad"] == pytest.approx(-2.5840534430951676, rel=1e-12)
    assert doc["control_frame_phase_rad"] == doc["swapback_pump_phase_rad"]
    assert doc["target_frame_phase_rad"] == 0.0
    assert doc["entangling_phase_rad"] == pytest.approx(np.pi, abs=1e-12)
    assert doc["codespace_infidelity"] == pytest.approx(0.0, abs=1e-12)
    assert doc["on_off_ratio"] == pytest.approx(227.40963855421685, rel=1e-12)
    csv_lines = (tmp_path / "gate-unitary.csv").read_text().splitlines()
    assert csv_lines[0] == "quantity,value"
    assert len(csv_lines) == 1 + len(doc)
    txt = (tmp_path / "gate-unitary.txt").read_text()
    assert txt.startswith("Swap-wait-swap gate at the derived operating point")


def test_reports_are_deterministic(tmp_path):
    a = run_experiment("gate-unitary", DeviceConfig.default(), tmp_path / "a")
    b = run_experiment("gate-unitary", DeviceConfig.default(), tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_limits_report(tmp_path):
    run_experiment("limits", DeviceConfig.default(), tmp_path)
    doc = _load(tmp_path, "limits")
    assert doc["hybridization"] == 1.0
    assert doc["bias_bound"] == 1.0
    assert doc["erasure_control"] == doc["erasure_target"]
    assert doc["erasure_control"] == pytest.approx(1.5157613627799558e-05, rel=1e-12)
    assert doc["dephasing_control"] == pytest.approx(1.059972980965004e-06, rel=1e-12)


def test_bitflip_report(tmp_path):
    run_experiment("bitflip", DeviceConfig.default(), tmp_path)
    doc = _load(tmp_path, "bitflip")
    assert doc["n_gates"] == [1, 10, 25, 50, 100]
    for initial in ("initial_0", "initial_1"):
        flips = doc[initial]["apparent_flip"]
        assert flips[3] == pytest.approx(0.0004667303451853888, rel=1e-9)
        assert flips == sorted(flips)
        assert doc[initial]["slope_per_gate"] == pytest.approx(
            5.062741394936229e-06, rel=1e-9)
    # the protocol cannot tell which code state idles: identical traces
    assert doc["initial_0"] == doc["initial_1"]
    csv_lines = (tmp_path / "bitflip.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 2 * 5


def test_leakage_propagation_report(tmp_path):
    run_experiment("leakage-propagation", DeviceConfig.default(), tmp_path)
    doc = _load(tmp_path, "leakage-propagation")
    assert doc["equal_mixture_offdiag_magnitude"] == pytest.approx(
        1.0 / np.pi, rel=1e-15)
    one = doc["prep_1"]
    assert one["diagonal"][0] == pytest.approx(0.002410796357636249, rel=1e-9)
    # chi_II = chi_ZZ exactly on paper (Re sum k00^* k11 = 0); the sum of
    # 1,600 Kraus terms leaves a residual of a few ulps
    assert one["diagonal"][3] == pytest.approx(one["diagonal"][0], rel=1e-15)
    assert one["iz_offdiag_imag"] == pytest.approx(-0.001497278859910507, rel=1e-9)
    zero = doc["prep_0"]
    assert zero["diagonal"][1:] == [0.0, 0.0, 0.0]
    assert zero["iz_offdiag_imag"] == 0.0
    erased = doc["prep_erased"]
    assert erased["diagonal"] == [1.0, 0.0, 0.0, 0.0]
    csv_lines = (tmp_path / "leakage-propagation.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 3 * 16


def test_error_budget_report(tmp_path):
    run_experiment("error-budget", DeviceConfig.default(), tmp_path)
    doc = _load(tmp_path, "error-budget")
    simulated = doc["simulated"]
    assert simulated["no_error"] == pytest.approx(0.9953613510290648, rel=1e-9)
    assert simulated["control_loss"] == pytest.approx(0.00337294373919447, rel=1e-9)
    assert doc["erasure_total"] == pytest.approx(0.0044225037165217616, rel=1e-9)
    cfg = DeviceConfig.default()
    measured = doc["measured_short_depth"]
    assert measured["control_leak"] == cfg.cz_leak_control
    assert measured["target_leak"] == cfg.cz_leak_target
    assert measured["control_z"] == cfg.cz_z_control
    assert measured["target_z"] == cfg.cz_z_target
    # simulated and measured rates are reported side by side, not reconciled
    assert "agreement is not forced" in doc["note"]


def _assert_three_reports(paths, name):
    assert [p.name for p in paths] == [f"{name}.csv", f"{name}.json", f"{name}.txt"]
    assert all(p.stat().st_size > 0 for p in paths)


def test_bell_tomography_report(tmp_path):
    paths = run_experiment("bell-tomography", DeviceConfig.default(), tmp_path)
    _assert_three_reports(paths, "bell-tomography")
    totals = {}
    for line in (tmp_path / "bell-tomography.csv").read_text().splitlines()[1:]:
        sc, st, _, _, prob = line.split(",")
        totals[(sc, st)] = totals.get((sc, st), 0.0) + float(prob)
    assert len(totals) == 36
    for pair, total in totals.items():
        assert total == pytest.approx(1.0, abs=1e-9), pair


def test_repeated_cz_report(tmp_path):
    paths = run_experiment("repeated-cz", DeviceConfig.default(), tmp_path)
    _assert_three_reports(paths, "repeated-cz")
    doc = _load(tmp_path, "repeated-cz")
    kept = doc["kept_fraction"]
    assert len(kept) == len(doc["n_gates"])
    assert all(later < earlier for earlier, later in zip(kept, kept[1:]))
    assert doc["erasure_per_gate_from_kept"] > 0.0


def test_calibration_report(tmp_path):
    cfg = DeviceConfig.default()
    paths = run_experiment("calibration", cfg, tmp_path)
    _assert_three_reports(paths, "calibration")
    doc = _load(tmp_path, "calibration")
    t_swap, t_wait, _ = derive_gate_params(cfg.system_params())
    assert abs(doc["swap_duration_us"] - t_swap) <= doc["swap_duration_step"]
    assert abs(doc["wait_duration_us"] - t_wait) <= doc["wait_duration_step"]


def _in_unit_interval(values):
    return all(0.0 <= v <= 1.0 for v in values)


def test_rb_report(tmp_path):
    paths = run_experiment("rb", DeviceConfig.default(), tmp_path)
    _assert_three_reports(paths, "rb")
    doc = _load(tmp_path, "rb")
    assert len(doc["postselected_survival"]) == len(doc["depths"])
    assert _in_unit_interval(doc["postselected_survival"])
    assert _in_unit_interval(doc["kept_fraction"])
    rows = [line.split(",") for line in
            (tmp_path / "rb.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(doc["depths"])
    assert _in_unit_interval([float(v) for row in rows for v in row[1:]])


def test_irb_report(tmp_path):
    paths = run_experiment("irb", DeviceConfig.default(), tmp_path)
    _assert_three_reports(paths, "irb")
    doc = _load(tmp_path, "irb")
    rows = [line.split(",") for line in
            (tmp_path / "irb.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(doc["depths"])
    # reference and interleaved survival and kept fractions
    assert _in_unit_interval([float(v) for row in rows for v in row[1:]])
    assert 0.0 < doc["cz_infidelity_true"] < 1.0


def test_irb_draws_each_depth_once_and_calls_no_simulate_rb(tmp_path, monkeypatch):
    calls = []
    inverse_of = CliffordGroup.inverse_of

    def counted(self, tables):
        calls.append(np.shape(tables)[:-1])
        return inverse_of(self, tables)

    def refused(*args, **kwargs):
        raise AssertionError("irb called simulate_rb")

    monkeypatch.setattr(CliffordGroup, "inverse_of", counted)
    monkeypatch.setattr(cli, "simulate_rb", refused)
    run_experiment("irb", DeviceConfig.default(), tmp_path)
    # 96 sequences (6 depths, 16 seeds), each recovered once without CZ
    # (the reference) and once with it, in one lookup per depth
    assert len(calls) == 6
    assert sum(math.prod(shape) for shape in calls) == 192


def _columns(path):
    """The CSV report's columns by header name, as floats."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return {name: [float(row[k]) for row in rows] for k, name in enumerate(header)}


@pytest.mark.parametrize("include_static_kerr", [False, True], ids=["no-kerr", "kerr"])
@pytest.mark.parametrize("seed", [0, 3])
def test_irb_reference_columns_equal_the_rb_report(tmp_path, seed, include_static_kerr):
    # the same sequences, noise and readout through two engines: rb steps
    # each sequence alone (simulate_rb), irb runs its reference as slot 0
    # of the batched pass
    cfg = DeviceConfig.default()
    rb, irb = [_columns(run_experiment(name, cfg, tmp_path, seed=seed,
                                       include_static_kerr=include_static_kerr)[0])
               for name in ("rb", "irb")]
    assert irb["depth"] == rb["depth"]
    np.testing.assert_allclose(irb["reference_survival"], rb["postselected_survival"],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(irb["reference_kept"], rb["kept_fraction"], rtol=0, atol=1e-12)


def test_irb_accuracy_report(tmp_path):
    paths = run_experiment("irb-accuracy", DeviceConfig.default(), tmp_path)
    _assert_three_reports(paths, "irb-accuracy")
    doc = _load(tmp_path, "irb-accuracy")
    assert 0.6 <= doc["slope"] <= 1.1
    rows = (tmp_path / "irb-accuracy.csv").read_text().splitlines()[1:]
    assert len(rows) == 40


def test_irb_accuracy_seeds_draw_different_rates(tmp_path):
    # the study's seed is 20260813 + --seed: --seed 0 must not collide with
    # --seed 20260813
    cfg = DeviceConfig.default()
    csvs = [run_experiment("irb-accuracy", cfg, tmp_path / str(seed), seed=seed)[0]
            for seed in (0, 20260813)]
    assert csvs[0].read_bytes() != csvs[1].read_bytes()


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES - {"gate-unitary", "error-budget"}))
def test_truncation_is_refused_where_it_is_not_read(tmp_path, name):
    with pytest.raises(ValueError, match=name):
        run_experiment(name, DeviceConfig.default(), tmp_path, truncation=3)
    assert not any(tmp_path.iterdir())


def test_main_truncation_on_an_experiment_that_ignores_it_exits_3(tmp_path, capsys):
    code = main(["leakage-propagation", "--truncation", "3", "--out", str(tmp_path)])
    assert code == 3
    assert "leakage-propagation" in capsys.readouterr().err


KERR_IGNORED = ("bell-tomography", "calibration", "irb-accuracy",
                "leakage-propagation", "limits", "repeated-cz")


@pytest.mark.parametrize("name", KERR_IGNORED)
def test_static_kerr_is_refused_where_it_is_not_read(tmp_path, name):
    with pytest.raises(ValueError, match=f"{name}.*--include-static-kerr"):
        run_experiment(name, DeviceConfig.default(), tmp_path, include_static_kerr=True)
    assert not any(tmp_path.iterdir())


def test_main_static_kerr_on_an_experiment_that_ignores_it_exits_3(tmp_path, capsys):
    code = main(["limits", "--include-static-kerr", "--out", str(tmp_path)])
    assert code == 3
    assert "limits" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["rb", "irb", "irb-accuracy"])
def test_a_negative_seed_is_refused(tmp_path, capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--seed", "-1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        run_experiment(name, DeviceConfig.default(), tmp_path, seed=-1)
    assert not any(tmp_path.iterdir())


def test_irb_accuracy_reads_its_operating_point_from_the_config(tmp_path, capsys):
    # postselection discards a detected leak, so a dephasing rate is what
    # moves the postselected infidelity
    cfg = dataclasses.replace(DeviceConfig.default(), cz_z_control=0.002)
    assert main(["irb-accuracy", "--config", str(cfg.save(tmp_path / "device.ini")),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    moved = _load(tmp_path, "irb-accuracy")["operating_point_true"]
    want = 1.0 - postselected_fidelity(qutrit_gate_channel(cfg.channel_rates()), CZ4)
    default = 1.0 - postselected_fidelity(
        qutrit_gate_channel(DeviceConfig.default().channel_rates()), CZ4)
    assert moved == pytest.approx(want, rel=1e-12)
    assert abs(moved - default) > 1e-4


def _env(**extra):
    """This environment with the checkout's src first on the import path."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))


def _report_bytes(out_dir, blas_threads, runs):
    env = _env(OPENBLAS_NUM_THREADS=str(blas_threads))
    reports = {}
    for run in runs:
        run_dir = out_dir / "_".join(run)
        subprocess.run([sys.executable, "-m", "drcz.cli", *run, "--out", str(run_dir)],
                       env=env, check=True, capture_output=True)
        reports.update({f"{run_dir.name}/{p.name}": p.read_bytes()
                        for p in sorted(run_dir.iterdir())})
    return reports


# the experiments that build no open-system gate map and fit no free decay
SCIPY_FREE = ("gate-unitary", "leakage-propagation", "calibration", "limits",
              "bitflip", "irb", "irb-accuracy")


def _scipy_modules_after(code):
    code += "\nprint(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    out = subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_and_the_scipy_free_experiments_load_no_scipy(tmp_path):
    # scipy is imported only inside the functions that call it
    # (lindblad.expm and the rb fit), so neither importing the package nor
    # running an experiment that never reaches them loads any scipy module
    assert _scipy_modules_after("import sys, drcz") == "[]"
    runs = "\n".join(f"run_experiment({name!r}, cfg, {str(tmp_path / name)!r})"
                      for name in SCIPY_FREE)
    code = ("import sys\nfrom drcz.cli import run_experiment\n"
            f"from drcz.config import DeviceConfig\ncfg = DeviceConfig.default()\n{runs}")
    assert _scipy_modules_after(code) == "[]"


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # Every experiment but limits, at both truncations where it reads the
    # flag.  The LU factorization in scipy.linalg.expm's Pade solve rounds
    # differently with one and two OpenBLAS threads at large dimensions;
    # the gate map exponentiates blocks of at most 18 entries and
    # gate-unitary takes its exponentials from small eigh blocks, so the
    # last digits must not depend on the thread count.
    runs = [(name,) for name in ("leakage-propagation", "calibration", "rb", "irb",
                                 "irb-accuracy", "bitflip", "gate-unitary",
                                 "error-budget", "bell-tomography", "repeated-cz")]
    runs += [(name, "--truncation", "3") for name in ("gate-unitary", "error-budget")]
    one = _report_bytes(tmp_path / "one", 1, runs)
    two = _report_bytes(tmp_path / "two", 2, runs)
    assert len(one) == 3 * len(runs)
    assert one == two


def test_circuit_bell_reference():
    r = setting_unitary("X90")
    x = setting_unitary("X180")
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    v0 = np.kron(r[:, 0], r[:, 0])
    np.testing.assert_allclose(_circuit_bell_reference(1), cz @ v0, atol=1e-15)
    echoed3 = cz @ cz @ np.kron(x, x) @ cz @ v0
    np.testing.assert_allclose(_circuit_bell_reference(3), echoed3, atol=1e-15)
    even2 = cz @ cz @ v0
    np.testing.assert_allclose(_circuit_bell_reference(2), even2, atol=1e-15)
    for n in (1, 2, 3, 5):
        assert np.linalg.norm(_circuit_bell_reference(n)) == pytest.approx(1.0)


def test_main_success(tmp_path, capsys):
    code = main(["limits", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert all(str(tmp_path) in line for line in printed)


@pytest.mark.parametrize("experiment", ["gate-unitary", "bitflip"])
@pytest.mark.parametrize("file_name", ["device.ini", "device.json"])
def test_main_config_round_trip(tmp_path, capsys, file_name, experiment):
    cfg_path = DeviceConfig.default().save(tmp_path / file_name)
    assert main([experiment, "--config", str(cfg_path),
                 "--out", str(tmp_path / "from_file")]) == 0
    assert main([experiment, "--out", str(tmp_path / "builtin")]) == 0
    capsys.readouterr()
    got = (tmp_path / "from_file" / f"{experiment}.json").read_bytes()
    want = (tmp_path / "builtin" / f"{experiment}.json").read_bytes()
    assert got == want


def test_main_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.ini"
    bad.write_text("[hamiltonian]\nchi_bc_mhz = not_a_number\n")
    code = main(["limits", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["irb", "error-budget"])
def test_main_short_depth_rates_over_1_exit_2(tmp_path, capsys, experiment):
    # irb would die on the rates, error-budget never reads them: both refuse
    # the file as a config problem
    text = DeviceConfig.default().to_text()
    bad = tmp_path / "device.ini"
    bad.write_text(text.replace("control_z = 0.00039", "control_z = 0.6").replace(
        "target_z = 0.000112", "target_z = 0.5"))
    assert bad.read_text() != text
    code = main([experiment, "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: [short_depth_rates]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_unwritable_out_exits_3(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("already a file\n")
    code = main(["limits", "--out", str(blocker)])
    assert code == 3
    assert "experiment error" in capsys.readouterr().err


def test_main_rejects_unknown_experiment():
    with pytest.raises(SystemExit) as exc:
        main(["frequency-comb"])
    assert exc.value.code == 2
