import json
import math

import numpy as np
import pytest

from mixest.bayes import Prior
from mixest.cli import build_parser, load_problem, main, matrix_from_json, matrix_to_json
from mixest.highdim import solve
from mixest.randutil import haar_vector, random_commuting_pair, random_density
from mixest.simulate import DecoherenceModel, run_simulation, solve_decay_estimation
from mixest.states import PAULIS, validate_state


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def matrix_json(m):
    return matrix_to_json(np.asarray(m, dtype=complex))


def problem_file(tmp_path, rho1, rho2, prior=None, name="problem.json", options=None):
    obj = {"rho1": matrix_json(rho1), "rho2": matrix_json(rho2)}
    obj["prior"] = prior or {"kind": "uniform"}
    if options:
        obj["options"] = options
    return write_json(tmp_path / name, obj)


def orthogonal_pure_problem(tmp_path):
    return problem_file(tmp_path, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def one_by_one_problem(tmp_path):
    return problem_file(tmp_path, np.eye(1), np.eye(1))


def tilted_noise_pair(rng, dim, eps, weight=1.0, skew=0.0):
    """A pure state, mixed into white noise at ``weight``, against noise tilted by ``eps``.

    The tilt is eps (|psi><chi| + h.c.) with chi orthogonal to psi, so the
    states do not commute, and the embedding's rebuilt effects miss
    positivity only at order eps^2 (about 1e-13 at eps = 1e-6).  ``skew``
    adds skew (|psi><chi| - h.c.), an anti-Hermitian part that the state
    check tolerates.
    """
    psi = haar_vector(rng, dim)
    chi = haar_vector(rng, dim)
    chi -= np.vdot(psi, chi) * psi
    chi /= np.linalg.norm(chi)
    a = np.outer(psi, chi.conj())
    rho1 = (1.0 - weight) * np.eye(dim) / dim + weight * np.outer(psi, psi.conj())
    rho2 = np.eye(dim) / dim + eps * (a + a.conj().T) + skew * (a - a.conj().T)
    return rho1, rho2


class TestSolve:
    def test_orthogonal_pure_benchmark(self, tmp_path, capsys):
        problem = orthogonal_pure_problem(tmp_path)
        assert main(["solve", "--problem", problem]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kind"] == "qubit"
        assert result["mean_variance"] == pytest.approx(1 / 18, abs=1e-12)
        estimates = sorted(o["estimate"] for o in result["outcomes"])
        assert estimates == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_identical_states_exit_two(self, tmp_path, capsys):
        problem = problem_file(tmp_path, np.eye(2) / 2, np.eye(2) / 2)
        assert main(["solve", "--problem", problem]) == 2
        assert "error" in capsys.readouterr().err

    def test_commuting_qutrit(self, tmp_path, capsys):
        problem = problem_file(tmp_path, np.diag([0.5, 0.3, 0.2]), np.diag([0.2, 0.3, 0.5]))
        assert main(["solve", "--problem", problem]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kind"] == "commuting"
        assert len(result["outcomes"]) == 3
        for o in result["outcomes"]:
            effect = matrix_from_json(o["effect"])
            off = effect - np.diag(np.diag(effect))
            assert np.max(np.abs(off)) < 1e-9

    def test_near_commuting_pair_exits_zero(self, tmp_path, capsys):
        # the commutator (3.2e-10) passes the commuting check, and the answer
        # comes from the SLD eigenspaces, not from a joint diagonalisation
        rho1, rho2 = tilted_noise_pair(np.random.default_rng(4), 4, 5e-8, weight=0.01)
        problem = problem_file(tmp_path, rho1, rho2)
        assert main(["solve", "--problem", problem]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "commuting"

    def test_unreduced_exit_three(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho1 = x @ x.conj().T
        rho1 /= np.trace(rho1).real
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho2 = y @ y.conj().T
        rho2 /= np.trace(rho2).real
        problem = problem_file(tmp_path, rho1, rho2)
        assert main(["solve", "--problem", problem]) == 3
        captured = capsys.readouterr()
        result = json.loads(captured.out)
        assert result["kind"] == "unreduced"
        assert not result["positivity_ok"]
        assert "unsolved" in captured.err

    def test_prior_override_inline(self, tmp_path, capsys):
        problem = orthogonal_pure_problem(tmp_path)
        arg = json.dumps({"kind": "trunc_reciprocal", "t_bmax": math.log(2.0)})
        assert main(["solve", "--problem", problem, "--prior", arg]) == 0
        result = json.loads(capsys.readouterr().out)
        estimates = [o["estimate"] for o in result["outcomes"]]
        assert max(estimates) > 2 / 3  # reciprocal prior leans toward 1

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["solve", "--problem", str(bad)]) == 2

    def test_nan_state_exit_two(self, tmp_path, capsys):
        nan_state = {"dim": 2, "re": [[math.nan, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        problem = write_json(
            tmp_path / "nan.json", {"rho1": nan_state, "rho2": matrix_json(np.eye(2) / 2)}
        )
        assert main(["solve", "--problem", problem]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_list_problem_exit_two(self, tmp_path, capsys):
        problem = write_json(tmp_path / "list.json", [1, 2, 3])
        assert main(["solve", "--problem", problem]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_object_options_exit_two(self, tmp_path, capsys):
        problem = problem_file(tmp_path, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), options=[5])
        assert main(["solve", "--problem", problem]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("dim", [2.7, 2.0, "2", True])
    def test_non_integer_matrix_dim_exit_two(self, tmp_path, capsys, dim):
        rho1 = dict(matrix_json(np.diag([1.0, 0.0])), dim=dim)
        problem = write_json(tmp_path / "dim.json", {"rho1": rho1, "rho2": matrix_json(np.eye(2) / 2)})
        assert main(["solve", "--problem", problem]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: matrix dim must be an integer")

    @pytest.mark.parametrize("option", [["--explore", "3"], ["--seed", "1"]])
    def test_removed_options_exit_two(self, tmp_path, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", orthogonal_pure_problem(tmp_path)] + option)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err

    def test_explore_option_is_ignored(self, tmp_path, capsys):
        # a huge options.explore once scored random POVMs until the process was killed
        problem = problem_file(tmp_path, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), options={"explore": 10**30})
        assert main(["solve", "--problem", problem]) == 0
        assert not any(key.startswith("explore") for key in json.loads(capsys.readouterr().out))

    def test_one_by_one_states_exit_two(self, tmp_path, capsys):
        assert main(["solve", "--problem", one_by_one_problem(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: states are 1x1 matrices")

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        problem = orthogonal_pure_problem(tmp_path)
        out = tmp_path / "missing" / "x.json"
        assert main(["solve", "--problem", problem, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_table_prior_from_file(self, tmp_path, capsys):
        prior = {"kind": "table", "lambda": [0.0, 0.5, 1.0], "density": [0.2, 1.0, 0.4]}
        problem = problem_file(tmp_path, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), prior=prior)
        assert main(["solve", "--problem", problem]) == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.0 < result["mean_variance"] < 1 / 12


class TestSweepGamma:
    def test_zero_crossings_at_right_angles(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-gamma", "--rb", "0.8", "--points", "4", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "gamma,alpha0,q_max"
        table = {round(float(r.split(",")[0]), 9): float(r.split(",")[1]) for r in rows[1:]}
        assert abs(table[round(math.pi / 2, 9)]) < 1e-9
        assert abs(table[round(-math.pi / 2, 9)]) < 1e-9

    def test_rb_zero_gives_zero_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-gamma", "--rb", "0.0", "--points", "12", "--out", str(out)]) == 0
        for row in out.read_text().strip().splitlines()[1:]:
            assert abs(float(row.split(",")[1])) < 1e-9

    def test_tilt_sign_structure(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-gamma", "--rb", "0.8", "--points", "8", "--out", str(out)]) == 0
        table = {
            round(float(r.split(",")[0]), 9): float(r.split(",")[1])
            for r in out.read_text().strip().splitlines()[1:]
        }
        assert table[round(-math.pi / 4, 9)] > 0.1
        assert table[round(math.pi / 4, 9)] < -0.1

    def test_never_writes_negative_zero(self, tmp_path):
        for rb in ("0.0", "0.3", "0.8", "0.999"):
            out = tmp_path / f"sweep-{rb}.csv"
            assert main(["sweep-gamma", "--rb", rb, "--points", "12", "--out", str(out)]) == 0
            rows = out.read_text().strip().splitlines()[1:]
            assert any(r.split(",")[0] == "0" for r in rows)
            for row in rows:
                assert "-0" not in row.split(","), row

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["sweep-gamma", "--rb", "0.8", "--points", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_rb_exit_two(self):
        assert main(["sweep-gamma", "--rb", "1.5", "--points", "4"]) == 2

    @pytest.mark.parametrize("delta_r", ["inf", "nan"])
    def test_non_finite_delta_r_exit_two(self, capsys, delta_r):
        assert main(["sweep-gamma", "--rb", "0.5", "--delta-r", delta_r]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_overflowing_delta_r_exit_two(self, capsys):
        assert main(["sweep-gamma", "--rb", "0.5", "--points", "2", "--delta-r", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err


class TestSimulate:
    def test_matches_analytic_value(self, tmp_path):
        problem = orthogonal_pure_problem(tmp_path)
        out = tmp_path / "sim.csv"
        assert main(
            ["simulate", "--problem", problem, "--n-trials", "20000", "--seed", "7", "--out", str(out)]
        ) == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "seed,n_trials,empirical_mse,analytic_mean_variance,std_error"
        seed, n, mse, mv, err = row.split(",")
        assert (int(seed), int(n)) == (7, 20000)
        assert float(mv) == pytest.approx(1 / 18, abs=1e-12)
        assert abs(float(mse) - float(mv)) <= 4 * float(err)

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        problem = orthogonal_pure_problem(tmp_path)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        trials_a = tmp_path / "ta.csv"
        trials_b = tmp_path / "tb.csv"
        args = ["simulate", "--problem", problem, "--n-trials", "2000", "--seed", "9"]
        assert main(args + ["--out", str(first), "--trials-out", str(trials_a)]) == 0
        assert main(args + ["--out", str(second), "--trials-out", str(trials_b)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert trials_a.read_bytes() == trials_b.read_bytes()

    def test_trials_out_builds_no_records(self, tmp_path, monkeypatch):
        def no_records(*args):
            raise RuntimeError("a TrialRecord was built")

        monkeypatch.setattr("mixest.simulate.TrialRecord", no_records)
        problem = orthogonal_pure_problem(tmp_path)
        trials = tmp_path / "trials.csv"
        assert main(["simulate", "--problem", problem, "--n-trials", "50", "--trials-out", str(trials)]) == 0
        assert len(trials.read_text().splitlines()) == 51
        # the stub sits where run_simulation builds its records
        rho1, rho2, prior, _ = load_problem(problem)
        povm = solve(prior, rho1, rho2).report.povm
        with pytest.raises(RuntimeError, match="TrialRecord"):
            run_simulation(povm, prior, rho1, rho2, 50, 0, return_records=True)

    def test_invalid_povm_file_exit_two(self, tmp_path):
        problem = orthogonal_pure_problem(tmp_path)
        povm = write_json(
            tmp_path / "povm.json",
            {"effects": [matrix_json(0.5 * np.eye(2)), matrix_json(0.4 * np.eye(2))]},
        )
        assert main(["simulate", "--problem", problem, "--povm", povm]) == 2

    @pytest.mark.parametrize("content", [5, {"effects": 5}], ids=["top_level_int", "effects_int"])
    def test_malformed_povm_file_exit_two(self, tmp_path, capsys, content):
        problem = orthogonal_pure_problem(tmp_path)
        povm = write_json(tmp_path / "povm.json", content)
        assert main(["simulate", "--problem", problem, "--povm", povm, "--n-trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_povm_with_non_integer_dim_exit_two(self, tmp_path, capsys):
        problem = orthogonal_pure_problem(tmp_path)
        effects = [matrix_json(np.diag([1.0, 0.0])), dict(matrix_json(np.diag([0.0, 1.0])), dim=2.0)]
        povm = write_json(tmp_path / "povm.json", {"effects": effects})
        assert main(["simulate", "--problem", problem, "--povm", povm, "--n-trials", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: matrix dim must be an integer")

    def test_unallocatable_trial_count_exit_two(self, tmp_path, capsys):
        # numpy refuses the 7 PiB array at once, before any memory is touched
        problem = orthogonal_pure_problem(tmp_path)
        assert main(["simulate", "--problem", problem, "--n-trials", "1000000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_povm_with_overflowing_entries_exit_two(self, tmp_path, capsys):
        # finite entries whose eigenvalues are +-1.5e308: not an effect
        problem = orthogonal_pure_problem(tmp_path)
        e = np.array([[0.0, 1.5e308], [1.5e308, 0.0]])
        povm = write_json(tmp_path / "povm.json", {"effects": [matrix_json(e), matrix_json(np.eye(2) - e)]})
        assert main(["simulate", "--problem", problem, "--povm", povm, "--n-trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: matrix is not positive semidefinite")

    @pytest.mark.parametrize("povm", ["optimal", "file"])
    def test_states_of_different_dimensions_exit_two(self, tmp_path, capsys, povm):
        problem = problem_file(tmp_path, np.diag([1.0, 0.0]), np.eye(3) / 3)
        if povm == "file":
            effects = [matrix_json(np.diag([1.0, 0.0])), matrix_json(np.diag([0.0, 1.0]))]
            povm = write_json(tmp_path / "povm.json", {"effects": effects})
        assert main(["simulate", "--problem", problem, "--povm", povm, "--n-trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: states have different dimensions 2 vs 3\n"

    def test_one_by_one_states_exit_two(self, tmp_path, capsys):
        assert main(["simulate", "--problem", one_by_one_problem(tmp_path), "--n-trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: states are 1x1 matrices")

    def test_unsolved_problem_exit_three_with_message(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        rho1, rho2 = random_density(rng, 3), random_density(rng, 3)
        outcome = solve(Prior.uniform(), rho1, rho2)
        assert outcome.report is None
        problem = problem_file(tmp_path, rho1.matrix, rho2.matrix)
        assert main(["simulate", "--problem", problem, "--povm", "optimal", "--n-trials", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"unsolved case: {outcome.certificate}\n"
        assert main(["solve", "--problem", problem]) == 3
        assert capsys.readouterr().err == captured.err

    @pytest.mark.parametrize("n_trials", [60, 300])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_optimal_povm_matches_json_round_trip(self, tmp_path, capsys, dim, n_trials):
        # the reference sends the solved POVM through matrix_to_json, then
        # --povm reads it back with matrix_from_json and validate_povm
        rng = np.random.default_rng(dim)
        psi = haar_vector(rng, dim)
        pairs = [
            tuple(s.matrix for s in random_commuting_pair(rng, dim)),
            (np.outer(psi, psi.conj()), np.eye(dim) / dim),
        ]
        v, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
        pairs.append(tuple(v @ random_density(rng, 2).matrix @ v.conj().T for _ in range(2)))
        pairs.append(tilted_noise_pair(rng, dim, 1e-6))
        kinds = []
        trials = tmp_path / "trials.csv"

        def simulate(problem, povm):
            argv = ["simulate", "--problem", problem, "--povm", povm, "--n-trials", str(n_trials),
                    "--seed", "11", "--trials-out", str(trials)]
            return main(argv), capsys.readouterr(), trials.read_bytes()

        for k, (rho1, rho2) in enumerate(pairs):
            for prior in ({"kind": "uniform"}, {"kind": "trunc_reciprocal", "t_bmax": 1.3}):
                problem = problem_file(tmp_path, rho1, rho2, prior, name=f"p{k}.json")
                s1, s2, loaded_prior, _ = load_problem(problem)
                outcome = solve(loaded_prior, s1, s2)
                kinds.append(outcome.kind.value)
                effects = [matrix_to_json(e.matrix) for e in outcome.report.povm]
                povm = write_json(tmp_path / "povm.json", {"effects": effects})
                direct = simulate(problem, "optimal")
                assert direct[0] == 0
                assert simulate(problem, povm) == direct
        if dim > 2:
            routes = ["commuting", "pure_with_noise", "two_dim_subspace", "embedded"]
            assert kinds == [k for k in routes for _ in range(2)]

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_optimal_povm_simulates_what_solve_reports(self, tmp_path, capsys, dim):
        # the states' anti-Hermitian part, which the state check accepts,
        # would leave the embedding's rebuilt effects off Hermitian by
        # 3e-10 to 6e-10; they are made exactly Hermitian, so --povm FILE
        # accepts the effects solve printed
        rho1, rho2 = tilted_noise_pair(np.random.default_rng(dim), dim, 1e-6, weight=0.1, skew=4e-11)
        problem = problem_file(tmp_path, rho1, rho2)
        assert main(["solve", "--problem", problem]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kind"] == "embedded"
        assert main(["simulate", "--problem", problem, "--povm", "optimal", "--n-trials", "60"]) == 0
        direct = capsys.readouterr()
        assert direct.out.startswith("seed,n_trials,")
        povm = write_json(tmp_path / "povm.json", {"effects": [o["effect"] for o in result["outcomes"]]})
        assert main(["simulate", "--problem", problem, "--povm", povm, "--n-trials", "60"]) == 0
        assert capsys.readouterr() == direct

    def test_round_trip_scoring(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        v = rng.normal(size=3)
        v *= 0.8 / np.linalg.norm(v)
        w = rng.normal(size=3)
        w *= 0.5 / np.linalg.norm(w)
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        rho1 = 0.5 * (np.eye(2) + sum(vi * p for vi, p in zip(v, paulis)))
        rho2 = 0.5 * (np.eye(2) + sum(wi * p for wi, p in zip(w, paulis)))
        problem = problem_file(tmp_path, rho1, rho2)
        assert main(["solve", "--problem", problem]) == 0
        solved = json.loads(capsys.readouterr().out)
        povm_file = write_json(
            tmp_path / "povm.json", {"effects": [o["effect"] for o in solved["outcomes"]]}
        )
        out = tmp_path / "sim.csv"
        assert main(
            [
                "simulate", "--problem", problem, "--povm", povm_file,
                "--n-trials", "10", "--seed", "1", "--out", str(out),
            ]
        ) == 0
        row = out.read_text().strip().splitlines()[1]
        analytic = float(row.split(",")[3])
        assert analytic == pytest.approx(solved["mean_variance"], abs=1e-10)


class TestDecoherence:
    def test_reports_prior_mean(self, capsys):
        assert main(
            [
                "decoherence", "--s", "0.5", "--t", "1.0", "--bmax", str(math.log(2.0)),
                "--n-trials", "5000", "--seed", "2",
            ]
        ) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["prior_mean"] == pytest.approx(0.7213475204444817, abs=1e-10)
        assert result["simulation"]["consistent"]
        assert all(0.0 <= b <= math.log(2.0) + 1e-9 for b in result["b_plugin_estimates"])

    def test_uniform_flag_matches_solve(self, tmp_path, capsys):
        assert main(
            [
                "decoherence", "--s", "0.5", "--t", "1.0", "--bmax", "0.7",
                "--uniform-prior", "--n-trials", "10", "--seed", "0",
            ]
        ) == 0
        dec = json.loads(capsys.readouterr().out)
        problem = problem_file(tmp_path, np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
        assert main(["solve", "--problem", problem]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert dec["mean_variance"] == pytest.approx(solved["mean_variance"], abs=1e-12)

    def test_bad_parameter_exit_two(self):
        assert main(["decoherence", "--s", "2.0", "--t", "1.0", "--bmax", "1.0"]) == 2

    def test_nan_time_exit_two(self, capsys):
        assert main(["decoherence", "--s", "0.5", "--t", "nan", "--bmax", "1.0"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_rho0_with_non_integer_dim_exit_two(self, tmp_path, capsys):
        rho0 = write_json(tmp_path / "rho0.json", dict(matrix_json(np.diag([1.0, 0.0])), dim="2"))
        assert main(["decoherence", "--s", "0.5", "--t", "1.0", "--bmax", "1.0", "--rho0", rho0]) == 2
        assert capsys.readouterr().err.startswith("error: matrix dim must be an integer")

    def test_unallocatable_trial_count_exit_two(self, capsys):
        argv = ["decoherence", "--s", "0.5", "--t", "1", "--bmax", "1", "--n-trials", "1000000000000000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestSelftest:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_runs_clean(self, seed, capsys):
        # the checks draw random inputs; several seeds expose a fragile bound
        assert main(["selftest", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out

    def test_negative_seed_exit_two_before_any_check(self, capsys):
        assert main(["selftest", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -1\n"


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_calls(self, tmp_path, capsys):
        problem = orthogonal_pure_problem(tmp_path)
        csv = tmp_path / "sim.csv"
        sim = ["simulate", "--problem", problem, "--n-trials", "50", "--seed", "4"]
        calls = [
            ["solve", "--problem", problem, "--prior", '{"kind": "trunc_reciprocal", "t_bmax": 1.3}'],
            ["solve", "--problem", problem],
            sim + ["--out", str(csv)],
            sim,
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            written = csv.read_text() if csv.exists() else None
            if csv.exists():
                csv.unlink()
            return code, captured.out, captured.err, written

        assert build_parser() is build_parser()
        reused = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert reused[0][1] != reused[1][1]
        assert reused[2][1] == "" and reused[2][3] == reused[3][1]


class TestLinAlgError:
    def test_failed_decomposition_exit_two(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("mixest.highdim.optimal_pvm", no_convergence)
        assert main(["solve", "--problem", orthogonal_pure_problem(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Eigenvalues did not converge\n"


class TestOverflowingJsonInteger:
    """A JSON integer too large for a float is an input error, wherever it enters."""

    @pytest.mark.parametrize("entry", ["matrix", "t_bmax", "table_lambda", "povm_file", "prior_arg", "rho0"])
    def test_exit_two_without_traceback(self, tmp_path, capsys, entry):
        huge = 10**400
        bad_matrix = matrix_json(np.diag([1.0, 0.0]))
        bad_matrix["re"][0][0] = huge
        ok = orthogonal_pure_problem(tmp_path)
        priors = {"t_bmax": {"kind": "trunc_reciprocal", "t_bmax": huge},
                  "table_lambda": {"kind": "table", "lambda": [0.0, huge], "density": [1.0, 1.0]}}
        if entry == "matrix":
            bad = write_json(tmp_path / "bad.json", {"rho1": bad_matrix, "rho2": matrix_json(np.diag([0.0, 1.0]))})
            argv = ["solve", "--problem", bad]
        elif entry in priors:
            argv = ["solve", "--problem", problem_file(tmp_path, np.diag([1.0, 0.0]), np.eye(2) / 2,
                                                       prior=priors[entry], name="bad.json")]
        elif entry == "povm_file":
            povm = write_json(tmp_path / "povm.json", {"effects": [bad_matrix, matrix_json(np.diag([0.0, 1.0]))]})
            argv = ["simulate", "--problem", ok, "--povm", povm, "--n-trials", "10"]
        elif entry == "prior_arg":
            argv = ["solve", "--problem", ok, "--prior",
                    json.dumps({"kind": "table", "lambda": [0.0, 1.0], "density": [1.0, huge]})]
        else:
            rho0 = write_json(tmp_path / "rho0.json", bad_matrix)
            argv = ["decoherence", "--s", "0.1", "--t", "1", "--bmax", "1", "--rho0", rho0, "--n-trials", "10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


def _per_effect_traces(effects, states):
    """The per-effect ``np.trace(E @ rho)`` loops that the stacked traces replaced."""
    return np.array([[float(np.trace(e @ rho).real) for e in effects] for rho in states])


def _trace_coords(m):
    return tuple(float(np.trace(p @ m).real) for p in PAULIS)


def _trace_bloch(rho):
    return np.array(_trace_coords(rho.matrix))


DIAGONAL_PAIRS = [
    (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
    (np.diag([0.7, 0.3]), np.diag([0.2, 0.8])),
    (np.diag([0.5, 0.5]), np.diag([0.9, 0.1])),
    (np.diag([0.6, 0.4]), np.diag([0.599, 0.401])),
    (np.diag([0.0, 1.0]), np.eye(2) / 2),
    (np.array([[0.5, 0.5], [0.5, 0.5]]), np.eye(2) / 2),
    (np.array([[0.5, -0.5j], [0.5j, 0.5]]), np.diag([0.3, 0.7])),
]


class TestOutputMatchesPerEffectFormulas:
    @pytest.mark.parametrize("pair", range(len(DIAGONAL_PAIRS)))
    @pytest.mark.parametrize("prior", [{"kind": "uniform"}, {"kind": "trunc_reciprocal", "t_bmax": 1.3}])
    def test_axis_aligned_qubit_problems_byte_identical(self, tmp_path, capsys, monkeypatch, pair, prior):
        rho1, rho2 = DIAGONAL_PAIRS[pair]
        problem = problem_file(tmp_path, rho1, rho2, prior)
        calls = [
            ["solve", "--problem", problem],
            ["simulate", "--problem", problem, "--n-trials", "40", "--seed", "3",
             "--trials-out", str(tmp_path / "trials.csv")],
        ]

        def run():
            out = []
            for argv in calls:
                code = main(argv)
                out.append((code, capsys.readouterr().out))
            return out, (tmp_path / "trials.csv").read_bytes()

        stacked = run()
        monkeypatch.setattr("mixest.bayes._traces", _per_effect_traces)
        monkeypatch.setattr("mixest.simulate._traces", _per_effect_traces)
        monkeypatch.setattr("mixest.qubit.bloch_decompose", _trace_bloch)
        monkeypatch.setattr("mixest.qubit._pauli_coords", _trace_coords)
        assert run() == stacked
        assert stacked[0][0][0] == 0


def matrix_record(m):
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def report_record(kind, report):
    """The documented record of a scored measurement, built from the library's report."""
    record = {
        "kind": kind,
        "positivity_ok": True,
        "degenerate": report.degenerate,
        "q_value": report.score.q_value,
        "mean_variance": report.score.mean_variance,
        "outcomes": [
            {
                "effect": matrix_record(e.matrix),
                "prob": o.prob,
                "estimate": o.estimate,
                "variance": o.variance,
                "never_occurs": o.never_occurs,
            }
            for e, o in zip(report.povm, report.score.per_outcome, strict=True)
        ],
    }
    if report.alpha0 is not None:
        record["alpha0"] = report.alpha0
    return record


def solve_record(problem):
    rho1, rho2, prior, _ = load_problem(problem)
    outcome = solve(prior, rho1, rho2)
    if outcome.report is None:
        record = {
            "kind": outcome.kind.value,
            "positivity_ok": False,
            "certificate": outcome.certificate,
            "min_eigenvalue": outcome.min_eigenvalue,
            "candidate_effects": [matrix_record(m) for m in outcome.candidate_effects],
            "reduced_q": outcome.reduced_q,
            "q_star": outcome.q_star,
        }
    else:
        record = report_record(outcome.kind.value, outcome.report) | {
            "certificate": outcome.certificate,
            "q_star": outcome.q_star,
            "gap": outcome.q_star - outcome.report.score.q_value,
        }
    return record


def assert_compact_record(text, expected):
    """One line of compact JSON holding ``expected`` with its key order and every float exact."""
    record = json.loads(text)
    assert text == json.dumps(record) + "\n"
    assert record == expected
    assert text == json.dumps(expected) + "\n"


def _pure(psi):
    return np.outer(psi, psi.conj())


SOLVE_CASES = {
    "qubit": lambda rng: (random_density(rng, 2).matrix, random_density(rng, 2).matrix),
    "commuting": lambda rng: tuple(rho.matrix for rho in random_commuting_pair(rng, 4)),
    "pure_with_noise": lambda rng: (_pure(haar_vector(rng, 5)), np.eye(5) / 5),
    "two_dim_subspace": lambda rng: (_pure(haar_vector(rng, 4)), _pure(haar_vector(rng, 4))),
    "unreduced": lambda rng: (random_density(rng, 3).matrix, random_density(rng, 3).matrix),
}


class TestOutputContract:
    # solve and decoherence print one line of compact JSON; the record
    # holds the library's answer float for float
    @pytest.mark.parametrize("kind", sorted(SOLVE_CASES))
    def test_solve_prints_the_library_record(self, tmp_path, capsys, kind):
        rho1, rho2 = SOLVE_CASES[kind](np.random.default_rng(11))
        problem = problem_file(tmp_path, rho1, rho2, {"kind": "trunc_reciprocal", "t_bmax": 1.3})
        assert main(["solve", "--problem", problem]) == (3 if kind == "unreduced" else 0)
        expected = solve_record(problem)
        assert expected["kind"] == kind
        assert_compact_record(capsys.readouterr().out, expected)

    def test_solve_out_file(self, tmp_path, capsys):
        rho1, rho2 = SOLVE_CASES["two_dim_subspace"](np.random.default_rng(13))
        problem = problem_file(tmp_path, rho1, rho2)
        out = tmp_path / "record.json"
        assert main(["solve", "--problem", problem, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert_compact_record(out.read_text(encoding="utf-8"), solve_record(problem))

    def test_decoherence(self, tmp_path, capsys):
        argv = ["decoherence", "--s", "0.5", "--t", "1.0", "--bmax", "0.7", "--n-trials", "300", "--seed", "9"]
        assert main(argv + ["--out", str(tmp_path / "summary.csv")]) == 0
        model = DecoherenceModel(s=0.5, t=1.0, b_max=0.7, rho0=validate_state(np.diag([1.0, 0.0])))
        decay = solve_decay_estimation(model)
        summary = run_simulation(decay.report.povm, decay.prior, model.rho0, model.equilibrium, 300, 9)
        expected = report_record("decoherence", decay.report)
        expected.update(
            {
                "prior_mean": decay.prior.mean,
                "prior_second_moment": decay.prior.second_moment,
                "t_bmax": model.t_bmax,
                "b_plugin_estimates": list(decay.b_estimates),
                "simulation": {
                    "seed": summary.seed,
                    "n_trials": summary.n_trials,
                    "empirical_mse": summary.empirical_mse,
                    "analytic_mean_variance": summary.analytic_mean_variance,
                    "std_error": summary.std_error,
                    "consistent": summary.consistent,
                },
                "q_star": decay.q_star,
                "gap": decay.q_star - decay.report.score.q_value,
            }
        )
        assert_compact_record(capsys.readouterr().out, expected)
