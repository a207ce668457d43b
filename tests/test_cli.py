import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from snul.cli import ProblemFile, main, make_parser

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DATA = Path(__file__).resolve().parent / "data"
RANDOM_MOMENTS = Path(__file__).resolve().parent / "data" / "random_moments.json"
# the co-recursive Riccati data with the recurrence it has: beta_0 = -1, the
# q-Hermite gamma_n
CORECURSIVE_RECURRENCE = (Path(__file__).resolve().parent / "data"
                          / "qhermite_corecursive_recurrence.json")


def write_problem(tmp_path, doc, name="problem.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def golden_outputs_match(capsys, command, source=None) -> int:
    """Run `command` on the input of every tests/data/<command>_*.json, or
    of those whose problem file takes its moments from `source`: "moments",
    "recurrence", or "riccati" when it gives neither; compare its output
    without "timings" to the file, and return the number of files compared.  The certify case at --n-max 96 is left to CI, which runs
    it at depth."""
    compared = 0
    for golden in sorted(DATA.glob(f"{command}_*.json")):
        stem, *extra = re.split(r"_(n-max|deg-bounds)_", golden.stem[len(command) + 1:])
        args = [arg for flag, value in zip(extra[::2], extra[1::2])
                for arg in ("--" + flag, ",".join(value) if flag == "deg-bounds" else value)]
        if command == "certify" and args[:2] == ["--n-max", "96"]:
            continue
        problem = next(p for p in (PROBLEMS / f"{stem}.json", DATA / f"{stem}.json")
                       if p.exists())
        given = {"moments", "recurrence"} & set(json.loads(problem.read_text()))
        if source is not None and {source} != (given or {"riccati"}):
            continue
        main([command, str(problem)] + args)
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timings", None)
        assert json.dumps(doc, indent=2) + "\n" == golden.read_text(), golden.name
        compared += 1
    return compared


def reference_doc(**extra) -> dict:
    doc = {
        "lattice": ["1", "-5/4", "1", "0", "0", "1"],
        "riccati": {"A": ["8", "0", "-9"], "B": [], "C": ["0", "12"], "D": ["-6"]},
        "options": {"n_max": 4, "trunc": 16},
    }
    doc.update(extra)
    return doc


class TestProblemFile:
    def test_echo_roundtrip(self, tmp_path):
        path = write_problem(tmp_path, reference_doc())
        problem = ProblemFile.load(path)
        again = ProblemFile.from_dict(problem.echo())
        assert again == problem

    def test_exactness_of_transport(self, tmp_path):
        doc = reference_doc(moments=["1", "-4/3", "0"])
        del doc["riccati"]
        path = write_problem(tmp_path, doc)
        problem = ProblemFile.load(path)
        assert problem.moments[1] == F(-4, 3)
        assert problem.echo()["moments"][1] == "-4/3"

    def test_flavor_validation(self, tmp_path):
        doc = reference_doc()
        doc["moments"] = ["1", "0"]
        doc["recurrence"] = {"beta": ["0"], "gamma": ["1"]}
        path = write_problem(tmp_path, doc)
        with pytest.raises(Exception):
            ProblemFile.load(path)

    def test_bad_rational_reports_field(self, tmp_path):
        doc = reference_doc()
        doc["lattice"][1] = "5//4"
        path = write_problem(tmp_path, doc)
        with pytest.raises(Exception, match="lattice"):
            ProblemFile.load(path)


class TestExitCodes:
    def test_parser_built_once(self, capsys):
        # the parser is kept between calls, and a flag of one call does not
        # reach the next
        path = str(PROBLEMS / "qhermite.json")
        assert main(["derive", path, "--n-max", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["instance"]["options"]["n_max"] == 2
        assert main(["derive", path]) == 0
        n_max = json.loads(capsys.readouterr().out)["instance"]["options"]["n_max"]
        assert n_max == ProblemFile.load(path).n_max != 2
        assert make_parser() is make_parser()

    def test_classify_reference(self, capsys):
        assert main(["classify", str(PROBLEMS / "qhermite.json")]) == 0
        out = capsys.readouterr().out
        assert "q-quadratic" in out
        assert "9/16" in out and "-9/16" in out

    def test_classify_output(self, capsys):
        # the whole report, line by line
        assert main(["classify", str(PROBLEMS / "qhermite.json")]) == 0
        assert capsys.readouterr().out == (
            "class:   q-quadratic\n"
            "p:       (5/4)*x\n"
            "r:       (9/16)*x^2 + -1\n"
            "lambda:  9/16\n"
            "tau:     -9/16\n"
            "q_trace: 17/4\n"
        )

    def test_classify_points(self, capsys):
        assert main(["classify", str(PROBLEMS / "qhermite.json"), "--points", "2"]) == 0
        assert "x(2)=" in capsys.readouterr().out

    def test_negative_points_exit_2(self, capsys):
        assert main(["classify", str(PROBLEMS / "qhermite.json"), "--points", "-3"]) == 2
        assert "--points must be nonnegative" in capsys.readouterr().err

    def test_invalid_conic_exit_2(self, tmp_path, capsys):
        doc = reference_doc()
        doc["lattice"][0] = "0"
        path = write_problem(tmp_path, doc)
        assert main(["classify", path]) == 2

    def test_unsupported_class_exit_2(self, tmp_path):
        doc = reference_doc()
        doc["lattice"] = ["1", "0", "0", "0", "0", "1"]
        path = write_problem(tmp_path, doc)
        assert main(["classify", path]) == 2

    def test_missing_flavor_exit_2(self, tmp_path):
        doc = reference_doc()
        del doc["riccati"]
        path = write_problem(tmp_path, doc)
        assert main(["certify", path]) == 2

    def test_missing_file_exit_2(self):
        assert main(["certify", "/nonexistent/problem.json"]) == 2

    def test_degenerate_lattice(self, tmp_path, capsys):
        # c = 0: N = y1 y2 has no x^2 term, so the kernel of D and M has no
        # expansion in 1/x
        doc = reference_doc(moments=["1", "0", "1", "0", "2", "0", "5", "0", "14"])
        doc["lattice"] = ["1", "2", "0", "0", "1", "1"]
        doc["riccati"] = {"A": ["1", "0", "1"], "B": [], "C": ["0", "1"], "D": ["1"]}
        doc["options"] = {"n_max": 2, "trunc": 8}
        path = write_problem(tmp_path, doc)
        for command in ("fit", "derive"):
            assert main([command, path]) == 2
            assert ("error: y_2 has degenerate leading behaviour"
                    in capsys.readouterr().err)
        assert main(["certify", path]) == 1
        checks = {c["name"]: c["verdict"]
                  for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["riccati"] == "fail"

    def test_internal_error_exit_2(self, monkeypatch, capsys):
        def broken(path):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr(ProblemFile, "load", staticmethod(broken))
        assert main(["certify", str(PROBLEMS / "qhermite.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: broken on purpose\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["discriminant", "nmax"])
    def test_unknown_option_key_exit_2(self, tmp_path, capsys, key):
        # a retired option and a typo are refused, not dropped silently
        doc = reference_doc()
        doc["options"][key] = "5"
        path = write_problem(tmp_path, doc)
        for command in ("classify", "certify"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unknown option(s) '{key}'" in captured.err

    @pytest.mark.parametrize("block, key", [(None, "option"), ("recurrence", "betas")])
    def test_unknown_key_exit_2(self, tmp_path, capsys, block, key):
        # a misspelled block is refused, not certified on the defaults
        doc = reference_doc(recurrence={"beta": ["0"] * 9,
                                        "gamma": ["1"] + ["-4/3"] * 8})
        del doc["riccati"]
        (doc if block is None else doc[block])[key] = {"n_max": 2}
        path = write_problem(tmp_path, doc)
        noun = "key" if block is None else f"{block} key"
        for command in ("classify", "certify", "fit"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unknown {noun}(s) '{key}'" in captured.err

    @pytest.mark.parametrize("block, key, value, message", [
        ("recurrence", "beta", "0" * 42, "recurrence.beta must be an array"),
        ("recurrence", "beta", 5, "recurrence.beta must be an array"),
        ("recurrence", "gamma", None, "recurrence.gamma must be an array"),
        ("options", "n_max", True, "options.n_max must be a positive integer"),
        ("options", "deg_bounds", [True, 0, 1, 0],
         "options.deg_bounds must be four nonnegative integers"),
        ("recurrence", "gamma", [True] + ["1/4"] * 41, "bad rational at recurrence.gamma[0]: True"),
        ("recurrence", "gamma", ["1"] + ["1/0"] * 41, "bad rational at recurrence.gamma[1]: '1/0'"),
        ("recurrence", "beta", ["3/-4"] * 42, "bad rational at recurrence.beta[0]: '3/-4'"),
        ("recurrence", "beta", [""] * 42, "bad rational at recurrence.beta[0]: ''"),
    ], ids=["beta-string", "beta-number", "gamma-null", "n-max-true", "deg-bounds-true",
            "gamma-true", "gamma-zero-denominator", "beta-signed-denominator", "beta-empty"])
    def test_mistyped_field_exit_2(self, tmp_path, capsys, block, key, value, message):
        # a string is not read as a list of digits, nor true as 1, and a
        # number or null is an input error, not an internal one
        doc = json.loads((PROBLEMS / "qhermite_recurrence.json").read_text())
        doc[block][key] = value
        path = write_problem(tmp_path, doc)
        for command in ("fit", "certify"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_retired_discriminant_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", str(PROBLEMS / "qhermite.json"), "--discriminant", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --discriminant 5" in capsys.readouterr().err


class TestCertifyCommand:
    def test_passing_instance(self, capsys):
        code = main(["certify", str(PROBLEMS / "qhermite.json"), "--n-max", "4",
                     "--trunc", "16"])
        cert = json.loads(capsys.readouterr().out)
        assert code == 0
        assert cert["passed"] is True
        names = {c["name"]: c["verdict"] for c in cert["checks"]}
        assert names["riccati"] == "pass"
        assert names["reconstruction"] == "pass"

    def test_instance_echo_reparses(self, capsys):
        main(["certify", str(PROBLEMS / "qhermite.json"), "--n-max", "3",
              "--trunc", "14"])
        cert = json.loads(capsys.readouterr().out)
        echoed = ProblemFile.from_dict(cert["instance"])
        direct = ProblemFile.load(str(PROBLEMS / "qhermite.json"))
        direct.n_max, direct.trunc = 3, 14
        assert echoed == direct

    def test_perturbed_moment_fails_at_riccati(self, tmp_path, capsys):
        import snul
        from conftest import qhermite_riccati
        lat = snul.build_lattice(1, F(-5, 4), 1, 0, 0, 1)
        moments = snul.solve_moments_from_riccati(qhermite_riccati(lat), 16)
        moments[3] += 1
        doc = reference_doc(moments=[str(m) for m in moments])
        path = write_problem(tmp_path, doc)
        code = main(["certify", path, "--n-max", "4", "--trunc", "14"])
        cert = json.loads(capsys.readouterr().out)
        assert code == 1
        names = {c["name"]: c["verdict"] for c in cert["checks"]}
        assert names["riccati"] == "fail"
        assert "x^-3" in next(c["residual_summary"] for c in cert["checks"]
                              if c["name"] == "riccati")

    def test_moments_only_flavor_fits_first(self, capsys):
        code = main(["certify", str(PROBLEMS / "qhermite_recurrence.json"),
                     "--n-max", "4", "--trunc", "16"])
        cert = json.loads(capsys.readouterr().out)
        assert code == 0
        assert cert["checks"][0]["name"] == "fit"
        assert cert["passed"] is True

    def test_random_moments_certify_fails(self, tmp_path, capsys):
        doc = reference_doc(moments=["1", "1/2", "1/3", "2", "-1", "5", "1/7",
                                     "3", "-2", "1", "4", "1/9", "2", "0", "1",
                                     "6", "-1/2", "3", "1", "2"])
        del doc["riccati"]
        path = write_problem(tmp_path, doc)
        code = main(["certify", path, "--n-max", "3", "--trunc", "18",
                     "--deg-bounds", "2,2,2,2"])
        out = capsys.readouterr().out
        cert = json.loads(out)
        assert code == 1
        assert cert["passed"] is False
        assert "no Laguerre-Hahn relation" in cert["checks"][0]["detail"]
        # the whole document, key order and layout included
        echo = dict(doc, options={"n_max": 3, "trunc": 18, "deg_bounds": [2, 2, 2, 2]})
        assert out == json.dumps({
            "instance": {k: echo[k] for k in ("lattice", "moments", "options")},
            "options": {"n_max": 3, "trunc": 18},
            "passed": False,
            "checks": [{
                "name": "riccati", "verdict": "fail", "window": 20,
                "residual_summary": "",
                "detail": "no Laguerre-Hahn relation within degree bounds [2, 2, 2, 2]",
            }],
            "degrees": {},
            "timings": {},
        }, indent=2) + "\n"

    def test_second_kind_windows_tight(self, capsys):
        # one moment fewer (still above 2 n_max + 2 = 18) shortens the
        # second-kind and gathered windows by exactly one
        windows = []
        for trunc in ("28", "27"):
            code = main(["certify", str(PROBLEMS / "qhermite.json"), "--trunc", trunc])
            cert = json.loads(capsys.readouterr().out)
            assert code == 0
            windows.append({c["name"]: c["window"] for c in cert["checks"]})
        for name in ("second-kind-1", "second-kind-2", "gathered"):
            assert windows[1][name] == windows[0][name] - 1, name

    def test_images_of_s_formed_once_per_workspace(self, capsys, monkeypatch, tmp_path):
        # certify on a recurrence file, at an order within its trunc, and on
        # the same moments given as such fits and certifies in one
        # workspace: D S and M S are formed once
        import snul.laguerre_hahn as lh
        original = lh._operator_series
        seen = []

        def counting(lattice, f):
            seen.append(f)
            return original(lattice, f)

        monkeypatch.setattr(lh, "_operator_series", counting)
        path = PROBLEMS / "qhermite_recurrence.json"
        doc = json.loads(path.read_text())
        moments = ProblemFile.from_dict(doc).moment_list(doc["options"]["trunc"])
        del doc["recurrence"]
        doc["moments"] = [str(m) for m in moments]
        moments_only = tmp_path / "qhermite_moments.json"
        moments_only.write_text(json.dumps(doc))
        for problem in (path, moments_only):
            seen.clear()
            code = main(["certify", str(problem)])
            assert json.loads(capsys.readouterr().out)["passed"]
            assert code == 0
            assert len(seen) == 1

    def test_moments_formed_once(self, capsys, monkeypatch):
        # the fit's moments serve certify unless certify's order asks for
        # more than the file's trunc
        original = ProblemFile.moment_list
        orders = []

        def counting(problem, order):
            orders.append(order)
            return original(problem, order)

        monkeypatch.setattr(ProblemFile, "moment_list", counting)
        path = str(PROBLEMS / "qhermite_recurrence.json")
        for extra, expected in (([], [28]), (["--n-max", "14"], [28, 30])):
            orders.clear()
            assert main(["certify", path] + extra) == 0
            assert json.loads(capsys.readouterr().out)["passed"]
            assert orders == expected

    def test_short_recurrence_after_failed_fit(self, capsys, tmp_path):
        # 28 recurrence coefficients give u_0..u_28 for the fit but not
        # u_0..u_30 for certify at n_max 14: a failed fit reports as such,
        # a passed one stops at the recurrence
        doc = json.loads((PROBLEMS / "qhermite_recurrence.json").read_text())
        doc["recurrence"] = {k: v[:28] for k, v in doc["recurrence"].items()}
        doc["options"]["n_max"] = 14
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", str(path), "--deg-bounds", "0,0,0,0"]) == 1
        cert = json.loads(capsys.readouterr().out)
        assert [(c["name"], c["verdict"]) for c in cert["checks"]] == [("riccati", "fail")]
        assert main(["certify", str(path)]) == 2
        assert "need recurrence coefficients up to index 29" in capsys.readouterr().err

    def test_series_products_independent_of_depth(self, capsys, monkeypatch):
        # with B != 0 the only series x series products of certify are the
        # two of E1S E2S, formed with the Riccati residual of supplied
        # moments (here from a recurrence); on moments it solved, certify
        # forms none.  It forms no q_n and no E1S E2q_n, so neither count
        # grows with n_max
        from snul.series import LaurentSeries
        original = LaurentSeries.dot
        counts = []

        def counting(pairs):
            pairs = list(pairs)
            counts[-1] += sum(isinstance(b, LaurentSeries) for _, b in pairs)
            return original(pairs)

        monkeypatch.setattr(LaurentSeries, "dot", staticmethod(counting))
        for path, expected in ((PROBLEMS / "qhermite_corecursive.json", [0, 0]),
                               (CORECURSIVE_RECURRENCE, [2, 2])):
            counts.clear()
            for n_max in ("8", "16"):
                counts.append(0)
                assert main(["certify", str(path), "--n-max", n_max]) == 0
                assert json.loads(capsys.readouterr().out)["passed"]
            assert counts == expected, path.name

    def test_recorded_stages_recompute_nothing(self, capsys, monkeypatch):
        # the structure-relations, gathered, Magnus, telescope and
        # reconstruction entries are read off the proofs in
        # structure_coeffs_direct, second_kind_checks and corollary_recursion,
        # and `riccati` off the moment solve: with the functions that form
        # them directly refused, every output but its timings is unchanged,
        # and no workspace of S is built
        import snul.laguerre_hahn as lh
        paths = [PROBLEMS / "qhermite.json", PROBLEMS / "qhermite_corecursive.json"]
        workspaces = []

        class Recorded(lh.Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                workspaces.append(self)

        def outputs():
            out = []
            for path in paths:
                assert main(["certify", str(path)]) == 0, path
                doc = json.loads(capsys.readouterr().out)
                assert doc.pop("passed") is True
                doc.pop("timings")
                out.append(doc)
            return out

        def refused(*args):
            raise AssertionError("certify recomputed a recorded stage")
        before = outputs()
        for name in ("verify_structure_relations", "gathered_relations",
                     "magnus_data_from_coeffs", "magnus_step", "telescope_residuals",
                     "reconstruct_riccati"):
            monkeypatch.setattr(lh, name, refused)
        monkeypatch.setattr(lh, "Workspace", Recorded)
        assert outputs() == before
        assert workspaces == []

    def test_riccati_residual_off_the_solved_path(self, capsys, monkeypatch):
        # on moments it solved, certify records `riccati` and derive passes
        # its residual check by the proof in solve_moments_from_riccati: with
        # riccati_residual refused, every golden certify and derive output of
        # a file without moments or a recurrence is unchanged, and supplied
        # moments still form the residual
        import snul.cli as cli
        import snul.laguerre_hahn as lh

        def refused(*args):
            raise AssertionError("the Riccati residual was formed")
        for module in (cli, lh):
            monkeypatch.setattr(module, "riccati_residual", refused)
        assert golden_outputs_match(capsys, "certify", source="riccati") >= 11
        assert golden_outputs_match(capsys, "derive", source="riccati") >= 9
        for command in ("certify", "derive"):
            assert main([command, str(CORECURSIVE_RECURRENCE)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", "internal error: AssertionError: the Riccati residual was formed\n")

    def test_second_kind_walk_off_the_certify_path(self, capsys, monkeypatch):
        # second-kind-1/-2 and gathered are read off the Riccati residual:
        # with q_n and the oracles that form the relations from it refused,
        # every golden certify input gives its golden output
        import snul.laguerre_hahn as lh
        import snul.orthopoly as orthopoly

        def refused(*args, **kwargs):
            raise AssertionError("certify formed the second-kind functions")
        for module in (lh, orthopoly):
            monkeypatch.setattr(module, "second_kind_series", refused)
        for name in ("verify_second_kind_relations", "gathered_relations"):
            monkeypatch.setattr(lh, name, refused)
        assert golden_outputs_match(capsys, "certify") >= 13

    def test_structure_walk_off_the_job_path(self, capsys, monkeypatch):
        # both structure relations hold by the proof in structure_coeffs_direct:
        # with P_n, P1_n, their shifts and the oracles that form the relations
        # from them refused, every golden certify and derive input gives its
        # golden output
        import snul.laguerre_hahn as lh
        import snul.lattice as lattice
        from snul.orthopoly import SMOPData

        def refused(*args, **kwargs):
            raise AssertionError("a job formed P_n, P1_n or their shifts")
        for module in (lattice, lh):
            monkeypatch.setattr(module, "apply_shift", refused)
        for name in ("P", "P1"):
            monkeypatch.setattr(SMOPData, name, property(refused))
        for name in ("verify_structure_relations", "gathered_relations"):
            monkeypatch.setattr(lh, name, refused)
        assert golden_outputs_match(capsys, "certify") >= 13
        assert golden_outputs_match(capsys, "derive") >= 12


class TestFitCommand:
    def test_fit_recovers_fixture(self, capsys):
        code = main(["fit", str(PROBLEMS / "qhermite_recurrence.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["count"] == 1
        cand = out["candidates"][0]
        assert cand["A"] == ["8", "0", "-9"]
        assert cand["C"] == ["0", "12"]
        assert cand["verified"] is True
        assert cand["semiclassical"] is True

    @pytest.mark.parametrize("bounds", ["2,0,1,0", "4,4,4,4"])
    def test_images_of_s_formed_once(self, capsys, monkeypatch, bounds):
        # the fit and every candidate's residual read D S, M S and E1S E2S
        # from one workspace
        import snul.laguerre_hahn as lh
        import snul.lattice as lattice
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module in (lh, lattice):
            for name in ("_operator_series", "e1e2_series"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        code = main(["fit", str(PROBLEMS / "qhermite_recurrence.json"),
                     "--deg-bounds", bounds])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["count"] >= 1
        assert all(c["verified"] for c in out["candidates"])
        assert sorted(calls) == ["_operator_series", "e1e2_series"]

    def test_fit_needs_moment_source(self, capsys):
        assert main(["fit", str(PROBLEMS / "qhermite.json")]) == 2

    @pytest.mark.parametrize("command", ["fit", "certify"])
    def test_underdetermined_fit_refused(self, capsys, command):
        # 34 random moments give 35 equations: 36 unknowns at 8,8,8,8 would
        # leave a nonzero nullspace for any moments, 32 at 7,7,7,7 do not
        code = main([command, str(RANDOM_MOMENTS), "--deg-bounds", "8,8,8,8"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "35 equations for 36 unknowns" in captured.err
        assert "more moments or lower the degree bounds" in captured.err
        if command == "fit":
            code = main([command, str(RANDOM_MOMENTS), "--deg-bounds", "7,7,7,7"])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["count"] == 0

    def test_no_job_forms_the_polynomials(self, capsys, monkeypatch):
        # certify and derive read beta and gamma, not P_n or P1_n: with
        # P_n and P1_n unformable, every output but its timings is unchanged
        from snul.orthopoly import SMOPData
        surd = Path(__file__).resolve().parent / "data" / "surd_conic.json"
        jobs = [(command, path) for path in (PROBLEMS / "qhermite.json",
                                              PROBLEMS / "qhermite_corecursive.json")
                for command in ("certify", "derive")] + [("certify", surd)]

        def outputs():
            out = []
            for command, path in jobs:
                assert main([command, str(path), "--n-max", "8"]) == 0, (command, path)
                doc = json.loads(capsys.readouterr().out)
                doc.pop("timings", None)
                out.append(doc)
            return out

        def refused(*args):
            raise AssertionError("P_n or P1_n formed by a job")
        before = outputs()
        monkeypatch.setattr(SMOPData, "_polys", refused)
        assert outputs() == before


class TestDeriveCommand:
    def test_level_minus_one_row(self, capsys):
        code = main(["derive", str(PROBLEMS / "qhermite.json"), "--n-max", "3",
                     "--trunc", "14"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        level = out["levels"][0]
        assert level["n"] == -1
        assert level["l"] == ["0", "6"]          # C/2 = 6x
        assert level["pi"] == []                 # zero polynomial
        assert level["theta"] == ["-6"]          # D
        assert out["agreement"] is True

    def test_derive_needs_riccati(self, capsys):
        assert main(["derive", str(PROBLEMS / "qhermite_recurrence.json")]) == 2

    def test_zero_gamma_exit_1(self, tmp_path, capsys):
        # a supplied recurrence is read as it stands, and stops where the
        # Chebyshev algorithm on its moments would: at the first gamma_k = 0
        doc = json.loads(CORECURSIVE_RECURRENCE.read_text())
        doc["recurrence"]["gamma"][5] = "0"
        path = write_problem(tmp_path, doc)
        assert main(["derive", path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: Hankel determinant degenerate at n = 5\n")
        # below level 5 the recurrence is quasi-definite, but its moments are
        # no longer those of the Riccati data
        assert main(["derive", path, "--n-max", "4"]) == 1
        assert "Riccati residual nonzero" in capsys.readouterr().err

    def test_supplied_recurrence_not_recomputed(self, capsys, monkeypatch):
        # certify and derive take beta and gamma from the file, and form
        # neither P_n nor P1_n: with the Chebyshev algorithm refused, every
        # golden output of a file with a recurrence is unchanged, certify's
        # fit branch (qhermite_recurrence.json) included
        import snul.orthopoly as orthopoly
        made = []

        def keeping(*args, **kwargs):
            made.append(smop(*args, **kwargs))
            return made[-1]

        def refused(*args):
            raise AssertionError("Chebyshev algorithm on a supplied recurrence")
        smop = orthopoly.smop_from_recurrence
        monkeypatch.setattr(orthopoly, "smop_from_recurrence", keeping)
        assert main(["derive", str(PROBLEMS / "qhermite_corecursive.json")]) == 0
        monkeypatch.setattr(orthopoly, "recurrence_from_moments", refused)
        assert main(["derive", str(CORECURSIVE_RECURRENCE)]) == 0
        capsys.readouterr()
        assert len(made) == 2
        assert golden_outputs_match(capsys, "certify", source="recurrence") >= 4
        assert golden_outputs_match(capsys, "derive", source="recurrence") >= 3
        assert len(made) >= 9
        assert not any({"P", "P1"} & set(vars(data)) for data in made)
