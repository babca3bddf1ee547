import json
import os
import random
import resource
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import pytest

from hrlab import cli, exterior, positivity, symfunc
from hrlab.cli import (
    _compositions,
    admissible_partitions,
    main,
    parse_partition,
    parse_range,
    parse_t_samples,
)
from hrlab.exterior import Form, HermitianMatrix, hermitian_to_form, identity_form
from hrlab.gaussian import GaussianRational
from hrlab.sampling import random_positive_form


def run_main(args):
    return main(args)


def load(path):
    return json.loads(path.read_text())


def strip_timing(obj):
    out = dict(obj)
    out.pop("timing", None)
    return out


# -- parsing helpers ----------------------------------------------------------


def test_parse_range():
    assert parse_range("3", "--d") == [3]
    assert parse_range("2..4", "--d") == [2, 3, 4]
    from hrlab.cli import UsageError

    with pytest.raises(UsageError):
        parse_range("4..2", "--d")
    with pytest.raises(UsageError):
        parse_range("x", "--d")


def test_parse_partition():
    assert parse_partition("").parts == ()
    assert parse_partition("2,1").parts == (2, 1)


def test_parse_t_samples():
    assert parse_t_samples("1/100,-1/100") == (Fraction(1, 100), Fraction(-1, 100))
    assert parse_t_samples("0.1, -2") == (Fraction(1, 10), Fraction(-2))
    from hrlab.cli import UsageError

    for bad in ("1e3", "1/100,2E-1", "1/0", "x"):
        with pytest.raises(UsageError, match="malformed t-sample list"):
            parse_t_samples(bad)


def test_simplex_lattice_count():
    # resolution 4 over a 3-vertex simplex: binomial(4+2, 2) points
    assert len(_compositions(4, 3)) == 15
    assert len(_compositions(1, 3)) == 3
    assert _compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_admissible_partitions():
    assert [p.parts for p in admissible_partitions(5, 3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in admissible_partitions(2, 3)] == [()]


# -- verify-hr -----------------------------------------------------------------


def test_verify_hr_small_run(tmp_path):
    out = tmp_path / "r.json"
    code = run_main(
        ["verify-hr", "--d", "2..3", "--e", "1..2", "--trials", "2", "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    rep = load(out)
    assert rep["schema_version"] == 1
    assert rep["summary"] == {"total": 8, "passed": 8, "failed": 0}
    assert all(r["pass"] for r in rep["results"])
    assert all(r["signature"] == [1, r["d"] ** 2 - 1, 0] for r in rep["results"])


def test_verify_hr_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify-hr", "--d", "3", "--e", "1", "--trials", "2", "--seed", "7"]
    assert run_main(args + ["--out", str(a)]) == 0
    assert run_main(args + ["--out", str(b)]) == 0
    ra, rb = load(a), load(b)
    assert ra != rb or ra == rb  # both parse
    assert strip_timing(ra) == strip_timing(rb)
    assert "generated_at" in ra["timing"]


def write_forms_file(path, seed, d, e):
    rng = random.Random(seed)
    path.write_text(json.dumps({"omegas": [random_positive_form(rng, d).to_json() for _ in range(e)]}))
    return path


@pytest.mark.parametrize(
    "base",
    [
        ["verify-hr", "--d", "2..3", "--e", "1..2", "--trials", "1", "--seed", "5"],
        ["verify-hr", "--forms", "FORMS"],
        ["gamma-scan", "--d", "3", "--e", "2", "--grid", "2", "--trials", "2", "--seed", "5"],
        ["gamma-scan", "--forms", "FORMS", "--grid", "2"],
    ],
    ids=["seeded", "forms-file", "gamma-scan-seeded", "gamma-scan-forms-file"],
)
def test_verify_hr_jobs_parity(tmp_path, base):
    # With a forms file every task receives the checked Forms, pickled.
    ff = write_forms_file(tmp_path / "forms.json", 19, 4, 2)
    base = [str(ff) if a == "FORMS" else a for a in base]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_main(base + ["--out", str(a)]) == 0
    assert run_main(base + ["--jobs", "2", "--out", str(b)]) == 0
    assert strip_timing(load(a)) == strip_timing(load(b))
    for rep in (load(a), load(b)):
        tasks = rep["summary"]["total"] if base[0] == "verify-hr" else rep["summary"]["trials"]
        assert len(rep["timing"]["per_task_seconds"]) == tasks


def test_verify_hr_empty_partition_is_minkowski(tmp_path):
    out = tmp_path / "m.json"
    code = run_main(["verify-hr", "--d", "2", "--e", "1", "--lambda", "", "--seed", "1", "--out", str(out)])
    assert code == 0
    rep = load(out)
    assert rep["results"][0]["signature"] == [1, 3, 0]


def test_verify_hr_part_above_e_fails_honestly(tmp_path):
    # lambda with a part above e collapses the class to zero: the signature
    # assertion fails and the exit code says so
    out = tmp_path / "f.json"
    code = run_main(["verify-hr", "--d", "4", "--e", "1", "--lambda", "2", "--seed", "1", "--out", str(out)])
    assert code == 1
    rep = load(out)
    assert rep["summary"]["failed"] == 1
    assert rep["warnings"]


def test_family_part_above_e_warns_as_verify_hr_does(tmp_path):
    # The same input fails both subcommands, and both say why.
    reports = []
    for command in (["verify-hr"], ["family", "--check", "A", "--i", "3"]):
        out = tmp_path / "f.json"
        assert run_main(command + ["--d", "4", "--e", "1", "--lambda", "2", "--seed", "1", "--out", str(out)]) == 1
        reports.append(load(out))
    assert reports[1]["summary"]["failed"] == 1
    assert reports[0]["warnings"] == reports[1]["warnings"] == [
        "lambda (2,) has a part above e=1; the signature assertion is outside the guaranteed range"
    ]


def test_verify_hr_forms_file(tmp_path):
    ff = write_forms_file(tmp_path / "forms.json", 11, 3, 2)
    out = tmp_path / "r.json"
    code = run_main(["verify-hr", "--forms", str(ff), "--out", str(out)])
    assert code == 0
    rep = load(out)
    assert all(r["signature"] == [1, 8, 0] for r in rep["results"])
    assert {tuple(r["lambda"]) for r in rep["results"]} == {(1,)}


def test_forms_file_rejects_non_positive(tmp_path):
    bad = identity_form(2).scale(-1)
    ff = tmp_path / "forms.json"
    ff.write_text(json.dumps({"omegas": [bad.to_json()]}))
    assert run_main(["verify-hr", "--forms", str(ff)]) == 2


@pytest.mark.parametrize("layout", ["forms-key", "bare-list"])
def test_forms_file_holds_its_list_under_omegas_only(tmp_path, capsys, layout):
    forms = [identity_form(3).to_json()]
    ff = tmp_path / "forms.json"
    ff.write_text(json.dumps({"forms": forms} if layout == "forms-key" else forms))
    assert run_main(["verify-hr", "--forms", str(ff)]) == 2
    assert "forms file must hold a non-empty list under 'omegas'" in capsys.readouterr().err


def outer_products_over_3(rng, d, count, shift):
    """The (1,1)-form of sum_m b_m^H b_m / 3 + shift * I, b_m Gaussian-integer rows."""
    b = [[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(d)] for _ in range(count)]
    zero = GaussianRational(0)
    return hermitian_to_form(HermitianMatrix([
        [sum((row[j].conjugate() * row[k] for row in b), zero) * Fraction(1, 3) + (shift if j == k else 0)
         for k in range(d)]
        for j in range(d)
    ]))


def test_forms_file_with_rational_entries(tmp_path, capsys):
    rng = random.Random(13)
    ff = tmp_path / "forms.json"
    # B^H B / 3 + I / 3: strictly positive, with entries such as 1/3.
    forms = [outer_products_over_3(rng, 3, 3, Fraction(1, 3)) for _ in range(2)]
    assert any(c.re.denominator == 3 for f in forms for c in f.terms.values())
    ff.write_text(json.dumps({"omegas": [f.to_json() for f in forms]}))
    out = tmp_path / "r.json"
    assert run_main(["verify-hr", "--forms", str(ff), "--out", str(out)]) == 0
    assert all(r["signature"] == [1, 8, 0] for r in load(out)["results"])
    # B^H B / 3 with B of rank 2 < 3: positive semidefinite, not definite.
    ff.write_text(json.dumps({"omegas": [outer_products_over_3(rng, 3, 2, 0).to_json()]}))
    assert run_main(["verify-hr", "--forms", str(ff)]) == 2
    assert "non strictly positive" in capsys.readouterr().err


def identity_with_im(im):
    """identity_form(3) as JSON, its first coefficient's imaginary part set to im."""
    obj = identity_form(3).to_json()
    obj["terms"][0]["coeff"]["im"] = im
    return obj


@pytest.mark.parametrize(
    "form",
    [
        Form.dz(3, 1).to_json(),
        Form.term(3, [1], [2]).to_json(),
        identity_form(9).to_json(),
        identity_form(1).to_json(),
        identity_with_im("1/0"),
        # Read as 1/2 or 1, these would pass for strictly positive forms.
        identity_with_im(0.5),
        identity_with_im(True),
    ],
    ids=["not-11", "not-real", "d9", "d1", "zero-denominator", "float", "bool"],
)
@pytest.mark.parametrize(
    "command",
    [["verify-hr"], ["family", "--check", "aug2"], ["gamma-scan", "--d", "3", "--e", "1"]],
    ids=lambda c: c[0],
)
def test_forms_file_rejects_unusable_forms(tmp_path, capsys, form, command):
    ff = tmp_path / "forms.json"
    ff.write_text(json.dumps({"omegas": [form]}))
    assert run_main(command + ["--forms", str(ff)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_forms_file_is_parsed_once_per_run(tmp_path, monkeypatch):
    ff = write_forms_file(tmp_path / "forms.json", 23, 4, 2)
    objs = json.loads(ff.read_text())["omegas"]
    parsed, written = [], []
    real_from_json, real_to_json = Form.from_json, Form.to_json
    monkeypatch.setattr(Form, "from_json", staticmethod(lambda obj: parsed.append(obj) or real_from_json(obj)))
    monkeypatch.setattr(Form, "to_json", lambda self: written.append(self) or real_to_json(self))
    out = tmp_path / "r.json"
    assert run_main(["verify-hr", "--forms", str(ff), "--jobs", "1", "--out", str(out)]) == 0
    # Two tasks, lambda = (2) and (1, 1), share the forms parsed once.
    assert load(out)["summary"] == {"total": 2, "passed": 2, "failed": 0}
    assert parsed == objs
    assert written == []


def test_positivity_is_decided_once_per_form(tmp_path, monkeypatch):
    # At d = 4 and lambda = (1, 1) schur takes the pencil route, which reads
    # minors of the pencil itself and decides no positivity: the forms file's
    # check, one elimination per form, is the only one.
    calls, routed = [], []
    real_pencil = symfunc.pencil_power_sum

    def counting(module, name):
        real = getattr(module, name)

        def count(re, im):
            calls.append((name, "_load_forms" in {frame.name for frame in traceback.extract_stack()}))
            return real(re, im)

        monkeypatch.setattr(module, name, count)

    counting(exterior, "_adjugate")
    counting(positivity, "_leading_minors_positive")
    monkeypatch.setattr(symfunc, "pencil_power_sum", lambda *args: routed.append(args[1]) or real_pencil(*args))
    ff = write_forms_file(tmp_path / "forms.json", 23, 4, 2)
    out = tmp_path / "r.json"
    assert run_main(["verify-hr", "--forms", str(ff), "--lambda", "1,1", "--out", str(out)]) == 0
    assert load(out)["summary"] == {"total": 1, "passed": 1, "failed": 0}
    assert routed == [2]
    assert calls == [("_leading_minors_positive", True)] * 2


def test_worker_pool_is_no_wider_than_the_task_list(tmp_path, monkeypatch):
    # The pool is replaced by one that records its width and starts nothing.
    widths = []

    class RecordingPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, calls):
            return map(fn, calls)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    ff = write_forms_file(tmp_path / "forms.json", 19, 4, 2)
    seeded = ["verify-hr", "--d", "2..3", "--e", "1..2", "--seed", "5"]
    cases = (
        (["verify-hr", "--forms", str(ff)], 64, 2, 2),
        (seeded, 64, 4, 4),
        (seeded, 3, 4, 3),
    )
    for args, jobs, tasks, width in cases:
        widths.clear()
        out = tmp_path / "r.json"
        assert run_main(args + ["--jobs", str(jobs), "--out", str(out)]) == 0
        assert load(out)["summary"]["total"] == tasks
        assert widths == [width], (args, jobs)


# -- usage errors ----------------------------------------------------------------


def test_malformed_partition_exits_2(capsys):
    assert run_main(["verify-hr", "--d", "2", "--lambda", "1,foo", "--seed", "1"]) == 2
    assert "malformed partition" in capsys.readouterr().err


def test_missing_seed_exits_2():
    assert run_main(["verify-hr", "--d", "2"]) == 2


def test_wrong_weight_lambda_exits_2():
    assert run_main(["verify-hr", "--d", "3", "--lambda", "2,1", "--seed", "1"]) == 2


def test_unsupported_dimension_exits_2(tmp_path, capsys):
    assert run_main(["verify-hr", "--d", "9", "--seed", "1"]) == 2
    assert "--d 9 outside the supported range 2..8" in capsys.readouterr().err
    assert run_main(["verify-hr", "--d", "1..3", "--seed", "1"]) == 2
    ff = write_forms_file(tmp_path / "forms.json", 29, 9, 1)
    assert run_main(["verify-hr", "--forms", str(ff)]) == 2
    assert "forms file: dimension 9 outside the supported range 2..8" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_main(["verify-hr", "--help"])
    help_text = capsys.readouterr().out
    assert "(supported 2..8)" in help_text
    assert "(supported 1..64)" in help_text


def _cap_address_space():
    # 2 GiB, so an allocation sized by a bad input fails fast in the child.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def run_capped_usage_error(args, timeout):
    """Run hrlab under the 2 GiB cap; it must exit 2 with an error line and
    no traceback within `timeout` seconds.  Returns its stderr."""
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hrlab", *args],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
        env={**os.environ, "PYTHONPATH": src},
        timeout=timeout,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    return proc.stderr


HUGE_DIMENSION_FORM = {
    "dimension": 40_000_000_000,
    "terms": [{"monomial": {"dz": [1], "dzbar": [1]}, "coeff": {"re": "0/1", "im": "1/1"}}],
}


@pytest.mark.parametrize(
    "args",
    [
        ["verify-hr", "--d", "2..99999999999", "--e", "1", "--seed", "1"],
        ["gamma-scan", "--d", "2..99999999999", "--e", "1", "--seed", "1"],
        ["verify-hr", "--forms", "FORMS"],
        ["family", "--check", "A", "--d", "5", "--e", "2", "--i", "2..99999999999", "--seed", "1"],
        ["gamma-scan", "--d", "5", "--e", "3", "--grid", "100000", "--seed", "1"],
        ["verify-hr", "--d", "3", "--e", "1", "--trials", "99999999999", "--seed", "1"],
    ],
    ids=["verify-hr-d", "gamma-scan-d", "verify-hr-forms", "family-i", "gamma-scan-grid", "verify-hr-trials"],
)
def test_out_of_range_dimension_is_a_usage_error_before_allocation(tmp_path, args):
    ff = tmp_path / "forms.json"
    ff.write_text(json.dumps({"omegas": [HUGE_DIMENSION_FORM]}))
    run_capped_usage_error([str(ff) if a == "FORMS" else a for a in args], timeout=120)


@pytest.mark.parametrize("command", ["verify-hr", "gamma-scan"])
def test_out_of_range_e_is_a_usage_error_before_allocation(command):
    args = [command, "--d", "3", "--e", "1..99999999999", "--seed", "1"]
    err = run_capped_usage_error(args, timeout=120)
    assert "error: --e 99999999999 outside the supported range 1..64" in err


def test_exponent_notation_is_a_usage_error(tmp_path):
    # Fraction("1e1000000000") would build a billion-digit numerator: both
    # exact inputs refuse the exponent before any rational is built.
    form = random_positive_form(random.Random(3), 3).to_json()
    form["terms"][0]["coeff"]["re"] = "1e1000000000"
    ff = tmp_path / "forms.json"
    ff.write_text(json.dumps({"omegas": [form]}))
    err = run_capped_usage_error(["verify-hr", "--forms", str(ff)], timeout=20)
    assert "exponent notation" in err
    family = ["family", "--check", "A", "--d", "4", "--e", "1", "--seed", "1"]
    err = run_capped_usage_error(family + ["--t-samples", "1/10,1e1000000000"], timeout=20)
    assert "exponent notation" in err


def test_gamma_scan_needs_single_d():
    assert run_main(["gamma-scan", "--d", "3..4", "--e", "2", "--seed", "1"]) == 2


def test_family_needs_check_or_builtin():
    assert run_main(["family", "--d", "4", "--seed", "1"]) == 2


def test_family_b_check_index_restriction():
    assert run_main(["family", "--d", "4", "--e", "1", "--check", "B", "--i", "2", "--seed", "1"]) == 2


def test_family_aug2_takes_no_index(capsys):
    assert run_main(["family", "--d", "4", "--e", "2", "--check", "aug2", "--i", "2..3", "--seed", "1"]) == 2
    assert "the aug2 check takes no --i" in capsys.readouterr().err


@pytest.mark.parametrize(
    "check, text, d, indices",
    [
        ("A", None, 5, [2, 3, 4]),
        ("A", "d-1,d", 5, [4, 5]),
        ("B", None, 5, [5]),
        ("aug1", None, 5, [3, 4]),
        ("aug1", "2..5", 5, [2, 3, 4, 5]),
        ("recursion", None, 5, [4]),
        ("recursion", None, 3, [2]),
        ("recursion", "2..3", 4, [2, 3]),
        ("aug2", None, 5, [None]),
    ],
)
def test_family_index_defaults_and_choices(check, text, d, indices):
    assert cli._indices(check, text, d) == indices


@pytest.mark.parametrize(
    "check, text, d, message",
    [
        ("A", None, 2, "no applicable family index for check A at d=2; pass --i"),
        ("aug1", None, 3, "no applicable family index for check aug1 at d=3; pass --i"),
        ("A", "5", 4, "--i must lie in 2..d, got 5 at d=4"),
        ("aug1", "1", 4, "--i must lie in 2..d, got 1 at d=4"),
        ("B", "3", 4, "the second-order check runs at i = d only"),
        ("recursion", "4", 4, "recursion needs 2 <= j <= d-1, got j=4 at d=4"),
        ("recursion", None, 2, "recursion needs 2 <= j <= d-1, got j=1 at d=2"),
        ("A", "3,3,d-1", 4, "--i names index 3 more than once at d=4"),
        ("aug1", "2..4,d", 4, "--i names index 4 more than once at d=4"),
    ],
)
def test_family_index_refusals(capsys, check, text, d, message):
    with pytest.raises(cli.UsageError) as exc:
        cli._indices(check, text, d)
    assert str(exc.value) == message
    argv = ["family", "--check", check, "--d", str(d), "--e", "1", "--seed", "1"]
    assert run_main(argv + (["--i", text] if text else [])) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command",
    [["verify-hr", "--lambda", "1,1"], ["family", "--check", "aug2", "--lambda", "1,1"], ["gamma-scan", "--grid", "2"]],
    ids=lambda c: c[0],
)
def test_forms_fix_d_e_and_the_draws(tmp_path, capsys, command):
    # The forms file fixes d = 4, e = 2 and the one draw: --trials and --seed
    # would go unread, and --d/--e may only repeat the file's values.
    ff = write_forms_file(tmp_path / "forms.json", 37, 4, 2)
    out = tmp_path / "r.json"
    base = command + ["--forms", str(ff), "--out", str(out)]
    for flags, named in (
        (["--trials", "3"], "--forms takes no --trials"),
        (["--seed", "9"], "--forms takes no --seed"),
        (["--d", "7", "--e", "3", "--trials", "4", "--seed", "9"], "--forms takes no --trials, --seed"),
        (["--d", "7"], "forms file does not match --d/--e"),
        (["--d", "4", "--e", "3"], "forms file does not match --d/--e"),
    ):
        assert run_main(base + flags) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()
    for flags in ([], ["--d", "4", "--e", "2"], ["--d", "4..4"]):
        assert run_main(base + flags) == 0
        config = load(out)["config"]
        assert (config["resolved_d"], config["resolved_e"], config["trials"]) == ([4], [2], 1)
        out.unlink()


@pytest.mark.parametrize(
    "command",
    [
        ["verify-hr", "--d", "3", "--e", "1", "--trials", "0"],
        ["verify-hr", "--d", "3", "--e", "1", "--jobs", "-3"],
        ["family", "--d", "4", "--e", "1", "--check", "B", "--jobs", "0"],
        ["gamma-scan", "--d", "3", "--e", "1", "--trials", "0"],
    ],
)
def test_trials_and_jobs_below_one_exit_2(tmp_path, capsys, command):
    out = tmp_path / "r.json"
    assert run_main(command + ["--seed", "1", "--out", str(out)]) == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "worker, command",
    [
        ("_hr_task", ["verify-hr", "--d", "3", "--e", "1"]),
        ("_family_task", ["family", "--d", "4", "--e", "1", "--check", "A"]),
        ("_gamma_trial_task", ["gamma-scan", "--d", "3", "--e", "1"]),
    ],
)
def test_unusable_out_path_exits_2_before_any_task(tmp_path, monkeypatch, capsys, worker, command):
    calls = []
    real = getattr(cli, worker)

    def counting(task):
        calls.append(task)
        return real(task)

    monkeypatch.setattr(cli, worker, counting)
    for out in (tmp_path / "no" / "such" / "r.json", tmp_path):
        assert run_main(command + ["--seed", "1", "--jobs", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "no").exists()


# -- worker exceptions -------------------------------------------------------------


def test_worker_exception_becomes_error_result(tmp_path, monkeypatch, capsys):
    real_gram = cli.gram

    def gram_failing_at_d4(form):
        if form.d == 4:
            raise RuntimeError("boom")
        return real_gram(form)

    monkeypatch.setattr(cli, "gram", gram_failing_at_d4)
    out = tmp_path / "v.json"
    assert run_main(["verify-hr", "--d", "3..4", "--e", "1", "--seed", "1", "--jobs", "1", "--out", str(out)]) == 1
    rep = load(out)
    assert rep["summary"] == {"total": 2, "passed": 1, "failed": 1}
    assert rep["results"][0]["pass"]
    assert rep["results"][1] == {"d": 4, "e": 1, "lambda": [1, 1], "trial": 0, "error": "RuntimeError: boom"}
    assert "RuntimeError: boom" in capsys.readouterr().err

    out = tmp_path / "g.json"
    args = ["gamma-scan", "--d", "4", "--e", "1", "--trials", "2", "--seed", "1", "--jobs", "1", "--out", str(out)]
    assert run_main(args) == 1
    rep = load(out)
    assert rep["summary"]["errors"] == [{"d": 4, "e": 1, "trial": t, "error": "RuntimeError: boom"} for t in (0, 1)]

    def failing_recursion(*args):
        raise ValueError("bad family")

    monkeypatch.setattr(cli, "verify_recursion", failing_recursion)
    out = tmp_path / "f.json"
    args = ["family", "--d", "4", "--e", "1", "--check", "recursion", "--seed", "1", "--jobs", "1", "--out", str(out)]
    assert run_main(args) == 1
    rep = load(out)
    assert rep["summary"]["failed"] == rep["summary"]["total"] == 1
    assert rep["results"][0]["error"] == "ValueError: bad family"

    # A builtin runs as one task too.
    def failing_minkowski():
        raise RuntimeError("bad builtin")

    monkeypatch.setattr(cli, "_builtin_minkowski", failing_minkowski)
    out = tmp_path / "b.json"
    assert run_main(["family", "--builtin", "minkowski", "--out", str(out)]) == 1
    rep = load(out)
    assert rep["results"] == [{"builtin": "minkowski", "error": "RuntimeError: bad builtin"}]
    assert rep["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert "RuntimeError: bad builtin" in capsys.readouterr().err


# -- family ------------------------------------------------------------------------


def test_family_recursion_pass(tmp_path):
    out = tmp_path / "rec.json"
    code = run_main(
        ["family", "--d", "4", "--e", "2", "--lambda", "2", "--check", "recursion", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    rep = load(out)
    assert rep["summary"]["failed"] == 0
    res = rep["results"][0]
    assert res["status"] == "PASS"
    assert res["verdict"]["status"] == "CONSISTENT"
    assert res["verdict"]["conclusion"] is True


def test_family_check_a_expected_fail_at_top_index(tmp_path):
    out = tmp_path / "a.json"
    code = run_main(
        ["family", "--d", "4", "--e", "1", "--lambda", "1,1", "--check", "A", "--i", "d", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    rep = load(out)
    res = rep["results"][0]
    assert res["status"] == "EXPECTED-FAIL"
    assert res["expected_failures"] == ["A5"]
    assert res["report"]["checks"]["A5"] is False


def test_family_check_a_default_range(tmp_path):
    out = tmp_path / "a2.json"
    code = run_main(
        ["family", "--d", "4", "--e", "2", "--lambda", "1,1", "--check", "A", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    rep = load(out)
    by_i = {r["i"]: r for r in rep["results"]}
    assert set(by_i) == {2, 3}
    assert by_i[2]["status"] == "EXPECTED-FAIL"
    assert by_i[2]["expected_failures"] == ["A1"]
    assert by_i[3]["status"] == "PASS"


def test_family_check_b(tmp_path):
    out = tmp_path / "b.json"
    code = run_main(
        ["family", "--d", "3", "--e", "1", "--check", "B", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    rep = load(out)
    assert all(r["status"] == "PASS" for r in rep["results"])


def test_family_aug1(tmp_path):
    out = tmp_path / "a1.json"
    code = run_main(
        ["family", "--d", "4", "--e", "1", "--check", "aug1", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    rep = load(out)
    assert all(r["verdict"]["status"] == "CONSISTENT" for r in rep["results"])


def test_family_aug2_small_d_not_applicable(tmp_path):
    out = tmp_path / "a2.json"
    code = run_main(
        ["family", "--d", "3", "--e", "1", "--check", "aug2", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    rep = load(out)
    res = rep["results"][0]
    assert res["status"] == "NOT-APPLICABLE"
    assert res["verdict"]["conclusion"] is True


def test_family_check_fails_outside_sample_radius(tmp_path):
    # at t = -5 the sampled weak-HR condition genuinely fails, which must
    # surface as a FAIL status and a nonzero exit
    out = tmp_path / "far.json"
    code = run_main(
        [
            "family", "--d", "3", "--e", "1", "--check", "B",
            "--t-samples", "-5", "--seed", "4", "--out", str(out),
        ]
    )
    assert code == 1
    rep = load(out)
    res = rep["results"][0]
    assert res["status"] == "FAIL"
    assert res["report"]["checks"]["B2"] is False
    far = [e for e in res["report"]["per_t"] if e["t"] == "-5/1"][0]
    assert far["weak_hr"] is False


def test_family_t_samples_starting_with_a_minus_sign(tmp_path):
    # After a space, argparse reads "-1/10,1/10" as a flag and exits 2; the
    # "=" spelling the help text gives passes it as the value.
    argv = ["family", "--d", "3", "--e", "1", "--check", "A", "--seed", "4", "--t-samples=-1/10,1/10"]
    ns = cli.build_parser().parse_args(argv)
    assert parse_t_samples(ns.t_samples) == (Fraction(-1, 10), Fraction(1, 10))
    out = tmp_path / "minus.json"
    assert run_main(argv + ["--out", str(out)]) == 0
    res = load(out)["results"][0]
    assert res["report"]["t_samples"] == ["0/1", "-1/10", "1/10"]


def test_family_builtin_rank_drop(tmp_path):
    out = tmp_path / "r.json"
    code = run_main(["family", "--builtin", "remark-3.7", "--out", str(out)])
    assert code == 0
    rep = load(out)
    res = rep["results"][0]
    assert res["status"] == "PASS"
    assert res["t0_signature"] == [1, 1, 1]
    assert res["checks"]["t0_kernel_dimension_1"]
    assert res["checks"]["derivative_hr"]
    assert res["embedded_verdict"]["status"] == "NOT-APPLICABLE"


@pytest.mark.parametrize("flag, samples", [([], ["1/10", "-1/10"]), (["--t-samples=,"], [])])
def test_family_builtin_rank_drop_samples(tmp_path, flag, samples):
    # No flag runs the builtin's own samples; an empty list runs none.
    out = tmp_path / "r.json"
    assert run_main(["family", "--builtin", "remark-3.7", *flag, "--out", str(out)]) == 0
    assert [entry["t"] for entry in load(out)["results"][0]["per_t"]] == samples


def test_family_builtin_minkowski(tmp_path):
    out = tmp_path / "m.json"
    code = run_main(["family", "--builtin", "minkowski", "--out", str(out)])
    assert code == 0
    rep = load(out)
    assert rep["results"][0]["signature"] == [1, 3, 0]


@pytest.mark.parametrize("builtin", ["remark-3.7", "minkowski"])
def test_family_builtin_with_forms_exits_2(tmp_path, capsys, builtin):
    out = tmp_path / "b.json"
    code = run_main(["family", "--builtin", builtin, "--forms", str(tmp_path / "none.json"),
                     "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--builtin" in err and "--forms" in err


@pytest.mark.parametrize(
    "builtin, flags, named",
    [
        ("minkowski", ["--trials", "3", "--seed", "9", "--lambda", "5"], "--lambda, --trials, --seed"),
        ("minkowski", ["--t-samples", "1/2"], "--t-samples"),
        ("remark-3.7", ["--d", "5", "--e", "3"], "--d, --e"),
        ("remark-3.7", ["--check", "A", "--i", "2"], "--check, --i"),
    ],
)
def test_family_builtin_with_unread_flags_exits_2(tmp_path, capsys, builtin, flags, named):
    # A builtin reads none of these, so echoing them in the config would mislead.
    out = tmp_path / "b.json"
    assert run_main(["family", "--builtin", builtin, *flags, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"--builtin {builtin} takes no {named}" in capsys.readouterr().err


# -- gamma scan ---------------------------------------------------------------------


def test_gamma_scan_report_shape(tmp_path):
    out = tmp_path / "g.json"
    code = run_main(
        ["gamma-scan", "--d", "4", "--e", "2", "--grid", "4", "--trials", "1", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    rep = load(out)
    assert rep["k"] == 2
    assert rep["grid_points"] == 5
    assert len(rep["results"]) == 5
    vertices = [p for p in rep["results"] if p["vertex"]]
    assert len(vertices) == 2
    assert all(t["hr"] for p in vertices for t in p["trials"])
    assert rep["summary"]["vertex_failures"] == []
    assert "exploratory" in rep["summary"]["note"]


def test_gamma_scan_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gamma-scan", "--d", "3", "--e", "2", "--grid", "2", "--trials", "2", "--seed", "9"]
    assert run_main(args + ["--out", str(a)]) == 0
    assert run_main(args + ["--out", str(b)]) == 0
    assert strip_timing(load(a)) == strip_timing(load(b))


def test_family_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["family", "--d", "3", "--e", "1", "--check", "B", "--seed", "4"]
    assert run_main(args + ["--out", str(a)]) == 0
    assert run_main(args + ["--out", str(b)]) == 0
    assert strip_timing(load(a)) == strip_timing(load(b))


# -- console entry point ---------------------------------------------------------------


def test_console_invocation_stdout():
    proc = subprocess.run(
        [sys.executable, "-m", "hrlab", "family", "--builtin", "minkowski"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["results"][0]["status"] == "PASS"


@pytest.mark.parametrize(
    "command",
    [["verify-hr"], ["family", "--check", "B"], ["gamma-scan", "--d", "2", "--e", "1"]],
    ids=lambda c: c[0],
)
def test_forms_config_records_content_hash(tmp_path, command):
    ff = tmp_path / "forms.json"
    out = tmp_path / "r.json"

    def config_for(form):
        ff.write_text(json.dumps({"omegas": [form.to_json()]}))
        assert run_main(command + ["--forms", str(ff), "--out", str(out)]) == 0
        return load(out)["config"]

    rng = random.Random(5)
    first, second = random_positive_form(rng, 2), random_positive_form(rng, 2)
    assert first != second
    a = config_for(first)
    assert config_for(second) != a
    assert config_for(first) == a
    assert a["forms"] == str(ff) and len(a["forms_sha256"]) == 64


def test_forms_file_not_utf8_exits_2(tmp_path, capsys):
    ff = tmp_path / "forms.json"
    ff.write_bytes(b'{"omegas": ["\xff"]}')
    assert run_main(["verify-hr", "--forms", str(ff)]) == 2
    assert "cannot read forms file" in capsys.readouterr().err


def test_seeded_config_has_no_forms_hash(tmp_path):
    out = tmp_path / "r.json"
    assert run_main(["verify-hr", "--d", "2", "--e", "1", "--seed", "1", "--out", str(out)]) == 0
    assert "forms_sha256" not in load(out)["config"]
