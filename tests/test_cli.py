"""Command-line behavior: verbs, exit codes, CSV schema stability."""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c0ops
from c0ops import errors, verify
from c0ops.cli import CONFIG_KEYS, EXIT_CODES, REQUIRED, Exit, main
from c0ops.inner import monomial
from c0ops.jordan import random_invariant_subspace
from c0ops.subspaces import AmbientSpace

Z2 = {"zeros": [{"re": 0.0, "im": 0.0, "mult": 2}]}
Z1 = {"zeros": [{"re": 0.0, "im": 0.0, "mult": 1}]}


@pytest.fixture
def subspace_files(tmp_path):
    amb = AmbientSpace.build(monomial(2), 4)
    rng = np.random.default_rng(12)
    paths = []
    for name in ("m1", "m2"):
        m = random_invariant_subspace(amb, rng)
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(m.to_dict()))
        paths.append(str(p))
    return paths


def test_jordan_model_ok(subspace_files, capsys):
    rc = main(["jordan-model", "--input", subspace_files[0]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "restriction model" in out and "compression model" in out


def test_jordan_model_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["jordan-model", "--input", missing]) == 2


def test_jordan_model_invariance_error(tmp_path, capsys):
    amb = AmbientSpace.build(monomial(2), 1)
    data = {
        "ambient": {"theta": Z2, "copies": 1},
        "frame": [[1.0, 0.0], [0.0, 0.0]],  # span{1}: not invariant
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["jordan-model", "--input", str(p)]) == 3


def test_verify_orbit_self(subspace_files, capsys, tmp_path):
    out_path = str(tmp_path / "report.json")
    rc = main(
        ["verify-orbit", "--input", subspace_files[0], subspace_files[0], "--out", out_path]
    )
    assert rc == 0
    report = json.loads(open(out_path).read())
    assert report["verdict"] == "orbit"
    assert report["restriction_models_equal"] is True


def density_config(tmp_path, **overrides):
    cfg = {
        "theta": Z2,
        "copies": 12,
        "schedule": {"kind": "factorial"},
        "phi_all": Z1,
        "psi1": Z2,
        "psi2": Z1,
        "seed": 5,
    }
    cfg.update(overrides)
    p = tmp_path / "density.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_density_sweep_csv_schema(tmp_path, capsys):
    rc = main(["density-sweep", "--config", density_config(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,residual,bound,sigma_min,intertwine,K"
    assert len(lines) == 12  # header + m = 1..11
    first = lines[1].split(",")
    assert first[0] == "1"
    # K(1) = 1 exactly for the factorial schedule
    assert first[5] == "1"
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert float(cells[1]) <= float(cells[2]) + 1e-9


def test_density_sweep_golden_k_column(tmp_path, capsys):
    # the K column is pure arithmetic on the schedule: frozen as strings
    rc = main(["density-sweep", "--config", density_config(tmp_path)])
    out = capsys.readouterr().out
    ks = [line.split(",")[5] for line in out.strip().splitlines()[1:]]
    assert ks[:5] == [
        "1",
        "0.707106781187",
        "0.408248290464",
        "0.270030862434",
        "0.207163381578",
    ]


def test_density_sweep_hypothesis_exit(tmp_path, capsys):
    bad = density_config(tmp_path, psi1=Z1, psi2=Z2)  # psi2 does not divide psi1
    assert main(["density-sweep", "--config", bad]) == 4
    assert capsys.readouterr().out == ""


def test_density_sweep_empty_targets_exit(tmp_path, capsys):
    # phi = 1 leaves every slot (theta/phi)H^2 (-) theta H^2 = 0, so no unit target F exists
    cfg = density_config(tmp_path, copies=4, phi_all={"zeros": []}, psi1=Z2, psi2=Z2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["density-sweep", "--config", cfg])
    assert rc == 4
    assert capsys.readouterr().out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_density_sweep_divergent_schedule_warns(tmp_path, capsys):
    cfg = density_config(
        tmp_path,
        schedule={"kind": "custom", "values": [(n + 1) ** -2 for n in range(13)]},
    )
    rc = main(["density-sweep", "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 0
    assert "schedule warning" in err


@pytest.mark.parametrize("copies", [101, 103, 169])
def test_density_sweep_to_the_last_factorial_weight(tmp_path, capsys, copies):
    # 1/((n+1) c_n)^2 overflows from n = 99 and ((n+1) c_n)^2 underflows to 0
    # from n = 102, so K(m) and the bound are read without squaring a weight
    rc = main(["density-sweep", "--config", density_config(tmp_path, copies=copies)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
    assert len(rows) == copies - 1
    assert all(np.isfinite(float(cell)) for row in rows for cell in row[1:])


def test_density_sweep_overflowing_schedule_refused(tmp_path, capsys):
    # K(1) = 2 c_1 / c_0 = 2e600 is not a float
    cfg = density_config(tmp_path, schedule={"kind": "custom", "values": [1e-300] + [1e300] * 12})
    assert main(["density-sweep", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "K(1) overflows" in captured.err


def test_density_sweep_past_the_last_factorial_weight(tmp_path, capsys):
    assert main(["density-sweep", "--config", density_config(tmp_path, copies=170)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 170 weights" in captured.err


def test_counterexample_witness_and_control(tmp_path, capsys):
    cfg = tmp_path / "ce.json"
    cfg.write_text(json.dumps({"blocks": [2, 1], "grid_denominator": 8}))
    assert main(["counterexample", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "witness found" in out
    assert "M1 compression model: JordanModel(parts=(InnerFunction(z), InnerFunction(z)))" in out
    assert "M2 compression model: JordanModel(parts=(InnerFunction(z^2),))" in out

    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps({"blocks": [1, 1], "grid_denominator": 4}))
    assert main(["counterexample", "--config", str(ctrl)]) == 0
    out = capsys.readouterr().out
    assert "no witness" in out


def test_counterexample_budget_exit(tmp_path, capsys):
    cfg = tmp_path / "ce.json"
    cfg.write_text(
        json.dumps({"blocks": [1, 1], "grid_denominator": 4, "budget": 2})
    )
    assert main(["counterexample", "--config", str(cfg)]) == 5


@pytest.mark.parametrize(
    "config, count",
    [({"blocks": [1] * 30}, 1073852313), ({"grid_denominator": 1000000000}, 8000000001)],
    ids=["thirty-blocks", "denominator-1e9"],
)
def test_counterexample_past_the_cap_exits_4(tmp_path, monkeypatch, capsys, config, count):
    # the closed-form count refuses before the grid (range) or the lattice (product) is built
    def refuse(*args):
        raise AssertionError("the search enumerated")

    monkeypatch.setattr(verify, "product", refuse)
    monkeypatch.setattr(verify, "range", refuse, raising=False)
    cfg = tmp_path / "ce.json"
    cfg.write_text(json.dumps(config))
    start = time.perf_counter()
    assert main(["counterexample", "--config", str(cfg)]) == 4
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hypothesis error: the search would enumerate {count} subspaces, above the cap 262144\n"


def test_cordiag_demo_agreement(tmp_path, capsys):
    cfg = tmp_path / "demo.json"
    cfg.write_text(
        json.dumps(
            {
                "theta": Z2,
                "copies": 4,
                "similarity": [[1.0, 0.3], [0.2, 1.5]],
                "pairs": 3,
                "seed": 11,
                "sweep": [8, 12],
            }
        )
    )
    assert main(["cordiag-demo", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "disagreements: 0 / 3" in out


def test_unknown_verb_is_parse_error(capsys):
    assert main(["no-such-verb"]) == 2


def test_console_entry_point_runs():
    # the child imports c0ops from where this process found it
    package_root = os.path.dirname(os.path.dirname(c0ops.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "c0ops.cli", "jordan-model", "--input", "/nonexistent"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2


def test_float_verb_never_imports_sympy(subspace_files):
    # only the exact search needs sympy; importing the package, the CLI and
    # running a float verb must not load it
    package_root = os.path.dirname(os.path.dirname(c0ops.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import c0ops\n"
        "import c0ops.cli\n"
        f"assert c0ops.cli.main(['jordan-model', '--input', {subspace_files[0]!r}]) == 0\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_counterexample_verb_never_imports_sympy(tmp_path):
    # the exact search runs on stdlib fractions, so no verb loads sympy
    package_root = os.path.dirname(os.path.dirname(c0ops.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    cfg = tmp_path / "search.json"
    cfg.write_text(json.dumps({"blocks": [2, 1], "grid_denominator": 8}))
    script = (
        "import sys\n"
        "import c0ops.cli\n"
        f"assert c0ops.cli.main(['counterexample', '--config', {str(cfg)!r}]) == 0\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "witness found:" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False"


def verify_config(tmp_path, cfg):
    p = tmp_path / "verify.json"
    p.write_text(json.dumps(cfg))
    return str(p)


@pytest.mark.parametrize("schedule", [{"kind": "custom", "values": [1.0]}, "bogus"])
def test_verify_orbit_refuses_schedule(subspace_files, capsys, tmp_path, schedule):
    # verify-orbit always uses factorial(64); a schedule key is refused, not ignored
    cfg = verify_config(tmp_path, {"schedule": schedule, "sweep": [8]})
    rc = main(["verify-orbit", "--input", subspace_files[0], subspace_files[0], "--config", cfg])
    assert rc == 2
    assert "does not take a schedule" in capsys.readouterr().err


def _subspace_with(theta=Z2, frame=((0.0, 0.0), (1.0, 0.0))):
    return {"ambient": {"theta": theta, "copies": 1}, "frame": [list(v) for v in frame]}


# m.json is a valid subspace; in.json holds the payload of each case
JORDAN = ["jordan-model", "--input", "in.json"]
VERIFY = ["verify-orbit", "--input", "m.json", "m.json", "--config", "in.json"]
SWEEP = ["density-sweep", "--config", "in.json"]
SEARCH = ["counterexample", "--config", "in.json"]
DEMO_ARGV = ["cordiag-demo", "--config", "in.json"]
DENSITY = {"theta": Z2, "copies": 12, "phi_all": Z1, "psi1": Z2, "psi2": Z1}
DEMO = {"theta": Z2, "copies": 2, "similarity": [[1.0, 0.3], [0.2, 1.5]], "pairs": 1, "sweep": [4]}
Z2_7 = {"zeros": [{"re": 0.0, "im": 0.0, "mult": 2.7}]}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (JORDAN, _subspace_with(theta={"zeros": [[0.0, 0.0], [0.0, 0.0]]})),
        (JORDAN, _subspace_with(theta={"zeros": [{"re": 1.5, "im": 0.0, "mult": 2}]})),
        (JORDAN, _subspace_with(frame=((float("nan"), 0.0), (1.0, 0.0)))),
        (JORDAN, _subspace_with(frame=((0.0, 0.0, 1.0), (1.0, 0.0)))),
        (JORDAN, {**_subspace_with(), "frame": ["ab", [1.0, 0.0]]}),
        (JORDAN, _subspace_with(frame=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))),
        (SWEEP, {k: v for k, v in DENSITY.items() if k != "psi1"}),
        (VERIFY, {"sweep": 5}),
        (VERIFY, {"gate": "x"}),
        (SEARCH, {"grid_denominator": 0}),
        (SEARCH, {"blocks": "ab"}),
        (SEARCH, {"blocks": [1, 65], "grid_denominator": 1, "budget": 1}),
        (SEARCH, [1]),
        (SEARCH, {"budgt": 1}),
        (DEMO_ARGV, {**DEMO, "similarity": [[1.0, 0.3], [0.2]]}),
        (SWEEP, {**DENSITY, "seed": "x"}),
        (["jordan-model", "--input", "m.json", "--ambient", "in.json"], {"theta": Z2, "copies": 1}),
        # same total dimension, so the frame would fit either ambient
        (
            ["verify-orbit", "--input", "m.json", "in.json"],
            {**_subspace_with(Z1), "ambient": {"theta": Z1, "copies": 2}},
        ),
        # a fractional count or an unknown key is refused, not truncated or ignored
        (JORDAN, {**_subspace_with(), "ambient": {"theta": Z2_7, "copies": 1.9}, "junk": 1}),
        (JORDAN, {**_subspace_with(), "ambient": {"theta": Z2, "copies": 1.9}}),
        (JORDAN, _subspace_with(theta=Z2_7)),
        (JORDAN, {**_subspace_with(), "junk": 1}),
        (JORDAN, {**_subspace_with(), "ambient": {"theta": Z2, "copies": 1, "junk": 1}}),
        (JORDAN, _subspace_with(theta={"zeros": [{"re": 0.0, "im": 0.0, "mult": 2, "junk": 1}]})),
        (JORDAN, _subspace_with(theta={**Z2, "junk": 1})),
        (SWEEP, {**DENSITY, "theta": Z2_7}),
        (SWEEP, {**DENSITY, "theta": {"zeros": []}}),
        (SWEEP, {**{k: v for k, v in DENSITY.items() if k != "phi_all"}, "copies": 4, "phi": [Z1, Z1]}),
        (DEMO_ARGV, {**DEMO, "similarity": np.eye(3).tolist()}),
        # the results are already on stdout when the write fails
        ([*SEARCH, "--out", "missing/out.json"], {"blocks": [1, 1], "grid_denominator": 1}),
    ],
    ids=[
        "readme-pair-zeros",
        "zero-outside-disc",
        "nan-frame",
        "frame-entry-of-three-numbers",
        "frame-entry-a-string",
        "frame-length-not-a-multiple",
        "density-without-psi1",
        "verify-sweep-not-a-list",
        "verify-gate-not-a-number",
        "search-zero-denominator",
        "search-blocks-string",
        "search-block-above-degree-cap",
        "search-config-not-an-object",
        "search-unknown-key",
        "demo-ragged-similarity",
        "density-seed-string",
        "ambient-flag",
        "verify-different-ambients",
        "subspace-truncated-copies-mult-and-junk",
        "subspace-fractional-copies",
        "subspace-fractional-mult",
        "subspace-unknown-key",
        "subspace-unknown-ambient-key",
        "zero-unknown-key",
        "theta-unknown-key",
        "density-fractional-mult",
        "theta-without-zeros",
        "phi-shorter-than-copies",
        "similarity-not-deg-theta-square",
        "out-into-missing-directory",
    ],
)
def test_malformed_input_is_parse_error(tmp_path, monkeypatch, capsys, argv, payload):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(_subspace_with()))
    (tmp_path / "in.json").write_text(json.dumps(payload))
    assert main(argv) == 2
    assert "parse error" in capsys.readouterr().err


def test_numerical_refusal_exit(tmp_path, capsys):
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps({**DEMO, "similarity": [[1.0, 0.0], [0.0, 1e-7]]}))
    assert main(["cordiag-demo", "--config", str(cfg)]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "condition number" in captured.err


BENCH_SIMILARITY = [[1.0, 0.35], [0.15, 1.4]]
ORBIT_PAIR = """
    {
      "index": %d,
      "jordan": "orbit",
      "conjugated": "orbit"
    }"""
NO_ORBIT_PAIR = ORBIT_PAIR.replace('"orbit"', '"no-orbit"')
ONE_PAIR_OUT = "pair 0: jordan=orbit conjugated=orbit [agree]\ndisagreements: 0 / 1\n"
ONE_PAIR_JSON = '{\n  "pairs": [%s\n  ],\n  "disagreements": 0\n}\n' % (ORBIT_PAIR % 0)


@pytest.mark.parametrize(
    "config, stdout, report",
    [
        (DEMO, ONE_PAIR_OUT, ONE_PAIR_JSON),
        ({**DEMO, "similarity": BENCH_SIMILARITY}, ONE_PAIR_OUT, ONE_PAIR_JSON),
        (
            {**DEMO, "similarity": BENCH_SIMILARITY, "pairs": 4},
            "pair 0: jordan=orbit conjugated=orbit [agree]\n"
            "pair 1: jordan=no-orbit conjugated=no-orbit [agree]\n"
            "pair 2: jordan=orbit conjugated=orbit [agree]\n"
            "pair 3: jordan=no-orbit conjugated=no-orbit [agree]\n"
            "disagreements: 0 / 4\n",
            '{\n  "pairs": [%s,%s,%s,%s\n  ],\n  "disagreements": 0\n}\n'
            % (ORBIT_PAIR % 0, NO_ORBIT_PAIR % 1, ORBIT_PAIR % 2, NO_ORBIT_PAIR % 3),
        ),
    ],
    ids=["demo", "bench-similarity", "bench-similarity-4-pairs"],
)
def test_cordiag_demo_output_is_pinned(tmp_path, capsys, config, stdout, report):
    cfg, out = tmp_path / "demo.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(config))
    assert main(["cordiag-demo", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == stdout
    assert out.read_text() == report


def test_subspace_reader_notes_a_rank_deficient_frame(tmp_path, capsys):
    # two parallel columns z and 2z span one dimension of H(z^2)
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(_subspace_with(frame=((0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (2.0, 0.0)))))
    assert main(["jordan-model", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert "restriction model" in captured.out
    assert f"{path}: 2 stored columns are rank deficient, kept dimension 1" in captured.err
    cfg = verify_config(tmp_path, {"sweep": [4]})
    assert main(["verify-orbit", "--input", str(path), str(path), "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "verdict: orbit" in captured.out
    assert captured.err.count(f"{path}: 2 stored columns") == 2
    # a full-rank frame that is not orthonormal gets the adjustment note
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(_subspace_with(frame=((0.0, 0.0), (1.5, 0.0)))))
    assert main(["jordan-model", "--input", str(scaled)]) == 0
    assert f"{scaled}: frame re-orthonormalization adjustment 1.25" in capsys.readouterr().err


def test_exit_table_covers_every_error():
    # every error type of the package, ParseFailure included, exits through exactly one code
    types, todo = set(), [errors.C0OpsError]
    while todo:
        subclasses = [t for t in todo.pop().__subclasses__() if t.__module__.startswith("c0ops.")]
        types.update(subclasses)
        todo += subclasses
    assert {t for t in vars(errors).values() if isinstance(t, type)} - {errors.C0OpsError} <= types
    for t in types:
        assert sum(issubclass(t, kind) for kind in EXIT_CODES.values()) == 1, t


def test_readme_exit_table_lists_every_exit_code():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text().split("| exit | meaning |\n|---|---|\n")[1].split("\n\n")[0]
    assert [int(line.split("|")[1]) for line in table.splitlines()] == sorted(Exit)


def test_readme_config_table_lists_every_config_key():
    # each verb's backticked keys, in order, with the default shown in parentheses
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text().split("| verb | flags | config keys (default) |\n|---|---|---|\n")[1].split("\n\n")[0]
    verbs = []
    for line in table.splitlines():
        verb, _, keys = (cell.strip() for cell in line.strip("|").split("|"))
        verb = verb.strip("`")
        verbs.append(verb)
        shown = re.findall(r"`(\w+)`(?: \(`([^`]+)`)?", keys)
        expected = [
            (key, "" if default is REQUIRED or default is None else json.dumps(default))
            for key, (_, default) in CONFIG_KEYS.get(verb, {}).items()
        ]
        # the factorial schedule is the None default, shown by its config name
        expected = [(key, '"factorial"' if key == "schedule" else value) for key, value in expected]
        assert shown == expected, verb
    assert sorted(verbs) == sorted(["jordan-model", *CONFIG_KEYS])


FUZZ_POOL = [None, "x", [], {}, -1, 0, 2.5, True, [[0, 0]]]
Z1_LINE = {"ambient": {"theta": Z1, "copies": 2}, "frame": [[1.0, 0.0], [0.0, 0.0]]}
# small valid inputs: the --input file of jordan-model, the --config of the rest
FUZZ_BASES = {
    "jordan-model": Z1_LINE,
    "verify-orbit": {"sweep": [2], "gate": 0.05},
    "density-sweep": {
        **DENSITY, "copies": 3, "schedule": "factorial", "seed": 1, "target_support": 2,
    },
    "counterexample": {"blocks": [1, 1], "grid_denominator": 1, "budget": 3},
    "cordiag-demo": {
        "theta": Z1, "copies": 2, "similarity": [[2.0]],
        "pairs": 1, "seed": 0, "sweep": [2], "gate": 0.05,
    },
}


def _mutants(base):
    """base with one key replaced from the pool, one key dropped, or one unknown key added."""
    keys = st.sampled_from(sorted(base))
    values = st.sampled_from(FUZZ_POOL)
    return st.one_of(
        st.builds(lambda k, v: {**base, k: v}, keys, values),
        keys.map(lambda k: {key: v for key, v in base.items() if key != k}),
        values.map(lambda v: {**base, "unknown": v}),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    case=st.sampled_from(sorted(FUZZ_BASES)).flatmap(
        lambda verb: st.tuples(st.just(verb), _mutants(FUZZ_BASES[verb]))
    )
)
def test_fuzz_main_returns_documented_code(case):
    verb, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        path, line = os.path.join(tmp, "in.json"), os.path.join(tmp, "m.json")
        for name, data in ((path, payload), (line, Z1_LINE)):
            with open(name, "w") as fh:
                json.dump(data, fh)
        flags = {
            "jordan-model": ["--input", path],
            "verify-orbit": ["--input", line, line, "--config", path],
        }.get(verb, ["--config", path])
        assert main([verb, *flags]) in {0, 2, 3, 4, 5, 6}
