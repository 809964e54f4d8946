"""Command-line behavior: verbs, exit codes, CSV schema stability."""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c0ops
from c0ops import errors
from c0ops.cli import EXIT_CODES, main
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


def test_density_sweep_divergent_schedule_warns(tmp_path, capsys):
    cfg = density_config(
        tmp_path,
        schedule={"kind": "custom", "values": [(n + 1) ** -2 for n in range(13)]},
    )
    rc = main(["density-sweep", "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 0
    assert "schedule warning" in err


def test_counterexample_witness_and_control(tmp_path, capsys):
    cfg = tmp_path / "ce.json"
    cfg.write_text(json.dumps({"blocks": [2, 1], "grid_denominator": 8}))
    assert main(["counterexample", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "witness found" in out

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
        (SWEEP, {k: v for k, v in DENSITY.items() if k != "psi1"}),
        (VERIFY, {"sweep": 5}),
        (VERIFY, {"gate": "x"}),
        (SEARCH, {"grid_denominator": 0}),
        (SEARCH, {"blocks": "ab"}),
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
    ],
    ids=[
        "readme-pair-zeros",
        "zero-outside-disc",
        "nan-frame",
        "density-without-psi1",
        "verify-sweep-not-a-list",
        "verify-gate-not-a-number",
        "search-zero-denominator",
        "search-blocks-string",
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


def test_exit_table_covers_every_error():
    types = {t for t in vars(errors).values() if isinstance(t, type) and issubclass(t, Exception)}
    assert types - {errors.C0OpsError} <= set().union(*EXIT_CODES.values())


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
