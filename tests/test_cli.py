import json

import numpy as np
import pytest

from roughdyn import cli, paths


SMALL = """
[problem]
n_steps = 32
n_modes = 4
m_phys = 32
horizon = 0.5

[solver]
n_starts = 2
"""


@pytest.fixture
def small_cfg(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SMALL)
    return str(p)


def test_sample_path_smoke_and_roundtrip(tmp_path, small_cfg):
    rc = cli.main(
        ["sample-path", "--config", small_cfg, "--seed", "3", "--out", str(tmp_path)]
    )
    assert rc == 0
    back = paths.path_from_csv(str(tmp_path / "path.csv"))
    assert back.n_steps == 32 and back.n_modes == 4
    doc = json.loads((tmp_path / "sample_path.json").read_text())
    assert doc["report"]["n_steps"] == 32
    assert "config_hash" in doc


def test_sample_path_determinism(tmp_path, small_cfg):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        cli.main(
            ["sample-path", "--config", small_cfg, "--seed", "9", "--out", str(tmp_path / d)]
        )
    assert (tmp_path / "a/path.csv").read_bytes() == (
        tmp_path / "b/path.csv"
    ).read_bytes()
    assert (tmp_path / "a/sample_path.json").read_bytes() == (
        tmp_path / "b/sample_path.json"
    ).read_bytes()


def test_grid_pow_override(tmp_path, small_cfg):
    cli.main(
        [
            "sample-path",
            "--config",
            small_cfg,
            "--seed",
            "1",
            "--out",
            str(tmp_path),
            "--grid-pow",
            "6",
        ]
    )
    back = paths.path_from_csv(str(tmp_path / "path.csv"))
    assert back.n_steps == 64


def test_integrate_constant_identity(tmp_path, small_cfg):
    rc = cli.main(
        ["integrate", "--config", small_cfg, "--seed", "2", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "integrate.json").read_text())
    assert doc["report"]["constant_identity_error"] < 1e-12


def test_solve_writes_solutions(tmp_path, small_cfg):
    rc = cli.main(
        ["solve", "--config", small_cfg, "--seed", "4", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "solve.json").read_text())
    assert doc["report"]["converged"] is True
    assert max(doc["report"]["residuals"]) < 1e-8
    sol = paths.path_from_csv(str(tmp_path / doc["report"]["solution_files"][0]))
    assert sol.n_steps == 32


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[params]\nhurst = 0.3\n")
    assert cli.main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text("[params]\nnope = 1\n")
    assert cli.main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert (
        cli.main(["solve", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path)])
        == 2
    )


def test_usc_subcommand(tmp_path, small_cfg):
    rc = cli.main(
        ["usc", "--config", small_cfg, "--seed", "6", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "usc.json").read_text())
    e = doc["report"]["e"]
    assert len(e) == 3 and doc["report"]["failures"] == 0


def test_cocycle_subcommand(tmp_path, small_cfg):
    rc = cli.main(
        ["cocycle", "--config", small_cfg, "--seed", "7", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "cocycle.json").read_text())
    for chk in doc["report"]["checks"]:
        assert max(chk["d1_lhs_to_rhs"], chk["d2_rhs_to_lhs"]) < 5e-3


@pytest.mark.parametrize(
    "body",
    [
        "[experiment]\nu0_mode = 99\n",  # outside 1..n_modes
        "[experiment]\nu0_mode = 0\n",
        "[problem]\nn_modes = 300\n",  # more modes than physical nodes
        "[problem]\nn_steps = 64.9\n",  # integer keys must be integers
        "[solver]\nn_starts = 2.5\n",
        "[problem]\nm_phys = 0\n",
    ],
)
def test_config_validated_at_parse_time(tmp_path, capsys, body):
    bad = tmp_path / "bad.ini"
    bad.write_text(body)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()  # rejected before anything runs


def test_integer_keys_accept_integral_floats(tmp_path):
    cfg_path = tmp_path / "ok.ini"
    cfg_path.write_text("[problem]\nn_steps = 64.0\nn_modes = 4\n")
    cfg = cli._load_config(str(cfg_path), 0, None)
    assert cfg["problem"]["n_steps"] == 64
    assert isinstance(cfg["problem"]["n_steps"], int)


def test_negative_grid_pow_is_config_error(tmp_path):
    assert cli.main(["solve", "--grid-pow", "-1", "--out", str(tmp_path)]) == 2
