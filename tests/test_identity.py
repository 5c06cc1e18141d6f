"""Byte identity of whole run directories, each run in a fresh process.

The threaded world is the smallest tried whose kriging systems (200
stations per element) are large enough for OpenBLAS to split across
threads: unpinned, its ``megaheat all`` at ``OPENBLAS_NUM_THREADS`` 1 and 2
differs in seven files, ``report/fig2a.csv`` among them.  The locale
test runs one world with a station id and a corridor name outside ASCII
under an ASCII locale and under UTF-8 mode.

``run_digests.json`` holds the sha256 of every run file but timings.json
of each world, and the environment they hold for.  A change that moves
numbers on purpose rewrites it in its own commit:
``PYTHONPATH=src python tests/test_identity.py``.
"""

import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import megaheat
from megaheat import pipeline

SRC = Path(megaheat.__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("run_digests.json")

# the benchmark's planted signal (benchmarks/run.py, _PLANTED)
_PLANTED = {"noise_sd_c": 2.0, "uc_offset_c": 1.0, "uc_trend_c_per_yr": 0.02}

WORLDS = {
    # the benchmark's --smoke shapes of its two workloads
    "dense": {
        "seed": 777,
        "synth": {"n_pairs": 1, "uc_stations": 5, "nonuc_stations": 5, "gap_rate": 2e-4, "gap_mean_len_steps": 1.0, **_PLANTED},
    },
    "gappy": {
        "seed": 777,
        "synth": {"n_pairs": 1, "uc_stations": 4, "nonuc_stations": 4, "gap_rate": 0.008, "gap_mean_len_steps": 1.0, **_PLANTED},
    },
    "threaded": {
        "seed": 1,
        "window": [2011, 2015],
        "synth": {
            "n_pairs": 5,
            "uc_stations": 20,
            "nonuc_stations": 20,
            "start_year": 2011,
            "end_year": 2015,
            "daily": False,
            "gap_rate": 0.01,
            "gap_mean_len_steps": 3,
        },
    },
}

# the C locale with neither coercion nor UTF-8 mode: Python's text codec is ASCII
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

# synth, then every analysis stage, through the command line
_SYNTH_AND_ALL = "import sys; from megaheat import cli; sys.exit(cli.main(['synth', *sys.argv[1:]]) or cli.main(['all', *sys.argv[1:]]))"


def _env(**extra) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]), **extra)


def environment() -> dict:
    """What the digests depend on besides the code: numpy, the Python
    version the manifest records, and the BLAS build (its CPU kernel
    family among them) and thread count in effect."""
    blas = megaheat.BLAS
    if blas is not None:
        blas.scipy_openblas_get_config64_.argtypes = blas.scipy_openblas_get_num_threads64_.argtypes = []
        blas.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        blas.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    return {
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas": None if blas is None else blas.scipy_openblas_get_config64_().decode(),
        "blas_threads": None if blas is None else blas.scipy_openblas_get_num_threads64_(),
    }


def tree_digests(run_dir: Path) -> dict:
    """sha256 of every file under run_dir but timings.json, by relative path."""
    return {
        path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file() and path.name != "timings.json"
    }


def _run_world(base: Path, world: str, env: dict) -> dict:
    base.mkdir(parents=True)
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(WORLDS[world]))
    out = base / "run"
    done = subprocess.run(
        [sys.executable, "-c", _SYNTH_AND_ALL, "--out", str(out), "--config", str(cfg)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return tree_digests(out)


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Run-directory digests by (world, OPENBLAS_NUM_THREADS); None for the
    environment's own setting."""
    base = tmp_path_factory.mktemp("identity")
    got = {}
    for world, threads in (("dense", None), ("gappy", None), ("threaded", "1"), ("threaded", "2")):
        env = _env() if threads is None else _env(OPENBLAS_NUM_THREADS=threads)
        got[world, threads] = _run_world(base / f"{world}-{threads}", world, env)
    return got


def test_bundle_does_not_follow_the_blas_thread_count(runs):
    if megaheat.BLAS is None:
        pytest.skip("numpy bundles no scipy-openblas library, so BLAS is left unpinned (README)")
    one, two = runs["threaded", "1"], runs["threaded", "2"]
    assert one.keys() == two.keys()
    assert sorted(name for name in one if one[name] != two[name]) == []


def test_run_files_match_the_committed_digests(runs):
    committed = json.loads(DIGESTS.read_text())
    here = environment()
    recorded = committed["environment"]
    differ = [f"{key} {recorded[key]!r}, here {value!r}" for key, value in here.items() if value != recorded[key]]
    if differ:
        # another CPU kernel family or library may legitimately give other last bits
        pytest.skip("the digests hold for another environment: " + "; ".join(differ))
    got = {"dense": runs["dense", None], "gappy": runs["gappy", None], "threaded": runs["threaded", "2"]}
    for world, digests in committed["worlds"].items():
        assert got[world].keys() == digests.keys(), world
        assert [name for name in digests if got[world][name] != digests[name]] == [], world


def test_run_files_do_not_follow_the_locale(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(WORLDS["gappy"]))
    world = tmp_path / "world"
    pipeline.stage_synth(world, pipeline.load_config(WORLDS["gappy"]))
    # a station id byte and a corridor name outside ASCII
    for name, old, new in (
        *((name, b"SYN00U00000", b"SYN00U0000\xe9") for name in ("ghcnd.dly", "ghcnm.dat", "stations.txt")),
        ("regions.json", b'"UC00"', '"UC00\u00e9"'.encode()),
        ("covariates.csv", b"\nUC00,", "\nUC00\u00e9,".encode()),
    ):
        raw = (world / name).read_bytes()
        assert old in raw, name
        (world / name).write_bytes(raw.replace(old, new))
    digests = []
    for env in (_env(**_ASCII_LOCALE), _env(PYTHONUTF8="1")):
        out = tmp_path / f"run{len(digests)}"
        shutil.copytree(world, out)
        done = subprocess.run(
            [sys.executable, "-m", "megaheat.cli", "all", "--out", str(out), "--config", str(cfg)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        digests.append(tree_digests(out))
    assert digests[0] == digests[1]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        worlds = {world: _run_world(Path(tmp) / world, world, _env()) for world in WORLDS}
    DIGESTS.write_text(json.dumps({"environment": environment(), "worlds": worlds}, indent=1, sort_keys=True) + "\n")
