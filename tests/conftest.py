import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heliport

from heliport.geometry import HelixParams, build_helix

TAU = 7.9  # transit time of the reference 20-turn helix, units 1/Gamma_0


@pytest.fixture
def rng():
    return np.random.default_rng(20250817)


@pytest.fixture
def reference_params():
    """20-turn left-handed helix used by the transport runs."""
    return HelixParams(radius=0.05, pitch=0.175, sites_per_turn=3, turns=20,
                       handedness=1)


@pytest.fixture
def reference_helix(reference_params):
    return build_helix(reference_params)


@pytest.fixture
def small_params():
    """Two-turn, six-site helix for fast dynamics tests."""
    return HelixParams(radius=0.05, pitch=0.175, sites_per_turn=3, turns=2,
                       handedness=1)


@pytest.fixture
def small_helix(small_params):
    return build_helix(small_params)


@pytest.fixture
def fresh_python():
    """Run a script in a fresh interpreter that imports this heliport, with
    extra environment variables; returns stdout."""
    src = str(Path(heliport.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(script, *args, **extra_env):
        done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              env=dict(env, **extra_env), capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout
    return run
