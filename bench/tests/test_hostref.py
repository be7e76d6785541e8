import subprocess
import sys
from pathlib import Path

import pytest

from bench import hostref

ROOT = Path(__file__).resolve().parents[2]


def test_hostref_imports_nothing_from_the_program():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bench.hostref; "
        "bad = [m for m in sys.modules if m == 'repro' or m.startswith('repro.')]; "
        "sys.exit(1 if bad else 0)"
    )
    assert subprocess.run([sys.executable, "-c", code, str(ROOT)], check=False).returncode == 0


def test_reference_kernel_returns_a_positive_time():
    assert hostref.ReferenceKernel().run() > 0.0


def test_host_factor_is_nominal_over_mean_of_brackets():
    assert hostref.host_factor(0.1, 0.3) == pytest.approx(hostref.REF_NOMINAL_S / 0.2)
    assert hostref.host_factor(hostref.REF_NOMINAL_S, hostref.REF_NOMINAL_S) == pytest.approx(1.0)


def test_bracket_filter_uses_ten_percent_of_the_mean():
    assert hostref.bracket_valid(0.200, 0.219)
    assert not hostref.bracket_valid(0.200, 0.225)
    assert not hostref.bracket_valid(0.225, 0.200)


def test_triad_arrays_are_four_times_l2():
    assert hostref.TRIAD_BYTES_PER_ARRAY >= 4 * hostref.L2_BYTES_ASSUMED
