"""The commands at the size caps (2^20) and scan caps (2^14), each row in one
capped child process that reads its own peak memory.

``CAPS`` maps a row name to its command lines and its ceiling in MiB, or
None where only the exit codes are held.  The commands of a row run in turn
through ``vilenkin.cli.main`` in one ``capped_python`` child, which prints
each exit code and its peak RSS after it: the peak of every command of the
row run so far.  Every command must exit 0 with that peak at most the
ceiling.  Peaks and times below are from a 2-vCPU host with numpy 2.4.6.
"""

import json
import shlex

import numpy as np
import pytest

from vilenkin.transform import read_grid_binary, read_grid_csv

# Runs each command line of argv in turn, then prints one JSON line of
# [exit code, peak RSS in KiB] pairs.  The peak is VmHWM, the high-water mark
# of the child's own address space.  Its ru_maxrss would not do: Linux keeps
# the forking parent's high-water mark across exec, so a child of the test
# process reads at least that process's peak (about 190 MiB late in the suite).
_CHILD = """
import json, shlex, sys
from vilenkin.cli import main

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

print(json.dumps([[main(shlex.split(command)), peak()] for command in sys.argv[1:]]))
"""

# name: (command lines, ceiling in MiB or None).  {out} is the test's own directory.
CAPS = {
    # The kernel scans at their caps.  At --rank 0 no grid point lies off
    # I_0, so kernel_average skips its residual; at the default --rank 3 it
    # makes one dirichlet_average call, one 4096 x 512 index_sub table:
    # about 0.5 s and 89 MiB, the three before it about 55 MiB.
    "kernel-scans": ([
        "scan --name supp_measure --m 2^ --N 14 --out {out}",
        "scan --name dirichlet_floor --m 2^ --N 14 --out {out}",
        "scan --name kernel_average --m 2^ --N 12 --rank 0 --out {out}",
        "scan --name kernel_average --m 2^ --N 12 --out {out}",
    ], 112),
    # Both report `growing` in well under a second at about 36 MiB, nearly
    # all of it the interpreter and numpy: their partial sums and H_p norms
    # go in batches of at most 2^15 points.
    "martingale-scans": ([
        "scan --name divergence --m 2^ --N 14 --out {out}",
        "scan --name modulus_convergence --m 2^ --N 14 --variant Mn_plus_1 --out {out}",
    ], 52),
    # Its atoms take their kernels D_{M_t} from one dirichlet_closed call per
    # run of atoms of at most 2^15 kernel points: at 2^20 one atom per run,
    # about 0.7 s and 163 MiB.
    "counterexample": (["counterexample --m 2^ --N 20 --out {out}"], 260),
    # 51 functions through forward, then S_n f of each in runs of two rows,
    # synthesized and normed on the coarse grid of their truncated spectra:
    # about 0.6 s and 64 MiB.
    "boundedness": (["scan --name boundedness --m 2^ --N 14 --out {out}"], 92),
    # The two scans that take S_n f for every n: weighted_series at its own
    # cap 2^12 (about 0.7 s, 74 MiB) and atom_ratio at 2^14 with one atom,
    # about 6 s and 206 MiB, nearly all of it one 256-row block, its
    # magnitudes and the 128-row table.
    "row-scans": ([
        "scan --name weighted_series --m 2^ --N 12 --trials 1 --out {out}",
        "scan --name atom_ratio --m 2^ --N 14 --trials 1 --out {out}",
    ], 320),
    # The whole 4,095-row Lebesgue table under the auto convention pick,
    # where the other tests stop at limit 512: about 0.3 s.
    "lebesgue-auto": (["lebesgue --m 2^ --N 12 --out {out}"], None),
    # A 2^20 atom read back through --validate, config line and all.
    "atom-read-back": ([
        "atom --m 2^ --N 20 --out {out}",
        "atom --m 2^ --N 20 --validate {out}/atom_p0.5_rank2.csv",
    ], None),
    # One Dirichlet kernel at SIZE_CAP (about 27 MB of CSV): the block CSV
    # writer and dirichlet_direct with 4-row blocks take about 0.7 s and
    # 227 MiB.  The kernel then goes through the forward transform and back
    # (about 1 s and 0.4 s, no higher peak), for test_kernel_round_trip.
    "dirichlet": ([
        "dirichlet --m 2^ --N 20 --n 37 --out {out}",
        "transform --op forward --input {out}/dirichlet_m2c_n37.csv --output {out}/spectrum.csv",
        "transform --op inverse --input {out}/spectrum.csv --output {out}/back.bin",
    ], 320),
}


def _run(capped_python, out, commands, ceiling):
    """Run ``commands`` in one capped child and hold each to exit 0 and the ceiling."""
    lines = [command.format(out=shlex.quote(str(out))) for command in commands]
    child = capped_python(_CHILD, *lines)
    assert child.returncode == 0, child.stderr
    for line, (code, kib) in zip(lines, json.loads(child.stdout.splitlines()[-1]), strict=True):
        assert code == 0, (line, child.stderr)
        assert ceiling is None or kib / 1024 <= ceiling, f"{line}: peak RSS {kib / 1024:.1f} MiB > {ceiling} MiB"


# test_kernel_round_trip runs the dirichlet row and reads its files.
@pytest.mark.parametrize("name", [name for name in CAPS if name != "dirichlet"])
def test_row_exits_0_within_its_ceiling(tmp_path, capped_python, name):
    _run(capped_python, tmp_path, *CAPS[name])


def test_kernel_round_trip(tmp_path, capped_python):
    # The kernel of the dirichlet row read back by the transforms, and its
    # spectrum once more under a leading comment line, which the spectral
    # reader skips like the config line.  The round trip gives the kernel
    # again, within 1e-10 of its peak: the radix-2 passes at 2^20.
    _run(capped_python, tmp_path, *CAPS["dirichlet"])
    noted = tmp_path / "noted.csv"
    noted.write_text("# a note\n" + (tmp_path / "spectrum.csv").read_text())
    _run(capped_python, tmp_path, ["transform --op inverse --input {out}/noted.csv --output {out}/noted.bin"], None)
    assert (tmp_path / "noted.bin").read_bytes() == (tmp_path / "back.bin").read_bytes()
    with (tmp_path / "dirichlet_m2c_n37.csv").open() as fh:
        kernel = read_grid_csv(fh).values
    with (tmp_path / "back.bin").open("rb") as fh:
        back = read_grid_binary(fh).values
    err, peak = float(np.abs(back - kernel).max()), float(np.abs(kernel).max())
    assert err <= 1e-10 * peak, f"round trip error {err:.3e} exceeds 1e-10 of the kernel peak {peak:.3e}"
