"""Driving the command-line front end from Python.

Writes key = value config files into a scratch directory and runs the five
commands through cli.main, which is exactly what the pucci-lab console
script calls.  Every run leaves a json manifest with the echoed config, a
hash, timings, verdicts, and the list of artifact files; the exit code is
0 for all-PASS, 1 for a finished run with failed verdicts, 2 for bad input.

Run with:  python3 demos/06_cli_tour.py
"""

import json
import os
import tempfile

from pucci_lab import GridSpec, TwoPlaneSpec, field_to_csv, two_plane_field
from pucci_lab.cli import main


def run_command(td, name, text, extra=()):
    cpath = os.path.join(td, f"{name}.cfg")
    with open(cpath, "w") as fh:
        fh.write(text)
    out = os.path.join(td, name)
    code = main(["--config", cpath, "--out", out, "--quiet", *extra])
    with open(os.path.join(out, "manifest")) as fh:
        man = json.load(fh)
    verdicts = ", ".join(f"{k}={v}" for k, v in man["verdicts"].items()) or "-"
    print(f"{name:9s} exit {code}   verdicts: {verdicts}")
    print(f"          outputs: {', '.join(man['outputs']) or '-'}")
    return man


with tempfile.TemporaryDirectory() as td:
    # solve: the quadratic x^2 - y^2 is exactly harmonic, so the identity
    # family reproduces it to solver tolerance on any grid.
    run_command(td, "solve", """
command = solve
op = laplacian
fixture = harmonic_quadratic
grid.nx = 33
tol = 1e-10
""")

    # sweep: warm-started continuation over the eps ladder.
    run_command(td, "sweep", """
command = sweep
grid.nx = 33
eps_list = 0.2, 0.1, 0.05
tol = 1e-7
""")

    # segregate: the two-species system for edge-fed data.
    run_command(td, "segregate", """
command = segregate
fixture = edge_bumps
fixture.amplitude = 10
grid.nx = 33
eps = 0.1
tol = 1e-7
cfl = 1.0
""")

    # diagnose: read a stored field back and run the interface diagnostics.
    # Radii must leave room for the 2r blow-up balls inside the square.
    g = GridSpec(129)
    u = two_plane_field(TwoPlaneSpec.from_angle(1.0, 1.0, 20.0), g)
    fpath = os.path.join(td, "field.csv")
    field_to_csv(u, fpath)
    run_command(td, "diagnose", f"""
command = diagnose
field = {fpath}
radii = 0.1, 0.15, 0.2
x0 = 0.5, 0.5
""")

    # verify: the built-in self-checks of the operator algebra, barriers,
    # ball products, and slope fits.
    run_command(td, "verify", """
command = verify
""")

    # bad input: an ellipticity outside the admissible band is refused at
    # parse time with exit code 2 and no manifest.
    cpath = os.path.join(td, "broken.cfg")
    with open(cpath, "w") as fh:
        fh.write("command = solve\nell.lambda = 1.5\n")
    code = main(["--config", cpath, "--out", os.path.join(td, "broken"), "--quiet"])
    print(f"broken    exit {code}   (rejected before running)")
print("done")
