"""Regenerate reference.json: the exact D ladders the deform and transport
workloads check against.

The ladders are computed by the direct expansion route (row beta at order M
is the cumulative reduction of u_beta * Gamma^j / j! for j < M), not by
``d_matrix(t_series)``, so the check does not trust the code path it times.

Run from the repository root:  python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dworkbox.cli import JobConfig  # noqa: E402
from dworkbox.cohomology import build_presentation  # noqa: E402
from dworkbox.deformation import build_deformation, expansion_coefficients, u_basis  # noqa: E402

from workloads import DEFORM_ORDERS, GEOMETRIES  # noqa: E402


def ladder(geometry, order):
    config = JobConfig(GEOMETRIES[geometry])
    D = config.dwork()
    pres = build_presentation(D)
    deform = build_deformation(D, config.H)
    basis_u = u_basis(deform, pres, build_presentation(deform.deformed))
    rows = [expansion_coefficients(deform, pres, u, order - 1) for u in basis_u.elements]
    return {str(m): [[f"{c.numerator}/{c.denominator}" for c in row[m - 1]] for row in rows]
            for m in range(1, order + 1)}


def main():
    reference = {g: ladder(g, order) for g, order in DEFORM_ORDERS.items()}
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
