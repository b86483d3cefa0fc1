"""Seeded inputs, timed passes and output checks of the dworkbox benchmark.

A workload is a fixed list of operations, run as one pass: CLI jobs called
in process through ``dworkbox.cli.main(argv)``, or a batch of library
reductions.  Inputs come from the seed alone; the program only sees the
generated files and elements.  Every operation's output is checked outside
the timed region.
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

GEOMETRIES = {
    "cubic_curve": {
        "n": 2, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3"], "H": ["x0*x1*x2"]},
    "sextic_curve": {
        "n": 2, "k": 1, "degrees": [6],
        "G": ["x0^6 + x1^6 + x2^6"], "H": ["x0^2*x1^2*x2^2"]},
    "two_quadrics": {
        "n": 3, "k": 2, "degrees": [2, 2],
        "G": ["x0^2 + x1^2 + x2^2 + x3^2", "x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2"],
        "H": ["x0*x1", "0"]},
    "quartic_k3": {
        "n": 3, "k": 1, "degrees": [4],
        "G": ["x0^4 + x1^4 + x2^4 + x3^4"], "H": ["x0*x1*x2*x3"]},
    "cubic_threefold": {
        "n": 4, "k": 1, "degrees": [3],
        "G": ["x0^3 + x1^3 + x2^3 + x3^3 + x4^3"]},
}
HODGE = {
    "cubic_curve": [1, 1],
    "sextic_curve": [10, 10],
    "two_quadrics": [1, 1],
    "quartic_k3": [1, 19, 1],
    "cubic_threefold": [0, 5, 5, 0],
}
DEFORM_ORDERS = {"cubic_curve": 6, "sextic_curve": 6, "two_quadrics": 3, "quartic_k3": 3}
VERIFY_GEOMETRIES = ("cubic_curve", "quartic_k3")
VERIFY_ITERATIONS = 200
# The verify seed is fixed on purpose.  Drawn from the workload seed, one pass
# took 12.9 s to 23.6 s over seeds 1..10 (interquartile range 27% of the
# median): the check families draw heavy-tailed random elements, and that
# spread is wider than any bound a regression gate could use.
VERIFY_SEED = 0
STREAM_GEOMETRIES = ("cubic_curve", "quartic_k3")
STREAM_PER_GEOMETRY = 200
# the Hesse pencil value pinned by the test suite: ladder[3][0][0] of the cubic
HESSE = ("cubic_curve", "3", -Fraction(1, 54))

CLI_JOBS = (
    [("basis", g) for g in GEOMETRIES]
    + [("deform", g) for g in DEFORM_ORDERS]
    + [("transport", g) for g in DEFORM_ORDERS]
    + [("verify", g) for g in VERIFY_GEOMETRIES]
)


def load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


def rng_for(seed, purpose):
    return random.Random(f"dworkbox-bench:{seed}:{purpose}")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _as_fractions(matrix):
    return [[Fraction(v) for v in row] for row in matrix]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def random_omega(rng, dim):
    """Exact rational period matrix with small entries, as "p/q" strings."""
    return [[f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(dim)]
            for _ in range(dim)]


def random_unimodular(rng, dim):
    """Integer matrix of determinant +-1: a product of elementary matrices."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    if dim > 1:
        for _ in range(2 * dim):
            i, j = rng.sample(range(dim), 2)
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        i, j = rng.sample(range(dim), 2)
        m[i], m[j] = m[j], m[i]
    r = rng.randrange(dim)
    m[r] = [-v for v in m[r]]
    return m


# -- CLI workloads --------------------------------------------------------------


class Job:
    """One CLI call on one geometry; writes the geometry's config file."""

    def __init__(self, workdir, command, geometry, args, check):
        self.name = f"cli.{command}.{geometry}"
        self.out = workdir / f"{command}-{geometry}.out"
        config = workdir / f"{geometry}.json"
        _write_json(config, GEOMETRIES[geometry])
        self.argv = ["--format", "json", "--out", str(self.out), command, str(config),
                     *args]
        self.check = check  # payload -> failure message or None


class CliWorkload:
    """One pass = every job once, in a seeded order."""

    def __init__(self, prog, seed, jobs):
        self.main = prog.cli.main
        self.jobs = list(jobs)
        rng_for(seed, "order").shuffle(self.jobs)
        self.results = []

    def run_pass(self, span=None):
        self.results = []
        total = 0.0
        for job in self.jobs:
            job.out.unlink(missing_ok=True)
            code = None
            start = perf_counter()
            try:
                if span is None:
                    code = self.main(job.argv)
                else:
                    with span(job.name):
                        code = self.main(job.argv)
            except Exception:  # a crashing job is a failed operation, not a crashed benchmark
                traceback.print_exc(file=sys.stderr)
            total += perf_counter() - start
            self.results.append((job, code))
        return total

    def check_pass(self):
        failures = []
        for job, code in self.results:
            if code != 0:
                failures.append(f"{job.name}: exit code {code}")
                continue
            try:
                with open(job.out, encoding="utf-8") as handle:
                    problem = job.check(json.load(handle))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable report: {exc!r}"
            if problem:
                failures.append(f"{job.name}: {problem}")
        return len(self.results), failures


def _check_hodge(geometry):
    def check(payload):
        if payload["hodge"] != HODGE[geometry]:
            return f"hodge {payload['hodge']} != {HODGE[geometry]}"
    return check


def _check_ladder(geometry, reference):
    def check(payload):
        if payload["dLadder"] != reference:
            return "D ladder differs from the stored reference"
        g, order, value = HESSE
        if geometry == g and Fraction(payload["dLadder"][order][0][0]) != value:
            return f"Hesse ladder[{order}][0][0] != {value}"
    return check


def _check_transport(reference, omega, base):
    def check(payload):
        omega_q, base_q = _as_fractions(omega), _as_fractions(base)
        expected = {int(m): _matmul(_matmul(_as_fractions(d), omega_q), base_q)
                    for m, d in reference.items()}
        got = {entry["order"]: _as_fractions(entry["matrix"]) for entry in payload["orders"]}
        if got != expected:
            return "transported matrices differ from D * Omega * B"
    return check


def make_build(prog, seed, workdir):
    return CliWorkload(prog, seed, [Job(workdir, "basis", g, (), _check_hodge(g))
                                    for g in GEOMETRIES])


def make_deform(prog, seed, workdir):
    reference = load_reference()
    return CliWorkload(prog, seed, [
        Job(workdir, "deform", g, ("--order", str(order)), _check_ladder(g, reference[g]))
        for g, order in DEFORM_ORDERS.items()])


def make_transport(prog, seed, workdir):
    reference = load_reference()
    rng = rng_for(seed, "periods")
    jobs = []
    for g, order in DEFORM_ORDERS.items():
        dim = sum(HODGE[g])
        omega = random_omega(rng, dim)
        base = random_unimodular(rng, dim)
        omega_path = workdir / f"omega-{g}.json"
        base_path = workdir / f"base-{g}.json"
        _write_json(omega_path, omega)
        _write_json(base_path, base)
        args = ("--omega", str(omega_path), "--base-change", str(base_path),
                "--order", str(order))
        jobs.append(Job(workdir, "transport", g, args,
                        _check_transport(reference[g], omega, base)))
    return CliWorkload(prog, seed, jobs)


def _check_ok(payload):
    if payload["ok"] is not True:
        return "verify reports a broken invariant"


def make_verify(prog, seed, workdir):
    args = ("--seed", str(VERIFY_SEED), "--iterations", str(VERIFY_ITERATIONS))
    return CliWorkload(prog, seed, [Job(workdir, "verify", g, args, _check_ok)
                                    for g in VERIFY_GEOMETRIES])


# -- the reduction stream ---------------------------------------------------------


class ReduceWorkload:
    """One pass = a seeded batch of charge-c_G reductions, interleaving geometries.

    The presentations are built in set-up, so every weight the stream visits
    (up to n - k + slack) already has its solver and no pass builds one.
    """

    def __init__(self, prog, seed):
        self.apply_k = prog.operators.apply_k
        rng = rng_for(seed, "stream")
        per_geometry = []
        for g in STREAM_GEOMETRIES:
            D = prog.cli.JobConfig(GEOMETRIES[g]).dwork()
            pres = prog.cohomology.build_presentation(D)
            top = D.ctx.n - D.ctx.k + pres.slack
            per_geometry.append([
                (pres, prog.verify.random_charge_element(D, rng, pres.c_G, 0, max_weight=top))
                for _ in range(STREAM_PER_GEOMETRY)])
        self.batch = [item for group in zip(*per_geometry) for item in group]
        self.results = []

    def _reduce_all(self):
        results = []
        for pres, f in self.batch:
            try:
                results.append(pres.reduce(f))
            except Exception:  # counted as a failed reduction
                traceback.print_exc(file=sys.stderr)
                results.append(None)
        return results

    def run_pass(self, span=None):
        start = perf_counter()
        if span is None:
            self.results = self._reduce_all()
        else:
            with span("stream.reductions"):
                self.results = self._reduce_all()
        return perf_counter() - start

    def check_pass(self):
        failures = []
        for i, ((pres, f), result) in enumerate(zip(self.batch, self.results)):
            if result is None:
                failures.append(f"reduction {i}: raised")
                continue
            rebuilt = self.apply_k(pres.dwork, result.certificate) + result.as_element(pres)
            if rebuilt != f:
                failures.append(f"reduction {i}: K(certificate) + normal form != input")
        return len(self.batch), failures


def make_reduce(prog, seed, workdir):
    return ReduceWorkload(prog, seed)


WORKLOADS = {
    "build": make_build,
    "deform": make_deform,
    "transport": make_transport,
    "verify": make_verify,
    "reduce": make_reduce,
}
