"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

A pass is one complete job set of a workload, run with every legoverlap
cache cleared first, so each pass pays the cold-cache cost a fresh CLI
invocation pays.  ``run`` returns per-operation latencies and the outputs;
``check`` runs after the timed phase and returns the number of failed
operations with a summary of what it found.  Library functions are looked
up on the package at the start of each pass, so a traced pass calls the
tracing wrappers and an untraced pass the originals.
"""

from __future__ import annotations

import csv
import io
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

clock = time.perf_counter_ns


@dataclass
class Pass:
    """One timed pass: wall time, per-operation latencies and outputs."""

    wall_s: float
    latencies_ns: list[float]
    outputs: list
    route_ns: dict[str, int]
    op_count: int


@dataclass(frozen=True)
class Raised:
    """Output of an operation that raised; the checks count it as failed."""

    error: str


def _call(fn, *args):
    """fn(*args), or Raised if it raises: a check's reference value may fail too."""
    try:
        return fn(*args)
    except Exception as exc:
        return Raised(repr(exc))


def _set_op(tracer, op_id: int) -> None:
    if tracer is not None:
        tracer.op_id = op_id


# --------------------------------------------------------------------------
# verify: closed form against the oracle on the acceptance grid, plus the
# three endpoint routes on the criterion-04 triangle, in a seeded order.

VERIFY_N, VERIFY_Q, VERIFY_K = 18, 6, 6
ENDPOINT_N = 40


class Verify:
    name = "verify"

    def inputs(self, seed: int) -> list[tuple[int, ...]]:
        ops: list[tuple[int, ...]] = [
            (n, m, q, k)
            for n in range(VERIFY_N + 1)
            for m in range(VERIFY_N + 1)
            for q in range(VERIFY_Q + 1)
            for k in range(VERIFY_K + 1)
        ]
        ops += [(n, k) for n in range(ENDPOINT_N + 1) for k in range(n + 4)]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, lo, ops, tracer, workdir: Path) -> Pass:
        general, oracle = lo.overlap_general, lo.overlap_oracle
        routes = (lo.boundary_factorial, lo.boundary_recurrence, lo.boundary_genfunc)
        ns = {"closed_form": 0, "oracle": 0, "boundary_factorial": 0, "boundary_recurrence": 0, "boundary_genfunc": 0}
        latencies, outputs = [], []
        start = clock()
        for op_id, op in enumerate(ops):
            _set_op(tracer, op_id)
            t0 = clock()
            try:
                if len(op) == 4:
                    closed = general(*op).value
                    t1 = clock()
                    out = (closed, oracle(*op))
                    t2 = clock()
                    ns["closed_form"] += t1 - t0
                    ns["oracle"] += t2 - t1
                else:
                    a = routes[0](*op)
                    t1 = clock()
                    b = routes[1](*op)
                    t3 = clock()
                    out = (a, b, routes[2](*op))
                    t2 = clock()
                    ns["boundary_factorial"] += t1 - t0
                    ns["boundary_recurrence"] += t3 - t1
                    ns["boundary_genfunc"] += t2 - t3
            except Exception as exc:  # a raising operation fails; the run goes on
                out, t2 = Raised(repr(exc)), clock()
            outputs.append(out)
            latencies.append(t2 - t0)
        return Pass((clock() - start) / 1e9, latencies, outputs, ns, len(ops))

    def check(self, lo, ops, outputs) -> tuple[int, dict]:
        failed = raised = mismatches = disagreements = non_integer = 0
        vanishing = {reason.value: 0 for reason in lo.VanishingReason}
        for op, out in zip(ops, outputs):
            if isinstance(out, Raised):
                raised += 1
                failed += 1
            elif len(op) == 4:
                closed, brute = out
                vanishing[lo.classify_vanishing(*op, closed).value] += 1
                if op[2] + op[3] >= 1 and closed.denominator != 1:
                    non_integer += 1
                if closed != brute:
                    mismatches += 1
                    failed += 1
            elif not out[0] == out[1] == out[2]:
                disagreements += 1
                failed += 1
        return failed, {
            "raised": raised,
            "mismatches": mismatches,
            "boundary_disagreements": disagreements,
            "non_integer_q_plus_k_ge_1": non_integer,
            "vanishing": vanishing,
        }


# --------------------------------------------------------------------------
# gram: Galerkin precomputation through the CLI (write path) and
# GramMatrix.from_json (read path); one job also writes CSV.

GRAM_JOBS = ((0, 1), (1, 1), (3, 3), (6, 6))
GRAM_CSV_JOB = (3, 3)
GRAM_N = 200
GRAM_ORACLE_N = 30
GRAM_ORACLE_SAMPLE = 40  # entries per job compared with the oracle


class Gram:
    name = "gram"

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        sample = {
            job: sorted({(rng.randint(0, GRAM_ORACLE_N), rng.randint(0, GRAM_ORACLE_N)) for _ in range(GRAM_ORACLE_SAMPLE)})
            for job in GRAM_JOBS
        }
        return {"jobs": GRAM_JOBS, "n_max": GRAM_N, "csv_job": GRAM_CSV_JOB, "oracle_sample": sample}

    def run(self, lo, inp, tracer, workdir: Path) -> Pass:
        main, from_json = lo.cli.main, lo.GramMatrix.from_json
        n_max = inp["n_max"]
        entries = (n_max + 1) ** 2
        ns = {"cli_gram": 0, "read_json": 0, "write_csv": 0}
        latencies, outputs = [], []
        start = clock()
        for op_id, (q, k) in enumerate(inp["jobs"]):
            _set_op(tracer, op_id)
            json_path = workdir / f"gram-q{q}-k{k}.json"
            argv = ["gram", "--q", str(q), "--k", str(k), "--n-max", str(n_max), "--m-max", str(n_max)]
            t0 = clock()
            try:
                code = main(argv + ["--format", "json", "--out", str(json_path)])
                t1 = clock()
                text = json_path.read_text(encoding="utf-8")
                matrix = from_json(text)
                t2 = clock()
                csv_text = None
                if (q, k) == inp["csv_job"]:
                    csv_text = matrix.to_csv()
                    (workdir / f"gram-q{q}-k{k}.csv").write_text(csv_text, encoding="utf-8")
                t3 = clock()
                ns["cli_gram"] += t1 - t0
                ns["read_json"] += t2 - t1
                ns["write_csv"] += t3 - t2
                out = (code, text, csv_text)
            except Exception as exc:  # a raising job fails all its entries; the run goes on
                out, t3 = Raised(repr(exc)), clock()
            latencies.append((t3 - t0) / entries)
            outputs.append(out)
        return Pass((clock() - start) / 1e9, latencies, outputs, ns, entries * len(inp["jobs"]))

    def check(self, lo, inp, outputs) -> tuple[int, dict]:
        n_max = inp["n_max"]
        failed = 0
        per_job = {}
        json_bytes = csv_bytes = 0
        everything = {(n, m) for n in range(n_max + 1) for m in range(n_max + 1)}
        for (q, k), out in zip(inp["jobs"], outputs):
            if isinstance(out, Raised) or out[0] != 0:
                failed += len(everything)
                error = out.error if isinstance(out, Raised) else f"exit code {out[0]}"
                per_job[f"q{q}k{k}"] = {"failed_entries": len(everything), "error": error}
                continue
            code, text, csv_text = out
            reference = _call(lo.build_gram_matrix, q, k, n_max, n_max)
            if isinstance(reference, Raised):
                failed += len(everything)
                per_job[f"q{q}k{k}"] = {"failed_entries": len(everything), "error": reference.error}
                continue
            matrix = lo.GramMatrix.from_json(text)
            json_bytes += len(text.encode("utf-8"))
            bad: set[tuple[int, int]] = set()
            if (matrix.q, matrix.k, matrix.n_max, matrix.m_max) != (q, k, n_max, n_max):
                bad = set(everything)
            else:
                for n, (got, want) in enumerate(zip(matrix.entries, reference.entries)):
                    bad.update((n, m) for m, (a, b) in enumerate(zip(got, want)) if a != b)
                if len(matrix.entries) != n_max + 1 or any(len(row) != n_max + 1 for row in matrix.entries):
                    bad.add((-1, -1))
            if csv_text is not None:
                csv_bytes += len(csv_text.encode("utf-8"))
                rows = list(csv.reader(io.StringIO(csv_text)))
                if rows[0] != ["n\\m"] + [str(m) for m in range(n_max + 1)] or len(rows) != n_max + 2:
                    bad.add((-1, -1))
                for n, row in enumerate(rows[1:]):
                    if row[0] != str(n) or len(row) != n_max + 2:
                        bad.add((n, -1))
                        continue
                    bad.update((n, m) for m, cell in enumerate(row[1:]) if not _parses_to(cell, reference.entries[n][m]))
            oracle_bad = [(n, m) for n, m in inp["oracle_sample"][(q, k)] if reference.entries[n][m] != _call(lo.overlap_oracle, n, m, q, k)]
            bad.update(oracle_bad)
            failed += len(bad)
            per_job[f"q{q}k{k}"] = {"failed_entries": len(bad), "oracle_checked": len(inp["oracle_sample"][(q, k)]), "oracle_mismatches": len(oracle_bad)}
        return failed, {"json_bytes": json_bytes, "csv_bytes": csv_bytes, "jobs": per_job}


def _parses_to(cell: str, value: Fraction) -> bool:
    try:
        return Fraction(cell) == value
    except (ValueError, ZeroDivisionError):
        return False


# --------------------------------------------------------------------------
# highdeg: seeded point queries at large degree; only the closed-form
# endpoint ladder runs.

HIGHDEG_N = (500, 5000)
HIGHDEG_OFFSET = (-50, 200)  # m - n, half-open
HIGHDEG_K = 40  # q + k runs over 1..40
HIGHDEG_PER_K = 3
HIGHDEG_DESIGN_SEED = 20251017
HIGHDEG_SWAP_EVERY = 4  # every 4th query is recomputed through the swap symmetry


class Highdeg:
    name = "highdeg"

    def inputs(self, seed: int) -> list[tuple[int, int, int, int]]:
        """Stratified queries: each q+k in 1..40 three times, n, q and m-n from strata.

        n, the share of q+k taken by q, and the offset m-n are each cut into
        120 equal strata.  A fixed design permutation pairs the strata with
        the queries, and the workload seed draws each value inside its
        stratum and the query order.  The cost of a query follows n and the
        ladder length, so every seed gets the same mix of cheap and dear
        queries; a plain random sample of this size moves the median latency
        by about 15% from seed to seed.
        """
        count = HIGHDEG_K * HIGHDEG_PER_K
        design = random.Random(HIGHDEG_DESIGN_SEED)
        strata = []
        for _ in range(3):
            order = list(range(count))
            design.shuffle(order)
            strata.append(order)
        rng = random.Random(seed)
        lo_n, hi_n = HIGHDEG_N
        lo_off, hi_off = HIGHDEG_OFFSET
        queries = []
        for i in range(count):
            total = 1 + i % HIGHDEG_K
            n = lo_n + int((strata[0][i] + rng.random()) * (hi_n - lo_n + 1) / count)
            q = min(total, int((strata[1][i] + rng.random()) * (total + 1) / count))
            offset = lo_off + int((strata[2][i] + rng.random()) * (hi_off - lo_off) / count)
            if (offset + total) % 2:  # the parity filter passes only for even n+m+q+k
                offset += 1 if offset + 1 < hi_off else -1
            queries.append((n, n + offset, q, total - q))
        rng.shuffle(queries)
        return queries

    def run(self, lo, queries, tracer, workdir: Path) -> Pass:
        general = lo.overlap_general
        latencies, outputs = [], []
        start = clock()
        for op_id, query in enumerate(queries):
            _set_op(tracer, op_id)
            t0 = clock()
            try:
                value = general(*query).value
            except Exception as exc:  # a raising operation fails; the run goes on
                value = Raised(repr(exc))
            latencies.append(clock() - t0)
            outputs.append(value)
        wall = clock() - start
        return Pass(wall / 1e9, latencies, outputs, {"closed_form": sum(latencies)}, len(queries))

    def check(self, lo, queries, outputs) -> tuple[int, dict]:
        failed = raised = non_integer = swap_mismatches = 0
        vanishing = {reason.value: 0 for reason in lo.VanishingReason}
        for i, ((n, m, q, k), value) in enumerate(zip(queries, outputs)):
            if isinstance(value, Raised):
                raised += 1
                failed += 1
                continue
            vanishing[lo.classify_vanishing(n, m, q, k, value).value] += 1
            bad = value.denominator != 1
            non_integer += bad
            if i % HIGHDEG_SWAP_EVERY == 0 and _call(lambda: lo.overlap_general(m, n, k, q).value) != value:
                swap_mismatches += 1
                bad = True
            failed += bad
        return failed, {
            "raised": raised,
            "non_integer": non_integer,
            "swap_checked": len(range(0, len(queries), HIGHDEG_SWAP_EVERY)),
            "swap_mismatches": swap_mismatches,
            "vanishing": vanishing,
        }


# --------------------------------------------------------------------------
# quadcheck: Gauss-Legendre quadrature against the closed form on the
# criterion-09 grid (unfiltered) and a seeded higher-degree sample.

QUAD_GRID_N = 12
QUAD_GRID_D = 4
QUAD_SAMPLE = 48
QUAD_SAMPLE_N = (13, 64)  # n + m <= 128 = MAX_ORDER with order n + m
ZERO_TOL = 1e-12
REL_TOL = 1e-9


class Quadcheck:
    name = "quadcheck"

    def inputs(self, seed: int) -> list[tuple[int, int, int, int, int]]:
        grid = [
            (n, m, q, k, max(1, n + m))
            for n in range(QUAD_GRID_N + 1)
            for m in range(QUAD_GRID_N + 1)
            for q in range(min(QUAD_GRID_D, n) + 1)
            for k in range(min(QUAD_GRID_D, m) + 1)
        ]
        rng = random.Random(seed)
        sample = []
        for _ in range(QUAD_SAMPLE):
            n, m = rng.randint(*QUAD_SAMPLE_N), rng.randint(*QUAD_SAMPLE_N)
            sample.append((n, m, rng.randint(0, QUAD_GRID_D), rng.randint(0, QUAD_GRID_D), n + m))
        return grid + sample

    def run(self, lo, tuples, tracer, workdir: Path) -> Pass:
        quad = lo.overlap_quadrature
        latencies, outputs = [], []
        start = clock()
        for op_id, args in enumerate(tuples):
            _set_op(tracer, op_id)
            t0 = clock()
            try:
                approx = quad(*args)
            except Exception as exc:  # a raising operation fails; the run goes on
                approx = Raised(repr(exc))
            latencies.append(clock() - t0)
            outputs.append(approx)
        wall = clock() - start
        return Pass(wall / 1e9, latencies, outputs, {"quadrature": sum(latencies)}, len(tuples))

    def check(self, lo, tuples, outputs) -> tuple[int, dict]:
        worst = {"zero_even": 0.0, "zero_odd": 0.0, "nonzero_rel": 0.0}
        raised = zero_violations = nonzero_violations = grid_zero_violations = 0
        grid_size = len(tuples) - QUAD_SAMPLE
        for i, ((n, m, q, k, _), approx) in enumerate(zip(tuples, outputs)):
            if isinstance(approx, Raised):
                raised += 1
                continue
            exact = _call(lambda: lo.overlap_general(n, m, q, k).value)
            if isinstance(exact, Raised):
                raised += 1
            elif exact == 0:
                err = abs(approx)
                key = "zero_odd" if (n + m + q + k) % 2 else "zero_even"
                worst[key] = max(worst[key], err)
                if err > ZERO_TOL:
                    zero_violations += 1
                    grid_zero_violations += i < grid_size
            else:
                rel = abs(approx - float(exact)) / abs(float(exact))
                worst["nonzero_rel"] = max(worst["nonzero_rel"], rel)
                nonzero_violations += rel > REL_TOL
        return raised + zero_violations + nonzero_violations, {
            "raised": raised,
            "zero_violations": zero_violations,
            "grid_zero_violations": grid_zero_violations,
            "nonzero_violations": nonzero_violations,
            "worst_zero_err_even": worst["zero_even"],
            "worst_zero_err_odd": worst["zero_odd"],
            "worst_nonzero_rel_err": worst["nonzero_rel"],
        }


WORKLOADS = {w.name: w for w in (Verify(), Gram(), Highdeg(), Quadcheck())}

