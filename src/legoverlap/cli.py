"""Command-line interface.

Subcommands: overlap (single integral), gram (matrix to JSON/CSV), verify
(closed form vs oracle sweep), boundary (endpoint derivative values), and
quad-check (Gauss-Legendre quadrature cross-check).  Exit codes: 0 success,
1 verification or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .boundary import boundary_factorial, boundary_genfunc, boundary_recurrence
from .gram import build_gram_matrix, format_exact
from .oracle import overlap_oracle
from .overlap import VanishingReason, classify_vanishing, overlap_general
from .quadrature import overlap_quadrature


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _cmd_overlap(args: argparse.Namespace) -> int:
    if args.method == "oracle":
        value = overlap_oracle(args.n, args.m, args.q, args.k)
    else:
        value = overlap_general(args.n, args.m, args.q, args.k).value
    reason = classify_vanishing(args.n, args.m, args.q, args.k, value)
    if reason is VanishingReason.NONE:
        print(format_exact(value))
    else:
        print(f"{format_exact(value)} ({reason.value})")
    return 0


def _cmd_gram(args: argparse.Namespace) -> int:
    matrix = build_gram_matrix(args.q, args.k, args.n_max, args.m_max)
    text = matrix.to_csv() if args.format == "csv" else matrix.to_json() + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    comparisons = 0
    mismatches = 0
    non_integer = 0
    for n in range(args.n_max + 1):
        for m in range(args.n_max + 1):
            for q in range(args.q_max + 1):
                for k in range(args.k_max + 1):
                    closed = overlap_general(n, m, q, k).value
                    brute = overlap_oracle(n, m, q, k)
                    comparisons += 1
                    if closed != brute:
                        mismatches += 1
                        print(
                            f"MISMATCH n={n} m={m} q={q} k={k}: "
                            f"closed form {format_exact(closed)}, oracle {format_exact(brute)}"
                        )
                    if q + k >= 1 and closed.denominator != 1:
                        non_integer += 1
    print(f"{comparisons} comparisons, {mismatches} mismatches")
    print(f"non-integer values with q+k >= 1: {non_integer}")
    return 0 if mismatches == 0 else 1


def _cmd_boundary(args: argparse.Namespace) -> int:
    evaluators = {
        "factorial": boundary_factorial,
        "recurrence": boundary_recurrence,
        "genfunc": boundary_genfunc,
    }
    if args.method != "all":
        print(format_exact(evaluators[args.method](args.n, args.k)))
        return 0
    values = {name: fn(args.n, args.k) for name, fn in evaluators.items()}
    for name, value in values.items():
        print(f"{name}: {format_exact(value)}")
    agree = len(set(values.values())) == 1
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


def _cmd_quad_check(args: argparse.Namespace) -> int:
    degree = (args.n - args.q) + (args.m - args.k)
    # The smallest rule exact for the integrand: 2*order - 1 >= degree.
    order = args.nodes if args.nodes is not None else max(1, (degree + 2) // 2)
    try:
        approx = overlap_quadrature(args.n, args.m, args.q, args.k, order)
    except ValueError as exc:
        # Without --nodes the only order the rule rejects is a default past its cap.
        default = "" if args.nodes is not None else (
            f"; {order} is the default, the smallest exact order for degree {degree},"
            " and --nodes chooses another order"
        )
        print(f"error: {exc}{default}", file=sys.stderr)
        return 2
    exact = overlap_general(args.n, args.m, args.q, args.k).value
    error = abs(approx - float(exact))
    tolerance = 1e-12 if exact == 0 else 1e-9 * max(1.0, abs(float(exact)))
    print(f"quadrature ({order} nodes): {approx!r}")
    print(f"exact: {format_exact(exact)}")
    print(f"abs error: {error:.3e}")
    ok = error <= tolerance
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legoverlap",
        description="Exact overlap integrals of differentiated Legendre polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overlap", help="evaluate one integral of P_n^(q) P_m^(k)")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--q", type=_nonneg, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--method", choices=("closed-form", "oracle"), default="closed-form")
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("gram", help="emit the overlap matrix for fixed (q, k)")
    p.add_argument("--q", type=_nonneg, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--n-max", type=_nonneg, required=True)
    p.add_argument("--m-max", type=_nonneg, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("verify", help="compare closed forms against the brute-force oracle")
    p.add_argument("--n-max", type=_nonneg, required=True)
    p.add_argument("--q-max", type=_nonneg, required=True)
    p.add_argument("--k-max", type=_nonneg, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("boundary", help="endpoint value of the k-th derivative at x = 1")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument(
        "--method",
        choices=("factorial", "recurrence", "genfunc", "all"),
        default="factorial",
    )
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("quad-check", help="cross-check one integral by quadrature")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--q", type=_nonneg, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument(
        "--nodes",
        type=_positive,
        default=None,
        help="rule order (default: the smallest exact one, max(1, ceil((deg+1)/2)) "
        "with deg = (n-q)+(m-k))",
    )
    p.set_defaults(func=_cmd_quad_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
