"""Discrete spectrum below threshold, computed two ways and compared.

Route one counts the eigenvalues of the branch Jacobi operators with
certified Sturm counts, which walk each infinite operator's rows only as
far as a certificate needs, and bisects on those counts until every
root is alone in its bracket.  Anderson-Bjorck steps on the secular
function of the boundary three-term recurrence then polish each root,
and counts on either side of it certify the result.  Route two, the
cross-check, finds the zero of the secular function at a fixed depth of
256 rows next to each eigenvalue.  Both routes read the secular
function, so their agreement checks the polish against a second depth,
while the counts alone decide every eigenvalue.  The check against the
operator count bound (|direct count - sum of branch counts| <= small
constant) closes the loop.
"""

from __future__ import annotations

from speclab import (
    CouplingParams,
    discrete2_check,
    h_eigenvalues_below_threshold,
)

POINTS = [
    CouplingParams(1.0, 0.0),
    CouplingParams(1.0, 1.0),
    CouplingParams(1.4, 1.0),
    CouplingParams(1.0, 4.0),
    CouplingParams(0.8, 2.0, 0.3 + 0.4j),
]


def main() -> None:
    for p in POINTS:
        res = h_eigenvalues_below_threshold(p)
        print(f"\n(alpha, beta, gamma) = ({p.alpha}, {p.beta}, {p.gamma})")
        print(f"  branch weights         : {[round(m, 6) for m in res.branch_mus]}")
        print(f"  eigenvalues below 1/2  : {[f'{e:.12f}' for e in res.eigenvalues]}")
        print(f"  per-branch counts      : {list(res.per_branch_counts)}")
        print(f"  two-method agreement   : {res.method_agreement:.2e}")
        chk = discrete2_check(p)
        print(
            f"  count bound            : |{chk.lhs} - {chk.rhs}| <= {chk.bound}"
            f"  ->  {'ok' if chk.ok else 'VIOLATED'}"
        )


if __name__ == "__main__":
    main()
