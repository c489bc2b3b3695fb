#!/usr/bin/env python3
"""Demo: closed-form operator norms confirmed by brute-force search.

Three cross-checks: the sup-norm identity on the bounded functions against
exhaustive sign patterns, the point-evaluation norm max(1, |w|) against
the extreme points of the Lipschitz unit ball, and the Lipschitz-to-bounded
sandwich with the norm attained by one unit-ball function.
"""

import numpy as np

import treewco as tw


def banner(text):
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def main():
    rng = np.random.default_rng(42)

    banner("OPERATOR NORM ON THE BOUNDED FUNCTIONS = sup |psi|")
    tree = tw.zline(5)
    for trial in range(3):
        op = tw.WeightedCompOp(
            tw.random_function(tree, rng, scale=2.0), tw.random_map(tree, rng)
        )
        res = tw.norm_oracle_linf(op)
        print(
            f"trial {trial}: formula {tw.linf_op_norm(op):.6f}, "
            f"exhaustive search over {res.search_size} sign patterns {res.value:.6f}"
        )

    banner("POINT EVALUATION ON THE LIPSCHITZ UNIT BALL = max(1, |w|)")
    t6 = tw.zline(6)
    for label in (0, 1, 3, 6, -4):
        w = t6.vertex_of(label)
        extreme = tw.point_eval_lip_norm(t6, w, "exhaustive")
        print(
            f"w = {label:>2}: {extreme.search_size} extreme points {extreme.value:.6f}, "
            f"expected {max(1, abs(label))}"
        )
    print("the best extreme point is f = 1 at depth <= 1 and otherwise the")
    print("ramp with increments of one sign along the root path")

    banner("SANDWICH FOR THE LIPSCHITZ-TO-BOUNDED NORM")
    homog = tw.homogeneous(2, 3)
    for trial in range(3):
        op = tw.WeightedCompOp(
            tw.random_function(homog, rng, scale=2.0), tw.random_map(homog, rng)
        )
        lo, up = tw.lip_bounds(op)
        mid = tw.lip_exact_norm(op)
        oracle = tw.norm_oracle_lip(op)
        print(
            f"trial {trial}: {lo:.6f} <= {mid:.6f} <= {up:.6f}; "
            f"oracle {oracle.value:.6f} (attained witness, {oracle.witness['rule']})"
        )

    banner("ESSENTIAL NORM TAILS (REPORTED AS PROFILES, NEVER LIMITS)")
    psi = 1.0 / (1.0 + homog.depth.astype(float))
    op = tw.WeightedCompOp(tw.VertexFunction(homog, psi), tw.identity_map(homog))
    print("weight 1/(1+|v|), identity map:")
    print("  bounded-space tails:", [round(v, 4) for _, v in tw.linf_ess_norm_profile(op)])
    print("  Lipschitz tails:   ", [round(v, 4) for _, v in tw.lip_ess_norm_profile(op)])


if __name__ == "__main__":
    main()
