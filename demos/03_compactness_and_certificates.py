#!/usr/bin/env python3
"""Demo: compactness trends, certificates, and the seven-way equivalence.

The weight 1/(1+|phi|) gives a bounded operator whose essential-norm tail
climbs toward 1 (never compact); squaring the weight sends the tail to 0.
Certificates carry the per-depth evidence and an honest trend verdict.
"""

import treewco as tw
from treewco.io import canonical_json


def banner(text):
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def main():
    banner("BOUNDED BUT NOT COMPACT vs SQUARED WEIGHT")
    fx = tw.fixture_by_name("bounded-not-compact")
    op = fx.build(16)
    sq = tw.WeightedCompOp(
        tw.VertexFunction(op.tree, op.psi.values**2), op.phi
    )
    tail, tail_sq = tw.lip_ess_norm_profile(op), tw.lip_ess_norm_profile(sq)
    print("depth n :", [n for n in range(0, 16, 2)])
    print("tail    :", [round(tail[n][1], 3) for n in range(0, 16, 2)])
    print("tail^2  :", [round(tail_sq[n][1], 3) for n in range(0, 16, 2)])
    print("slopes  :",
          round(tw.tail_trend_slope(tail), 4),
          "vs",
          round(tw.tail_trend_slope(tail_sq), 4))

    banner("CERTIFICATES")
    for cert in tw.classify_operator(op)["lip"]:
        print(f"{cert.statement:<18} {cert.verdict}")
    print("-- squared weight --")
    sq_certs = tw.classify_operator(sq)["lip"]
    for cert in sq_certs:
        print(f"{cert.statement:<18} {cert.verdict}")

    banner("A CERTIFICATE IN FULL (JSON)")
    compact = next(c for c in sq_certs if c.statement == "Lip.Compact")
    print(canonical_json(compact.to_json()))

    banner("SEVEN-WAY EQUIVALENCE FOR UNIT WEIGHT")
    t = tw.zline(8)
    for name, phi in (
        ("identity (range grows)", tw.identity_map(t)),
        ("constant (finite range)", tw.constant_map(t, 0)),
        ("freeze beyond depth 3", tw.map_from_table(
            t, {v: t.ancestor_at_depth(v, min(3, t.depth_of(v))) for v in range(len(t))}
        )),
    ):
        cert = tw.seven_equivalences(phi)
        print(f"{name:<28} -> {cert.verdict:<6} items all agree:",
              len(set(cert.witnesses["items"].values())) == 1)


if __name__ == "__main__":
    main()
