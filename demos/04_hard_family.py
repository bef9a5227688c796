"""The family where matched-vertices covering almost quadruples the optimum.

Take an apex joined to n rail tops, hang a rail from each top, and pair
the rail bottoms with n/2 rungs.  The maximum matching has n edges, so
covering with all matched vertices costs 2n, while the apex plus the
rungs already cover everything with n/2 + 1 elements.  The certificate
algorithm lands at n: factor 2 - o(1), never worse, and the gap to the
matched-vertices baseline widens toward 4x as n grows.
"""

from fractions import Fraction

from tcover import approx_total_cover, exact_total_cover, matched_vertices_cover
from tcover.instances import hard_instance

print(f"{'n':>4} {'optimum':>8} {'algorithm':>10} {'baseline':>9} "
      f"{'alg/opt':>8} {'base/opt':>9}")
for n in (4, 8, 12, 50, 100, 400):
    g = hard_instance(n)
    optimum = n // 2 + 1
    if g.n + len(g.edges) <= 40:  # confirm the small ones with the exact oracle
        assert exact_total_cover(g, max_elements=40).size == optimum
    result = approx_total_cover(g)
    alg = len(result.cover)
    base = len(matched_vertices_cover(result.matching))
    print(f"{n:>4} {optimum:>8} {alg:>10} {base:>9} "
          f"{float(Fraction(alg, optimum)):>8.4f} {float(Fraction(base, optimum)):>9.4f}")

print("\nalg/opt climbs toward 2 and base/opt toward 4 as n grows;")
print("the certified ratio printed by `tcover solve` stays at exactly 2 here,")
print("because the lower bound ceil(n/2) is what the certificate can see.")
