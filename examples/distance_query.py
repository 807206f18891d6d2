"""Proposition 2: one program, two meanings.

The six-rule program below computes the *distance query*
D(x, y, x*, y*) = "some path x->y is no longer than every path x*->y*"
under inflationary semantics, but computes TC(x,y) & !TC(x*,y*) when the
very same rules are read as a stratified program.

Run with:  python examples/distance_query.py
"""

from repro.core.semantics import inflationary_semantics, stratified_semantics
from repro.graphs import generators as gg, graph_to_database
from repro.graphs.algorithms import distance_query
from repro.queries import distance_program

program = distance_program()
print("Proposition 2's program (carrier S3):")
print(program)

graph = gg.path(5)  # 1 -> 2 -> 3 -> 4 -> 5
db = graph_to_database(graph)

inflationary = inflationary_semantics(program, db)
stratified = stratified_semantics(program, db)

print("\non the path 1->2->3->4->5:")
print("  inflationary S3 size:", len(inflationary.carrier_value))
print("  stratified   S3 size:", len(stratified.relation("S3")))
print("  answers differ:", inflationary.carrier_value.tuples
      != stratified.relation("S3").tuples)

# Cross-check the inflationary answer against BFS ground truth.
assert inflationary.carrier_value.tuples == distance_query(graph)
print("  inflationary answer == BFS distance query: True")

# Spot checks, in distance terms.
print("\nspot checks (dist(1,2)=1, dist(1,5)=4, dist(2,5)=3):")
for x, y, xs, ys in [(1, 2, 1, 5), (1, 5, 1, 2), (1, 5, 2, 5), (2, 5, 1, 5)]:
    in_inf = (x, y, xs, ys) in inflationary.carrier_value
    in_strat = (x, y, xs, ys) in stratified.relation("S3")
    print(
        "  D(%d,%d | %d,%d): inflationary=%-5s stratified=%-5s"
        % (x, y, xs, ys, in_inf, in_strat)
    )

# The stratified reading only asks "TC and not TC*":
print("\nstratified keeps (1,5,5,1) since 1 reaches 5 and 5 never reaches 1:",
      (1, 5, 5, 1) in stratified.relation("S3"))
print("inflationary agrees here (4 <= infinity):",
      (1, 5, 5, 1) in inflationary.carrier_value)
print("but (1,5,1,2) separates them: dist 4 > 1, TC(1,2) holds:")
print("  inflationary:", (1, 5, 1, 2) in inflationary.carrier_value,
      " stratified:", (1, 5, 1, 2) in stratified.relation("S3"))
