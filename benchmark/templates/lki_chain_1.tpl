# chain, 3 edges: executives at the end of a two-hop recommendation
# chain whose far end works at a large organisation.
template lki_chain_1
node u_o Person title = "Executive"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp >= 8
node u3 Org employees >= $x3
edge u1 u_o recommend
edge u2 u1 recommend ?e1
edge u2 u3 worksAt
ladder $x1 8 18
output u_o
