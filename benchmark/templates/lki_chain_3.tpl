# chain, 3 edges over co-review links: consultants in data.
template lki_chain_3
node u_o Person title = "Consultant", skill = "Data"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp <= $x2
node u3 Org employees >= 100
edge u_o u1 coreview
edge u1 u2 coreview ?e1
edge u1 u3 worksAt
ladder $x1 8 18
ladder $x2 22 10
output u_o
