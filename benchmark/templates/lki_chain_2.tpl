# chain, 4 edges: recruiters who start a three-hop outgoing chain.
template lki_chain_2
node u_o Person title = "Recruiter"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp >= $x2
node u3 Person
node u4 Org employees >= 100
edge u_o u1 recommend
edge u1 u2 recommend ?e1
edge u2 u3 coreview
edge u3 u4 worksAt
ladder $x1 8 18
ladder $x2 8 18
output u_o
