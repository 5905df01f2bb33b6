module idnlab/bench

go 1.22

require idnlab v0.0.0

replace idnlab => ../
