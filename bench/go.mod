module fasp/bench

go 1.24

require fasp v0.0.0

replace fasp => ../
