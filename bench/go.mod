module mobidx/bench

go 1.22

require mobidx v0.0.0

replace mobidx => ../
