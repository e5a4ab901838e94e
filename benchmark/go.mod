module viewjoin/benchmark

go 1.22

require viewjoin v0.0.0

replace viewjoin => ../
