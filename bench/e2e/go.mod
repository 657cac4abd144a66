module advnet/bench/e2e

go 1.22

require advnet v0.0.0

replace advnet => ../..
