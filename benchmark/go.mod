module sedna/benchmark

go 1.22

require sedna v0.0.0

replace sedna => ../
