module marnet/benchmark

go 1.22

require marnet v0.0.0

replace marnet => ../
