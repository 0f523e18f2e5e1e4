module pushpull/benchmark

go 1.22

require pushpull v0.0.0

replace pushpull => ../
