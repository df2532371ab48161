module radar/benchmark

go 1.24

require radar v0.0.0

replace radar => ../
