module omega/benchmark

go 1.24

require omega v0.0.0

replace omega => ../
