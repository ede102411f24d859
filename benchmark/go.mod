module omg/benchmark

go 1.24

require omg v0.0.0

replace omg => ../
