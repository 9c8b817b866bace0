module pipefut/benchmark

go 1.24

require pipefut v0.0.0

replace pipefut => ../
