module dcprof/benchmark

go 1.22

require dcprof v0.0.0

replace dcprof => ../
