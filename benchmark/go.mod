module starmagic/benchmark

go 1.22

require starmagic v0.0.0

replace starmagic => ../
