module themis/bench

go 1.24

require themis v0.0.0

replace themis => ../
