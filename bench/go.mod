module fannr/bench

go 1.22

require fannr v0.0.0

replace fannr => ../
