module github.com/tcppuzzles/tcppuzzles/bench

go 1.24.0

require github.com/tcppuzzles/tcppuzzles v0.0.0

replace github.com/tcppuzzles/tcppuzzles => ../
