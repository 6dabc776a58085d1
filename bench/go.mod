module clockwork/bench

go 1.22

require clockwork v0.0.0

replace clockwork => ../
