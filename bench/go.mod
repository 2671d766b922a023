module topkmon/bench

go 1.24

require topkmon v0.0.0

replace topkmon => ../
