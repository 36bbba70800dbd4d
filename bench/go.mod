// The benchmark is a module of its own so that the repository's build
// (go build ./... at the root) neither needs nor sees it.  The module
// path sits under lcm/ so that it may import lcm/internal/...
module lcm/bench

go 1.22

require lcm v0.0.0

replace lcm => ../
