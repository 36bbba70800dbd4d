module lcm

// Building needs Go 1.23: internal/sched/run.go imports iter and says so
// with a go1.23 build constraint, which is also what keeps `go vet` quiet
// about it.  The line below stays at 1.22 because a module's go line may not
// exceed that of a module that requires it, and bench/go.mod (go 1.22,
// `replace lcm => ../`) is only edited by a benchmark PR; ROADMAP item 4
// bumps both together and drops the constraint.
go 1.22
