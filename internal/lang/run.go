package lang

import (
	"fmt"
	"math"

	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// Program is a compiled parallel function: the AST plus the access summary
// the compiler derived from it.
type Program struct {
	Fn      *Func
	Summary cstar.AccessSummary
}

// Compile parses and analyzes a parallel function.
func Compile(src string) (*Program, error) {
	fn, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{Fn: fn, Summary: Analyze(fn)}, nil
}

// env supplies an invocation's data access primitives; the interpreter is
// shared between the simulated-machine execution and the sequential
// reference, which differ only in these hooks.
type env struct {
	read   func(i, j int) float32
	write  func(i, j int, v float32)
	reduce func(name string, op RedOp, v float64)
	i, j   int
	rows   int
	cols   int
	lets   map[string]float64
}

// runtimeError reports an execution fault (subscript out of range); the
// interpreter panics with it and Instance.Run converts it back to an
// error.
type runtimeError struct{ msg string }

func (e runtimeError) Error() string { return e.msg }

func (ev *env) index(e expr, limit int, what string) int {
	if e == nil {
		return 0 // the missing axis of a 1-D aggregate
	}
	v := ev.eval(e)
	idx := int(v)
	if float64(idx) != v {
		panic(runtimeError{fmt.Sprintf("non-integer %s subscript %v", what, v)})
	}
	if idx < 0 || idx >= limit {
		panic(runtimeError{fmt.Sprintf("%s subscript %d out of range [0,%d)", what, idx, limit)})
	}
	return idx
}

func (ev *env) eval(e expr) float64 {
	switch v := e.(type) {
	case *numLit:
		return v.v
	case *varRef:
		switch v.name {
		case "i":
			return float64(ev.i)
		case "j":
			return float64(ev.j)
		case "rows":
			return float64(ev.rows)
		case "cols":
			return float64(ev.cols)
		default:
			return ev.lets[v.name]
		}
	case *negOp:
		return -ev.eval(v.e)
	case *absCall:
		return math.Abs(ev.eval(v.e))
	case *aggRef:
		i := ev.index(v.ix, ev.rows, "row")
		j := ev.index(v.jx, ev.cols, "column")
		return float64(ev.read(i, j))
	case *binOp:
		switch v.op {
		case "&&":
			if ev.eval(v.l) != 0 && ev.eval(v.r) != 0 {
				return 1
			}
			return 0
		case "||":
			if ev.eval(v.l) != 0 || ev.eval(v.r) != 0 {
				return 1
			}
			return 0
		}
		l, r := ev.eval(v.l), ev.eval(v.r)
		switch v.op {
		case "+":
			return l + r
		case "-":
			return l - r
		case "*":
			return l * r
		case "/":
			return l / r
		case "==":
			return b2f(l == r)
		case "!=":
			return b2f(l != r)
		case "<":
			return b2f(l < r)
		case "<=":
			return b2f(l <= r)
		case ">":
			return b2f(l > r)
		case ">=":
			return b2f(l >= r)
		}
	}
	panic(runtimeError{"unreachable expression"})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (ev *env) exec(ss []stmt) {
	for _, s := range ss {
		switch v := s.(type) {
		case *letStmt:
			ev.lets[v.name] = ev.eval(v.e)
		case *storeStmt:
			i := ev.index(v.ix, ev.rows, "row")
			j := ev.index(v.jx, ev.cols, "column")
			ev.write(i, j, float32(ev.eval(v.e)))
		case *redStmt:
			ev.reduce(v.name, v.op, ev.eval(v.e))
		case *ifStmt:
			if ev.eval(v.cond) != 0 {
				ev.exec(v.then)
			} else {
				ev.exec(v.els)
			}
		}
	}
}

// Instance binds a compiled program to a simulated machine: the aggregate
// (and its shadow copy under the Copying baseline), the reduction
// variables, and the lowering plan.
type Instance struct {
	Prog *Program
	Sys  cstar.System
	Plan cstar.Plan
	M    *tempest.Machine

	A    *cstar.MatrixF32
	old  *cstar.MatrixF32
	reds map[string]*cstar.ReduceF64

	// swap records the Copying-mode strategy: true = pointer swap (valid
	// because every invocation writes its element), false = conservative
	// copy phase before each iteration.
	swap bool

	// err is the first invocation fault; once set, remaining invocations
	// become no-ops so every node still executes the same barrier
	// schedule and the machine quiesces cleanly.
	err error

	rows, cols int
}

// Err returns the first runtime error of the last run, if any.
func (inst *Instance) Err() error { return inst.err }

// Instantiate allocates the program's data on m (call before m.Freeze).
// For rank-1 programs the aggregate has rows elements and cols is ignored
// (stored as an n x 1 matrix, one element per block, like the paper's
// per-vertex records).
func (p *Program) Instantiate(m *tempest.Machine, rows, cols int, sys cstar.System) *Instance {
	if p.Fn.Rank == 1 {
		cols = 1
	}
	inst := &Instance{
		Prog: p, Sys: sys, M: m, rows: rows, cols: cols,
		Plan: cstar.Lower(p.Summary, sys),
		reds: map[string]*cstar.ReduceF64{},
	}
	inst.A = cstar.NewMatrixF32(m, p.Fn.Agg, rows, cols, cstar.DataPolicy(sys), memsys.Interleaved)
	if inst.Plan.Mode == cstar.ModeCopying {
		inst.old = cstar.NewMatrixF32(m, p.Fn.Agg+".old", rows, cols, cstar.DataPolicy(cstar.Copying), memsys.Interleaved)
		inst.swap = AlwaysWritesOwn(p.Fn)
	}
	for _, rd := range p.Fn.Reductions {
		var op cstar.ReduceOp
		switch rd.Op {
		case RedMin:
			op = cstar.OpMin
		case RedMax:
			op = cstar.OpMax
		default:
			op = cstar.OpSum
		}
		inst.reds[rd.Name] = cstar.NewReduceF64Op(m, rd.Name, sys, op)
	}
	return inst
}

// Init seeds the aggregate's home image (call after m.Freeze, before Run)
// and resets reduction variables to their operator identities.
func (inst *Instance) Init(f func(i, j int) float32) {
	for i := 0; i < inst.rows; i++ {
		for j := 0; j < inst.cols; j++ {
			v := f(i, j)
			inst.A.Poke(i, j, v)
			if inst.old != nil {
				inst.old.Poke(i, j, v)
			}
		}
	}
	for _, rd := range inst.Prog.Fn.Reductions {
		inst.reds[rd.Name].Init(identityOf(rd.Op))
	}
}

func identityOf(op RedOp) float64 {
	switch op {
	case RedMin:
		return math.Inf(1)
	case RedMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

// RunNode executes iters applications of the parallel function over the
// aggregate's interior as node n's share of the SPMD program.  Every node
// of the machine must call it with identical arguments.  It returns the
// first runtime error (out-of-range subscript) once the whole machine has
// quiesced: a fault turns the remaining invocations on every node into
// no-ops rather than deserting the barrier schedule, so no node deadlocks.
func (inst *Instance) RunNode(n *tempest.Node, iters int, sched cstar.Scheduler) error {
	inner := inst.cols - 2
	total := (inst.rows - 2) * inner
	if inst.Prog.Fn.Rank == 1 {
		inner = 1
		total = inst.rows - 2
	}
	cur, prev := inst.A, inst.old
	ev := &env{rows: inst.rows, cols: inst.cols, lets: map[string]float64{}}
	ev.reduce = func(name string, _ RedOp, v float64) {
		inst.reds[name].Add(n, v)
	}
	invoke := func(body []stmt) {
		if inst.err != nil {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				if re, ok := r.(runtimeError); ok {
					inst.err = fmt.Errorf("lang: %s at invocation (%d,%d)", re.msg, ev.i, ev.j)
					return
				}
				panic(r)
			}
		}()
		ev.exec(body)
	}
	for it := 0; it < iters; it++ {
		if inst.Plan.Mode == cstar.ModeCopying && !inst.swap {
			// Conservative lowering for functions that may leave
			// elements unwritten: copy the whole aggregate into the
			// old image before computing, exactly the per-iteration
			// copy the paper's compiler emits when it cannot prove
			// every element is refreshed.
			lo, hi := sched.Range(n.ID, n.M.P, it, inst.rows)
			prev.CopyRows(n, cur, lo, hi)
			n.Barrier()
		}
		src := cur
		if inst.Plan.Mode == cstar.ModeCopying {
			src = prev
		}
		ev.read = func(i, j int) float32 { return src.Get(n, i, j) }
		ev.write = func(i, j int, v float32) { cur.Set(n, i, j, v) }
		cstar.ForEach(n, sched, inst.Plan, it, total, func(idx int) {
			if inst.Prog.Fn.Rank == 1 {
				ev.i, ev.j = 1+idx, 0
			} else {
				ev.i = 1 + idx/inner
				ev.j = 1 + idx%inner
			}
			clear(ev.lets)
			invoke(inst.Prog.Fn.Body)
			n.Compute(2)
		})
		if len(inst.Prog.Fn.Reductions) > 0 {
			for _, rd := range inst.Prog.Fn.Reductions {
				inst.reds[rd.Name].Reduce(n)
				// Each parallel call contributes its own values once:
				// clear this node's partial accumulator for the next
				// call (Copying mode; a no-op under LCM, where the
				// flushed private copies already carried exactly this
				// phase's contributions).
				inst.reds[rd.Name].ResetPartials(n)
			}
		} else {
			cstar.EndParallel(n)
		}
		if inst.Plan.Mode == cstar.ModeCopying && inst.swap {
			cur, prev = prev, cur
		}
	}
	return inst.Err()
}

// Result returns the matrix holding the final values after iters
// iterations (accounting for the Copying mode's buffer parity under the
// swap strategy), for home-image inspection with Peek.
func (inst *Instance) Result(iters int) *cstar.MatrixF32 {
	if inst.Plan.Mode == cstar.ModeCopying && inst.swap && iters%2 == 0 {
		return inst.old
	}
	return inst.A
}

// Reduction returns the named reduction variable.
func (inst *Instance) Reduction(name string) *cstar.ReduceF64 { return inst.reds[name] }

// SeqApply runs the program sequentially with two-copy C** semantics in
// plain Go memory: the reference implementation for verification.  It
// returns the final mesh and the reduction results.  Rank-1 programs use
// cols = 1 (matching Instantiate).
func (p *Program) SeqApply(rows, cols, iters int, init func(i, j int) float32) ([][]float32, map[string]float64) {
	if p.Fn.Rank == 1 {
		cols = 1
	}
	cur := make([][]float32, rows)
	old := make([][]float32, rows)
	for i := range cur {
		cur[i] = make([]float32, cols)
		old[i] = make([]float32, cols)
		for j := range cur[i] {
			cur[i][j] = init(i, j)
			old[i][j] = init(i, j)
		}
	}
	reds := map[string]float64{}
	for _, rd := range p.Fn.Reductions {
		reds[rd.Name] = identityOf(rd.Op)
	}
	ev := &env{rows: rows, cols: cols, lets: map[string]float64{}}
	ev.reduce = func(name string, op RedOp, v float64) {
		switch op {
		case RedMin:
			reds[name] = math.Min(reds[name], v)
		case RedMax:
			reds[name] = math.Max(reds[name], v)
		default:
			reds[name] += v
		}
	}
	for it := 0; it < iters; it++ {
		cur, old = old, cur
		ev.read = func(i, j int) float32 { return old[i][j] }
		ev.write = func(i, j int, v float32) { cur[i][j] = v }
		for i := 0; i < rows; i++ {
			copy(cur[i], old[i])
		}
		if p.Fn.Rank == 1 {
			for i := 1; i < rows-1; i++ {
				ev.i, ev.j = i, 0
				clear(ev.lets)
				ev.exec(p.Fn.Body)
			}
		} else {
			for i := 1; i < rows-1; i++ {
				for j := 1; j < cols-1; j++ {
					ev.i, ev.j = i, j
					clear(ev.lets)
					ev.exec(p.Fn.Body)
				}
			}
		}
	}
	return cur, reds
}
