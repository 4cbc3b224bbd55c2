package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHold guards morcd's liveness: the server's mutexes protect the job
// table, per-job state, and metrics, all of which sit on the simulator's
// synchronous epoch-publishing path. A blocking operation performed while
// one of those mutexes is held lets one slow SSE client (or a full
// channel) stall every worker. The pass scans internal/server for
// operations that can block for unbounded time inside a critical
// section:
//
//   - channel sends and receives (unless inside a select that has a
//     default case, which makes them non-blocking);
//   - select statements without a default case;
//   - http.Flusher-style Flush calls;
//   - Write/WriteString/ReadFrom calls and fmt.Fprint* where the
//     destination's static type is an interface (io.Writer,
//     http.ResponseWriter, net.Conn) — writes to concrete in-memory
//     buffers (*bytes.Buffer, *strings.Builder) are fine;
//   - sync.WaitGroup.Wait and time.Sleep;
//   - network round-trips: any method on net/http.Client (Do, Get,
//     Post, ...). The cluster coordinator's registry lives or dies by
//     this one — a probe or dispatch performed under the registry mutex
//     would let one dead peer freeze the whole cluster. The enforced
//     idiom is snapshot-under-lock, round-trip outside, record back
//     under lock.
//
// The pass scans internal/server, internal/cluster, and internal/obs
// (the span store's lock sits on every instrumented request path).
//
// The analysis is per-function and flow-approximate. walkHeld, the
// held-lock walk lockorder shares, tracks the locks held at each node: a
// critical section opens at x.Lock()/x.RLock() (or is function-wide
// after `defer x.Unlock()`) and closes at the matching Unlock in the
// same block; nested blocks inherit a copy of the held set.
type LockHold struct{}

func (*LockHold) Name() string { return "lockhold" }
func (*LockHold) Doc() string {
	return "forbid blocking operations (channel ops, Flush, interface writes, network round-trips, Wait, Sleep) while a mutex is held in internal/server, internal/cluster and internal/obs"
}

func (*LockHold) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "lockhold" || u.InPaths(prog, "internal/server", "internal/cluster", "internal/obs")
}

func (l *LockHold) Run(prog *Program, u *Unit) []Finding {
	var out []Finding
	report := func(f Finding) { out = append(out, f) }
	key := func(call *ast.CallExpr) (string, bool, bool) {
		recv, acquire, ok := lockOp(u.Info, call)
		if !ok {
			return "", false, false
		}
		return types.ExprString(recv), acquire, true
	}
	visit := func(n ast.Node, held map[string]bool) {
		if len(held) > 0 {
			checkBlocking(u.Info, n, strings.Join(heldList(held), ", "), report)
		}
	}
	for _, f := range u.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				walkHeld(fd.Body, key, visit)
				continue
			}
			// Function literals at package level.
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					walkHeld(lit.Body, key, visit)
					return false
				}
				return true
			})
		}
	}
	return out
}

// lockOp recognizes x.Lock/x.RLock (acquire) and x.Unlock/x.RUnlock on
// a sync.Mutex or sync.RWMutex, returning the receiver x.
func lockOp(info *types.Info, call *ast.CallExpr) (recv ast.Expr, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	recv = ast.Unparen(sel.X)
	t := info.Types[recv].Type
	if t == nil || !isNamed(t, "sync", "Mutex") && !isNamed(t, "sync", "RWMutex") {
		return nil, false, false
	}
	return recv, acquire, true
}

// walkHeld walks a function body in execution order and calls visit on
// every node with the set of locks held there. key recognizes a call
// that takes (acquire) or releases a lock and names the lock; lockhold
// names locks by expression, lockorder by class.
//
// The set is flow-approximate. A lock or unlock call statement changes
// it after the call itself is visited, and the change carries through
// the rest of the block; `defer x.Unlock()` leaves the lock held for the
// rest of the function. Every statement header (init, condition, tag,
// post, range expression) is visited under the set in effect there, and
// each branch of an if, for, range, switch or select starts from a copy
// of it. A select's communication clauses are part of the select
// statement, visited as one blocking point. Function literals run later
// and deferred and go calls run elsewhere, so they are walked with no
// locks held.
func walkHeld(body *ast.BlockStmt, key func(*ast.CallExpr) (name string, acquire, ok bool), visit func(ast.Node, map[string]bool)) {
	var list func([]ast.Stmt, map[string]bool)
	var stmt func(ast.Stmt, map[string]bool)
	tree := func(n ast.Node, held map[string]bool) {
		ast.Inspect(n, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case nil:
				return false
			case *ast.FuncLit:
				walkHeld(nd.Body, key, visit)
				return false
			}
			visit(nd, held)
			return true
		})
	}
	clauses := func(body *ast.BlockStmt, held map[string]bool) {
		for _, c := range body.List {
			switch c := c.(type) {
			case *ast.CaseClause:
				for _, e := range c.List {
					tree(e, held)
				}
				list(c.Body, copyHeld(held))
			case *ast.CommClause:
				list(c.Body, copyHeld(held))
			}
		}
	}
	stmt = func(st ast.Stmt, held map[string]bool) {
		switch s := st.(type) {
		case nil:
		case *ast.ExprStmt:
			tree(s, held)
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if name, acquire, ok := key(call); ok && acquire {
					held[name] = true
				} else if ok {
					delete(held, name)
				}
			}
		case *ast.DeferStmt, *ast.GoStmt:
			tree(s, map[string]bool{})
		case *ast.BlockStmt:
			list(s.List, held)
		case *ast.LabeledStmt:
			stmt(s.Stmt, held)
		case *ast.IfStmt:
			visit(s, held)
			stmt(s.Init, held)
			tree(s.Cond, held)
			list(s.Body.List, copyHeld(held))
			stmt(s.Else, copyHeld(held))
		case *ast.ForStmt:
			visit(s, held)
			stmt(s.Init, held)
			tree(s.Cond, held)
			inner := copyHeld(held)
			list(s.Body.List, inner)
			stmt(s.Post, inner)
		case *ast.RangeStmt:
			visit(s, held)
			tree(s.Key, held)
			tree(s.Value, held)
			tree(s.X, held)
			list(s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			visit(s, held)
			stmt(s.Init, held)
			tree(s.Tag, held)
			clauses(s.Body, held)
		case *ast.TypeSwitchStmt:
			visit(s, held)
			stmt(s.Init, held)
			stmt(s.Assign, held)
			clauses(s.Body, held)
		case *ast.SelectStmt:
			visit(s, held)
			clauses(s.Body, held)
		default:
			tree(s, held)
		}
	}
	list = func(l []ast.Stmt, held map[string]bool) {
		for _, st := range l {
			stmt(st, held)
		}
	}
	list(body.List, map[string]bool{})
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// heldList returns the held-lock set sorted, so diagnostics and
// ordering edges are deterministic (nil when nothing is held).
func heldList(held map[string]bool) []string {
	if len(held) == 0 {
		return nil
	}
	out := make([]string, 0, len(held))
	for k := range held {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkBlocking reports the operation at n if it can block for
// unbounded time; hn names the locks held there.
func checkBlocking(info *types.Info, n ast.Node, hn string, report func(Finding)) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if t := info.Types[n.X].Type; t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				report(Finding{Pos: n.Pos(), Message: fmt.Sprintf(
					"ranges over channel %s while holding %s; the loop blocks until the channel closes", types.ExprString(n.X), hn)})
			}
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return // a default case makes every clause non-blocking
			}
		}
		report(Finding{Pos: n.Pos(), Message: "select with no default case blocks while holding " + hn})
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			report(Finding{Pos: n.Pos(), Message: fmt.Sprintf(
				"receives from %s while holding %s", types.ExprString(n.X), hn)})
		}
	case *ast.SendStmt:
		report(Finding{Pos: n.Pos(), Message: fmt.Sprintf(
			"sends on %s while holding %s; a full channel stalls the critical section", types.ExprString(n.Chan), hn)})
	case *ast.CallExpr:
		checkBlockingCall(info, n, hn, report)
	}
}

// writeMethodNames are io-style methods that push bytes toward their
// destination.
var writeMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteTo": true, "ReadFrom": true,
}

// checkBlockingCall flags calls that can block for unbounded time.
func checkBlockingCall(info *types.Info, call *ast.CallExpr, hn string, report func(Finding)) {
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil {
			if fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
				report(Finding{Pos: call.Pos(), Message: "sleeps while holding " + hn})
				return
			}
			// fmt.Fprint* writing to an interface-typed destination.
			if fn.Pkg().Path() == "fmt" && len(call.Args) > 0 {
				switch fn.Name() {
				case "Fprint", "Fprintf", "Fprintln":
					if t := info.Types[call.Args[0]].Type; isInterface(t) {
						report(Finding{Pos: call.Pos(), Message: fmt.Sprintf(
							"fmt.%s writes to an interface-typed destination (%s) while holding %s; render into a bytes.Buffer and write after unlocking",
							fn.Name(), types.ExprString(call.Args[0]), hn)})
					}
					return
				}
			}
			return
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return
	}
	recvT := selection.Recv()
	name := sel.Sel.Name
	switch {
	case name == "Flush":
		report(Finding{Pos: call.Pos(), Message: fmt.Sprintf(
			"flushes %s while holding %s; a slow client stalls the critical section", types.ExprString(sel.X), hn)})
	case name == "Wait" && isNamed(recvT, "sync", "WaitGroup"):
		report(Finding{Pos: call.Pos(), Message: "waits on a sync.WaitGroup while holding " + hn})
	case isNamed(recvT, "net/http", "Client"):
		report(Finding{Pos: call.Pos(), Message: fmt.Sprintf(
			"performs an HTTP round-trip (%s.%s) while holding %s; snapshot under the lock, do the network call outside, record the outcome back under the lock",
			types.ExprString(sel.X), name, hn)})
	case writeMethodNames[name] && (isInterface(recvT) || isNamed(recvT, "net", "Conn")):
		report(Finding{Pos: call.Pos(), Message: fmt.Sprintf(
			"calls %s on interface-typed %s while holding %s; the destination may be a network connection — buffer under the lock, write after unlocking",
			name, types.ExprString(sel.X), hn)})
	}
}
