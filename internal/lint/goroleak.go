// The goroleak rule: every goroutine in library code names its join.
// aeropack's concurrency is funnelled through internal/parallel
// precisely so the solver stack stays synchronous from the caller's
// point of view; a stray `go` whose lifetime nobody bounds outlives the
// request that spawned it, keeps captured matrices alive, and races with
// the next sweep's telemetry.
//
// The rule flags every `go` statement in a package under internal/.  A
// legitimate launch carries a `//lint:allow goroleak <how it is joined>`
// directive, and a test drives its owner and checks that the goroutine
// count returns to where it started.  The directive audit keeps the list
// honest: a directive whose `go` statement is gone is stale and fails
// the run.
package lint

import (
	"go/ast"
	"strings"
)

type goroleakRule struct{}

func init() { Register(goroleakRule{}) }

func (goroleakRule) Name() string { return "goroleak" }

func (goroleakRule) Doc() string {
	return "every go statement in internal/ carries a //lint:allow goroleak directive naming its join"
}

func (goroleakRule) Check(p *Package) []Finding {
	if !strings.Contains(p.ImportPath, "/internal/") {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, Finding{
					Pos:  p.Fset.Position(g.Pos()),
					Rule: "goroleak",
					Msg:  "goroutine started without a named join",
					Hint: "join it (WaitGroup, channel, Close/Stop) and name the join in //lint:allow goroleak <join>, or hand the work to internal/parallel",
				})
			}
			return true
		})
	}
	return out
}
