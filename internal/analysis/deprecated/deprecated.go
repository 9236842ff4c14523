// Package deprecated forbids the repository's own packages from using
// its deprecated compatibility fields. The fields are inert and survive
// only because the separate benchmark module (voiceprint/perfbench)
// still names them; internally nothing may read or set them, or the
// compatibility surface can never be retired. Test files are exempt.
package deprecated

import (
	"go/ast"
	"go/types"
	"strings"

	"voiceprint/internal/analysis/vet"
)

// entry names one deprecated struct field and why it must not be used.
type entry struct {
	pkg  string // declaring package path
	recv string // declaring struct type name
	name string
	why  string
}

// table lists the deprecated internal fields. Extend it when
// deprecating; the declaring package itself is always exempt (it keeps
// the field).
var table = []entry{
	{
		pkg: "voiceprint/internal/core", recv: "MonitorConfig", name: "DisablePairCache",
		why: "it has no effect (the dirty-pair cache was removed)",
	},
	{
		pkg: "voiceprint/internal/service", recv: "Metrics", name: "PairsReusedDirty",
		why: "it always reads zero and is not exported (the dirty-pair cache was removed)",
	},
}

// Analyzer is the deprecated-internal checker.
var Analyzer = &vet.Analyzer{
	Name: "deprecated",
	Doc: "forbid internal packages from using our own deprecated fields\n\n" +
		"MonitorConfig.DisablePairCache and Metrics.PairsReusedDirty are inert " +
		"and survive only because the benchmark module names them.",
	AppliesTo: func(pkgPath string) bool {
		return pkgPath == "voiceprint" || strings.HasPrefix(pkgPath, "voiceprint/")
	},
	Run: run,
}

func run(pass *vet.Pass) error {
	self := pass.Pkg.Path()
	vet.WalkStack(pass.Files, func(n ast.Node, _ []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		// Fields are referenced by selection or as a composite-literal
		// key; both land in Uses.
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || !obj.IsField() || obj.Pkg() == nil || obj.Pkg().Path() == self {
			return true
		}
		for _, e := range table {
			if obj.Name() == e.name && obj.Pkg().Path() == e.pkg {
				pass.Reportf(id.Pos(), "%s.%s is deprecated for internal use: %s", e.recv, e.name, e.why)
			}
		}
		return true
	})
	return nil
}
