package hotpath

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wantAnnotated is the agreed hot-path set: the serving loop's
// admission/decode path with its decode price table, the ALISA
// scheduler's per-step placement query,
// the wait-queue heap ops, rolling-window and
// sketch ingestion, the cluster turn loop, the prefix-cache probe/
// insert/evict machinery, the gateway's per-event fan-out, and the
// accuracy path's per-step work: the oracle's layer loop, SWA and H2O
// selection, and the live decoder's step with its vector-matrix products.
// The test fails in BOTH directions — a lost
// annotation shrinks coverage silently, and a new annotation is a
// contract change that belongs in this list (and in DESIGN.md §12).
var wantAnnotated = []string{
	"internal/attention.(*selScratch).selectTopPlusLocal",
	"internal/cluster.(*Cluster).advance",
	"internal/costmodel.(*DecodePrices).Time",
	"internal/gateway.(*Bridge).fanout",
	"internal/gateway.(*Bridge).onToken",
	"internal/gateway.(*Subscriber).publish",
	"internal/kvcache.(*TokenStore).CountsBefore",
	"internal/metrics.(*Window).Observe",
	"internal/model.(*Decoder).DecodeStep",
	"internal/model.(*Decoder).multiHeadAttend",
	"internal/oracle.evalLayerFast",
	"internal/metrics/sketch.(*Sketch).Observe",
	"internal/metrics/sketch.(*Sketch).compact",
	"internal/metrics/sketch.(*Sketch).compress",
	"internal/sched.(*alisa).Step",
	"internal/serve.(*reqQueue).Pop",
	"internal/serve.(*reqQueue).Push",
	"internal/serve.(*reqQueue).Requeue",
	"internal/serve.(*reqQueue).push",
	"internal/serve.(*reqQueue).siftDown",
	"internal/serve.(*scaleDigests).observe",
	"internal/serve.(*server).admit",
	"internal/serve.(*server).cacheAcquire",
	"internal/serve.(*server).cacheRelease",
	"internal/serve.(*server).cacheRelieve",
	"internal/serve.(*server).complete",
	"internal/serve.(*server).iterate",
	"internal/serve.(*server).preempt",
	"internal/serve.(*server).seqKVBytes",
	"internal/serve.(*server).tryAdmit",
	"internal/serve.(*server).turn",
	"internal/serve.(*totals).add",
	"internal/serve/prefix.(*Index).EvictOne",
	"internal/serve/prefix.(*Index).Insert",
	"internal/serve/prefix.(*Index).Lease",
	"internal/serve/prefix.(*Index).Probe",
	"internal/serve/prefix.(*Index).Release",
	"internal/serve/prefix.(*Index).afford",
	"internal/serve/prefix.(*Index).evict",
	"internal/serve/prefix.(*Index).findChild",
	"internal/serve/prefix.(*Index).lruPushTail",
	"internal/serve/prefix.(*Index).lruReplace",
	"internal/serve/prefix.(*Index).lruUnlink",
	"internal/serve/prefix.(*Index).matchedBlocks",
	"internal/serve/prefix.(*Index).split",
	"internal/serve/prefix.cmpBlock",
	"internal/tensor.VecMatInto",
	"internal/tensor.VecMatTInto",
}

// TestAnnotationInventory scans every non-test source file in the repo
// for //alisa:hotpath directives and pins the annotated set.
func TestAnnotationInventory(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	var got []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !IsAnnotated(fn) {
				continue
			}
			got = append(got, filepath.ToSlash(rel)+"."+funcKey(fn))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)

	want := append([]string(nil), wantAnnotated...)
	sort.Strings(want)
	for _, w := range want {
		if !contains(got, w) {
			t.Errorf("hot-path annotation missing: %s (the set must not silently shrink)", w)
		}
	}
	for _, g := range got {
		if !contains(want, g) {
			t.Errorf("unlisted //alisa:hotpath annotation: %s (add it to wantAnnotated and DESIGN.md §12)", g)
		}
	}
}

// funcKey renders a FuncDecl as (*Recv).Name or Name.
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + id.Name + ")." + fn.Name.Name
	}
	return fn.Name.Name
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
