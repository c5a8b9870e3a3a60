package ratiorules_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// facadeNames is the facade's exported top-level surface, sorted. The
// mining knobs are the Opt setters over Options, the one vocabulary
// every entry point takes; a name added here is new public API.
var facadeNames = []string{
	"AttrNames", "BandedFill", "BatchFill", "BatchForecast", "BatchOptions",
	"BatchOutliers", "CategoricalEncoder", "CellOutlier", "Clean", "ColAvgs",
	"CoreMiner", "DefaultBatchWorkers", "DefaultEnergy", "DefaultOutlierSigma",
	"EMConfig", "EMResult", "Energy", "ErrBadHole", "ErrBadRules",
	"ErrNoResiduals", "ErrNoRules", "ErrTooFewRows", "ErrWidth", "Estimator",
	"Field", "Fill", "FillJob", "FillResult", "FixedK", "ForecastJob",
	"ForecastResult", "GE1", "GECurve", "GEh", "GEhConfig", "Hole", "IsHole",
	"LoadRules", "LoadStreamMiner", "Matrix", "MatrixFromRows", "MaxK", "Mine",
	"MineRows", "MineStream", "Miner", "NewCategoricalEncoder", "NewColAvgs",
	"NewMatrix", "NewMatrixSource", "NewSparseVec", "NewStreamMiner", "Opt",
	"Options", "OutlierJob", "OutlierResult", "RobustConfig", "RobustResult",
	"RowOutlier", "RowSource", "Rules", "Scenario", "Sigma", "SparseRowSource",
	"SparseVec", "SparsifyRow", "StreamMiner", "WeightedRow",
	"WeightedRowSource", "WeightedSliceSource", "Workers",
}

// optionsFields are the fields of Options, in declaration order.
var optionsFields = []string{"Energy", "FixedK", "MaxK", "AttrNames", "Workers", "Sigma"}

// TestFacadeSurface parses the package's non-test files and compares
// the exported top-level names and the Options fields with the pinned
// lists, so a second option vocabulary cannot return unnoticed.
func TestFacadeSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names, fields []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						names = append(names, s.Name.Name)
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.Name == "Options" {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									fields = append(fields, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	if !slices.Equal(names, facadeNames) {
		t.Errorf("exported names changed:\n got  %v\n want %v", names, facadeNames)
	}
	if !slices.Equal(fields, optionsFields) {
		t.Errorf("Options fields = %v, want %v", fields, optionsFields)
	}
}
