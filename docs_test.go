package tracep_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryPackageHasDoc is the repo's doc-presence gate (run by CI): every
// package in the module — the root API, server, client, every internal
// package and every command — must carry a package-level godoc
// comment on at least one of its non-test files.
func TestEveryPackageHasDoc(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return fs.SkipDir
		}

		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path,
			func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") },
			parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			documented := false
			var files []string
			for fname, f := range pkg.Files {
				files = append(files, fname)
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package doc comment on any of %v",
					name, path, files)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsCoverCluster gates the prose documentation for the durable
// store and the cluster coordinator: the sections (and the operational
// surface they promise — flags, endpoints, metrics) must exist in
// README.md and ARCHITECTURE.md. A future change that renames a flag or
// drops a section fails here instead of silently orphaning the docs.
func TestDocsCoverCluster(t *testing.T) {
	checks := map[string][]string{
		"README.md": {
			"## Running a cluster",
			"-store",
			"-coordinator",
			"-worker",
			"-steal-after",
			"cluster_rows_stolen_total",
			"jobs_resumed_total",
		},
		"ARCHITECTURE.md": {
			"## Durability & cluster",
			"server/store",
			"server/cluster",
			"clustertest",
			"TPSTORE1",
			"FuzzStoreLog",
			"ErrCorruptStore",
			"work-stealing",
		},
	}
	for file, wants := range checks {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		text := string(data)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s: missing %q", file, want)
			}
		}
	}
}

// TestDocsCoverMemoryLayout gates the engine-memory-layout prose: the
// ARCHITECTURE.md section must keep describing the structures the engine
// actually uses — the hot/cold instruction banks, the paged rename table,
// the flat subscriber and ARB tables, batched event delivery and the
// reference-counted trace pool — and the README's performance methodology
// must keep naming what measures speed: CI's per-commit BENCH_ci.json
// trend gate and tracepbench's paired workload runs.
func TestDocsCoverMemoryLayout(t *testing.T) {
	checks := map[string][]string{
		"ARCHITECTURE.md": {
			"## Engine memory layout",
			"instCold",
			"Hot/cold instruction banks",
			"paged, gen-checked rename table",
			"subTab",
			"arbTable",
			"Batched event delivery",
			"drainWakes",
			"Reference-counted persistent traces",
			"Retain",
		},
		"README.md": {
			"Performance methodology",
			"BENCH_ci.json",
			"tracepbench",
			"benchdiff",
		},
	}
	for file, wants := range checks {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		text := string(data)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s: missing %q", file, want)
			}
		}
	}
}

// TestDocsCoverStatistics gates the prose for the seeds/CI layer the same
// way: the statistical-sweep sections, the scenario-grid flags,
// and the consolidated tolerance flag must stay documented.
func TestDocsCoverStatistics(t *testing.T) {
	checks := map[string][]string{
		"README.md": {
			"### Seeds: replicated cells with confidence intervals",
			"### Scenario grids with error bars: -scenarios and -spec",
			"Sweep.Seeds",
			"-tolerances",
			"allow-missing",
			"interval-aware",
			"-spec",
			"-seeds",
			"-scenario-seeds",
		},
		"ARCHITECTURE.md": {
			"## Statistical sweeps",
			"Student-t",
			"CellStats",
			"Replicates(",
			"95% confidence intervals are disjoint",
			"tracep.Scenarios()",
			"-scenarios",
			"TestSeededSweepOverTheWire",
		},
	}
	for file, wants := range checks {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		text := string(data)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s: missing %q", file, want)
			}
		}
	}
}
