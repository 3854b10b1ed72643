package lint

import "testing"

// BenchmarkLintRepo measures one full edlint pass over the surrounding
// module: locate the standard library's export data, parse + type-check
// every package (tests included) and run the complete default analyzer
// suite. This is the cost of the self-check
// test and of the verify.sh edlint gate; its trajectory is recorded in
// BENCH_lint.json and budgeted by the edlint-bench stage of verify.sh.
func BenchmarkLintRepo(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatalf("locating module root: %v", err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mod, err := LoadModule(root)
		if err != nil {
			b.Fatalf("loading module: %v", err)
		}
		if diags := Run(mod, DefaultAnalyzers(), nil); len(diags) > 0 {
			b.Fatalf("repository is not lint-clean: %d finding(s), first: %s", len(diags), diags[0])
		}
	}
}

// BenchmarkAnalyzeOnly isolates the analyzer suite from the load: the
// module is parsed and type-checked once, then each iteration reruns
// every default analyzer. The gap to BenchmarkLintRepo is the
// parse/type-check share of the lint budget.
func BenchmarkAnalyzeOnly(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatalf("locating module root: %v", err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(mod, DefaultAnalyzers(), nil); len(diags) > 0 {
			b.Fatalf("repository is not lint-clean: %d finding(s), first: %s", len(diags), diags[0])
		}
	}
}
