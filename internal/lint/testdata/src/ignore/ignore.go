// Package ignore is a fixture for the suppression machinery: well-formed
// directives silence findings, malformed ones are findings themselves.
package ignore

func suppressedAbove(a, b float64) float64 {
	//edlint:ignore divguard fixture: callers guarantee a nonzero divisor
	return a / b // ok: suppressed by the directive above
}

func suppressedTrailing(a, b float64) float64 {
	return a / b //edlint:ignore divguard fixture: trailing form
}

func missingReason(a, b float64) float64 {
	//edlint:ignore divguard
	return a / b // want: the directive lacks a reason, so it suppresses nothing
}

func unknownAnalyzer(a, b float64) float64 {
	//edlint:ignore nosuchanalyzer the analyzer name is wrong
	return a / b // want: unknown analyzer, so the finding survives
}

func bareDirective(a, b float64) float64 {
	//edlint:ignore
	return a / b // want: empty directive
}

func wrongAnalyzerName(a, b float64) float64 {
	//edlint:ignore logdomain reason aimed at the wrong analyzer
	return a / b // want: directive names logdomain, finding is divguard
}
