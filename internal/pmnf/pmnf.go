// Package pmnf implements the Performance Model Normal Form used by
// Extra-P and Extra-Deep (Eq. 5/7 of the paper):
//
//	f(x₁,…,x_m) = c₀ + Σ_{k=1..h} c_k · Π_{l=1..m} x_l^{i_kl} · log₂^{j_kl}(x_l)
//
// A Function is a constant plus a sum of Terms; each Term is a coefficient
// times a product of per-parameter Factors carrying a polynomial exponent i
// and a log₂ exponent j. The package provides evaluation, human-readable
// rendering, and asymptotic-growth comparison used for bottleneck ranking
// (Section 3.1 of the paper).
package pmnf

import (
	"fmt"
	"math"
	"strings"

	"extradeep/internal/mathutil"
)

// Factor is one parameter's contribution x^i · log₂^j(x) within a term.
type Factor struct {
	// Param is the zero-based index of the parameter this factor applies to.
	Param int
	// PolyExp is the polynomial exponent i (may be fractional, e.g. 2/3).
	PolyExp float64
	// LogExp is the logarithmic exponent j.
	LogExp int
}

// Eval evaluates the factor at parameter value x.
// Values x ≤ 0 are outside the PMNF domain and yield NaN when a log factor
// is present or a fractional exponent is used.
func (f Factor) Eval(x float64) float64 {
	if x <= 0 {
		// Outside the PMNF domain: logs are undefined and fractional
		// exponents of non-positive bases have no real value. Surface an
		// explicit NaN instead of letting math.Pow produce one silently.
		if f.LogExp != 0 {
			return math.NaN()
		}
		if _, frac := math.Modf(f.PolyExp); frac != 0 {
			return math.NaN()
		}
	}
	v := 1.0
	if f.PolyExp != 0 {
		v = math.Pow(x, f.PolyExp)
	}
	if f.LogExp != 0 {
		l := mathutil.Log2(x)
		for k := 0; k < f.LogExp; k++ {
			v *= l
		}
	}
	return v
}

// IsConstant reports whether the factor is identically 1.
func (f Factor) IsConstant() bool { return f.PolyExp == 0 && f.LogExp == 0 }

// String renders the factor using the parameter placeholder name p, e.g.
// "x^(2/3)·log2(x)^2" for PolyExp=0.6667, LogExp=2.
func (f Factor) String() string { return f.Render("x") }

// Render renders the factor with an explicit parameter name.
func (f Factor) Render(name string) string {
	var parts []string
	if f.PolyExp != 0 {
		if f.PolyExp == 1 {
			parts = append(parts, name)
		} else {
			parts = append(parts, fmt.Sprintf("%s^%s", name, formatExponent(f.PolyExp)))
		}
	}
	if f.LogExp != 0 {
		if f.LogExp == 1 {
			parts = append(parts, fmt.Sprintf("log2(%s)", name))
		} else {
			parts = append(parts, fmt.Sprintf("log2(%s)^%d", name, f.LogExp))
		}
	}
	if len(parts) == 0 {
		return "1"
	}
	return strings.Join(parts, "*")
}

// formatExponent renders common rational exponents as fractions so that a
// model prints as x^(2/3) rather than x^0.6666666666666666.
func formatExponent(e float64) string {
	// Try denominators up to 4 (the exponent sets use quarters and thirds).
	for _, den := range []int{1, 2, 3, 4} {
		num := e * float64(den)
		if math.Abs(num-math.Round(num)) < 1e-9 {
			n := int(math.Round(num))
			if den == 1 {
				return fmt.Sprintf("%d", n)
			}
			return fmt.Sprintf("(%d/%d)", n, den)
		}
	}
	return fmt.Sprintf("%.4g", e)
}

// Term is a coefficient times a product of factors: c · Π x_l^{i_l}·log₂^{j_l}(x_l).
type Term struct {
	Coefficient float64
	Factors     []Factor
}

// Eval evaluates the term at the given parameter values. Parameters not
// referenced by any factor do not influence the result.
func (t Term) Eval(params []float64) float64 {
	v := t.Coefficient
	for _, f := range t.Factors {
		if f.Param < 0 || f.Param >= len(params) {
			return math.NaN()
		}
		v *= f.Eval(params[f.Param])
	}
	return v
}

// EvalBasis evaluates the term's basis (the product of factors without the
// coefficient), as needed when fitting coefficients by linear regression.
func (t Term) EvalBasis(params []float64) float64 {
	v := 1.0
	for _, f := range t.Factors {
		if f.Param < 0 || f.Param >= len(params) {
			return math.NaN()
		}
		v *= f.Eval(params[f.Param])
	}
	return v
}

// Render renders the term using the given parameter names; a nil or short
// names slice falls back to x1, x2, ….
func (t Term) Render(names []string) string {
	var parts []string
	for _, f := range t.Factors {
		if f.IsConstant() {
			continue
		}
		parts = append(parts, f.Render(paramName(names, f.Param)))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("%.4g", t.Coefficient)
	}
	return fmt.Sprintf("%.4g*%s", t.Coefficient, strings.Join(parts, "*"))
}

func paramName(names []string, i int) string {
	if i >= 0 && i < len(names) && names[i] != "" {
		return names[i]
	}
	return fmt.Sprintf("x%d", i+1)
}

// Function is a complete PMNF model: constant plus sum of terms.
// The zero value is the constant function 0.
type Function struct {
	Constant float64
	Terms    []Term
	// ParamNames optionally carries human-readable parameter names used
	// when rendering the function (e.g. "p" for the number of MPI ranks).
	ParamNames []string
}

// Constant returns a PMNF function that is identically c.
func ConstantFunction(c float64) *Function { return &Function{Constant: c} }

// Eval evaluates the model at the given parameter values.
func (fn *Function) Eval(params ...float64) float64 {
	v := fn.Constant
	for _, t := range fn.Terms {
		v += t.Eval(params)
	}
	return v
}

// EvalAt is Eval taking a slice, convenient when the arity is dynamic.
func (fn *Function) EvalAt(params []float64) float64 { return fn.Eval(params...) }

// String renders the function in the paper's style, e.g.
// "158.6 + 0.58*p^(2/3)*log2(p)^2".
func (fn *Function) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.4g", fn.Constant)
	for _, t := range fn.Terms {
		if t.Coefficient < 0 {
			neg := t
			neg.Coefficient = -neg.Coefficient
			b.WriteString(" - ")
			b.WriteString(neg.Render(fn.ParamNames))
		} else {
			b.WriteString(" + ")
			b.WriteString(t.Render(fn.ParamNames))
		}
	}
	return b.String()
}

// Growth describes the asymptotic growth of a function as a whole, used for
// ranking kernels by their scaling behaviour (Section 3.1). PolyDegree is
// the total polynomial degree of the dominant term (sum of i over all
// parameters) and LogDegree the total logarithmic degree.
type Growth struct {
	PolyDegree float64
	LogDegree  int
}

// Compare orders growths: -1 if g grows slower than h, 0 if equal, +1 if
// faster. Polynomial degree dominates; log degree breaks ties.
func (g Growth) Compare(h Growth) int {
	const eps = 1e-9
	switch {
	case g.PolyDegree < h.PolyDegree-eps:
		return -1
	case g.PolyDegree > h.PolyDegree+eps:
		return 1
	case g.LogDegree < h.LogDegree:
		return -1
	case g.LogDegree > h.LogDegree:
		return 1
	}
	return 0
}

// String renders the growth in Big-O notation, e.g. "O(x^2*log2(x))".
func (g Growth) String() string {
	if g.PolyDegree == 0 && g.LogDegree == 0 {
		return "O(1)"
	}
	f := Factor{PolyExp: g.PolyDegree, LogExp: g.LogDegree}
	return "O(" + f.Render("x") + ")"
}

// Growth returns the asymptotic growth of the function: the dominant
// (fastest-growing) term among terms with a non-negligible coefficient.
// A pure constant has growth O(1).
func (fn *Function) Growth() Growth {
	best := Growth{}
	for _, t := range fn.Terms {
		if math.Abs(t.Coefficient) < 1e-12 {
			continue
		}
		g := Growth{}
		for _, f := range t.Factors {
			g.PolyDegree += f.PolyExp
			g.LogDegree += f.LogExp
		}
		if g.Compare(best) > 0 {
			best = g
		}
	}
	return best
}
